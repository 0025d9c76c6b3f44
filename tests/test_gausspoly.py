"""Operator algebra on Gaussian polynomials: family, Rodrigues, Hamiltonian."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sbhermite as sb
from sbhermite.errors import DimensionMismatch, MExponentMismatch, SymmetryViolation
from sbhermite.gausspoly import (
    _apply_block,
    _basis_array,
    _chain_plan,
    _chain_rows,
    _degree_of,
    _factorial_rows,
    _frame_ladder,
    _hamiltonian_rows,
    _in_frame,
    _kernel_plan,
    _rank,
    _row_distances,
    _unrank,
)
from sbhermite.integrals import _factorials
from sbhermite.transform import _intertwined_raising

from helpers import (
    SWAP2,
    assert_gp_close,
    bargmann_data,
    em_data,
    ghs_data,
    random_poly,
    reference_apply_op,
    reference_basis,
    reference_chain_plan,
    reference_coeff_distance,
    reference_kernel_plan,
)


def gp_const(n, M):
    return sb.GaussPoly(sb.PolyC.constant(n, 1.0), M)


class TestApplyOp:
    def test_plain_derivative_chain_rule(self):
        # d/dz on exp(-z^2/2) pulls down -z
        gp = gp_const(1, [[0.5]])
        op = sb.LinearDiffOp(np.eye(1), np.zeros((1, 1)))
        out = sb.apply_op(op, 0, gp)
        assert out.poly.terms == {(1,): -1.0}

    def test_annihilation_kills_ground_state(self):
        _, wd, gen = em_data(0.5)
        out = sb.apply_op(sb.annihilation_ops(gen.Q), 0, sb.ground_state(gen))
        assert out.poly.terms == {}

    def test_multiplication_shifts_monomial(self):
        gp = sb.GaussPoly(sb.PolyC.monomial((1,)), np.zeros((1, 1)))
        op = sb.LinearDiffOp(np.zeros((1, 1)), np.eye(1))
        out = sb.apply_op(op, 0, gp)
        assert out.poly.terms == {(2,): 1.0}

    def test_matches_termwise_reference(self):
        # d/dz_k z^a = a_k z^(a - e_k) and z_l z^a = z^(a + e_l), summed with
        # weights G[i, k] and H[i, l] - 2 (G M)[i, l]
        rng = np.random.default_rng(11)
        n = 3
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = cplx(n, n)
        op = sb.LinearDiffOp(cplx(n, n), cplx(n, n))
        gp = sb.GaussPoly(sb.PolyC(n, {a: cplx()[()] for a in sb.multi_indices(n, 3)}), m + m.T)
        h_eff = op.H - 2.0 * op.G @ gp.M
        for i in range(n):
            want = {}
            for a, c in gp.poly.terms.items():
                for k in range(n):
                    if a[k]:
                        key = tuple(e - (j == k) for j, e in enumerate(a))
                        want[key] = want.get(key, 0.0) + op.G[i, k] * a[k] * c
                    key = tuple(e + (j == k) for j, e in enumerate(a))
                    want[key] = want.get(key, 0.0) + h_eff[i, k] * c
            got = sb.apply_op(op, i, gp)
            assert set(got.poly.terms) == set(want)
            diff, scale = sb.coeff_distance(got, sb.GaussPoly(sb.PolyC(n, want), gp.M))
            assert diff <= 1e-14 * scale

    def test_degree_rises_by_at_most_one(self):
        rng = np.random.default_rng(0)
        _, wd, gen = ghs_data(0.5)
        gp = random_poly(2, 3, gen.Q, rng)
        out = sb.apply_op(sb.creation_ops(wd, gen), 1, gp)
        assert out.poly.degree() <= 4
        assert np.array_equal(out.M, gp.M)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_component_index_out_of_range_rejected(self, i):
        # a negative i must not wrap around to component n - 1
        _, wd, gen = ghs_data(0.5)
        with pytest.raises(DimensionMismatch, match="component index"):
            sb.apply_op(sb.creation_ops(wd, gen), i, sb.ground_state(gen))

    @pytest.mark.parametrize("i", [False, True, 1.0, np.float64(0.0), "0", None])
    def test_component_index_must_be_an_integer(self, i):
        # False selected no row of G and gave the zero function
        _, wd, gen = ghs_data(0.5)
        with pytest.raises(ValueError, match="component index must be an integer"):
            sb.apply_op(sb.creation_ops(wd, gen), i, sb.ground_state(gen))

    def test_component_index_of_any_integral_type(self):
        _, wd, gen = ghs_data(0.5)
        op, psi0 = sb.creation_ops(wd, gen), sb.ground_state(gen)
        want = sb.apply_op(op, 1, psi0)
        assert sb.apply_op(op, np.int64(1), psi0).poly.terms == want.poly.terms


class TestBlockKernel:
    """The block kernel against the term-by-term oracle of tests/helpers.py."""

    OPS = ("lowering", "raising", "xi", "intertwined")

    @staticmethod
    def random_block(rng, n, degree, rows):
        # magnitudes over 18 decades, about a fifth of the entries exactly 0,
        # so that tiny entries and exact zeros both reach the kernel
        shape = (rows, len(sb.multi_indices(n, degree)))
        mag = 10.0 ** rng.uniform(-18.0, 0.0, shape)
        block = mag * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        block[rng.random(shape) < 0.2] = 0.0
        return block

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        degree=st.integers(0, 6),
        kind=st.sampled_from(OPS),
        random_m=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dict_oracle(self, n, degree, kind, random_m, seed):
        rng = np.random.default_rng(seed)
        pt, wd, gen = sb.random_generator(n, rng)
        op = {
            "lowering": lambda: sb.annihilation_ops(gen.Q),
            "raising": lambda: sb.creation_ops(wd, gen),
            "xi": lambda: sb.xi_ops(gen),
            "intertwined": lambda: _intertwined_raising(pt),
        }[kind]()
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (m + m.T) if random_m else gen.Q
        rows = 4
        block = self.random_block(rng, n, degree, rows)
        comps = rng.integers(0, n, rows)  # a different component per row
        folded = _in_frame(op, M)
        # one operator per row
        out = _apply_block(folded.G[comps], folded.H[comps], block)
        # one result shape, the basis of degree + 1, also for the lowering
        # operators at Q, which are pure derivatives
        top = degree + 1
        assert out.shape == (rows, len(sb.multi_indices(n, top)))
        basis, out_basis = sb.multi_indices(n, degree), sb.multi_indices(n, top)
        for r in range(rows):
            terms = {a: c for a, c in zip(basis, block[r].tolist()) if c != 0}
            want = reference_apply_op(op, int(comps[r]), sb.GaussPoly(sb.PolyC(n, terms), M))
            got = {a: c for a, c in zip(out_basis, out[r].tolist()) if c != 0}
            assert set(got) == set(want.poly.terms), r
            scale = max((abs(c) for c in got.values()), default=0.0)
            assert all(abs(got[a] - c) <= 1e-15 * scale for a, c in want.poly.terms.items())
            # a row's result does not depend on the rows around it
            one = comps[r : r + 1]
            alone = _apply_block(folded.G[one], folded.H[one], block[r : r + 1])
            assert np.array_equal(alone[0], out[r]), r

    @staticmethod
    def assert_same_bits(got, want):
        # equal floats, and equal signs where they are zeros
        x, y = got.view(float), want.view(float)
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))

    @pytest.mark.parametrize("chunk", [None, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_operator_axis_equals_the_per_component_loop(self, n, chunk, monkeypatch):
        # one operator per row (the chains, the adjoint stage) against the
        # kernel applied to one row with one operator at a time.  The frame
        # lowering operators L^-T are triangular, so a term dead in one
        # operator is live in another.  With ``chunk`` the kernel takes the
        # rows in many passes.
        if chunk is not None:
            monkeypatch.setattr(sb.gausspoly, "_KERNEL_CHUNK", chunk)
        rng = np.random.default_rng(40 + n)
        _, wd, gen = sb.random_generator(n, rng)
        ladder = _frame_ladder(wd, gen, sb.make_moment_cache(wd, gen.Q))
        rows = 5
        for degree in range(7):
            block = self.random_block(rng, n, degree, rows)
            comps = rng.integers(0, n, rows)
            for op in ladder:
                per_row = _apply_block(op.G[comps], op.H[comps], block)
                for r in range(rows):
                    i = comps[r]
                    alone = _apply_block(op.G[i : i + 1], op.H[i : i + 1], block[r : r + 1])
                    self.assert_same_bits(per_row[r], alone[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_result_width_follows_live_terms(self, n):
        # over basis(n, d + 1) whichever terms are live: pure derivatives
        # (the first three cases) and zero operators too, whose result's
        # extra columns are exact zeros
        rng = np.random.default_rng(n)
        _, wd, gen = sb.random_generator(n, rng)
        zero = np.zeros((n, n))
        cases = [
            (sb.annihilation_ops(gen.Q), gen.Q),
            (sb.xi_ops(gen), zero),
            (sb.LinearDiffOp(zero, zero), gen.Q),
            (sb.annihilation_ops(gen.Q), gen.SQ),
            (sb.xi_ops(gen), gen.SQ),
            (sb.creation_ops(wd, gen), gen.Q),
            (sb.LinearDiffOp(zero, np.eye(n)), gen.Q),
        ]
        for degree in range(5):
            block = self.random_block(rng, n, degree, 3)
            comps = rng.integers(0, n, 3)
            for k, (op, M) in enumerate(cases):
                folded = _in_frame(op, M)
                out = _apply_block(folded.G[comps], folded.H[comps], block)
                assert out.shape == (3, len(sb.multi_indices(n, degree + 1))), (degree, k)
                if k < 3:  # no multiplication term: nothing past the lowered degree
                    assert not out[:, math.comb(n + degree - 1, n) if degree else 0:].any()
                if k == 2:
                    assert not out.any() and not np.signbit(out.view(float)).any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_plan_matches_loop_oracle(self, n):
        # the index maps and weights built by numpy equal the dict lookups
        # of every shifted multi-index, for every degree
        for degree in range(7):
            got = _kernel_plan(n, degree)
            want = reference_kernel_plan(n, degree)
            assert got[:2] == want[:2], degree
            assert len(got[2]) == len(want[2]) and len(got[3]) == len(want[3])
            for (k, idx, w), (k_want, idx_want, w_want) in zip(got[2] + got[3],
                                                               want[2] + want[3]):
                assert k == k_want and np.array_equal(idx, idx_want)
                assert (w is None and w_want is None) or np.array_equal(w, w_want)


class TestRank:
    """``_rank``, the one map from a multi-index to its column, against the
    positions of the loop oracle's basis."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_positions(self, n):
        # random rows of every degree <= 12; each basis is a prefix of the
        # next, so a row's position in the degree-12 basis is its column
        column = {a: k for k, a in enumerate(reference_basis(n, 12))}
        rng = np.random.default_rng(70 + n)
        degrees = rng.integers(0, 13, 300)
        rows = np.array([rng.multinomial(d, np.full(n, 1.0 / n)) for d in degrees])
        assert _rank(rows).tolist() == [column[tuple(a)] for a in rows.tolist()]
        # a stack of rows keeps its leading axes
        assert _rank(rows.reshape(3, 100, n)).tolist() == _rank(rows).reshape(3, 100).tolist()

    @pytest.mark.parametrize("n", range(0, 6))
    def test_basis_rows_are_ranked_in_order(self, n):
        for degree in range(9):
            basis = _basis_array(n, degree)
            assert np.array_equal(_rank(basis), np.arange(len(basis))), degree
            assert not basis.flags.writeable

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n=st.integers(1, 8))
    @example(data=None, n=8)
    def test_unrank_inverts_rank(self, data, n):
        # columns of the degree-12 basis to rows and back, and rows of
        # degree <= 12 to columns and back; the first and last columns,
        # 0 and (12, 0, .., 0), always
        width = math.comb(n + 12, n)
        cols = [0, width - 1]
        rows = [[0] * n, [12] + [0] * (n - 1)]
        if data is not None:
            cols += data.draw(st.lists(st.integers(0, width - 1), max_size=20))
            for draw in data.draw(st.lists(st.lists(st.integers(0, 12), min_size=n,
                                                    max_size=n), max_size=20)):
                row, left = [], 12  # entries clipped so that the degree stays <= 12
                for e in draw:
                    row.append(min(e, left))
                    left -= row[-1]
                rows.append(row)
        got = _unrank(n, cols)
        assert got.shape == (len(cols), n) and got.dtype == np.intp
        assert got.min() >= 0 and got.sum(axis=1).max() <= 12
        assert _rank(got).tolist() == cols
        assert _unrank(n, _rank(rows)).tolist() == rows

    @pytest.mark.parametrize("n, top, wrapped", [(8, 879, 1000), (20, 63, 100), (30, 36, 40)])
    def test_rank_table_stops_before_the_int_range(self, n, top, wrapped):
        # the largest degree whose C(n + degree, n) columns an intp counts
        # round-trips; beyond it a ValueError names n and the degree.  The
        # table wrapped silently: (1000, 0, .., 0) at n = 8 came back as
        # (22, 8, 159, 304, 30, 43, 105, 183)
        last = (top,) + (0,) * (n - 1)
        assert sb.PolyC(n, {last: 1.0}).terms == {last: 1.0}
        for degree in (top + 1, wrapped):
            alpha = (degree,) + (0,) * (n - 1)
            message = rf"^the graded basis at n = {n} and degree {degree} has more columns"
            with pytest.raises(ValueError, match=message):
                sb.PolyC(n, {alpha: 1.0})
            with pytest.raises(ValueError, match=message):
                _rank(np.array([alpha]))

    def test_rank_table_limit_reaches_every_caller(self):
        # the chain plan, and through it rodrigues and transform_image
        n, alpha = 20, (64,) + (0,) * 19
        message = r"^the graded basis at n = 20 and degree 64 has more columns"
        with pytest.raises(ValueError, match=message):
            _chain_rows([(sb.LinearDiffOp(np.zeros((n, n)), np.eye(n)), 1.0)], [alpha])
        pt = sb.validate_phase_triple(np.zeros((n, n)), np.eye(n), 1j * np.eye(n))
        with pytest.raises(ValueError, match=message):
            sb.transform_image(pt, sb.TestFunction.hermite_basis(alpha))
        wd = sb.compute_weight_data(pt)
        gen = sb.build_generator(wd, 0.5 * wd.lam0, np.eye(n))
        with pytest.raises(ValueError, match=message):
            sb.rodrigues(wd, gen, alpha)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_matches_the_sorted_oracle(self, n):
        # every tuple with sum <= d, sorted by (|a|, a)
        for degree in range(7):
            want = reference_basis(n, degree)
            assert _basis_array(n, degree).tolist() == [list(a) for a in want], degree


class TestChainPlan:
    """``_chain_plan`` on arrays against the set and dict walk of
    tests/helpers.py, array for array."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        n=st.integers(1, 4),
        degree=st.integers(0, 6),
        picks=st.lists(st.integers(0, 10**6), max_size=10),
        whole=st.booleans(),
    )
    @example(n=2, degree=3, picks=[], whole=False)
    @example(n=3, degree=4, picks=[5, 5, 0, 33, 5], whole=False)
    def test_matches_set_and_dict_walk(self, n, degree, picks, whole):
        # targets in any order, with repeats, or none; or the whole basis
        basis = sb.multi_indices(n, degree)
        targets = basis if whole else [basis[k % len(basis)] for k in picks]
        got = _chain_plan(n, np.array(targets, dtype=np.intp).reshape(-1, n).tobytes())
        want = reference_chain_plan(n, targets)
        assert [len(part) for part in got] == [len(part) for part in want]
        for got_pairs, want_pairs in zip(got, want):
            for pair, want_pair in zip(got_pairs, want_pairs):
                for a, b in zip(pair, want_pair):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (targets, a, b)
                    assert not a.flags.writeable


class TestAncestorChain:
    """``_chain_rows`` builds the first-index ancestors of its targets only,
    and each of its rows is the full chain's row bit for bit."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, 4),
        degree=st.integers(0, 6),
        kind=st.sampled_from(["raising", "xi", "intertwined"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_full_chain(self, n, degree, kind, seed):
        rng = np.random.default_rng(seed)
        pt, wd, gen = sb.random_generator(n, rng)
        op, M, c0 = {
            "raising": (sb.creation_ops(wd, gen), gen.Q, 1.0),
            "xi": (sb.xi_ops(gen), gen.SQ, 1.0),
            "intertwined": (_intertwined_raising(pt), gen.Q, 0.5 - 0.25j),
        }[kind]
        op = _in_frame(op, M)
        basis = sb.multi_indices(n, degree)
        picks = rng.choice(len(basis), size=int(rng.integers(1, 5)))
        targets = [basis[k] for k in picks]  # in any order, repeats allowed
        full = _chain_rows([(op, c0)], basis)[0]
        rows = _chain_rows([(op, c0)], targets)[0]
        width = len(sb.multi_indices(n, max(map(sum, targets))))
        assert rows.shape == (len(targets), width)
        assert np.array_equal(rows, full[picks, :width])
        assert not full[picks, width:].any()

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, 4),
        degree=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lanes_equal_their_one_lane_chains(self, n, degree, seed):
        # three lanes in one chain: the frame lowering operator, a pure
        # derivative whose multiplication terms are dead, beside two full
        # lanes, in random order; each lane is its one-lane chain, bit for bit
        rng = np.random.default_rng(seed)
        pt, wd, gen = sb.random_generator(n, rng)
        cache = sb.make_moment_cache(wd, gen.Q)
        low, high = _frame_ladder(wd, gen, cache)
        assert not low.H.any()
        xi = _in_frame(sb.xi_ops(gen), gen.SQ, cache)
        pool = [high, xi, _in_frame(_intertwined_raising(pt), gen.Q)]
        ops = [low] + [pool[k] for k in rng.choice(3, size=2, replace=False)]
        lanes = [(ops[k], complex(*rng.standard_normal(2))) for k in rng.permutation(3)]
        basis = sb.multi_indices(n, degree)
        targets = [basis[k] for k in rng.choice(len(basis), size=int(rng.integers(1, 6)))]
        together = _chain_rows(lanes, targets)
        assert together.shape[0] == 3
        for lane, block in zip(lanes, together):
            alone = _chain_rows([lane], targets)[0]
            assert block.shape == alone.shape
            assert block.tobytes() == alone.tobytes()

    def test_cost_follows_the_targets(self, monkeypatch):
        # rodrigues((6, 0, 0, 0)) at n = 4 applies one row per degree layer,
        # not the 209 rows of the full chain through degree 6
        _, wd, gen = sb.random_generator(4, np.random.default_rng(7))
        rows = []
        kernel = sb.gausspoly._apply_block

        def counted(G, H, block):
            rows.append(block.shape[0])
            return kernel(G, H, block)

        monkeypatch.setattr(sb.gausspoly, "_apply_block", counted)
        sb.rodrigues(wd, gen, (6, 0, 0, 0))
        assert rows == [1] * 6
        rows.clear()
        sb.rodrigues(wd, gen, (1, 0, 1, 1))
        assert rows == [1, 1, 1]

    def test_no_targets(self):
        _, wd, gen = sb.random_generator(2, np.random.default_rng(3))
        lane = (_in_frame(sb.creation_ops(wd, gen), gen.Q), 1.0)
        assert _chain_rows([lane], []).shape == (1, 0, 1)


class TestOperatorConstructors:
    def test_annihilation_em(self):
        _, _, gen = em_data(0.5)
        low = sb.annihilation_ops(gen.Q)
        assert np.allclose(low.G, np.eye(1))
        assert np.allclose(low.H, [[1.0]], atol=1e-14)

    def test_annihilation_ghs(self):
        _, _, gen = ghs_data(0.5)
        low = sb.annihilation_ops(gen.Q)
        assert np.allclose(low.H, SWAP2 / 2.0, atol=1e-14)

    def test_annihilation_zero_q(self):
        low = sb.annihilation_ops(np.zeros((2, 2)))
        assert np.allclose(low.H, 0.0)

    def test_creation_em_coefficients(self):
        # adjointness fixes the raising operator to -(1/3) d/dz + (1/3) z
        _, wd, gen = em_data(0.5)
        high = sb.creation_ops(wd, gen)
        assert high.G[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert high.H[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_creation_bargmann(self):
        _, wd, gen = bargmann_data(rho2=3.0 / 16.0)
        high = sb.creation_ops(wd, gen)
        assert high.G[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert high.H[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_creation_pure_multiplication_when_blocks_cancel(self):
        # with phi_zz + Q = 0 the derivative block vanishes
        _, wd, _ = bargmann_data()
        gen = sb.GeneratorData(
            n=1,
            rho=0.25,
            X=np.eye(1),
            mu=np.array([0.1]),
            Q=-wd.phi_zz,
            S=np.zeros((1, 1)),
            SQ=-wd.phi_zz,
            xi_coeff=(wd.phi_zz + -wd.phi_zz).conj() @ wd.beta,
            factorization=np.zeros((1, 1)),
        )
        high = sb.creation_ops(wd, gen)
        assert np.allclose(high.G, 0.0)
        assert np.allclose(high.H, 2.0 * wd.phi_zzbar.conj())

    def test_xi_is_principal_part(self):
        _, wd, gen = ghs_data(0.5)
        xi = sb.xi_ops(gen)
        high = sb.creation_ops(wd, gen)
        assert np.allclose(xi.G, high.G)
        assert np.allclose(xi.H, 0.0)
        assert np.allclose(gen.xi_coeff, -SWAP2 / 3.0, atol=1e-14)


class TestHermiteFamily:
    def test_ground_state_em(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 0)
        assert fam[(0,)].poly.terms == {(0,): 1.0}
        assert np.allclose(fam[(0,)].M, [[0.5]])

    def test_first_member_em(self):
        # one raising application: (2/3) z exp(-z^2/2); fixed by the
        # Rodrigues identity and the orthogonality norms
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 1)
        assert fam[(1,)].poly.terms[(1,)] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_order_independence_ghs(self):
        _, wd, gen = ghs_data(0.5)
        high = sb.creation_ops(wd, gen)
        psi0 = sb.ground_state(gen)
        path_a = sb.apply_op(high, 0, sb.apply_op(high, 1, psi0))
        path_b = sb.apply_op(high, 1, sb.apply_op(high, 0, psi0))
        assert_gp_close(path_a, path_b, 1e-14, "raising operators must commute")

    def test_degree_equals_total_index(self):
        _, wd, gen = ghs_data(0.35)
        fam = sb.hermite_family(wd, gen, 4)
        for alpha, member in fam.items():
            assert member.poly.degree() == sum(alpha)


class TestRodrigues:
    def test_empty_index_is_ground_state(self):
        _, wd, gen = em_data(0.5)
        assert_gp_close(
            sb.rodrigues(wd, gen, (0,)), sb.ground_state(gen), 1e-15, "alpha = 0"
        )

    def test_em_first_member_value(self):
        # exp(z^2/2) (-(1/3) d/dz) exp(-z^2) = (2/3) z exp(-z^2/2)
        _, wd, gen = em_data(0.5)
        out = sb.rodrigues(wd, gen, (1,))
        assert out.poly.terms[(1,)] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert np.allclose(out.M, [[0.5]], atol=1e-14)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_matches_family_em(self, s):
        _, wd, gen = em_data(s)
        fam = sb.hermite_family(wd, gen, 5)
        for alpha, member in fam.items():
            assert_gp_close(sb.rodrigues(wd, gen, alpha), member, 1e-9, f"alpha={alpha}")

    def test_matches_family_on_random_generators(self):
        rng = np.random.default_rng(404)
        for _ in range(4):
            n = int(rng.integers(1, 3))
            _, wd, gen = sb.random_generator(n, rng)
            fam = sb.hermite_family(wd, gen, 4)
            for alpha, member in fam.items():
                assert_gp_close(
                    sb.rodrigues(wd, gen, alpha), member, 1e-9, f"alpha={alpha}"
                )

    def test_matches_family_ghs_and_display_form(self):
        s = 0.5
        _, wd, gen = ghs_data(s)
        fam = sb.hermite_family(wd, gen, 5)
        for alpha, member in fam.items():
            assert_gp_close(sb.rodrigues(wd, gen, alpha), member, 1e-9, f"alpha={alpha}")
        # display form: exp(<Z,SZ>) (-c d/dzeta)^k (-c d/dz)^l exp(-<Z,(S+Q)Z>)
        c = (1.0 - s) / (1.0 + s)
        display = sb.LinearDiffOp(-c * SWAP2.astype(complex), np.zeros((2, 2)))
        gp = sb.GaussPoly(sb.PolyC.constant(2, 1.0), gen.SQ)
        gp = sb.apply_op(display, 0, gp)
        out = sb.GaussPoly(gp.poly, gp.M - gen.S)
        assert_gp_close(out, fam[(1, 0)], 1e-12, "display operator form")

    @pytest.mark.parametrize("case", ["em", "ghs", 1, 2, 3, 4])
    def test_shared_chain_equals_rodrigues_bit_for_bit(self, case):
        # rodrigues(alpha), built over the ancestors of alpha only, is row
        # alpha of the full chain of Xi, and equals Xi applied one component
        # at a time in the chain's order, last coordinate first, exactly,
        # also at n >= 2
        if case == "em":
            (_, wd, gen), degree = em_data(0.4), 6
        elif case == "ghs":
            (_, wd, gen), degree = ghs_data(0.6), 5
        else:
            _, wd, gen = sb.random_generator(case, np.random.default_rng(900 + case))
            degree = {1: 6, 2: 5, 3: 4, 4: 3}[case]
        basis, xi = sb.multi_indices(gen.n, degree), sb.xi_ops(gen)
        for alpha, row in zip(basis, _chain_rows([(_in_frame(xi, gen.SQ), 1.0)], basis)[0]):
            single = sb.rodrigues(wd, gen, alpha)
            stepped = sb.GaussPoly(sb.PolyC.constant(gen.n, 1.0), gen.SQ)
            for i in reversed(range(gen.n)):
                for _ in range(alpha[i]):
                    stepped = sb.apply_op(xi, i, stepped)
            assert single.poly.terms == stepped.poly.terms, alpha
            assert single.poly.terms == {a: c for a, c in zip(basis, row.tolist()) if c}, alpha
            assert np.array_equal(single.M, stepped.M - gen.S), alpha

    @pytest.mark.parametrize("alpha", [(-2,), (1.7,), (float("nan"),), (float("inf"),)])
    def test_invalid_index_rejected(self, alpha):
        _, wd, gen = em_data(0.5)
        with pytest.raises(ValueError, match="nonnegative integer"):
            sb.rodrigues(wd, gen, alpha)

    def test_invalid_entry_rejected_at_n2(self):
        _, wd, gen = ghs_data(0.5)
        with pytest.raises(ValueError, match="nonnegative integer"):
            sb.rodrigues(wd, gen, (1, -1))
        with pytest.raises(ValueError, match="nonnegative integer"):
            sb.rodrigues(wd, gen, (0.5, 1))

    def test_integral_float_entries_accepted(self):
        _, wd, gen = ghs_data(0.5)
        want = sb.rodrigues(wd, gen, (2, 1))
        got = sb.rodrigues(wd, gen, (2.0, np.int64(1)))
        assert got.poly.terms == want.poly.terms


class TestHamiltonian:
    def test_ground_state_eigenvalue(self):
        _, wd, gen = em_data(0.5)
        psi0 = sb.ground_state(gen)
        assert_gp_close(
            sb.hamiltonian_apply(wd, gen, psi0), psi0.scaled(gen.rho2), 1e-12, "H psi0"
        )

    def test_degree_two_eigenvalue(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 2)
        member = fam[(2,)]
        assert_gp_close(
            sb.hamiltonian_apply(wd, gen, member),
            member.scaled(5.0 * gen.rho2),
            1e-12,
            "H psi2",
        )

    def test_linearity(self):
        _, wd, gen = em_data(0.5)
        psi0 = sb.ground_state(gen).scaled(2.5 - 1.0j)
        assert_gp_close(
            sb.hamiltonian_apply(wd, gen, psi0), psi0.scaled(gen.rho2), 1e-12, "c psi0"
        )

    def test_wrong_exponent_rejected(self):
        _, wd, gen = em_data(0.5)
        with pytest.raises(MExponentMismatch):
            sb.hamiltonian_apply(wd, gen, gp_const(1, [[0.25]]))

    @pytest.mark.parametrize("n, degree", [(1, 0), (1, 8), (2, 0), (2, 5), (3, 3), (4, 2)])
    def test_block_image_keeps_the_input_width(self, n, degree):
        # at Q, H maps basis(n, d) into itself: the image of the family block
        # has the block's width and row alpha is (2|alpha| + 1) rho^2 psi_alpha
        _, wd, gen = sb.random_generator(n, np.random.default_rng(5))
        ladder = _frame_ladder(wd, gen)
        keys = _basis_array(n, degree)
        block = _chain_rows([(ladder[1], 1.0)], keys)[0]
        image = block @ _hamiltonian_rows(gen.rho2, ladder, keys)
        assert image.shape == block.shape
        levels = [(2.0 * sum(a) + 1.0) * gen.rho2 for a in sb.multi_indices(n, degree)]
        assert np.max(_row_distances(image, np.array(levels)[:, None] * block)) <= 1e-9

    @pytest.mark.parametrize("wick", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_the_term_by_term_oracle(self, n, wick):
        # row a is rho^2 u^a + sum_i raise_i lower_i u^a, the folded ladder
        # applied term by term (exponent 0: the ladder is already folded),
        # for monomials in any order and with repeats, on the monomial and
        # the Wick-frame ladder
        rng = np.random.default_rng(60 + n)
        for seed in range(2):
            _, wd, gen = sb.random_generator(n, np.random.default_rng(1000 * n + seed))
            ladder = _frame_ladder(wd, gen, sb.make_moment_cache(wd, gen.Q) if wick else None)
            zero = np.zeros((n, n))
            for degree in range(9):
                basis = _basis_array(n, degree)
                top = np.flatnonzero(basis.sum(axis=1) == degree)
                picks = np.concatenate([rng.choice(top, 1), rng.choice(len(basis), 5)])
                monomials = basis[picks]
                rows = _hamiltonian_rows(gen.rho2, ladder, monomials)
                assert rows.shape == (6, len(basis))
                for a, row in zip(map(tuple, monomials.tolist()), rows):
                    gp = sb.GaussPoly(sb.PolyC.monomial(a), zero)
                    want = gp.scaled(gen.rho2)
                    for i in range(n):
                        lowered = reference_apply_op(ladder[0], i, gp)
                        want = want + reference_apply_op(ladder[1], i, lowered)
                    dense = np.zeros(len(basis), dtype=complex)
                    for alpha, c in want.poly.terms.items():
                        dense[_rank(alpha)] = c
                    scale = np.abs(dense).max()
                    assert np.abs(row - dense).max() <= 1e-14 * scale, (degree, a)

    def test_sparse_argument_plans_its_monomials_only(self, monkeypatch):
        # z_1^12 at n = 8: one Hamiltonian row over the 125,970 columns of
        # basis(8, 12), never a square matrix over that basis
        _, wd, gen = sb.random_generator(8, np.random.default_rng(3))
        planned = []
        rows = sb.gausspoly._hamiltonian_rows

        def counted(rho2, ladder, monomials):
            out = rows(rho2, ladder, monomials)
            planned.append((np.asarray(monomials).shape, out.shape))
            return out

        monkeypatch.setattr(sb.gausspoly, "_hamiltonian_rows", counted)
        gp = sb.GaussPoly(sb.PolyC.monomial((12,) + (0,) * 7, 2.0 - 1.0j), gen.Q)
        got = sb.hamiltonian_apply(wd, gen, gp)
        assert planned == [((1, 8), (1, 125_970))]
        # the same image term by term, lowering and raising at Q
        want = gp.scaled(gen.rho2)
        low, high = sb.annihilation_ops(gen.Q), sb.creation_ops(wd, gen)
        for i in range(8):
            want = want + reference_apply_op(high, i, reference_apply_op(low, i, gp))
        assert_gp_close(got, want, 1e-13, "H z_1^12")

    def test_sparse_results_build_no_basis(self):
        # the 9 terms of H z_1^12 at n = 8 were named through the cached
        # 125,970 rows of basis(8, 12), and coeff_distance spread two such
        # results over all those columns
        _, wd, gen = sb.random_generator(8, np.random.default_rng(3))
        gp = sb.GaussPoly(sb.PolyC.monomial((12,) + (0,) * 7, 2.0 - 1.0j), gen.Q)
        _basis_array.cache_clear()
        image = sb.hamiltonian_apply(wd, gen, gp)
        other = sb.hamiltonian_apply(wd, gen, gp.scaled(1.0 + 1e-9))
        diff, scale = sb.coeff_distance(image, other)
        assert len(image.poly.ranks) == 9 and 0.0 < diff <= 1e-8 * scale
        assert _basis_array.cache_info().currsize == 0


class TestEvaluate:
    def test_ground_state_values(self):
        _, _, gen = em_data(0.5)
        psi0 = sb.ground_state(gen)
        assert sb.evaluate(psi0, [0.0]) == pytest.approx(1.0)
        assert sb.evaluate(psi0, [1.0]) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_monomial_no_gaussian(self):
        gp = sb.GaussPoly(sb.PolyC.monomial((2,)), np.zeros((1, 1)))
        assert sb.evaluate(gp, [2.0j]) == pytest.approx(-4.0)

    def test_polynomial_batch_matches_pointwise(self):
        rng = np.random.default_rng(5)
        terms = {a: complex(*rng.standard_normal(2)) for a in sb.multi_indices(2, 4)}
        m = rng.standard_normal((2, 2)) * 0.1 + 1j * rng.standard_normal((2, 2)) * 0.1
        gp = sb.GaussPoly(sb.PolyC(2, terms), m + m.T)
        pts = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        want = sum(c * np.prod(pts ** np.array(a), axis=1) for a, c in terms.items())
        batch = gp.poly(pts)
        assert batch.shape == (7,)
        np.testing.assert_allclose(batch, want, rtol=1e-13)
        gauss = np.array([np.exp(-z @ gp.M @ z) for z in pts])
        np.testing.assert_allclose(sb.evaluate(gp, pts), want * gauss, rtol=1e-13)
        for z, value in zip(pts, want):
            assert gp.poly(z) == pytest.approx(value, rel=1e-13)
            assert sb.evaluate(gp, z) == pytest.approx(
                value * np.exp(-z @ gp.M @ z), rel=1e-13
            )


class TestPowerTableEvaluation:
    """PolyC.__call__ against a term-wise ``**`` reference."""

    @staticmethod
    def reference(p, pts):
        terms = [c * np.prod(pts ** np.array(a), axis=1) for a, c in p.terms.items()]
        return sum(terms), sum(np.abs(t) for t in terms)

    @pytest.mark.parametrize("n,degree", [(1, 12), (2, 12), (3, 6), (3, 12)])
    def test_matches_termwise_powers(self, n, degree):
        rng = np.random.default_rng(200 + 10 * n + degree)
        terms = {
            a: complex(*rng.standard_normal(2)) for a in sb.multi_indices(n, degree)
        }
        p = sb.PolyC(n, terms)
        pts = 0.6 * (rng.standard_normal((25, n)) + 1j * rng.standard_normal((25, n)))
        want, size = self.reference(p, pts)
        got = p(pts)
        assert got.shape == (25,)
        assert np.all(np.abs(got - want) <= 1e-12 * size)
        one = p(pts[3])
        assert isinstance(one, complex)
        assert abs(one - want[3]) <= 1e-12 * size[3]

    def test_sparse_and_zero(self):
        p = sb.PolyC(3, {(0, 0, 7): 1.5, (2, 0, 1): -2j, (0, 0, 0): 0.25})
        pts = np.array([[0.3 + 1j, 2.0, -0.5j], [1.1, -0.4 + 0.2j, 0.9]])
        want, size = self.reference(p, pts)
        assert np.all(np.abs(p(pts) - want) <= 1e-12 * size)
        assert np.all(sb.PolyC(3)(pts) == 0.0)
        assert sb.PolyC(3)(pts[0]) == 0.0


class TestCommutationRelations:
    def test_ccr_on_random_polynomials(self):
        # zero commutators are asserted by comparing the two application
        # orders directly, which keeps the comparison scale meaningful
        rng = np.random.default_rng(77)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            _, wd, gen = sb.random_generator(n, rng)
            low = sb.annihilation_ops(gen.Q)
            high = sb.creation_ops(wd, gen)
            gp = random_poly(n, 4, gen.Q, rng)
            for i in range(n):
                for j in range(n):
                    for op in (low, high):
                        ab = sb.apply_op(op, i, sb.apply_op(op, j, gp))
                        ba = sb.apply_op(op, j, sb.apply_op(op, i, gp))
                        assert_gp_close(ab, ba, 1e-9, "order independence")
                    ab = sb.apply_op(low, i, sb.apply_op(high, j, gp))
                    ba = sb.apply_op(high, j, sb.apply_op(low, i, gp))
                    if i == j:
                        ba = ba + gp.scaled(2 * gen.rho2)
                    assert_gp_close(ab, ba, 1e-9, "[low,high]")

    def test_ladder_power_identities(self):
        # low (high)^m = (high)^m low + 2 m rho^2 (high)^(m-1) and the two
        # product factorizations through X_i, Y_i, for m <= 3
        rng = np.random.default_rng(88)
        for _ in range(4):
            n = int(rng.integers(1, 3))
            _, wd, gen = sb.random_generator(n, rng)
            low = sb.annihilation_ops(gen.Q)
            high = sb.creation_ops(wd, gen)
            rho2 = gen.rho2

            def lower(i, gp):
                return sb.apply_op(low, i, gp)

            def raise_(i, gp):
                return sb.apply_op(high, i, gp)

            def raise_pow(i, m, gp):
                for _ in range(m):
                    gp = raise_(i, gp)
                return gp

            def lower_pow(i, m, gp):
                for _ in range(m):
                    gp = lower(i, gp)
                return gp

            def y_op(i, gp):
                return raise_(i, lower(i, gp))

            def x_op(i, gp):
                return lower(i, raise_(i, gp))

            gp = random_poly(n, 4, gen.Q, rng)
            for i in range(n):
                for m in (1, 2, 3):
                    lhs1 = lower(i, raise_pow(i, m, gp))
                    rhs1 = raise_pow(i, m, lower(i, gp)) + raise_pow(
                        i, m - 1, gp
                    ).scaled(2 * m * rho2)
                    assert_gp_close(lhs1, rhs1, 1e-9, f"power identity m={m}")

                    lhs2 = lower_pow(i, m, raise_pow(i, m, gp))
                    rhs2 = gp
                    for k in range(1, m + 1):
                        rhs2 = y_op(i, rhs2) + rhs2.scaled(2 * k * rho2)
                    assert_gp_close(lhs2, rhs2, 1e-9, f"product identity m={m}")

                    lhs3 = lower_pow(i, m + 1, raise_pow(i, m, gp))
                    rhs3 = lower(i, gp)
                    for k in range(1, m + 1):
                        rhs3 = x_op(i, rhs3) + rhs3.scaled(2 * k * rho2)
                    assert_gp_close(lhs3, rhs3, 1e-9, f"shifted product m={m}")


class TestPolyC:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        n=st.integers(1, 4),
        items=st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=4, max_size=4),
                                 st.sampled_from([0.0, 1.0, -2.5j, 0.5 - 1e-300j, 3 + 4j])),
                       max_size=30),
    )
    def test_sparse_row_invariants(self, n, items):
        # keys in any order, with zero coefficients among them
        terms = {tuple(a[:n]): c for a, c in items}
        p = sb.PolyC(n, terms)
        assert p.ranks.dtype == np.intp and p.coeffs.dtype == complex
        assert np.all(np.diff(p.ranks) > 0) and np.all(p.coeffs != 0)
        assert not p.ranks.flags.writeable and not p.coeffs.flags.writeable
        assert p.terms == {a: complex(c) for a, c in terms.items() if c != 0}
        assert list(p.terms) == sorted(p.terms, key=lambda a: (sum(a), a))
        empty = p + p.scaled(-1)
        assert len(empty.ranks) == 0 and empty.terms == {}
        again = sb.PolyC(n, p.terms)
        assert np.array_equal(again.ranks, p.ranks) and np.array_equal(again.coeffs, p.coeffs)
        with pytest.raises(AttributeError):
            p.terms = {}

    def test_zero_coefficients_never_stored(self):
        p = sb.PolyC(1, {(0,): 1.0, (1,): 0.0})
        assert (1,) not in p.terms
        q = p - p
        assert q.terms == {}

    def test_gauss_poly_difference(self):
        # term by term at one exponent, f - f keeps no term, and two
        # GaussPolys at different exponents have no difference
        M = 0.5 * np.eye(2)
        f = sb.GaussPoly(sb.PolyC(2, {(1, 0): 2.0, (0, 1): 1.0j}), M)
        g = sb.GaussPoly(sb.PolyC(2, {(1, 0): 0.5, (2, 0): 3.0}), M)
        diff = f - g
        assert diff.poly.terms == {(1, 0): 1.5, (0, 1): 1.0j, (2, 0): -3.0}
        assert np.array_equal(diff.M, M)
        assert (f - f).poly.terms == {}
        with pytest.raises(MExponentMismatch):
            f - sb.GaussPoly(g.poly, M + 1e-3)

    @pytest.mark.parametrize("entry", ["PolyC", "evaluate", "apply_op"])
    def test_keys_pass_the_multi_index_rule(self, entry):
        # unchecked, z^-1 was read as z^2 (the first case evaluated to 18 at
        # z = 3) and a one-entry key at n = 2 reached apply_op as a KeyError
        def call(n, terms):
            gp = sb.GaussPoly(sb.PolyC(n, terms), 0.5 * np.eye(n))
            if entry == "evaluate":
                return sb.evaluate(gp, np.full(n, 3.0))
            if entry == "apply_op":
                return sb.apply_op(sb.annihilation_ops(gp.M), 0, gp)
            return gp

        for n, terms in [(2, {(1,): 1.0}), (1, {(0, 1): 1.0}), (2, {(0, 0): 1.0, (): 2.0})]:
            with pytest.raises(DimensionMismatch, match=f"needs {n} entries"):
                call(n, terms)
        # a bool is a numbers.Real, but True is no exponent
        for terms in [{(-1,): 1.0, (2,): 1.0}, {(1.5,): 1.0}, {(np.nan,): 1.0},
                      {(np.inf,): 1.0}, {("1",): 1.0}, {(-1,): 0.0}, {(True,): 1.0}]:
            with pytest.raises(ValueError, match="nonnegative integer") as info:
                call(1, terms)
            assert not isinstance(info.value, DimensionMismatch)
        # integral entries of any real numeric type are stored as int tuples
        assert sb.PolyC(2, {(1.0, np.int64(2)): 1.0}).terms == {(1, 2): 1.0}
        assert call(1, {(2.0,): 1.0}) is not None


    @pytest.mark.parametrize("entry", ["PolyC", "evaluate"])
    def test_points_pass_the_point_rule(self, entry):
        # a 1-D argument of length 2n was read as two points: p(1, 2) = 21
        p = sb.PolyC(2, {(1, 0): 1.0, (0, 1): 10.0})
        gp = sb.GaussPoly(p, np.zeros((2, 2)))
        call = p if entry == "PolyC" else lambda z: sb.evaluate(gp, z)
        for bad in ([1, 2, 3, 4], [1], np.zeros((2, 2, 2)), 3.0):
            with pytest.raises(DimensionMismatch, match=r"^z must have shape \(2,\)"):
                call(bad)
        assert call([1, 2]) == 21.0
        pts = np.array([[1, 2], [3, 4], [0.5j, 0]])
        np.testing.assert_array_equal(call(pts), [call(z) for z in pts])
        assert call(np.zeros((0, 2))).shape == (0,)


class TestInputChecks:
    """Every shape and degree check of this layer, reached from outside."""

    @pytest.mark.parametrize("case", ["add", "gausspoly", "diffop", "apply_op", "family"])
    def test_raises(self, case):
        _, wd, gen = ghs_data(0.45)
        p1, p2 = sb.PolyC.constant(1), sb.PolyC.constant(2)
        calls = {
            "add": (DimensionMismatch, lambda: p1 + p2),
            "gausspoly": (DimensionMismatch, lambda: sb.GaussPoly(p1, np.eye(2))),
            "diffop": (DimensionMismatch, lambda: sb.LinearDiffOp(np.eye(2), np.eye(3))),
            "apply_op": (DimensionMismatch, lambda: sb.apply_op(
                sb.annihilation_ops(np.eye(1)), 0, gp_const(2, gen.Q))),
            "family": (ValueError, lambda: sb.hermite_family(wd, gen, -1)),
        }
        error, call = calls[case]
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (1, 2, 2), ()])
    def test_exponent_must_be_n_by_n(self, shape):
        # a 2 x 3 exponent constructed, and evaluate then failed with a bare
        # numpy broadcast ValueError
        with pytest.raises(DimensionMismatch, match="is not 2 x 2"):
            sb.GaussPoly(sb.PolyC(2, {(1, 0): 1.0}), np.zeros(shape))

    def test_exponent_must_be_symmetric(self):
        # d/dz_0 of 2 exp(-<z, M z>) read 2 M z as 2 G M z, not G (M + M^T) z:
        # -0.0983-0.2859i at z against -0.1456-0.1790i by central differences
        M = np.array([[0.3, 0.2], [0.0, 0.4]])
        with pytest.raises(SymmetryViolation, match="not symmetric"):
            sb.GaussPoly(sb.PolyC.constant(2, 2.0), M)
        sym = 0.5 * (M + M.T)
        sb.GaussPoly(sb.PolyC.constant(2, 2.0), sym + np.array([[0.0, 1e-13], [0.0, 0.0]]))
        z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
        gp = sb.GaussPoly(sb.PolyC.constant(2, 2.0), sym)
        h = np.array([1e-6, 0.0])
        numeric = (sb.evaluate(gp, z + h) - sb.evaluate(gp, z - h)) / 2e-6
        exact = sb.evaluate(sb.apply_op(sb.LinearDiffOp(np.eye(2), np.zeros((2, 2))), 0, gp), z)
        assert abs(exact - numeric) <= 1e-8 * abs(exact)

    @pytest.mark.parametrize("n", [-1, 0, True, 2.5, 2.0, "2", None])
    def test_dimension_is_a_positive_integer(self, n):
        # multi_indices(-1, 2) was [()], multi_indices(True, 2) the n = 1
        # basis and PolyC(2.5, {}) a polynomial with n = 2
        for call in (lambda: sb.multi_indices(n, 2), lambda: sb.PolyC(n, {}),
                     lambda: sb.PolyC(n)):
            with pytest.raises(ValueError, match=r"^dimension n must be an integer >= 1"):
                call()
        assert sb.PolyC(np.int64(2)).n == 2 and sb.multi_indices(np.int32(1), 1) == [(0,), (1,)]

    @pytest.mark.parametrize("dtype", [float, complex, int])
    def test_exponent_keeps_its_dtype(self, dtype):
        gp = sb.GaussPoly(sb.PolyC(2, {(1, 0): 1.0}), np.eye(2, dtype=dtype))
        assert gp.M.dtype == dtype and not gp.M.flags.writeable

    @pytest.mark.parametrize("degree", [2.0, 1.5, True, -1, "2", None])
    def test_degree_is_a_nonnegative_integer(self, degree):
        # 2.0 and 1.5 raised a bare TypeError from range, True built the degree-1 family
        _, wd, gen = ghs_data(0.45)
        with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
            sb.hermite_family(wd, gen, degree)

    def test_integer_degree_of_any_integral_type(self):
        _, wd, gen = ghs_data(0.45)
        assert list(sb.hermite_family(wd, gen, np.int64(2))) == sb.multi_indices(2, 2)

    @pytest.mark.parametrize("degree", [-1, 1.5, True])
    def test_multi_indices_degree_is_checked(self, degree):
        # multi_indices(2, -1) returned [] without an error
        with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
            sb.multi_indices(2, degree)

    def test_rodrigues_rejects_boolean_index(self):
        _, wd, gen = ghs_data(0.45)
        with pytest.raises(ValueError, match="nonnegative integer"):
            sb.rodrigues(wd, gen, (True, False))

    def test_block_degree_comes_from_its_width(self):
        for n in range(1, 6):
            widths = [len(sb.multi_indices(n, d)) for d in range(8)]
            assert [_degree_of(n, w) for w in widths] == list(range(8))
            for w in set(range(widths[-1] + 1)) - set(widths):
                with pytest.raises(DimensionMismatch, match="no graded basis"):
                    _degree_of(n, w)
        # five columns at n = 2 lie between basis(2, 1) and basis(2, 2); with
        # a stated degree the kernel read a real column as its zero pad
        _, _, gen = ghs_data(0.45)
        with pytest.raises(DimensionMismatch, match="5 columns"):
            low = sb.annihilation_ops(gen.Q)
            _apply_block(low.G[:1], low.H[:1], np.ones((1, 5)))


class TestTwoDimensions:
    """Arguments of two dimensions are rejected as such.  The exponent
    [[0.5]] broadcast against the 2 x 2 exponent of all 0.5 and agreed, so
    an n = 1 and an n = 2 argument passed the exponent check, and
    ``coeff_distance`` of the two failed with a KeyError."""

    @pytest.mark.parametrize("entry", ["coeff_distance", "add", "hamiltonian_apply"])
    def test_rejected(self, entry):
        _, wd, gen = em_data(0.5)
        one = sb.GaussPoly(sb.PolyC(1, {(2,): 1.0}), [[0.5]])
        two = sb.GaussPoly(sb.PolyC(2, {(1, 1): 1.0}), np.full((2, 2), 0.5))
        assert np.array_equal(gen.Q, one.M)
        call = {"coeff_distance": lambda: sb.coeff_distance(one, two),
                "add": lambda: one + two,
                "hamiltonian_apply": lambda: sb.hamiltonian_apply(wd, gen, two)}[entry]
        with pytest.raises(DimensionMismatch, match="shapes"):
            call()


class TestRowDistances:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(0, 6),
        cols=st.integers(0, 40),
        zero_rows=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_independent_and_take_numpy_abs(self, rows, cols, zero_rows, seed):
        # magnitudes over 30 decades, some rows zero in a, in b or in both;
        # a row's distance is that of the row alone, of the row at a shifted
        # address and of numpy's abs row maxima, bit for bit
        rng = np.random.default_rng(seed)

        def draw():
            z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            z *= 10.0 ** rng.uniform(-15, 15, (rows, cols))
            z[rng.random(rows) < zero_rows] = 0.0
            return z

        a, b = draw(), draw()
        got = _row_distances(a, b)

        def row_max(x):
            return np.abs(x).max(axis=-1, initial=0.0)

        top = np.maximum(row_max(a), row_max(b))
        want = row_max(a - b) / np.maximum(top, 1e-300)
        assert got.shape == (rows,) and got.tobytes() == want.tobytes()
        for i in range(rows):
            shifted = np.zeros((2, cols + 1), dtype=complex)
            shifted[0, 1:], shifted[1, 1:] = a[i], b[i]
            for alone in (_row_distances(a[i:i + 1], b[i:i + 1]),
                          _row_distances(shifted[:1, 1:], shifted[1:, 1:])):
                assert alone[0].hex() == got[i].hex()
            assert (row_max(a[i] - b[i]) / np.maximum(top[i], 1e-300)).hex() == got[i].hex()


class TestCoeffDistance:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        degrees=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        density=st.floats(0.0, 1.0),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dict_oracle(self, n, degrees, density, shared, seed):
        # pairs with different supports and degrees, magnitudes over 30
        # decades; with ``shared`` the second argument perturbs the first
        rng = np.random.default_rng(seed)
        M = np.eye(n)

        def draw(degree):
            terms = {a: complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-15, 15)
                     for a in sb.multi_indices(n, degree) if rng.random() < density}
            return sb.GaussPoly(sb.PolyC(n, terms), M)

        a = draw(degrees[0])
        b = draw(degrees[1])
        if shared:
            b = a + b.scaled(1e-12)
        got = sb.coeff_distance(a, b)
        want = reference_coeff_distance(a, b)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert sb.coeff_distance(a, a)[0] == 0.0

    def test_exponent_mismatch_rejected(self):
        a = sb.GaussPoly(sb.PolyC.constant(1), np.eye(1))
        with pytest.raises(MExponentMismatch):
            sb.coeff_distance(a, sb.GaussPoly(sb.PolyC.constant(1), 2.0 * np.eye(1)))


class TestMultiIndices:
    def test_enumeration_count_and_order(self):
        out = sb.multi_indices(2, 2)
        assert out == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_matches_filtered_product(self):
        # the numpy-built basis equals the filtered tensor product; n = 0
        # fails the dimension rule (TestInputChecks)
        for n in range(1, 6):
            for d in range(9):
                want = [
                    t
                    for k in range(d + 1)
                    for t in itertools.product(range(k + 1), repeat=n)
                    if sum(t) == k
                ]
                assert sb.multi_indices(n, d) == want, (n, d)

    def test_factorial(self):
        assert sb.mi_factorial((3, 2, 0)) == 12.0
        assert sb.mi_factorial((20,)) == float(math.factorial(20))

    def test_factorial_beyond_the_float_range_is_named(self):
        # the limit is the float range of alpha!, not |alpha| > 170: (86, 85)
        # is a float, (100, 100) is not.  Each was an OverflowError, "int too
        # large to convert to float", naming nothing
        assert sb.mi_factorial((86, 85)) == 6.825025008483449e+258
        for alpha in ((171,), (0, 171), (100, 100), (10**9, 2)):
            message = rf"^multi-index {re.escape(str(alpha))}: alpha! is beyond the float range$"
            with pytest.raises(ValueError, match=message) as info:
                sb.mi_factorial(alpha)
            assert type(info.value) is ValueError

    def test_one_formula_for_every_factorial(self):
        # mi_factorial, the basis table of the inner products and the image
        # scaling all read _factorial_rows, bit for bit
        basis = _basis_array(3, 12)
        want = [sb.mi_factorial(a) for a in basis.tolist()]
        assert _factorial_rows(basis).tolist() == want
        assert _factorials(3, 12).tolist() == want
