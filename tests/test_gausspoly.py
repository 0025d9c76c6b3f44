"""Operator algebra on Gaussian polynomials: family, Rodrigues, Hamiltonian."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbhermite as sb
from sbhermite.errors import DimensionMismatch, MExponentMismatch
from sbhermite.gausspoly import (
    _apply_block,
    _basis,
    _chain_rows,
    _degree_of,
    _frame_ladder,
    _hamiltonian_block,
    _in_frame,
    _kernel_plan,
    _row_distances,
)
from sbhermite.transform import _intertwined_raising

from helpers import (
    SWAP2,
    assert_gp_close,
    bargmann_data,
    em_data,
    ghs_data,
    random_poly,
    reference_apply_op,
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
        shape = (rows, len(_basis(n, degree)))
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
        out = _apply_block(folded.G[comps], folded.H[comps], block)
        # the lowering operators at Q are pure derivatives and lower the degree
        top = max(degree - 1, 0) if kind == "lowering" and not random_m else degree + 1
        assert out.shape == (rows, len(_basis(n, top)))
        basis, out_basis = _basis(n, degree), _basis(n, top)
        for r in range(rows):
            terms = {a: c for a, c in zip(basis, block[r].tolist()) if c != 0}
            want = reference_apply_op(op, int(comps[r]), sb.GaussPoly(sb.PolyC(n, terms), M))
            got = {a: c for a, c in zip(out_basis, out[r].tolist()) if c != 0}
            assert set(got) == set(want.poly.terms), r
            scale = max((abs(c) for c in got.values()), default=0.0)
            assert all(abs(got[a] - c) <= 1e-15 * scale for a, c in want.poly.terms.items())
            # a row's result does not depend on the rows around it
            alone = _apply_block(folded.G[comps[r]], folded.H[comps[r]], block[r : r + 1])
            assert np.array_equal(alone[0], out[r]), r

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_result_width_follows_live_terms(self, n):
        # over basis(n, d + 1) when a multiplication term is live, else over
        # basis(n, d - 1); a block has one column at least
        rng = np.random.default_rng(n)
        _, wd, gen = sb.random_generator(n, rng)
        zero = np.zeros((n, n))
        cases = [
            (sb.annihilation_ops(gen.Q), gen.Q, -1),
            (sb.xi_ops(gen), zero, -1),
            (sb.LinearDiffOp(zero, zero), gen.Q, -1),
            (sb.annihilation_ops(gen.Q), gen.SQ, 1),
            (sb.xi_ops(gen), gen.SQ, 1),
            (sb.creation_ops(wd, gen), gen.Q, 1),
            (sb.LinearDiffOp(zero, np.eye(n)), gen.Q, 1),
        ]
        for degree in range(5):
            block = self.random_block(rng, n, degree, 3)
            comps = rng.integers(0, n, 3)
            for op, M, step in cases:
                folded = _in_frame(op, M)
                out = _apply_block(folded.G[comps], folded.H[comps], block)
                assert out.shape == (3, len(_basis(n, max(degree + step, 0)))), (degree, step)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_plan_matches_loop_oracle(self, n):
        # the index maps and weights built by numpy equal the dict lookups
        # of every shifted multi-index, for every degree and live mask
        masks = {(True,) * n, (False,) * n, tuple(i % 2 == 0 for i in range(n)),
                 tuple(i == n - 1 for i in range(n))}
        for degree in range(7):
            for live_g in masks:
                for live_h in masks:
                    got = _kernel_plan(n, degree, live_g, live_h)
                    want = reference_kernel_plan(n, degree, live_g, live_h)
                    assert got[:2] == want[:2], (degree, live_g, live_h)
                    assert len(got[2]) == len(want[2]) and len(got[3]) == len(want[3])
                    for (k, idx, w), (k_want, idx_want, w_want) in zip(got[2] + got[3],
                                                                       want[2] + want[3]):
                        assert k == k_want and np.array_equal(idx, idx_want)
                        assert (w is None and w_want is None) or np.array_equal(w, w_want)


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
        basis = _basis(n, degree)
        picks = rng.choice(len(basis), size=int(rng.integers(1, 5)))
        targets = [basis[k] for k in picks]  # in any order, repeats allowed
        full = _chain_rows([(op, c0)], basis)[0]
        rows = _chain_rows([(op, c0)], targets)[0]
        width = len(_basis(n, max(map(sum, targets))))
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
        basis = _basis(n, degree)
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
        block = _chain_rows([(ladder[1], 1.0)], _basis(n, degree))[0]
        image = _hamiltonian_block(gen, ladder, block)
        assert image.shape == block.shape
        levels = [(2.0 * sum(a) + 1.0) * gen.rho2 for a in _basis(n, degree)]
        assert np.max(_row_distances(image, np.array(levels)[:, None] * block)) <= 1e-9


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
            widths = [len(_basis(n, d)) for d in range(8)]
            assert [_degree_of(n, w) for w in widths] == list(range(8))
            for w in set(range(widths[-1] + 1)) - set(widths):
                with pytest.raises(DimensionMismatch, match="no graded basis"):
                    _degree_of(n, w)
        # five columns at n = 2 lie between basis(2, 1) and basis(2, 2); with
        # a stated degree the kernel read a real column as its zero pad
        _, _, gen = ghs_data(0.45)
        with pytest.raises(DimensionMismatch, match="5 columns"):
            low = sb.annihilation_ops(gen.Q)
            _apply_block(low.G[0], low.H[0], np.ones((1, 5)))


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
        # the numpy-built basis equals the filtered tensor product, also at
        # n = 0 (the quadrature's empty lead split)
        for n in range(6):
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
