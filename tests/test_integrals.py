"""Wick-moment engine and weighted inner products against closed forms."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbhermite as sb
from sbhermite.errors import (
    DimensionMismatch,
    IncompleteFamily,
    MExponentMismatch,
    NonIntegrableWeight,
)
from sbhermite.gausspoly import _apply_block, _gauss_polys, _in_frame
from sbhermite.integrals import (
    _expansions,
    _factorials,
    _gram_block,
    _pair_inners,
    _wick_block,
)

from helpers import (
    _isserlis,
    bargmann_data,
    bench_module,
    em_data,
    ghs_data,
    mp_frame,
    random_poly,
    real_covariance,
    reference_factorials,
    reference_moments,
    wick_moment,
)


def pairing_moment(cov: np.ndarray, idx: list) -> float:
    """Brute-force Isserlis sum over all pairings; independent oracle."""
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    total = 0.0
    for j in range(len(rest)):
        remaining = rest[:j] + rest[j + 1 :]
        total += cov[first, rest[j]] * pairing_moment(cov, remaining)
    return total


def beta_to_idx(beta):
    return [i for i, b in enumerate(beta) for _ in range(b)]


def real_expansion(poly: sb.PolyC, conjugate: bool) -> dict:
    """P(z), or conj(P(z)), over real monomials x^e y^f via z = x + iy.

    The binomial theorem on every factor; exponents index (x, y) in R^(2n).
    """
    n = poly.n
    unit = -1j if conjugate else 1j
    out: dict = {}
    for mono, c in poly.terms.items():
        terms = {(0,) * (2 * n): c.conjugate() if conjugate else c}
        for i, p in enumerate(mono):
            grown: dict = {}
            for e, v in terms.items():
                for k in range(p + 1):
                    key = list(e)
                    key[i] += p - k
                    key[n + i] += k
                    key = tuple(key)
                    grown[key] = grown.get(key, 0.0) + v * math.comb(p, k) * unit**k
            terms = grown
        for e, v in terms.items():
            out[e] = out.get(e, 0.0) + v
    return out


def oracle_inner(F: sb.GaussPoly, G: sb.GaussPoly, wd) -> complex:
    """(F, G) from real-coordinate monomials and brute-force pairing moments."""
    cov = real_covariance(wd, F.M)
    moments: dict = {}
    total = 0.0 + 0.0j
    for ef, cf in real_expansion(F.poly, False).items():
        for eg, cg in real_expansion(G.poly, True).items():
            beta = tuple(a + b for a, b in zip(ef, eg))
            if beta not in moments:
                moments[beta] = pairing_moment(cov, beta_to_idx(beta))
            total += cf * cg * moments[beta]
    # pi^n det(M_R)^(-1/2), with M_R^-1 = 2 Sigma
    return math.pi**wd.n * math.sqrt(np.linalg.det(2.0 * cov)) * total


class TestWickMoment:
    def test_against_pairing_enumeration(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3):
            _, wd, gen = sb.random_generator(n, rng)
            mc = sb.make_moment_cache(wd, gen.Q)
            dim = 2 * n
            for _ in range(15):
                beta = tuple(int(b) for b in rng.integers(0, 3, dim))
                if sum(beta) > 8:
                    continue
                got = wick_moment(wd, mc, beta)
                want = pairing_moment(real_covariance(wd, gen.Q), beta_to_idx(beta))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_odd_degree_vanishes(self):
        _, wd, gen = em_data(0.5)
        mc = sb.make_moment_cache(wd, gen.Q)
        assert wick_moment(wd, mc, (1, 0)) == 0.0
        assert wick_moment(wd, mc, (2, 1)) == 0.0

    def test_second_and_fourth_moments(self):
        _, wd, gen = ghs_data(0.5)
        mc = sb.make_moment_cache(wd, gen.Q)
        cov = real_covariance(wd, gen.Q)
        assert wick_moment(wd, mc, (2, 0, 0, 0)) == pytest.approx(cov[0, 0])
        want = cov[0, 0] * cov[1, 1] + 2.0 * cov[0, 1] ** 2
        assert wick_moment(wd, mc, (2, 2, 0, 0)) == pytest.approx(want)


class TestHphiInner:
    def test_em_ground_state_norm(self):
        # exponent -(x^2)/2 - y^2 integrates to pi sqrt(2)
        _, wd, gen = em_data(0.5)
        psi0 = sb.ground_state(gen)
        val = sb.hphi_inner(psi0, psi0, wd)
        assert val.real == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-13)
        assert abs(val.imag) < 1e-14

    def test_bargmann_monomials(self):
        # (z^k, z^l) = delta_kl 2 pi 2^k k! in the standard space
        _, wd, _ = bargmann_data()
        for k in range(9):
            fk = sb.GaussPoly(sb.PolyC.monomial((k,)), np.zeros((1, 1)))
            val = sb.hphi_inner(fk, fk, wd)
            want = 2.0 * math.pi * 2.0**k * math.factorial(k)
            assert val.real == pytest.approx(want, rel=1e-10)
        f1 = sb.GaussPoly(sb.PolyC.monomial((1,)), np.zeros((1, 1)))
        f2 = sb.GaussPoly(sb.PolyC.monomial((2,)), np.zeros((1, 1)))
        assert abs(sb.hphi_inner(f1, f2, wd)) < 1e-12

    def test_first_member_orthogonal_to_ground(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 1)
        assert abs(sb.hphi_inner(fam[(1,)], fam[(0,)], wd)) < 1e-14

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(17)
        for n in (1, 2):
            _, wd, gen = sb.random_generator(n, rng)
            f = random_poly(n, 3, gen.Q, rng)
            g = random_poly(n, 3, gen.Q, rng)
            ab = sb.hphi_inner(f, g, wd)
            ba = sb.hphi_inner(g, f, wd)
            scale = max(abs(ab), 1.0)
            assert abs(ab - np.conj(ba)) < 1e-12 * scale
            assert sb.hphi_inner(f, f, wd).real > 0.0

    def test_mismatched_exponents_rejected(self):
        _, wd, gen = em_data(0.5)
        f = sb.GaussPoly(sb.PolyC.constant(1, 1.0), [[0.5]])
        g = sb.GaussPoly(sb.PolyC.constant(1, 1.0), [[0.25]])
        with pytest.raises(MExponentMismatch):
            sb.hphi_inner(f, g, wd)

    def test_non_positive_definite_weight_rejected(self):
        _, wd, _ = bargmann_data()
        f = sb.GaussPoly(sb.PolyC.constant(1, 1.0), [[-1.0]])
        with pytest.raises(NonIntegrableWeight):
            sb.hphi_inner(f, f, wd)

    def test_against_real_coordinate_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            _, wd, gen = sb.random_generator(n, rng)
            f = random_poly(n, int(rng.integers(0, 4)), gen.Q, rng)
            g = random_poly(n, int(rng.integers(0, 4)), gen.Q, rng)
            want = oracle_inner(f, g, wd)
            scale = math.sqrt(oracle_inner(f, f, wd).real * oracle_inner(g, g, wd).real)
            assert abs(sb.hphi_inner(f, g, wd) - want) <= 1e-12 * scale

    def test_sparse_high_degree_pair(self, monkeypatch):
        # z1^12 at n=4 converts to the Wick frame through its 13 first-index
        # ancestors, one row per chain layer, not through the 1820
        # monomials of the graded basis through degree 12
        _, wd, gen = sb.random_generator(4, np.random.default_rng(7))
        f = sb.GaussPoly(sb.PolyC.monomial((12, 0, 0, 0)), gen.Q)
        # real-coordinate expansion against the Isserlis recursion on the
        # real covariance and mass of M_R at 40 digits: a float inverse of
        # M_R (cond 2.1e4) puts 4.0e-13 into this degree-24 moment sum and
        # the frame 8.2e-13, so a float oracle reads their sum
        m_r = 2.0 * sb.matrices.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + gen.Q)
        with mpmath.workdps(40):
            m_r = mpmath.matrix(m_r.tolist())
            cov, memo = mpmath.inverse(2 * m_r).tolist(), {}
            want = mpmath.pi**4 / mpmath.sqrt(mpmath.det(m_r)) * mpmath.fsum(
                cf * cg * _isserlis(cov, memo, tuple(a + b for a, b in zip(ef, eg)))
                for ef, cf in real_expansion(f.poly, False).items()
                for eg, cg in real_expansion(f.poly, True).items())
        want = complex(want)
        rows = []
        kernel = sb.gausspoly._apply_block

        def counted(G, H, block):
            rows.append(block.shape[0])
            return kernel(G, H, block)

        monkeypatch.setattr(sb.gausspoly, "_apply_block", counted)
        assert abs(sb.hphi_inner(f, f, wd) - want) <= 1e-12 * abs(want)
        assert rows == [1] * 12

    @pytest.mark.parametrize("k", [16, 20])
    def test_bargmann_norms_above_degree_31(self, k):
        # per-coordinate real degrees reach 2k > 31
        _, wd, _ = bargmann_data()
        fk = sb.GaussPoly(sb.PolyC.monomial((k,)), np.zeros((1, 1)))
        want = 2.0 * math.pi * 2.0**k * math.factorial(k)
        assert sb.hphi_inner(fk, fk, wd).real == pytest.approx(want, rel=1e-10)

    def test_wick_weight_beyond_the_float_range_is_named(self):
        # z^171 needs the weight 171!, beyond the float range: a ValueError
        # naming its index, where an OverflowError named nothing
        _, wd, _ = bargmann_data()
        f = sb.GaussPoly(sb.PolyC.monomial((171,)), np.zeros((1, 1)))
        message = r"^multi-index \(171,\): alpha! is beyond the float range$"
        with pytest.raises(ValueError, match=message) as info:
            sb.hphi_inner(f, f, wd)
        assert type(info.value) is ValueError
        with pytest.raises(ValueError, match=message):
            _factorials(1, 171)

    def test_lopsided_degrees(self):
        # degrees 20 and 4: only z^4 pairs, so the product is that of z^4
        _, wd, _ = bargmann_data()
        f = sb.GaussPoly(sb.PolyC(1, {(20,): 1.0, (4,): 1.0}), np.zeros((1, 1)))
        g = sb.GaussPoly(sb.PolyC.monomial((4,)), np.zeros((1, 1)))
        want = 2.0 * math.pi * 2.0**4 * math.factorial(4)
        assert sb.hphi_inner(f, g, wd).real == pytest.approx(want, rel=1e-12)


def wick_rows(cache, block: np.ndarray) -> np.ndarray:
    """``_wick_block`` of the rows of a block of monomial coefficients."""
    return _wick_block(cache, [gp.poly for gp in _gauss_polys(block, cache.exponent)])


def random_monomial_block(n: int, degree: int, rows: int, rng) -> np.ndarray:
    """``rows`` random complex rows over the graded basis of ``degree``, each on a
    random subset of the monomials (at least one)."""
    width = len(sb.multi_indices(n, degree))
    block = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
    keep = rng.random((rows, width)) < 0.6
    keep[np.arange(rows), rng.integers(0, width, rows)] = True
    return np.where(keep, block, 0.0)


def isserlis_gram(cache, block: np.ndarray, monos) -> np.ndarray:
    """normalizer * P Mom P^H with Mom the per-entry Isserlis moments
    E[z^a zbar^b] of ``tests/helpers.reference_moments``."""
    mom = reference_moments(cache.zcov, monos, 2 * max(map(sum, monos))).astype(complex)
    return cache.normalizer * (block @ mom @ block.conj().T)


def assert_gram_close(got: np.ndarray, want: np.ndarray, rel: float):
    """|got - want| <= rel * sqrt(want_aa want_bb) entrywise."""
    scale = np.sqrt(np.outer(want.diagonal().real, want.diagonal().real))
    err = np.abs(got - want) / scale
    assert np.max(err) <= rel, np.max(err)


class TestFrameGram:
    """Wick-frame Grams of monomial blocks against Grams of the Isserlis
    moment matrix, an independent route to the same numbers."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, 3),
        degree=st.integers(0, 4),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_isserlis_gram(self, n, degree, rows, seed):
        rng = np.random.default_rng(seed)
        _, wd, gen = sb.random_generator(n, rng, rho_fraction=rng.uniform(0.2, 0.9))
        cache = sb.make_moment_cache(wd, gen.Q)
        block = random_monomial_block(n, degree, rows, rng)
        got = _gram_block(cache, wick_rows(cache, block))
        want = isserlis_gram(cache, block, sb.multi_indices(n, degree))
        assert_gram_close(got, want, 1e-12)

    @pytest.mark.parametrize("kind", ["lowering", "raising", "xi"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_operators_commute_with_the_conversion(self, kind, n):
        # applying an operator and then converting to Wick coefficients
        # equals converting and then applying its frame rewrite; compared in
        # the weighted norm, with the operator's exponent
        rng = np.random.default_rng(90 + n)
        _, wd, gen = sb.random_generator(n, rng)
        op, M = {"lowering": (sb.annihilation_ops(gen.Q), gen.Q),
                 "raising": (sb.creation_ops(wd, gen), gen.Q),
                 "xi": (sb.xi_ops(gen), gen.SQ)}[kind]
        cache = sb.make_moment_cache(wd, gen.Q)
        block = random_monomial_block(n, 3, 4, rng)
        comps = rng.integers(0, n, 4)
        mono, wick = _in_frame(op, M), _in_frame(op, M, cache)
        want = wick_rows(cache, _apply_block(mono.G[comps], mono.H[comps], block))
        got = _apply_block(wick.G[comps], wick.H[comps], wick_rows(cache, block))
        width = max(want.shape[1], got.shape[1])
        want = np.pad(want, ((0, 0), (0, width - want.shape[1])))
        got = np.pad(got, ((0, 0), (0, width - got.shape[1])))
        rows = np.arange(4)
        err = _pair_inners(cache, got - want, rows, rows).real
        norm = _pair_inners(cache, want, rows, rows).real
        assert np.all(np.sqrt(err) <= 1e-12 * np.sqrt(norm)), np.sqrt(err / norm)

    @pytest.mark.parametrize("n, degree", [(2, 10), (3, 6), (4, 4)])
    def test_against_mpmath_isserlis(self, n, degree):
        # the Gram of the monomial basis is its moment matrix; the per-entry
        # recursion at 40 digits on the same float covariance; triples as
        # in the benchmark's recipe, seed 1000
        import mpmath

        inputs = bench_module("inputs")
        a, b, c = inputs.random_triple(n, np.random.default_rng(1000))
        cfg = sb.RunConfig.from_dict(
            inputs.v1_config(a, b, c, max_degree=degree, seed=0, phases=[0.3] * n))
        wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
        gen = sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X)
        cache = sb.make_moment_cache(wd, gen.Q)
        monos = sb.multi_indices(n, degree)
        eye = np.eye(len(monos), dtype=complex)
        got = _gram_block(cache, wick_rows(cache, eye))
        with mpmath.workdps(40):
            zcov = [[mpmath.mpc(complex(v)) for v in row] for row in cache.zcov]
            want = reference_moments(zcov, monos, 2 * degree)
            want = np.array([[complex(v) for v in row] for row in want])
        assert_gram_close(got, cache.normalizer * want, 1e-12)


class TestFrameAgainst50Digits:
    """The frame of ``make_moment_cache`` (L, C and the normalizer) against
    ``mp_frame``, the same definitions at 50 digits from the same float
    weight data and exponent."""

    #: (n, frame) -> bounds on the relative errors max |float - 50-digit| /
    #: max |50-digit|, about twice the worst of grid seeds 1000-1011 (X
    #: phases 0.3, rho = lam0 / 2).  The worst were n=2 seed 1004 and n=3
    #: seed 1008 (Q frame, L 3.0e-13 and 1.1e-12), and they follow cond(M_R),
    #: 8.3e4 at n=3 seed 1008: the frame's own error, ROADMAP item 11
    BOUNDS = {
        (2, "Q"): {"L": 6e-13, "C": 6e-14, "normalizer": 7e-13},
        (2, "image"): {"L": 3e-14, "C": 7e-14, "normalizer": 5e-14},
        (3, "Q"): {"L": 2.5e-12, "C": 6e-13, "normalizer": 8e-13},
        (3, "image"): {"L": 6e-13, "C": 1e-12, "normalizer": 7e-13},
    }

    @pytest.mark.parametrize("n", [2, 3])
    def test_grid_frames(self, n):
        inputs = bench_module("inputs")
        for seed in range(1000, 1012):
            a, b, c = inputs.random_triple(n, np.random.default_rng(seed))
            cfg = sb.RunConfig.from_dict(
                inputs.v1_config(a, b, c, max_degree=1, seed=0, phases=[0.3] * n))
            pt = sb.validate_phase_triple(cfg.A, cfg.B, cfg.C)
            wd = sb.compute_weight_data(pt)
            gen = sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X)
            for frame, M in (("Q", gen.Q), ("image", sb.image_exponent(pt))):
                cache = sb.make_moment_cache(wd, M)
                want = mp_frame(wd, M)
                got = {"L": cache.L, "C": cache.C, "normalizer": cache.normalizer}
                for name, bound in self.BOUNDS[n, frame].items():
                    err = np.max(np.abs(got[name] - want[name])) / np.max(np.abs(want[name]))
                    assert err <= bound, (seed, frame, name, err)


class TestGramMatrix:
    def test_em_half_through_degree_two(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 2)
        keys, gram = sb.gram_matrix(fam, wd)
        assert keys == [(0,), (1,), (2,)]
        norm0 = math.pi * math.sqrt(2.0)
        want = [norm0, (2.0 / 3.0) * norm0, (2.0 / 3.0) ** 2 * 2.0 * norm0]
        for i in range(3):
            assert gram[i, i].real == pytest.approx(want[i], rel=1e-12)
            for j in range(3):
                if i != j:
                    assert abs(gram[i, j]) <= 1e-8 * gram[i, i].real

    def test_matches_norm_formula_on_random_generators(self):
        rng = np.random.default_rng(505)
        for n in (1, 2, 3):
            _, wd, gen = sb.random_generator(n, rng)
            fam = sb.hermite_family(wd, gen, 3)
            keys, gram = sb.gram_matrix(fam, wd)
            norm0 = gram[0, 0].real
            for a, ka in enumerate(keys):
                predicted = (2 * gen.rho2) ** sum(ka) * sb.mi_factorial(ka) * norm0
                assert abs(gram[a, a] - predicted) <= 1e-8 * gram[a, a].real
                for b in range(len(keys)):
                    if b != a:
                        assert abs(gram[a, b]) <= 1e-8 * gram[a, a].real

    def test_ground_entry_positive(self):
        _, wd, gen = ghs_data(0.4)
        fam = sb.hermite_family(wd, gen, 1)
        keys, gram = sb.gram_matrix(fam, wd)
        assert gram[0, 0].real > 0

    def test_ghs_cross_entry_vanishes(self):
        _, wd, gen = ghs_data(0.5)
        fam = sb.hermite_family(wd, gen, 1)
        keys, gram = sb.gram_matrix(fam, wd)
        a, b = keys.index((1, 0)), keys.index((0, 1))
        assert abs(gram[a, b]) <= 1e-10 * gram[a, a].real

    def test_high_degree_family(self):
        # products of two degree-13 members reach real degree 26; in the
        # Wick frame the Gram is a diagonal sum at any degree
        _, wd, gen = em_data(0.5)
        keys, gram = sb.gram_matrix(sb.hermite_family(wd, gen, 13), wd)
        diag = gram.diagonal().real
        want = [(2.0 * gen.rho2) ** k * math.factorial(k) * diag[0] for (k,) in keys]
        assert np.allclose(diag, want, rtol=1e-12, atol=0.0)
        assert_gram_close(gram, np.diag(diag), 1e-12)
        # and a lopsided pair whose self product has degree 40
        _, wd, _ = bargmann_data()
        f = sb.GaussPoly(sb.PolyC(1, {(20,): 1.0, (4,): 1.0}), np.zeros((1, 1)))
        want = 2.0 * 2.0 * math.pi * (2.0**20 * math.factorial(20) + 2.0**4 * math.factorial(4))
        assert sb.hphi_inner(f, f.scaled(2.0), wd).real == pytest.approx(want, rel=1e-12)


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(1, 2),
    degree=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_is_pairwise_inner_products(n, degree, seed):
    _, wd, gen = sb.random_generator(n, np.random.default_rng(seed))
    fam = sb.hermite_family(wd, gen, degree)
    keys, gram = sb.gram_matrix(fam, wd)
    assert np.array_equal(gram, gram.conj().T)
    diag = gram.diagonal().real
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            want = sb.hphi_inner(fam[ka], fam[kb], wd)
            assert abs(gram[a, b] - want) <= 1e-12 * math.sqrt(diag[a] * diag[b])


class TestAdjointResidual:
    def test_ground_state_pair(self):
        _, wd, gen = em_data(0.5)
        psi0 = sb.ground_state(gen)
        assert sb.adjoint_residual(wd, gen, psi0, psi0, 0) <= 1e-10

    def test_monomial_pair(self):
        _, wd, gen = em_data(0.5)
        psi0 = sb.ground_state(gen)
        f = sb.GaussPoly(sb.PolyC.monomial((1,)), gen.Q)
        scale = sb.hphi_norm(f, wd) * sb.hphi_norm(psi0, wd)
        assert sb.adjoint_residual(wd, gen, f, psi0, 0) <= 1e-8 * scale

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            _, wd, gen = sb.random_generator(n, rng)
            f = random_poly(n, 4, gen.Q, rng)
            g = random_poly(n, 4, gen.Q, rng)
            scale = sb.hphi_norm(f, wd) * sb.hphi_norm(g, wd)
            for i in range(n):
                assert sb.adjoint_residual(wd, gen, f, g, i) <= 1e-8 * scale

    @pytest.mark.parametrize("i", [-1, 2])
    def test_component_index_out_of_range_rejected(self, i):
        # a negative i must not wrap around to a component from the end
        _, wd, gen = ghs_data(0.5)
        psi0 = sb.ground_state(gen)
        with pytest.raises(DimensionMismatch, match="component index"):
            sb.adjoint_residual(wd, gen, psi0, psi0, i)

    def test_arguments_at_the_cache_exponent(self):
        # lowering and raising are adjoint on the whole space, so arguments
        # sharing an exponent other than Q pass too; the ladder is folded
        # at the exponent of their frame, the arguments' own, never at Q
        _, wd, gen = sb.random_generator(2, np.random.default_rng(5))
        M = gen.Q + 0.02j * np.eye(2)
        f = sb.GaussPoly(sb.PolyC(2, {(1, 0): 1.0, (0, 1): 0.5j}), M)
        g = sb.GaussPoly(sb.PolyC(2, {(2, 0): 1.0, (0, 0): 0.3}), M)
        scale = sb.hphi_norm(f, wd) * sb.hphi_norm(g, wd)
        for i in range(2):
            assert sb.adjoint_residual(wd, gen, f, g, i) <= 1e-12 * scale

    @pytest.mark.parametrize("i", [False, True, 1.0])
    def test_component_index_must_be_an_integer(self, i):
        # False selected no row of G and gave exactly 0.0
        _, wd, gen = ghs_data(0.5)
        f = sb.hermite_family(wd, gen, 1)[(1, 0)]
        with pytest.raises(ValueError, match="component index must be an integer"):
            sb.adjoint_residual(wd, gen, f, f, i)


class TestExpandInFamily:
    def test_ground_state_expansion(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 2)
        psi0 = sb.ground_state(gen)
        coeffs, residual = sb.expand_in_family(psi0, fam, wd)
        assert coeffs[(0,)].real == pytest.approx(math.sqrt(math.pi * math.sqrt(2.0)))
        assert residual <= 1e-10

    def test_monomial_times_ground_parity(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 3)
        f = sb.GaussPoly(sb.PolyC.monomial((1,)), gen.Q)
        coeffs, residual = sb.expand_in_family(f, fam, wd)
        assert abs(coeffs[(0,)]) < 1e-12
        assert abs(coeffs[(1,)]) > 0.1
        assert residual <= 1e-8

    def test_degree_two_support(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 3)
        f = sb.GaussPoly(sb.PolyC.monomial((2,)), gen.Q)
        coeffs, residual = sb.expand_in_family(f, fam, wd)
        assert abs(coeffs[(1,)]) < 1e-12
        assert abs(coeffs[(0,)]) > 0.1 and abs(coeffs[(2,)]) > 0.1
        assert residual <= 1e-8

    def test_incomplete_family_rejected(self):
        _, wd, gen = em_data(0.5)
        fam = sb.hermite_family(wd, gen, 1)
        f = sb.GaussPoly(sb.PolyC.monomial((2,)), gen.Q)
        with pytest.raises(IncompleteFamily):
            sb.expand_in_family(f, fam, wd)


def batching_case(case):
    """(wd, gen) of a golden family or of a random triple of dimension ``case``."""
    if case == "em":
        _, wd, gen = em_data(0.4)
    elif case == "ghs":
        _, wd, gen = ghs_data(0.6)
    else:
        _, wd, gen = sb.random_generator(case, np.random.default_rng(500 + case))
    return wd, gen


class TestBatchedCore:
    """The stage-wide core against its one-pair and one-row public cases."""

    @pytest.mark.parametrize("case", ["em", "ghs", 1, 2, 3, 4])
    def test_pair_inners_match_hphi_inner(self, case):
        wd, gen = batching_case(case)
        n = wd.n
        rng = np.random.default_rng(61)
        low, high = sb.annihilation_ops(gen.Q), sb.creation_ops(wd, gen)
        rows = []
        for _ in range(3):
            f, g = random_poly(n, 3, gen.Q, rng), random_poly(n, 3, gen.Q, rng)
            i = int(rng.integers(0, n))
            rows += [f, g, sb.apply_op(low, i, f), sb.apply_op(high, i, g)]
        rows += list(sb.hermite_family(wd, gen, 2).values())
        left, right = np.divmod(np.arange(len(rows) ** 2), len(rows))
        cache = sb.make_moment_cache(wd, gen.Q)
        block = _wick_block(cache, [r.poly for r in rows])
        got = _pair_inners(cache, block, left, right)
        norms = [sb.hphi_norm(r, wd) for r in rows]
        for k, (a, b) in enumerate(zip(left, right)):
            want = sb.hphi_inner(rows[a], rows[b], wd)
            assert abs(got[k] - want) <= 1e-13 * norms[a] * norms[b], (a, b)

    @pytest.mark.parametrize("case", ["em", "ghs", 1, 2, 3, 4])
    def test_expansions_match_expand_in_family(self, case):
        wd, gen = batching_case(case)
        n = wd.n
        fam = sb.hermite_family(wd, gen, 3)
        cache = sb.make_moment_cache(wd, gen.Q)
        for d in range(4):
            betas = [b for b in sb.multi_indices(n, d) if sum(b) == d]
            monos = [sb.GaussPoly(sb.PolyC.monomial(b), gen.Q) for b in betas]
            needed = sb.multi_indices(n, d)
            block = _wick_block(cache, [gp.poly for gp in monos + [fam[a] for a in needed]])
            coeffs, residuals, norms = _expansions(cache, block[: len(monos)], block[len(monos):])
            for k, f in enumerate(monos):
                scale = sb.hphi_norm(f, wd)
                want, want_res = sb.expand_in_family(f, fam, wd)
                assert abs(norms[k] - scale) <= 1e-13 * scale
                assert abs(residuals[k] - want_res) <= 1e-13 * scale
                for j, a in enumerate(needed):
                    assert abs(coeffs[k, j] - want[a]) <= 1e-13 * scale, (betas[k], a)
                    pair = sb.hphi_inner(f, fam[a], wd) / sb.hphi_norm(fam[a], wd)
                    assert abs(coeffs[k, j] - pair) <= 1e-13 * scale, (betas[k], a)

    def test_factorials_match_loop_oracle(self):
        # the numpy table equals the exact product rounded once, also past
        # degree 20, where the product leaves int64
        for n in range(1, 6):
            for degree in range(7):
                assert np.array_equal(_factorials(n, degree), reference_factorials(n, degree))
        for n, degree in ((1, 24), (2, 22), (3, 21)):
            assert np.array_equal(_factorials(n, degree), reference_factorials(n, degree))


class TestInputChecks:
    """Every shape check of this layer, reached from outside."""

    @pytest.mark.parametrize("case", ["hphi_dimension", "pair_inners_width"])
    def test_raises(self, case):
        _, wd, gen = ghs_data(0.45)
        mc = sb.make_moment_cache(wd, gen.Q)
        f1 = sb.GaussPoly(sb.PolyC.constant(1), np.eye(1))
        calls = {
            "hphi_dimension": lambda: sb.hphi_inner(f1, f1, wd),
            # a block of 5 columns at n = 2 has no degree
            "pair_inners_width": lambda: _pair_inners(mc, np.ones((2, 5)), [0], [1]),
        }
        with pytest.raises(DimensionMismatch):
            calls[case]()

    @pytest.mark.parametrize("name", ["gram_matrix", "adjoint_residual", "expand_in_family"])
    def test_arguments_at_another_exponent_rejected(self, name):
        # one frame, at the first argument's exponent, serves every argument
        _, wd, gen = ghs_data(0.45)
        fam = sb.hermite_family(wd, gen, 1)
        moved = sb.GaussPoly(sb.PolyC.monomial((0, 1)), gen.Q + 1e-3 * np.eye(2))
        calls = {
            "gram_matrix": lambda: sb.gram_matrix({**fam, (0, 1): moved}, wd),
            "adjoint_residual": lambda: sb.adjoint_residual(wd, gen, fam[(1, 0)], moved, 0),
            "expand_in_family": lambda: sb.expand_in_family(
                fam[(1, 0)], {**fam, (0, 1): moved}, wd),
        }
        with pytest.raises(MExponentMismatch, match="of the arguments differ"):
            calls[name]()

    def test_moment_cache_is_frozen(self):
        _, wd, gen = ghs_data(0.45)
        mc = sb.make_moment_cache(wd, gen.Q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mc.L = mc.C

    def test_empty_family_has_an_empty_gram(self):
        _, wd, _ = ghs_data(0.45)
        keys, gram = sb.gram_matrix({}, wd)
        assert keys == [] and gram.shape == (0, 0)
