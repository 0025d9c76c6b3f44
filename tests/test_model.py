"""Triple validation, weight data, and generator construction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbhermite as sb
from sbhermite import model, pipeline
from sbhermite.errors import (
    EigFailure,
    IntertwinerInvalid,
    MExponentMismatch,
    NonPositiveCI,
    NonSymmetricA,
    NonSymmetricC,
    RhoOutOfRange,
    SingularB,
    StageFailure,
    SymmetryViolation,
)

from helpers import (
    SWAP2,
    bargmann_data,
    bargmann_triple,
    bench_module,
    em_data,
    ghs_data,
    mp_generator,
)


class TestMatrixPredicates:
    def test_symmetric_hermitian_unitary(self):
        sym = np.array([[1.0, 2.0j], [2.0j, 3.0]])
        assert sb.matrices.is_symmetric(sym, 1e-12)
        assert not sb.matrices.agree(sym, sym.conj().T, 1e-12)
        herm = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
        assert sb.matrices.agree(herm, herm.conj().T, 1e-12)
        assert not sb.matrices.is_symmetric(herm, 1e-12)
        phase = np.diag(np.exp(1j * np.array([0.4, -1.1])))
        assert sb.matrices.is_unitary(phase, 1e-12)
        assert not sb.matrices.is_unitary(np.diag([2.0, 1.0]), 1e-12)

    def test_arrays_of_two_shapes_never_agree(self):
        # [[0.5]] broadcast against the 2 x 2 matrix of all 0.5 and agreed,
        # so exponents of two dimensions passed require_same_exponent
        one, two = [[0.5]], np.full((2, 2), 0.5)
        assert not sb.matrices.agree(one, two, 1e-12)
        with pytest.raises(sb.DimensionMismatch, match=r"shapes \(1, 1\) and \(2, 2\)"):
            sb.matrices.require_same_exponent(one, two, "one and two")

    def test_max_abs_of_an_empty_array_is_zero(self):
        for empty in ([], np.zeros(0), np.zeros((0, 3), dtype=complex)):
            value = sb.matrices.max_abs(empty)
            assert value == 0.0 and type(value) is float

    def test_tolerance_is_explicit(self):
        nearly = np.array([[0.0, 1e-9], [0.0, 0.0]], dtype=complex)
        assert sb.matrices.is_symmetric(nearly, 1e-8)
        assert not sb.matrices.is_symmetric(nearly, 1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_lift_matches_the_block_formula(self, n):
        # T^T [[zz, zzbar], [0, zbzb]] T, symmetrized, bit for bit
        rng = np.random.default_rng(n)
        zz, zzbar, zbzb = (sb.matrices.random_complex(n, rng) for _ in range(3))
        for args in [(zz, zzbar, zbzb), (zz, zzbar, np.zeros((n, n)))]:
            t = sb.matrices.complex_coords(n)
            s = t.T @ np.block([[args[0], args[1]], [np.zeros_like(args[1]), args[2]]]) @ t
            assert sb.matrices.lift(*args).tobytes() == (0.5 * (s + s.T)).tobytes()


def _exponent_site(site: str, delta: float, monkeypatch):
    """Reach one of the four exponent checks with exponents delta max(1, |M|)
    apart in every entry; the MExponentMismatch it raises, or None."""
    _, wd, gen = ghs_data(0.45)
    q = np.asarray(gen.Q)
    offset = delta * max(1.0, float(np.max(np.abs(q)))) * np.ones_like(q)
    ground = sb.ground_state(gen)
    moved = sb.GaussPoly(ground.poly, q + offset)
    calls = {
        "sum": lambda: ground + moved,
        "hamiltonian_apply": lambda: sb.hamiltonian_apply(wd, gen, moved),
        "inner_product": lambda: sb.hphi_inner(ground, moved, wd),
        "rodrigues_stage": lambda: sb.run_example("ghs", 0.45, max_degree=1),
    }
    # the Rodrigues stage compares (S+Q) - S with Q: move S against Q
    monkeypatch.setattr(pipeline, "build_generator", lambda *args: dataclasses.replace(
        g := sb.build_generator(*args), S=g.S - offset))
    try:
        calls[site]()
    except MExponentMismatch as exc:
        return exc
    except StageFailure as exc:
        assert exc.stage == "rodrigues"
        return exc.cause
    return None


class TestExponentRule:
    """Two exponents agree by one rule, ``matrices.require_same_exponent``."""

    @pytest.mark.parametrize(
        "site", ["sum", "hamiltonian_apply", "inner_product", "rodrigues_stage"]
    )
    def test_one_tolerance_at_every_site(self, site, monkeypatch):
        assert isinstance(_exponent_site(site, 1e-10, monkeypatch), MExponentMismatch)
        assert _exponent_site(site, 1e-14, monkeypatch) is None

    def test_relative_to_the_larger_exponent(self):
        m = 100.0 * np.eye(2)
        sb.matrices.require_same_exponent(m, m + 1e-11, "m and m + 1e-11")
        with pytest.raises(MExponentMismatch, match="of m and m \\+ 1e-9 differ"):
            sb.matrices.require_same_exponent(m, m + 1e-9, "m and m + 1e-9")


class TestValidatePhaseTriple:
    def test_standard_triple(self):
        pt = bargmann_triple()
        assert pt.C_I[0, 0] == pytest.approx(1.0)
        assert pt.det_B_abs == 1.0 and pt.C_I_eigenvalues.tolist() == [1.0]
        assert pt.c_phi == pytest.approx(2.0**-0.5 * math.pi**-0.75, rel=1e-14)

    def test_real_c_rejected(self):
        with pytest.raises(NonPositiveCI):
            sb.validate_phase_triple([[0.0]], [[1.0]], [[1.0]])

    def test_small_well_conditioned_b_accepted(self):
        # |det B| = 1e-12 is the determinant of a multiple of the identity
        pt = sb.validate_phase_triple(0.5j * np.eye(4), 1e-3 * np.eye(4), 1j * np.eye(4))
        assert pt.c_phi > 0.0
        sb.validate_phase_triple([[0.5j]], [[1e-11]], [[1j]])

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["valid", "singular B", "indefinite Im C", "singular Im C"]),
        scaled=st.sampled_from(["B", "Im C"]),
        exponent=st.floats(-6.0, 6.0),
    )
    def test_scaling_never_changes_the_error(self, n, seed, kind, scaled, exponent):
        rng = np.random.default_rng(seed)
        pt = sb.random_phase_triple(n, rng)
        a, b, c_r, c_i = pt.A, pt.B.copy(), pt.C.real, pt.C_I.copy()
        lam, u = np.linalg.eigh(c_i)
        if kind == "singular B":
            b[-1] = b[0] if n > 1 else 0.0
        elif kind == "indefinite Im C":
            lam[0] = -lam[0]
        elif kind == "singular Im C":
            lam[0] = 0.0
        c_i = (u * lam) @ u.T
        c_i = 0.5 * (c_i + c_i.T)

        def raised(b, c_i):
            try:
                sb.validate_phase_triple(a, b, c_r + 1j * c_i)
            except ValueError as exc:
                return type(exc)
            return None

        expected = {"valid": None, "singular B": SingularB}.get(kind, NonPositiveCI)
        assert raised(b, c_i) is expected
        for c in (1e-6, 10.0**exponent, 1e6):
            if scaled == "B":
                assert raised(c * b, c_i) is expected
            else:
                assert raised(b, c * c_i) is expected

    def test_em_triple_half(self):
        a, b, c = sb.example_triple("em", 0.5)
        pt = sb.validate_phase_triple(a, b, c)
        assert pt.C_I[0, 0] == pytest.approx(0.5)

    def test_nonsymmetric_a(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]]) + 0.5j * np.eye(2)
        with pytest.raises(NonSymmetricA):
            sb.validate_phase_triple(a, -1j * np.eye(2), 1j * np.eye(2))

    def test_nonsymmetric_c(self):
        c = 1j * np.eye(2)
        c = c.copy()
        c[0, 1] = 1.0
        with pytest.raises(NonSymmetricC):
            sb.validate_phase_triple(0.5j * np.eye(2), -1j * np.eye(2), c)

    def test_singular_b(self):
        b = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularB):
            sb.validate_phase_triple(0.5j * np.eye(2), b, 1j * np.eye(2))

    @pytest.mark.parametrize("name, bad", [("A", np.nan), ("B", np.inf), ("C", -np.inf)])
    def test_non_finite_entry_rejected_first(self, name, bad):
        # an inf in B gave c_phi = nan (a NaN det B passed |det B| <= tol);
        # a NaN in A raised NonSymmetricA
        mats = {"A": 0.5j * np.eye(2), "B": -1j * np.eye(2), "C": 1j * np.eye(2)}
        mats[name] = mats[name].copy()
        mats[name][1, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries") as info:
            sb.validate_phase_triple(mats["A"], mats["B"], mats["C"])
        assert type(info.value) is ValueError


class TestComputeWeightData:
    def test_standard(self):
        wd = sb.compute_weight_data(bargmann_triple())
        assert wd.phi_zzbar[0, 0] == pytest.approx(0.25)
        assert abs(wd.phi_zz[0, 0]) < 1e-15
        assert wd.lam[0] == pytest.approx(0.5)

    def test_em_half(self):
        a, b, c = sb.example_triple("em", 0.5)
        wd = sb.compute_weight_data(sb.validate_phase_triple(a, b, c))
        assert wd.phi_zzbar[0, 0] == pytest.approx(3.0 / 8.0, abs=1e-15)
        assert wd.phi_zz[0, 0] == pytest.approx(-5.0 / 8.0, abs=1e-15)

    def test_ghs_half(self):
        a, b, c = sb.example_triple("ghs", 0.5)
        wd = sb.compute_weight_data(sb.validate_phase_triple(a, b, c))
        assert np.allclose(wd.phi_zzbar, (3.0 / 16.0) * np.eye(2), atol=1e-15)
        assert np.allclose(wd.phi_zz, -(5.0 / 16.0) * SWAP2, atol=1e-15)
        assert np.allclose(wd.lam, math.sqrt(3.0 / 16.0))

    def test_spectral_roundtrip_random(self):
        rng = np.random.default_rng(100)
        for _ in range(12):
            n = int(rng.integers(1, 5))
            pt = sb.random_phase_triple(n, rng)
            wd = sb.compute_weight_data(pt)
            recon = wd.U @ np.diag(wd.lam**2) @ wd.U.conj().T
            assert np.max(np.abs(recon - wd.phi_zzbar)) <= 1e-12 * max(
                1.0, np.max(np.abs(wd.phi_zzbar))
            )
            assert np.max(np.abs(wd.phi_zzbar @ wd.beta - np.eye(n))) < 1e-10
            assert np.all(np.diff(wd.lam) >= 0)
            assert wd.lam0 == wd.lam[0]

    def test_with_unitary_rejects_bad_basis(self):
        _, wd, _ = em_data(0.5)
        with pytest.raises(IntertwinerInvalid):
            sb.with_unitary(wd, [[2.0]])
        rng = np.random.default_rng(3)
        pt2 = sb.random_phase_triple(2, rng)
        wd2 = sb.compute_weight_data(pt2)
        if abs(wd2.lam[0] - wd2.lam[1]) > 1e-6:
            rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
            with pytest.raises(IntertwinerInvalid):
                sb.with_unitary(wd2, rot)


class TestConstructionGates:
    """The gates of ``compute_weight_data`` and ``build_generator`` that no
    validated input reaches: a triple is changed past its validation, or
    ``np.linalg.eigh`` or ``validate_intertwiner`` is patched."""

    def test_weight_data_needs_a_symmetric_holomorphic_block(self):
        pt = sb.validate_phase_triple(*sb.example_triple("ghs", 0.5))
        bad = dataclasses.replace(pt, A=pt.A + np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SymmetryViolation, match="^derived holomorphic block is not symmetric$"):
            sb.compute_weight_data(bad)

    def test_weight_data_needs_a_positive_hermitian_block(self):
        pt = sb.validate_phase_triple(*sb.example_triple("em", 0.5))
        bad = dataclasses.replace(pt, C_I=-pt.C_I)
        with pytest.raises(EigFailure, match=r"^Hermitian block has nonpositive eigenvalue -3\.750e-01$"):
            sb.compute_weight_data(bad)

    def test_weight_data_names_a_failed_eigendecomposition(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        pt = sb.validate_phase_triple(*sb.example_triple("em", 0.5))
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigFailure, match="^Eigenvalues did not converge$") as info:
            sb.compute_weight_data(pt)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("matrix", ["Q", "S"])
    def test_generator_gates_each_symmetric_matrix(self, monkeypatch, matrix):
        # distinct lam: the swap breaks the symmetry of Q; with X_01 / X_10 =
        # mu_1 lam_0 / (mu_0 lam_1) Q stays symmetric and S does not
        wd = sb.compute_weight_data(sb.random_phase_triple(2, np.random.default_rng(6)))
        rho = 0.5 * wd.lam0
        mu = np.sqrt(wd.lam**2 - rho * rho)
        x = SWAP2 if matrix == "Q" else np.array(
            [[0.0, mu[1] * wd.lam[0] / (mu[0] * wd.lam[1])], [1.0, 0.0]])
        monkeypatch.setattr(model, "validate_intertwiner", lambda X, wd, rho: True)
        with pytest.raises(SymmetryViolation, match=f"^constructed {matrix} is not complex symmetric$"):
            sb.build_generator(wd, rho, x)


class TestValidateIntertwiner:
    def test_diagonal_phases(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            pt = sb.random_phase_triple(n, rng)
            wd = sb.compute_weight_data(pt)
            x = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
            assert sb.validate_intertwiner(x, wd, 0.5 * wd.lam0)

    def test_swap_on_degenerate_pair(self):
        _, wd, _ = ghs_data(0.5)
        rho = math.sqrt((1 - 0.5) / (2 * 1.5))
        assert sb.validate_intertwiner(SWAP2, wd, rho)

    def test_nonunitary_rejected(self):
        rng = np.random.default_rng(6)
        pt = sb.random_phase_triple(2, rng)
        wd = sb.compute_weight_data(pt)
        assert not sb.validate_intertwiner(np.diag([2.0, 1.0]), wd, 0.5 * wd.lam0)

    def test_noncommuting_unitary_rejected(self):
        # distinct lam: the swap is unitary but does not commute with diag(mu/lam)
        pt = sb.random_phase_triple(2, np.random.default_rng(6))
        wd = sb.compute_weight_data(pt)
        assert not sb.validate_intertwiner(SWAP2, wd, 0.5 * wd.lam0)

    def test_rho_out_of_range(self):
        _, wd, _ = em_data(0.5)
        for rho in (0.0, -0.1, wd.lam0, 2 * wd.lam0):
            with pytest.raises(RhoOutOfRange):
                sb.validate_intertwiner(np.eye(1), wd, rho)


class TestBuildGenerator:
    def test_em_half_closed_forms(self):
        _, wd, gen = em_data(0.5)
        assert gen.Q[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gen.S[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gen.mu[0] ** 2 == pytest.approx(1.0 / 24.0, abs=1e-15)

    def test_ghs_half_closed_forms(self):
        _, wd, gen = ghs_data(0.5)
        assert np.allclose(gen.Q, SWAP2 / 4.0, atol=1e-14)
        assert np.allclose(gen.S, SWAP2 / 4.0, atol=1e-14)
        assert np.allclose(gen.mu**2, 1.0 / 48.0, atol=1e-15)

    def test_bargmann_hand_substitution(self):
        # lam = 1/2, rho^2 = 3/16 gives mu = 1/4 and Q = mu * lam = 1/8
        _, wd, gen = bargmann_data(rho2=3.0 / 16.0)
        assert gen.mu[0] == pytest.approx(0.25, abs=1e-15)
        assert gen.Q[0, 0] == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_invalid_intertwiner_rejected(self):
        rng = np.random.default_rng(9)
        while True:
            pt = sb.random_phase_triple(2, rng)
            wd = sb.compute_weight_data(pt)
            if wd.lam[1] - wd.lam[0] > 1e-3:
                break
        rho = 0.5 * wd.lam0
        rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert not sb.validate_intertwiner(rot, wd, rho)
        with pytest.raises(IntertwinerInvalid):
            sb.build_generator(wd, rho, rot)

    def test_sq_closed_form(self):
        for data in (em_data(0.4), ghs_data(0.6)):
            _, wd, gen = data
            assert sb.sq_closed_form_residual(wd, gen) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_50_digits(self, n):
        # the grid triples (seeds 1000-1011, X phases 0.3, rho = lam0 / 2)
        # against the 50-digit generator of the same float weight data.  The
        # worst read Q, S 1.5e-15, mu 3.1e-15 and xi 2.1e-14 (n=2 seed 1004,
        # n=3 seed 1008, lam_max / lam0 = 50 and 72): xi's error sits in
        # the eigenvectors of the small lam_i (ROADMAP item 2)
        inputs = bench_module("inputs")
        bounds = {"Q": 4e-15, "S": 4e-15, "mu": 8e-15, "xi_coeff": 5e-14}
        for seed in range(1000, 1012):
            a, b, c = inputs.random_triple(n, np.random.default_rng(seed))
            cfg = sb.RunConfig.from_dict(
                inputs.v1_config(a, b, c, max_degree=1, seed=0, phases=[0.3] * n))
            wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
            gen = sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X)
            for name, want in mp_generator(wd, gen.rho, gen.X).items():
                err = np.max(np.abs(getattr(gen, name) - want)) / np.max(np.abs(want))
                assert err <= bounds[name], (seed, name, err)


class TestCcrMatrix:
    def test_em_half(self):
        _, wd, gen = em_data(0.5)
        out = sb.ccr_matrix(wd, gen.Q)
        assert out[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_bargmann_q_zero(self):
        _, wd, _ = bargmann_data()
        out = sb.ccr_matrix(wd, np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_ghs_half(self):
        _, wd, gen = ghs_data(0.5)
        out = sb.ccr_matrix(wd, gen.Q)
        assert np.allclose(out, np.eye(2) / 3.0, atol=1e-14)

    def test_hermitian_output(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            _, wd, gen = sb.random_generator(n, rng)
            out = sb.ccr_matrix(wd, gen.Q)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestCondition1Margin:
    def test_em_half(self):
        _, wd, gen = em_data(0.5)
        # form is x^2/4 + y^2/2, and rho^2/2 = 1/6 is a lower bound
        assert sb.condition1_margin(wd, gen.Q) == pytest.approx(0.25, abs=1e-14)

    def test_bargmann_q_zero(self):
        _, wd, _ = bargmann_data()
        assert sb.condition1_margin(wd, np.zeros((1, 1))) == pytest.approx(0.25)

    def test_dominating_q_negative(self):
        _, wd, _ = bargmann_data()
        assert sb.condition1_margin(wd, np.eye(1)) < 0

    def test_real_form_matches_direct_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            _, wd, gen = sb.random_generator(n, rng)
            m = sb.matrices.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + gen.Q)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = np.concatenate([z.real, z.imag])
            direct = (z @ (wd.phi_zzbar @ z.conj())).real + (
                z @ ((wd.phi_zz + gen.Q) @ z)
            ).real
            assert w @ m @ w == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestRandomizedInvariants:
    def test_all_identities_on_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            _, wd, gen = sb.random_generator(n, rng)
            eye = np.eye(n)
            assert (
                np.max(np.abs(sb.ccr_matrix(wd, gen.Q) - 2 * gen.rho2 * eye)) <= 1e-10
            )
            assert sb.eq2202_residual(wd, gen) <= 1e-10
            assert sb.condition1_margin(wd, gen.Q) >= gen.rho2 / 2.0 - 1e-12
            assert np.max(np.abs(gen.S - gen.S.T)) == 0.0 or np.max(
                np.abs(gen.S - gen.S.T)
            ) < 1e-12


def _identity_runs():
    # random triples at n = 1-4 (the grid's recipe) and the golden examples
    inputs = bench_module("inputs")
    for n in (1, 2, 3, 4):
        for seed in (1000, 1001):
            a, b, c = inputs.random_triple(n, np.random.default_rng(seed))
            cfg = sb.RunConfig.from_dict(
                inputs.v1_config(a, b, c, max_degree=1, seed=0, phases=[0.3] * n))
            yield pytest.param(lambda cfg=cfg: pipeline.run_verify(cfg), id=f"n{n}-{seed}")
    yield pytest.param(lambda: pipeline.run_example("em", 0.5, max_degree=1), id="em")
    yield pytest.param(lambda: pipeline.run_example("ghs", 0.45, max_degree=1), id="ghs")


class TestOneImplementationPerIdentity:
    """The algebra stage reads each identity from the one formula the public
    residual functions use, and a run forms the factorization product
    (phi_zz+Q) conj(beta) (phi_zz+Q)^* once, in ``build_generator``."""

    @pytest.mark.parametrize("run", list(_identity_runs()))
    def test_report_equals_the_public_residuals(self, run, monkeypatch):
        # record the run's weight data and generator, and count the products
        seen, products = {}, []
        for name in ("compute_weight_data", "build_generator"):
            def wrapped(*args, _name=name, _fn=getattr(pipeline, name)):
                seen[_name] = _fn(*args)
                return seen[_name]
            monkeypatch.setattr(pipeline, name, wrapped)
        factorization = model._factorization
        monkeypatch.setattr(model, "_factorization",
                            lambda *args: products.append(1) or factorization(*args))
        res = run().residuals
        assert len(products) == 1
        wd, gen = seen["compute_weight_data"], seen["build_generator"]
        eye = np.eye(wd.n)
        assert res["ccr"] == np.max(np.abs(sb.ccr_matrix(wd, gen.Q) - 2 * gen.rho2 * eye))
        assert res["eq2202"] == sb.eq2202_residual(wd, gen)
        assert res["condition1_margin"] == sb.condition1_margin(wd, gen.Q)
        assert res["sq_closed_form"] == sb.sq_closed_form_residual(wd, gen)
        assert res["symmetry_Q"] == np.max(np.abs(gen.Q - gen.Q.T))
        assert res["symmetry_S"] == np.max(np.abs(gen.S - gen.S.T))
        gq = wd.phi_zz + gen.Q
        assert gen.factorization.tobytes() == (gq @ wd.beta.conj() @ gq.conj().T).tobytes()


class TestCreationCoefficient:
    """xi_coeff in the closed form conj(U) diag(mu) conj(X) diag(1/lam) U^H."""

    def test_equals_conj_gq_beta(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            n = int(rng.integers(1, 6))
            _, wd, gen = sb.random_generator(n, rng)
            old = (wd.phi_zz + gen.Q).conj() @ wd.beta
            assert np.max(np.abs(gen.xi_coeff - old)) <= 1e-10 * np.max(np.abs(old))

    def test_gram_cosine_at_n5(self):
        # conj(phi_zz + Q) beta cancelled here: cosine 1.6e-8 before the closed form
        pt = sb.random_phase_triple(5, np.random.default_rng(1000))
        wd = sb.compute_weight_data(pt)
        gen = sb.build_generator(wd, 0.5 * wd.lam0, np.diag(np.exp(0.3j * np.ones(5))))
        _, gram = sb.gram_matrix(sb.hermite_family(wd, gen, 3), wd)
        diag = np.sqrt(np.diag(gram).real)
        cosine = np.abs(gram - np.diag(np.diag(gram))) / np.outer(diag, diag)
        assert np.max(cosine) <= 1e-9


class TestSizeChecks:
    """Every matrix-size check of this layer, reached from outside."""

    @pytest.mark.parametrize(
        "case", ["as_square", "triple", "with_unitary", "intertwiner", "ccr_matrix"]
    )
    def test_raises(self, case):
        _, wd, _ = em_data(0.5)
        calls = {
            "as_square": lambda: sb.matrices.as_square(np.ones((2, 3)), "M"),
            "triple": lambda: sb.validate_phase_triple(np.eye(2), np.eye(1), 1j * np.eye(1)),
            "with_unitary": lambda: sb.with_unitary(wd, np.eye(2)),
            "intertwiner": lambda: sb.validate_intertwiner(np.eye(2), wd, 0.5 * wd.lam0),
            "ccr_matrix": lambda: sb.ccr_matrix(wd, np.eye(2)),
        }
        with pytest.raises(sb.DimensionMismatch):
            calls[case]()
