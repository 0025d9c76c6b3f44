"""Triple validation, weight data, and generator construction."""

import math

import numpy as np
import pytest

import sbhermite as sb
from sbhermite.errors import (
    IntertwinerInvalid,
    NonPositiveCI,
    NonSymmetricA,
    NonSymmetricC,
    RhoOutOfRange,
    SingularB,
)

from helpers import SWAP2, bargmann_data, bargmann_triple, em_data, ghs_data


class TestMatrixPredicates:
    def test_symmetric_hermitian_unitary(self):
        sym = np.array([[1.0, 2.0j], [2.0j, 3.0]])
        assert sb.matrices.is_symmetric(sym, 1e-12)
        assert not sb.matrices.is_hermitian(sym, 1e-12)
        herm = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
        assert sb.matrices.is_hermitian(herm, 1e-12)
        assert not sb.matrices.is_symmetric(herm, 1e-12)
        phase = np.diag(np.exp(1j * np.array([0.4, -1.1])))
        assert sb.matrices.is_unitary(phase, 1e-12)
        assert not sb.matrices.is_unitary(np.diag([2.0, 1.0]), 1e-12)

    def test_tolerance_is_explicit(self):
        nearly = np.array([[0.0, 1e-9], [0.0, 0.0]], dtype=complex)
        assert sb.matrices.is_symmetric(nearly, 1e-8)
        assert not sb.matrices.is_symmetric(nearly, 1e-10)


class TestValidatePhaseTriple:
    def test_standard_triple(self):
        pt = bargmann_triple()
        assert pt.C_I[0, 0] == pytest.approx(1.0)
        assert pt.c_phi == pytest.approx(2.0**-0.5 * math.pi**-0.75, rel=1e-14)

    def test_real_c_rejected(self):
        with pytest.raises(NonPositiveCI):
            sb.validate_phase_triple([[0.0]], [[1.0]], [[1.0]])

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


class TestValidateIntertwiner:
    def test_diagonal_phases(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            pt = sb.random_phase_triple(n, rng)
            wd = sb.compute_weight_data(pt)
            x = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
            assert sb.validate_intertwiner(x, wd, 0.5 * wd.lam0, 1e-10)

    def test_swap_on_degenerate_pair(self):
        _, wd, _ = ghs_data(0.5)
        rho = math.sqrt((1 - 0.5) / (2 * 1.5))
        assert sb.validate_intertwiner(SWAP2, wd, rho, 1e-10)

    def test_nonunitary_rejected(self):
        rng = np.random.default_rng(6)
        pt = sb.random_phase_triple(2, rng)
        wd = sb.compute_weight_data(pt)
        assert not sb.validate_intertwiner(np.diag([2.0, 1.0]), wd, 0.5 * wd.lam0, 1e-10)

    def test_rho_out_of_range(self):
        _, wd, _ = em_data(0.5)
        for rho in (0.0, -0.1, wd.lam0, 2 * wd.lam0):
            with pytest.raises(RhoOutOfRange):
                sb.validate_intertwiner(np.eye(1), wd, rho, 1e-10)


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
        assert not sb.validate_intertwiner(rot, wd, rho, 1e-10)
        with pytest.raises(IntertwinerInvalid):
            sb.build_generator(wd, rho, rot)

    def test_sq_closed_form(self):
        for data in (em_data(0.4), ghs_data(0.6)):
            _, wd, gen = data
            assert sb.sq_closed_form_residual(wd, gen) < 1e-12


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
