"""Forward/inverse transform, reproducing kernel, and isometry checks."""

import importlib
import math

import numpy as np
import pytest

import sbhermite as sb
from sbhermite.errors import QuadratureUnderflow

from helpers import (
    bargmann_data,
    bargmann_triple,
    em_data,
    ghs_data,
    ground_image,
    ground_state,
    random_poly,
)

# the package re-exports the function ``transform`` under the module's name
transform_module = importlib.import_module("sbhermite.transform")


QUAD = sb.QuadSpec(nodes=64)


class TestForwardTransform:
    def test_ground_hermite_is_constant(self):
        pt = bargmann_triple()
        u0 = sb.TestFunction.hermite_basis((0,))
        want = (2.0 * math.pi) ** -0.5
        v0 = sb.transform(pt, u0, [0.0], QUAD)
        v1 = sb.transform(pt, u0, [2.0 + 1.0j], QUAD)
        assert v0 == pytest.approx(want, rel=1e-10)
        assert abs(v1 - v0) < 1e-6

    def test_zero_function(self):
        pt = bargmann_triple()
        zero = sb.TestFunction(n=1, coefficients={})
        assert sb.transform(pt, zero, [0.7 + 0.3j], QUAD) == 0.0

    def test_linearity(self):
        pt = em_data(0.5)[0]
        u0 = sb.TestFunction.hermite_basis((0,))
        u1 = sb.TestFunction.hermite_basis((1,))
        mix = sb.TestFunction(n=1, coefficients={(0,): 2.0, (1,): -1.5j})
        z = [0.4 - 0.2j]
        lhs = sb.transform(pt, mix, z, QUAD)
        rhs = 2.0 * sb.transform(pt, u0, z, QUAD) - 1.5j * sb.transform(pt, u1, z, QUAD)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_fixed_center_underflow(self):
        pt = bargmann_triple()
        u0 = sb.TestFunction.hermite_basis((0,))
        quad = sb.QuadSpec(nodes=16, center=np.array([30.0]))
        with pytest.raises(QuadratureUnderflow):
            sb.transform(pt, u0, [0.0], quad)


class TestKernel:
    def test_standard_constant(self):
        pt = bargmann_triple()
        kp = sb.make_kernel_params(pt)
        assert sb.kernel_eval(kp, [0.0], [0.0]) == pytest.approx(1.0 / (2 * math.pi))

    def test_diagonal_matches_weight(self):
        rng = np.random.default_rng(4)
        for data in (bargmann_data()[:2], em_data(0.5)[:2]):
            pt, wd = data
            kp = sb.make_kernel_params(pt, wd)
            for _ in range(10):
                z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
                val = sb.kernel_eval(kp, z, z)
                want = kp.c_Phi * math.exp(
                    2.0
                    * (
                        (z @ (wd.phi_zzbar @ z.conj())).real
                        + (z @ (wd.phi_zz @ z)).real
                    )
                )
                assert val.real == pytest.approx(want, rel=1e-10)
                assert abs(val.imag) <= 1e-10 * abs(want)

    def test_kernel_reproduces_ground_state(self):
        pt, wd, gen = bargmann_data()
        kp = sb.make_kernel_params(pt, wd)
        psi0 = sb.ground_state(gen)
        for z in ([0.3 + 0.2j], [1.0 - 0.5j], [0.0]):
            got = sb.kernel_reproduce(kp, wd, psi0, z, QUAD)
            want = sb.evaluate(psi0, z)
            assert abs(got - want) <= 1e-3
            assert abs(got - want) <= 1e-10  # spectrally exact here


class TestInverseTransform:
    def test_constant_maps_to_ground_hermite(self):
        pt, wd, _ = bargmann_data()
        const = (2.0 * math.pi) ** -0.5
        f = lambda Z: np.full(Z.shape[0], const, dtype=complex)  # noqa: E731
        got = sb.inverse_transform(pt, f, [0.0], QUAD, wd, decay=np.zeros((1, 1)))
        assert got.real == pytest.approx(math.pi**-0.25, abs=1e-3)

    def test_zero(self):
        pt, wd, _ = bargmann_data()
        f = lambda Z: np.zeros(Z.shape[0], dtype=complex)  # noqa: E731
        assert sb.inverse_transform(pt, f, [0.5], QUAD, wd, decay=np.zeros((1, 1))) == 0.0

    @pytest.mark.parametrize("k", [0, 1])
    def test_round_trip_standard(self, k):
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((k,))
        xs = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
        assert sb.round_trip_error(pt, u, xs, QUAD, wd) <= 1e-3

    def test_round_trip_em(self):
        pt, wd, _ = em_data(0.5)
        u = sb.TestFunction.hermite_basis((0,))
        xs = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)
        assert sb.round_trip_error(pt, u, xs, QUAD, wd) <= 1e-3

    def test_fixed_center_underflow(self):
        pt, wd, gen = bargmann_data()
        psi0 = sb.ground_state(gen)
        quad = sb.QuadSpec(nodes=16, center=np.full(2, 40.0))
        with pytest.raises(QuadratureUnderflow):
            sb.inverse_transform(pt, psi0, [0.0], quad, wd)

    def test_node_doubling_convergence(self):
        # error should drop by 10x per doubling until the rounding floor
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((0,))
        xs = np.array([[0.7]])
        errs = [
            sb.round_trip_error(pt, u, xs, sb.QuadSpec(nodes=m), wd)
            for m in (8, 16, 32)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 10.0 or b < 1e-12


class TestIsometry:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_standard(self, k):
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((k,))
        assert sb.isometry_residual(pt, u, wd, QUAD, mode="fit") <= 1e-4

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_em_family(self, s, k):
        pt, wd, _ = em_data(s)
        u = sb.TestFunction.hermite_basis((k,))
        assert sb.isometry_residual(pt, u, wd, QUAD, mode="fit") <= 1e-3

    def test_fit_and_quad_agree(self):
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((0,))
        r_fit = sb.isometry_residual(pt, u, wd, QUAD, mode="fit")
        r_quad = sb.isometry_residual(pt, u, wd, sb.QuadSpec(nodes=48), mode="quad")
        assert abs(r_fit - r_quad) <= 1e-8

    def test_zero_function_rejected(self):
        pt, wd, _ = bargmann_data()
        with pytest.raises(ValueError):
            sb.isometry_residual(pt, sb.TestFunction(n=1, coefficients={}), wd, QUAD)


class TestWeightIdentity:
    def test_psi_diagonal_equals_phi(self):
        # the kernel exponent evaluated at zeta = z reproduces the weight
        rng = np.random.default_rng(8)
        pt, wd, _ = em_data(0.4)
        kp = sb.make_kernel_params(pt, wd)
        for _ in range(10):
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            zb = z.conj()
            psi = (
                z @ (kp.psi_zzbar @ zb)
                + 0.5 * z @ (kp.psi_zz @ z)
                + 0.5 * zb @ (kp.psi_zz.conj() @ zb)
            )
            phi = (z @ (wd.phi_zzbar @ zb)).real + (z @ (wd.phi_zz @ z)).real
            assert psi.real == pytest.approx(phi, rel=1e-10)
            assert abs(psi.imag) <= 1e-12 * max(1.0, abs(phi))


class TestGhsClosedForms:
    """n = 2 quadrature against closed forms on the golden ghs triple."""

    S = 0.45

    def test_kernel_reproduces_degree_three(self):
        pt, wd, gen = ghs_data(self.S)
        kp = sb.make_kernel_params(pt, wd)
        rng = np.random.default_rng(11)
        f = random_poly(2, 3, gen.Q, rng)
        for z in ([0.3 + 0.1j, -0.4 + 0.2j], [1.0 - 0.5j, 0.2 + 0.7j], [0.0, 0.0]):
            got = sb.kernel_reproduce(kp, wd, f, z, sb.QuadSpec(nodes=32))
            want = sb.evaluate(f, z)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_inverse_of_ground_image(self):
        pt, wd, _ = ghs_data(self.S)
        c0, m = ground_image(pt)
        kappa = 0.7 - 0.3j
        image = sb.GaussPoly(sb.PolyC.constant(2, kappa * c0), m)
        scale = abs(kappa) * ground_state(np.zeros(2))[0]
        for x in ([0.0, 0.0], [0.3, -0.2], [1.1, 0.5]):
            got = sb.inverse_transform(pt, image, x, sb.QuadSpec(nodes=24), wd)
            want = kappa * ground_state(x)[0]
            assert abs(got - want) <= 1e-10 * scale

    def test_transform_batch_of_ground_state(self):
        pt, _, _ = ghs_data(self.S)
        c0, m = ground_image(pt)
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        u0 = sb.TestFunction.hermite_basis((0, 0))
        got = sb.transform_batch(pt, u0, Z, sb.QuadSpec(nodes=32))
        want = c0 * np.exp(-np.einsum("qi,ij,qj->q", Z, m, Z))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_kernel_fixed_center_underflow(self):
        pt, wd, gen = ghs_data(self.S)
        kp = sb.make_kernel_params(pt, wd)
        quad = sb.QuadSpec(nodes=16, center=np.full(4, 40.0))
        with pytest.raises(QuadratureUnderflow):
            sb.kernel_reproduce(kp, wd, sb.ground_state(gen), [0.0, 0.0], quad)

    @pytest.mark.parametrize("slab", [750, 7])
    def test_slab_boundaries_do_not_change_values(self, monkeypatch, slab):
        # 750 points: runs of 5 leading indices over 12^2 trailing nodes, which
        # divide neither the 144 leading kernel indices nor the 7 batch rows;
        # 7 points: shorter than one node axis, one leading index per slab
        pt, wd, gen = ghs_data(self.S)
        kp = sb.make_kernel_params(pt, wd)
        f = random_poly(2, 3, gen.Q, np.random.default_rng(13))
        z = [0.3 + 0.1j, -0.4 + 0.2j]
        u = sb.TestFunction(2, {(0, 0): 1.0, (1, 1): 0.5j, (2, 0): -0.25})
        rng = np.random.default_rng(14)
        Z = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        quad = sb.QuadSpec(nodes=12)
        kernel = sb.kernel_reproduce(kp, wd, f, z, quad)
        batch = sb.transform_batch(pt, u, Z, quad)
        monkeypatch.setattr(transform_module, "_SLAB_POINTS", slab)
        got = sb.kernel_reproduce(kp, wd, f, z, quad)
        assert abs(got - kernel) <= 1e-14 * abs(kernel)
        got = sb.transform_batch(pt, u, Z, quad)
        assert np.max(np.abs(got - batch)) <= 1e-14 * np.max(np.abs(batch))


class TestHermiteEvaluation:
    """polynomial_part against a term-wise hermval reference."""

    @staticmethod
    def reference(u, pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        size = np.zeros(pts.shape[0])
        for alpha, c in u.coefficients.items():
            term = np.full(pts.shape[0], complex(c))
            for i, k in enumerate(alpha):
                unit = np.zeros(k + 1)
                unit[k] = 1.0
                norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
                term = term * np.polynomial.hermite.hermval(pts[:, i], unit) / norm
            out += term
            size += np.abs(term)
        return out, size

    @pytest.mark.parametrize("n,degree", [(1, 12), (2, 12), (3, 6), (3, 12)])
    def test_matches_termwise_hermval(self, n, degree):
        rng = np.random.default_rng(100 + 10 * n + degree)
        coeffs = {
            a: complex(*rng.standard_normal(2)) for a in sb.multi_indices(n, degree)
        }
        u = sb.TestFunction(n, coeffs)
        pts = 2.0 * rng.standard_normal((25, n))
        want, size = self.reference(u, pts)
        got = u.polynomial_part(pts)
        assert got.shape == (25,)
        assert np.all(np.abs(got - want) <= 1e-12 * size)
        one, one_size = self.reference(u, pts[:1])
        assert abs(u.polynomial_part(pts[0])[0] - one[0]) <= 1e-12 * one_size[0]

    def test_sparse_and_empty(self):
        u = sb.TestFunction(2, {(3, 0): 2.0, (0, 5): -1j})
        pts = np.array([[0.4, -1.3], [2.0, 0.1]])
        want, size = self.reference(u, pts)
        assert np.all(np.abs(u.polynomial_part(pts) - want) <= 1e-12 * size)
        zero = sb.TestFunction(2, {})
        assert np.all(zero.polynomial_part(pts) == 0.0)
