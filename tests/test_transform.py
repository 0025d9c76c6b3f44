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

    @pytest.mark.parametrize("nodes", [sb.MAX_NODES + 1, 400, 0])
    def test_node_count_outside_valid_rule(self, nodes):
        # numpy's rule has zero weights at 371 nodes and NaN beyond
        pt = bargmann_triple()
        u0 = sb.TestFunction.hermite_basis((0,))
        with pytest.raises(ValueError, match="nodes"):
            sb.transform(pt, u0, [0.0], sb.QuadSpec(nodes=nodes))

    def test_largest_valid_rule(self):
        pt = bargmann_triple()
        u0 = sb.TestFunction.hermite_basis((0,))
        got = sb.transform(pt, u0, [0.5], sb.QuadSpec(nodes=sb.MAX_NODES))
        assert got == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-10)


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
        const = sb.PolyC.constant(1, (2.0 * math.pi) ** -0.5)
        f = sb.GaussPoly(const, np.zeros((1, 1)))
        got = sb.inverse_transform(pt, f, [0.0], QUAD, wd)
        assert got.real == pytest.approx(math.pi**-0.25, abs=1e-3)

    def test_zero(self):
        pt, wd, _ = bargmann_data()
        f = sb.GaussPoly(sb.PolyC(1), np.zeros((1, 1)))
        assert sb.inverse_transform(pt, f, [0.5], QUAD, wd) == 0.0

    def test_callable_rejected(self):
        pt, wd, _ = bargmann_data()
        f = lambda Z: np.zeros(Z.shape[0], dtype=complex)  # noqa: E731
        with pytest.raises(TypeError, match="GaussPoly"):
            sb.inverse_transform(pt, f, [0.5], QUAD, wd)

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


class TestExactImageQuadrature:
    """The round trip and the quadrature isometry integrate the exact image
    ``transform_image(pt, u)``; no forward quadrature runs inside them."""

    def test_no_forward_quadrature(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("forward quadrature called")

        monkeypatch.setattr(transform_module, "transform_batch", boom)
        pt, wd, _ = em_data(0.5)
        u = sb.TestFunction(1, {(0,): 1.0, (1,): -0.5j})
        xs = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)
        assert sb.round_trip_error(pt, u, xs, QUAD, wd) <= 1e-12
        assert sb.isometry_residual(pt, u, wd, QUAD, mode="quad") <= 1e-12

    def test_round_trip_degree_two_em(self):
        # 4.1e-7 when the inverse integrated a forward quadrature at each node
        pt, wd, _ = em_data(0.3)
        u = sb.TestFunction(1, {(0,): 1.0, (1,): 0.5j, (2,): -0.75})
        xs = np.linspace(-2.0, 2.0, 7).reshape(-1, 1)
        err = sb.round_trip_error(pt, u, xs, QUAD, wd)
        assert err <= 1e-12 * math.sqrt(u.norm_sq())

    def test_random_triples_at_n2(self):
        rng = np.random.default_rng(60)
        for _ in range(3):
            pt = sb.random_phase_triple(2, rng)
            wd = sb.compute_weight_data(pt)
            u = random_test_function(2, 3, rng)
            xs = rng.standard_normal((2, 2))
            err = sb.round_trip_error(pt, u, xs, sb.QuadSpec(nodes=32), wd)
            assert err <= 1e-5 * math.sqrt(u.norm_sq())
            r_quad = sb.isometry_residual(pt, u, wd, sb.QuadSpec(nodes=16), mode="quad")
            r_fit = sb.isometry_residual(pt, u, wd, mode="fit")
            assert r_quad <= 1e-10
            assert abs(r_quad - r_fit) <= 1e-10

    def test_hermite_rule_is_cached_read_only(self):
        pt, wd, gen = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        f = random_poly(2, 2, gen.Q, np.random.default_rng(15))
        z = [0.3 + 0.1j, -0.4 + 0.2j]
        transform_module._hermite_rule.cache_clear()
        first = sb.kernel_reproduce(kp, wd, f, z, sb.QuadSpec(nodes=20))
        t, wt = transform_module._hermite_rule(20)
        again = transform_module._hermite_rule(20)
        assert again[0] is t and again[1] is wt
        assert not t.flags.writeable and not wt.flags.writeable
        ref_t, ref_wt = np.polynomial.hermite.hermgauss(20)
        assert np.array_equal(t, ref_t) and np.array_equal(wt, ref_wt)
        assert sb.kernel_reproduce(kp, wd, f, z, sb.QuadSpec(nodes=20)) == first


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


def random_test_function(n, degree, rng):
    return sb.TestFunction(
        n, {a: complex(*rng.standard_normal(2)) for a in sb.multi_indices(n, degree)}
    )


class TestTransformImage:
    """Exact images T u as GaussPolys, with no quadrature."""

    def test_ground_image_closed_form(self):
        rng = np.random.default_rng(40)
        triples = [bargmann_triple(), em_data(0.3)[0], ghs_data(0.45)[0]]
        triples += [sb.random_phase_triple(n, rng) for n in (1, 2, 3, 4) for _ in range(3)]
        for pt in triples:
            c0, m = ground_image(pt)
            image = sb.transform_image(pt, sb.TestFunction.hermite_basis((0,) * pt.n))
            assert list(image.poly.terms) == [(0,) * pt.n]
            assert abs(image.poly.terms[(0,) * pt.n] - c0) <= 1e-13 * abs(c0)
            assert np.max(np.abs(image.M - m)) <= 1e-13 * max(1.0, np.max(np.abs(m)))

    @pytest.mark.parametrize("n,nodes", [(1, 64), (2, 48)])
    def test_matches_quadrature(self, n, nodes):
        rng = np.random.default_rng(41 + n)
        for _ in range(3):
            pt = sb.random_phase_triple(n, rng)
            for degree in (1, 4):
                u = random_test_function(n, degree, rng)
                Z = 0.5 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
                image = sb.transform_image(pt, u)
                got = image.poly(Z) * np.exp(-np.einsum("qi,ij,qj->q", Z, image.M, Z))
                want = sb.transform_batch(pt, u, Z, sb.QuadSpec(nodes=nodes))
                assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_isometry_on_random_triples(self, n):
        # |alpha| <= 1, as in the pipeline: at higher degree the monomial
        # expansion of the image cancels (terms up to 1e8 x its norm at n = 4,
        # degree 3), and the residual grows by that factor times eps
        rng = np.random.default_rng(50 + n)
        for _ in range(10):
            pt = sb.random_phase_triple(n, rng)
            wd = sb.compute_weight_data(pt)
            units = [sb.TestFunction.hermite_basis(a) for a in sb.multi_indices(n, 1)]
            for u in units + [random_test_function(n, 1, rng)]:
                assert sb.isometry_residual(pt, u, wd, mode="fit") <= 1e-10
            _, gram = sb.gram_matrix(sb.hermite_images(pt, 1), wd)
            assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(sb.DimensionMismatch):
            sb.transform_image(bargmann_triple(2), sb.TestFunction.hermite_basis((0,)))

    def test_exact_paths_use_no_quadrature(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(transform_module, "_gauss_hermite", boom)
        pt, wd, _ = ghs_data(0.45)
        u = sb.TestFunction(2, {(0, 0): 1.0, (1, 2): 0.5j})
        assert sb.isometry_residual(pt, u, wd, QUAD, mode="fit") <= 1e-10
        report = sb.run_example("ghs", 0.45, max_degree=2)
        assert report.overall_pass and report.residuals["isometry"] <= 1e-12
        with pytest.raises(AssertionError, match="quadrature called"):
            sb.isometry_residual(pt, u, wd, sb.QuadSpec(nodes=8), mode="quad")


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
