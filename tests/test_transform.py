"""Forward/inverse transform, reproducing kernel, and isometry checks."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

import sbhermite as sb
from sbhermite import gausspoly as gausspoly_module
from sbhermite.errors import NonIntegrableWeight
from sbhermite.matrices import complex_coords

from helpers import (
    bargmann_data,
    bargmann_triple,
    brute_force_gauss_hermite,
    continued_root_det,
    eigenvalue_root_det,
    em_data,
    ghs_data,
    ground_image,
    ground_state,
    hermite_images,
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

    @pytest.mark.parametrize("nodes", [sb.MAX_NODES + 1, 400, 0, True, 32.0, 32.5])
    def test_node_count_outside_valid_rule(self, nodes):
        # numpy's rule has zero weights at 371 nodes and NaN beyond; a bool
        # or a float is no node count, even where it equals an integer
        pt = bargmann_triple()
        u0 = sb.TestFunction.hermite_basis((0,))
        with pytest.raises(ValueError, match="nodes"):
            sb.transform(pt, u0, [0.0], sb.QuadSpec(nodes=nodes))

    def test_numpy_integer_node_count(self):
        quad = sb.QuadSpec(nodes=np.int64(32))
        assert type(quad.nodes) is int and quad == sb.QuadSpec(nodes=32)

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

    def test_node_doubling_convergence(self):
        # the integrals are exact: every node count gives the same value, at
        # the rounding floor (the quadrature dropped 10x per doubling)
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((0,))
        xs = np.array([[0.7]])
        errs = [
            sb.round_trip_error(pt, u, xs, sb.QuadSpec(nodes=m), wd)
            for m in (8, 16, 32)
        ]
        assert errs[0] == errs[1] == errs[2] < 1e-15


class TestRootDet:
    """``_root_det``, the one square root of a Gaussian determinant: the
    inverse, the kernel identity and T h_0 all take theirs from it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_mpmath_continuation(self, n):
        # |Im P| up to 10 |Re P|, Im P indefinite or definite.  A definite
        # Im P turns det P past the cut at n >= 3, where the principal root
        # of det P has the wrong sign: the sample must hit that case
        rng = np.random.default_rng(90 + n)
        flips = 0
        for ratio in (0.0, 0.3, 1.0, 3.0, 10.0):
            for definite in (False, True):
                g, h = rng.standard_normal((2, n, n))
                re = g @ g.T + 0.2 * np.eye(n)
                im = h @ h.T if definite else h + h.T
                im *= ratio * np.linalg.norm(re, 2) / np.linalg.norm(im, 2)
                P = re + 1j * im
                want = continued_root_det(P)
                got = transform_module._root_det(P)
                assert abs(got - want) <= 5e-15 * abs(want), (ratio, definite)
                flips += abs(np.sqrt(np.linalg.det(P)) + want) < abs(want)
        assert flips > 0 or n < 3

    def test_transform_constant_against_eigenvalue_roots(self):
        # W = E - iC of T h_0: the product of the eigenvalues' principal roots
        rng = np.random.default_rng(95)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                w = np.eye(n) - 1j * sb.random_phase_triple(n, rng).C
                want = eigenvalue_root_det(w)
                assert abs(transform_module._root_det(w) - want) <= 1e-14 * abs(want)


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

    def test_integrator_plan_is_cached_read_only(self):
        # the exact integral keeps no plan of its own: its heat polynomial is
        # a chain, planned by gausspoly per shape, read-only, and a warm call
        # equals a cold one bit for bit
        pt, wd, gen = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        f = random_poly(2, 3, gen.Q, np.random.default_rng(16))
        z = [[0.3 + 0.1j, -0.4 + 0.2j], [0.1 - 0.2j, 0.2 + 0.3j]]
        plans = (gausspoly_module._chain_plan, gausspoly_module._kernel_plan)
        for plan in plans:
            plan.cache_clear()
        cold = sb.kernel_reproduce(kp, wd, f, z)
        hits = [plan.cache_info().hits for plan in plans]
        warm = sb.kernel_reproduce(kp, wd, f, z)
        assert np.array_equal(cold, warm)
        for plan, before in zip(plans, hits):
            assert plan.cache_info().hits > before
        assert not [v for v in vars(transform_module).values() if hasattr(v, "cache_clear")]
        steps, place = gausspoly_module._chain_plan(2, tuple(sb.multi_indices(2, 3)))
        for a in [a for part in steps + place for a in part]:
            assert not a.flags.writeable

    @pytest.mark.parametrize("nodes", [16, 64])
    def test_plans_stay_small_at_n3(self, nodes):
        # one n = 3 kernel row.  The quadrature kept a lead grid of 16^3 or
        # 64^3 points x 7 numbers resident (229 KB or 14.0 MB); the exact
        # integral keeps only chain plans, whatever the node count
        rng = np.random.default_rng(17)
        pt = sb.random_phase_triple(3, rng)
        wd = sb.compute_weight_data(pt)
        kp = sb.make_kernel_params(pt, wd)
        f = sb.transform_image(pt, random_test_function(3, 3, rng))
        z = [0.2 + 0.1j, -0.1 + 0.3j, 0.3 - 0.2j]
        # a first call loads what any call loads (lazy imports, other caches)
        sb.kernel_reproduce(kp, wd, f, z, sb.QuadSpec(nodes=nodes))
        plans = [v for module in (transform_module, gausspoly_module)
                 for v in vars(module).values() if hasattr(v, "cache_clear")]
        for plan in plans:
            plan.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            value = sb.kernel_reproduce(kp, wd, f, z, sb.QuadSpec(nodes=nodes))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024
        assert sum(plan.cache_info().currsize for plan in plans) >= 2
        assert abs(value - sb.evaluate(f, z)) <= 1e-10 * abs(value)

    def test_round_trip_inverts_all_points_in_one_call(self, monkeypatch):
        calls = []
        exact = transform_module._over_cn

        def counting(P, beta, c, poly):
            calls.append(beta.shape[0])
            return exact(P, beta, c, poly)

        pt, wd, _ = em_data(0.3)
        u = sb.TestFunction(1, {(0,): 1.0, (1,): 0.5j, (2,): -0.75})
        xs = np.linspace(-2.0, 2.0, 7).reshape(-1, 1)
        image = sb.transform_image(pt, u)
        each = max(abs(sb.inverse_transform(pt, image, x, QUAD, wd) - u(x)) for x in xs)
        monkeypatch.setattr(transform_module, "_over_cn", counting)
        err = sb.round_trip_error(pt, u, xs, QUAD, wd)
        assert calls == [7]
        assert abs(err - each) <= 1e-13 * math.sqrt(u.norm_sq())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identities_on_random_triples(self, n):
        # the worst of these 20 draws: the kernel misses F(z) by 1.0e-15,
        # 7.0e-14 and 1.4e-11 of max |F|, the round trip u by 2.7e-15,
        # 8.5e-14 and 1.3e-11 ||u|| (n = 1, 2, 3)
        kernel_bound = {1: 1e-13, 2: 1e-10, 3: 1e-10}[n]
        rng = np.random.default_rng(90 + n)
        for _ in range(20):
            pt = sb.random_phase_triple(n, rng)
            wd = sb.compute_weight_data(pt)
            kp = sb.make_kernel_params(pt, wd)
            u = random_test_function(n, 3, rng)
            f = sb.transform_image(pt, u)
            z = 0.5 * (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
            want = sb.evaluate(f, z)
            got = sb.kernel_reproduce(kp, wd, f, z)
            assert np.max(np.abs(got - want)) <= kernel_bound * np.max(np.abs(want))
            xs = rng.standard_normal((4, n))
            assert sb.round_trip_error(pt, u, xs, wd=wd) <= 1e-10 * math.sqrt(u.norm_sq())


class TestIsometry:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_standard(self, k):
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((k,))
        assert sb.isometry_residual(pt, u, wd, QUAD, mode="fit") <= 1e-14

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_em_family(self, s, k):
        pt, wd, _ = em_data(s)
        u = sb.TestFunction.hermite_basis((k,))
        assert sb.isometry_residual(pt, u, wd, QUAD, mode="fit") <= 1e-14

    def test_fit_and_quad_agree(self):
        pt, wd, _ = bargmann_data()
        u = sb.TestFunction.hermite_basis((0,))
        r_fit = sb.isometry_residual(pt, u, wd, QUAD, mode="fit")
        r_quad = sb.isometry_residual(pt, u, wd, sb.QuadSpec(nodes=48), mode="quad")
        assert abs(r_fit - r_quad) <= 1e-8

    def test_fit_on_a_degree_three_image(self):
        # the monomial moment sum read 2.5e-9 here where the quadrature of
        # the same image reads 5.4e-13; the Wick-frame norm reads 3.3e-13
        rng = np.random.default_rng(7)
        pt = sb.random_phase_triple(2, rng)
        wd = sb.compute_weight_data(pt)
        u = random_test_function(2, 3, rng)
        r_fit = sb.isometry_residual(pt, u, wd, mode="fit")
        r_quad = sb.isometry_residual(pt, u, wd, sb.QuadSpec(nodes=16), mode="quad")
        assert r_fit <= 1e-12 and abs(r_fit - r_quad) <= 1e-12

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
                want, _ = brute_force_transform(pt, u, Z, nodes)
                assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_isometry_on_random_triples(self, n):
        # |alpha| <= 3: the monomial moment matrix cancelled here (terms up
        # to 1e8 x the image norm at n = 4, degree 3); in the Wick frame the
        # worst of these reads 5.9e-13, through the public monomial
        # gram_matrix as well
        rng = np.random.default_rng(50 + n)
        for _ in range(10):
            pt = sb.random_phase_triple(n, rng)
            wd = sb.compute_weight_data(pt)
            units = [sb.TestFunction.hermite_basis(a) for a in sb.multi_indices(n, 3)]
            for u in units + [random_test_function(n, 3, rng)]:
                assert sb.isometry_residual(pt, u, wd, mode="fit") <= 1e-10
            _, gram = sb.gram_matrix(hermite_images(pt, 3), wd)
            assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_image_rows_equal_the_full_block(self, n):
        # transform_image chains the ancestors of u's indices only; its rows
        # are the full image block's rows bit for bit, in either frame
        rng = np.random.default_rng(80 + n)
        pt = sb.random_phase_triple(n, rng)
        cache = sb.make_moment_cache(sb.compute_weight_data(pt), sb.image_exponent(pt))
        basis = sb.multi_indices(n, 4)
        picks = rng.choice(len(basis), size=4, replace=False)
        alphas = [basis[k] for k in picks]
        width = len(sb.multi_indices(n, max(map(sum, alphas))))
        for frame in (None, cache):
            full, _ = transform_module._image_block(pt, basis, frame)
            rows, _ = transform_module._image_block(pt, alphas, frame)
            assert np.array_equal(rows, full[picks, :width])

    def test_dimension_mismatch(self):
        with pytest.raises(sb.DimensionMismatch):
            sb.transform_image(bargmann_triple(2), sb.TestFunction.hermite_basis((0,)))

    def test_degree(self):
        u = sb.TestFunction(2, {(1, 2): 1.0, (3, 1): 0.5j, (0, 1): 2.0})
        assert u.degree() == 4
        assert sb.TestFunction(2, {}).degree() == 0

    def test_exact_paths_use_no_quadrature(self, monkeypatch):
        # no public transform draws a Gauss-Hermite rule, in either
        # isometry mode
        def boom(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", boom)
        pt, wd, _ = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        u = sb.TestFunction(2, {(0, 0): 1.0, (1, 2): 0.5j})
        image = sb.transform_image(pt, u)
        z = np.array([[0.3 + 0.1j, -0.4 + 0.2j]])
        want = sb.evaluate(image, z)
        for mode in ("fit", "quad"):
            assert sb.isometry_residual(pt, u, wd, QUAD, mode=mode) <= 1e-10
        assert np.array_equal(sb.transform(pt, u, z, QUAD), want)
        assert np.max(np.abs(sb.kernel_reproduce(kp, wd, image, z, QUAD) - want)) <= 1e-10 * abs(
            want[0])
        assert sb.round_trip_error(pt, u, np.zeros((2, 2)), QUAD, wd) <= 1e-10
        report = sb.run_example("ghs", 0.45, max_degree=2)
        assert report.overall_pass and report.residuals["isometry"] <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_sum_of_hermite_images(self, n):
        # the image is one coefficient vector times the image block; the
        # oracle sums c_alpha T h_alpha with the public GaussPoly arithmetic
        rng = np.random.default_rng(70 + n)
        for _ in range(4):
            pt = sb.random_phase_triple(n, rng)
            for degree in range(4):
                u = sb.TestFunction(n, {a: complex(*rng.standard_normal(2))
                                        for a in sb.multi_indices(n, degree)
                                        if rng.random() < 0.7})
                images = hermite_images(pt, u.degree())
                want = sb.GaussPoly(sb.PolyC(n), images[(0,) * n].M)
                for alpha, c in u.coefficients.items():
                    want += images[alpha].scaled(c)
                got = sb.transform_image(pt, u)
                assert np.array_equal(got.M, want.M)
                keys = set(got.poly.terms) | set(want.poly.terms)
                diff = max((abs(got.poly.terms.get(k, 0.0) - want.poly.terms.get(k, 0.0))
                            for k in keys), default=0.0)
                top = max((abs(c) for c in want.poly.terms.values()), default=0.0)
                assert diff <= 1e-15 * top, (degree, diff, top)

    def test_exact_paths_use_no_dict_arithmetic(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("dict arithmetic called")

        for cls in (sb.PolyC, sb.GaussPoly):
            for name in ("__add__", "__sub__", "scaled"):
                monkeypatch.setattr(cls, name, boom)
        pt, wd, gen = ghs_data(0.45)
        u = sb.TestFunction(2, {(0, 0): 1.0, (1, 2): 0.5j, (2, 0): -0.25})
        assert sb.transform_image(pt, u).poly.degree() == 3
        assert sb.round_trip_error(pt, u, np.zeros((2, 2)), sb.QuadSpec(nodes=32), wd) <= 1e-8
        config = sb.RunConfig.from_dict(sb.example_config("ghs", 0.45, max_degree=3))
        assert sb.run_verify(config).overall_pass
        with pytest.raises(AssertionError, match="dict arithmetic called"):
            sb.ground_state(gen).scaled(2.0)


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


def brute_force_transform(pt, u, Z, nodes):
    """T u at the points Z by the brute-force sum of its definition,
    c_phi times the integral of exp(i phi(z, x)) u(x) over R^n, the unit
    envelope of u in the exponent: i phi(z, x) - |x|^2/2 =
    -x^T P x + (i B^T z) . x + i <z, A z>/2.  The sums and term masses."""
    P = 0.5 * (np.eye(pt.n) - 1j * pt.C)
    c = 0.5j * np.einsum("ri,ij,rj->r", Z, pt.A, Z)
    sums, masses = brute_force_gauss_hermite(P, 1j * (Z @ pt.B), c, u.polynomial_part, nodes)
    return pt.c_phi * sums, abs(pt.c_phi) * masses


class TestAgainstBruteForce:
    """The exact integrals against the point-by-point tensor Gauss-Hermite
    sum (``helpers.brute_force_gauss_hermite``) at node counts where it has
    converged, on the golden triples: within 1e-13 of the sum of the terms'
    magnitudes."""

    GOLDEN = [("em", 64), ("ghs", 32)]

    @staticmethod
    def golden(name):
        return em_data(0.5) if name == "em" else ghs_data(0.5)

    @pytest.mark.parametrize("name,nodes", GOLDEN)
    def test_kernel_and_inverse(self, monkeypatch, name, nodes):
        # the brute-force sum runs beside each exact integral, on its
        # (P, beta, c) and polynomial
        exact, pairs = transform_module._over_cn, []

        def both(P, beta, c, poly):
            got = exact(P, beta, c, poly)
            n = beta.shape[1]
            t = complex_coords(n)
            want, mass = brute_force_gauss_hermite(P, beta @ t[n:], c, poly, nodes, t[:n].T)
            pairs.append((got, want, mass))
            return got

        monkeypatch.setattr(transform_module, "_over_cn", both)
        pt, wd, gen = self.golden(name)
        n = pt.n
        rng = np.random.default_rng(400 + n)
        kp = sb.make_kernel_params(pt, wd)
        z = 0.5 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        sb.kernel_reproduce(kp, wd, random_poly(n, 3, gen.Q, rng), z)
        image = sb.transform_image(pt, random_test_function(n, 3, rng))
        sb.inverse_transform(pt, image, rng.standard_normal((2, n)), wd=wd)
        assert len(pairs) == 2
        for got, want, mass in pairs:
            assert np.all(np.abs(got - want) <= 1e-13 * mass)

    @pytest.mark.parametrize("name,nodes", GOLDEN)
    def test_transform_batch(self, name, nodes):
        pt = self.golden(name)[0]
        rng = np.random.default_rng(410 + pt.n)
        u = random_test_function(pt.n, 3, rng)
        Z = 0.5 * (rng.standard_normal((4, pt.n)) + 1j * rng.standard_normal((4, pt.n)))
        want, mass = brute_force_transform(pt, u, Z, nodes)
        assert np.all(np.abs(sb.transform_batch(pt, u, Z) - want) <= 1e-13 * mass)


class TestQuadratureInputs:
    """Malformed inputs at the quadrature entry points raise named errors."""

    def test_kernel_point_of_wrong_length(self):
        pt, wd, gen = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        with pytest.raises(sb.DimensionMismatch):
            sb.kernel_reproduce(kp, wd, sb.ground_state(gen), [0.0], sb.QuadSpec(nodes=8))

    def test_kernel_function_of_wrong_dimension(self):
        pt, wd, _ = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        f = sb.GaussPoly(sb.PolyC.constant(1), np.eye(1))
        with pytest.raises(sb.DimensionMismatch):
            sb.kernel_reproduce(kp, wd, f, [0.0, 0.0], sb.QuadSpec(nodes=8))
        with pytest.raises(sb.DimensionMismatch):
            sb.inverse_transform(pt, f, [0.0, 0.0], sb.QuadSpec(nodes=8), wd)

    def test_kernel_eval_batches_of_unequal_size(self):
        # batches of 3 and 2 points met numpy's broadcast ValueError
        pt, wd, _ = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        z, zeta = 0.1 * np.ones((3, 2)), 0.2j * np.ones((2, 2))
        with pytest.raises(sb.DimensionMismatch, match=r"z \(3, 2\) and zeta \(2, 2\)"):
            sb.kernel_eval(kp, z, zeta)
        # one point still pairs with every point of a batch
        one = sb.kernel_eval(kp, z[0], zeta)
        assert one.shape == (2,)
        assert one.tolist() == sb.kernel_eval(kp, z[:2], zeta).tolist()

    @pytest.mark.parametrize("name", ["z", "x", "Z", "xs"])
    def test_non_finite_point(self, name):
        pt, wd, gen = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        quad = sb.QuadSpec(nodes=8)
        u0 = sb.TestFunction.hermite_basis((0, 0))
        bad = [0.1, np.nan]
        calls = {
            "z": lambda: sb.kernel_reproduce(kp, wd, sb.ground_state(gen), bad, quad),
            "x": lambda: sb.inverse_transform(pt, sb.ground_state(gen), bad, quad, wd),
            "Z": lambda: sb.transform_batch(pt, u0, [bad], quad),
            "xs": lambda: sb.round_trip_error(pt, u0, [bad], quad, wd),
        }
        with pytest.raises(ValueError, match=f"^{name} has non-finite"):
            calls[name]()

    @pytest.mark.parametrize("entry", ["u", "polynomial_part", "transform", "transform_batch",
                                       "kernel_eval", "kernel_eval_zeta", "kernel_reproduce",
                                       "inverse_transform", "round_trip_error"])
    def test_points_pass_the_point_rule(self, entry):
        # one point of length 2n was read as two points (u, polynomial_part,
        # round_trip_error) or met numpy's bare matmul error (kernel_eval)
        pt, wd, gen = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        u = sb.TestFunction(2, {(0, 0): 1.0, (1, 2): 0.5j})
        bad = [0.1, 0.2, 0.3, 0.4]
        quad = sb.QuadSpec(nodes=8)
        calls = {
            "u": ("x", lambda: u(bad)),
            "polynomial_part": ("x", lambda: u.polynomial_part(bad)),
            "transform": ("z", lambda: sb.transform(pt, u, bad, quad)),
            "transform_batch": ("Z", lambda: sb.transform_batch(pt, u, [bad], quad)),
            "kernel_eval": ("z", lambda: sb.kernel_eval(kp, bad, [0.0, 0.0])),
            "kernel_eval_zeta": ("zeta", lambda: sb.kernel_eval(kp, [0.0, 0.0], [0.0])),
            "kernel_reproduce": ("z", lambda: sb.kernel_reproduce(
                kp, wd, sb.ground_state(gen), bad, quad)),
            "inverse_transform": ("x", lambda: sb.inverse_transform(
                pt, sb.ground_state(gen), bad, quad, wd)),
            "round_trip_error": ("xs", lambda: sb.round_trip_error(pt, u, bad, quad, wd)),
        }
        name, call = calls[entry]
        with pytest.raises(sb.DimensionMismatch, match=rf"^{name} must have shape \(2,\)"):
            call()

    def test_batches_give_one_value_per_point(self):
        pt, wd, gen = ghs_data(0.45)
        kp = sb.make_kernel_params(pt, wd)
        u = sb.TestFunction(2, {(0, 0): 1.0, (1, 2): 0.5j})
        f = sb.GaussPoly(sb.PolyC(2, {(0, 0): 1.0, (1, 0): 0.5}), gen.Q)
        quad = sb.QuadSpec(nodes=16)
        rng = np.random.default_rng(3)
        Z = 0.4 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        xs = 0.5 * rng.standard_normal((3, 2))
        np.testing.assert_array_equal(sb.kernel_eval(kp, Z, Z[0]),
                                      [sb.kernel_eval(kp, z, Z[0]) for z in Z])
        for batch, each in [
            (sb.transform(pt, u, Z, quad), [sb.transform(pt, u, z, quad) for z in Z]),
            (sb.kernel_reproduce(kp, wd, f, Z, quad),
             [sb.kernel_reproduce(kp, wd, f, z, quad) for z in Z]),
            (sb.inverse_transform(pt, f, xs, quad, wd),
             [sb.inverse_transform(pt, f, x, quad, wd) for x in xs]),
        ]:
            assert batch.shape == (3,)
            np.testing.assert_allclose(batch, each, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["mode", "no_points", "divergent_inverse"])
    def test_input_checks(self, case):
        pt, wd, _ = em_data(0.5)
        u = sb.TestFunction.hermite_basis((1,))
        if case == "mode":
            with pytest.raises(ValueError, match="unknown isometry mode 'bogus'"):
                sb.isometry_residual(pt, u, wd, mode="bogus")
        elif case == "no_points":
            assert sb.round_trip_error(pt, u, np.zeros((0, 1)), QUAD, wd) == 0.0
        else:
            # the exponent -10 E makes the integrand grow: no real decay
            f = sb.GaussPoly(sb.PolyC.constant(1), -10.0 * np.eye(1))
            with pytest.raises(NonIntegrableWeight):
                sb.inverse_transform(pt, f, [0.0], QUAD, wd)

    @pytest.mark.parametrize("entry", ["transform_batch", "transform_image"])
    def test_test_function_indices_checked(self, entry):
        # a one-entry index at n = 2 must not reach transform_batch (a tiny
        # wrong value) or transform_image (a bare KeyError)
        pt = ghs_data(0.45)[0]
        calls = {
            "transform_batch": lambda u: sb.transform_batch(pt, u, np.zeros((1, 2)), QUAD),
            "transform_image": lambda u: sb.transform_image(pt, u).poly.terms,
        }
        with pytest.raises(sb.DimensionMismatch, match="needs 2 entries"):
            calls[entry](sb.TestFunction(2, {(0, 0): 1.0, (1,): 1.0}))
        for alpha in [(1, -1), (0.5, 1), (np.nan, 0), (True, 0)]:
            with pytest.raises(ValueError, match="nonnegative integer"):
                calls[entry](sb.TestFunction(2, {alpha: 1.0}))
        # integral entries of any numeric type are stored as int tuples
        u = sb.TestFunction(2, {(1.0, np.int64(0)): 1.0})
        assert list(u.coefficients) == [(1, 0)]
        np.testing.assert_equal(calls[entry](u), calls[entry](sb.TestFunction(2, {(1, 0): 1.0})))


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
