"""Operator algebra on Gaussian polynomials: family, Rodrigues, Hamiltonian."""

import math

import numpy as np
import pytest

import sbhermite as sb
from sbhermite.errors import MExponentMismatch

from helpers import SWAP2, assert_gp_close, bargmann_data, em_data, ghs_data, random_poly


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
            got = sb.apply_op(op, i, gp).poly
            assert set(got.terms) == set(want)
            scale = max(abs(v) for v in want.values())
            assert got.distance(sb.PolyC(n, want)) <= 1e-14 * scale

    def test_degree_rises_by_at_most_one(self):
        rng = np.random.default_rng(0)
        _, wd, gen = ghs_data(0.5)
        gp = random_poly(2, 3, gen.Q, rng)
        out = sb.apply_op(sb.creation_ops(wd, gen), 1, gp)
        assert out.poly.degree() <= 4
        assert np.array_equal(out.M, gp.M)


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

    def test_pruning_drops_relative_dust(self):
        p = sb.PolyC(1, {(0,): 1.0, (3,): 1e-16})
        assert p.pruned().terms == {(0,): 1.0}

    def test_distance(self):
        a = sb.PolyC(2, {(1, 0): 1.0})
        b = sb.PolyC(2, {(1, 0): 1.0 + 1e-12, (0, 1): 2e-13})
        assert a.distance(b) == pytest.approx(2e-13, rel=1e-6)


class TestMultiIndices:
    def test_enumeration_count_and_order(self):
        out = sb.multi_indices(2, 2)
        assert out == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_factorial(self):
        assert sb.mi_factorial((3, 2, 0)) == 12.0
        assert sb.mi_factorial((20,)) == float(math.factorial(20))
