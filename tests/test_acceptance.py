"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure); assertions enforce the stated tolerances and runtime budgets.
"""

import math
import time

import numpy as np

import sbhermite as sb

from helpers import SWAP2, bargmann_data, bargmann_triple, em_data, ghs_data, random_poly


def report(num, name, worst, tol, extra=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS (worst={worst:.3e}, tol={tol:.1e}{extra})")


def test_01_em_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        _, wd, gen = em_data(s)
        worst = max(worst, float(np.max(np.abs(gen.Q - 0.5))))
        worst = max(worst, float(np.max(np.abs(gen.S - 0.5))))
        worst = max(worst, abs(gen.rho2 - (1 - s) / (1 + s)))
        worst = max(worst, abs(gen.mu[0] ** 2 - (1 - s) ** 3 / (4 * s * (1 + s))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, "1-D family reproduction", worst, 1e-12, f", {elapsed:.3f}s")


def test_02_ghs_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        _, wd, gen = ghs_data(s)
        worst = max(worst, float(np.max(np.abs(gen.Q - SWAP2 / 4.0))))
        worst = max(worst, float(np.max(np.abs(gen.S - SWAP2 / 4.0))))
        worst = max(
            worst, float(np.max(np.abs(gen.mu**2 - (1 - s) ** 3 / (8 * s * (1 + s)))))
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(2, "2-D family reproduction", worst, 1e-12, f", {elapsed:.3f}s")


def test_03_ccr_on_random_triples():
    rng = np.random.default_rng(20260301)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        pt = sb.random_phase_triple(n, rng)
        wd = sb.compute_weight_data(pt)
        x = sb.matrices.random_diag_phases(n, rng)
        gen = sb.build_generator(wd, 0.5 * wd.lam0, x)
        resid = float(
            np.max(np.abs(sb.ccr_matrix(wd, gen.Q) - 2 * gen.rho2 * np.eye(n)))
        )
        worst = max(worst, resid)
    assert worst <= 1e-10
    report(3, "commutation relations, 50 random triples", worst, 1e-10)


def test_04_orthogonality():
    start = time.perf_counter()
    rng = np.random.default_rng(20260302)
    cases = [em_data(0.5), ghs_data(0.5)]
    for _ in range(10):
        n = int(rng.integers(1, 3))
        cases.append(sb.random_generator(n, rng))
    worst = 0.0
    for _, wd, gen in cases:
        fam = sb.hermite_family(wd, gen, 3)
        keys, gram = sb.gram_matrix(fam, wd)
        norm0 = gram[0, 0].real
        for a, ka in enumerate(keys):
            predicted = (2 * gen.rho2) ** sum(ka) * sb.mi_factorial(ka) * norm0
            worst = max(worst, abs(gram[a, a] - predicted) / gram[a, a].real)
            for b in range(len(keys)):
                if b != a:
                    worst = max(worst, abs(gram[a, b]) / gram[a, a].real)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 30.0
    report(4, "orthogonality of the family", worst, 1e-8, f", {elapsed:.1f}s")


def test_05_eigenvalue_relation():
    worst = 0.0
    for _, wd, gen in (em_data(0.5), ghs_data(0.5)):
        fam = sb.hermite_family(wd, gen, 4)
        for alpha, member in fam.items():
            image = sb.hamiltonian_apply(wd, gen, member)
            expected = member.scaled((2 * sum(alpha) + 1) * gen.rho2)
            diff, scale = sb.coeff_distance(image, expected)
            worst = max(worst, diff / scale)
    assert worst <= 1e-9
    report(5, "oscillator eigenvalue relation", worst, 1e-9)


def test_06_rodrigues():
    worst = 0.0
    for _, wd, gen in (em_data(0.5), ghs_data(0.5)):
        fam = sb.hermite_family(wd, gen, 5)
        for alpha, member in fam.items():
            diff, scale = sb.coeff_distance(sb.rodrigues(wd, gen, alpha), member)
            worst = max(worst, diff / scale)
    assert worst <= 1e-9
    report(6, "closed-form generation matches raising chain", worst, 1e-9)


def test_07_adjointness():
    rng = np.random.default_rng(20260303)
    worst = 0.0
    pairs = 0
    for trial in range(10):
        n = 1 + trial % 3
        _, wd, gen = sb.random_generator(n, rng)
        for _ in range(10):
            f = random_poly(n, 4, gen.Q, rng)
            g = random_poly(n, 4, gen.Q, rng)
            i = int(rng.integers(0, n))
            scale = sb.hphi_norm(f, wd) * sb.hphi_norm(g, wd)
            worst = max(worst, sb.adjoint_residual(wd, gen, f, g, i) / scale)
            pairs += 1
    assert pairs == 100
    assert worst <= 1e-8
    report(7, "raising operator is the true adjoint", worst, 1e-8)


def test_08_condition1_margin():
    rng = np.random.default_rng(20260304)
    worst = math.inf
    generators = [em_data(0.5), ghs_data(0.5), bargmann_data()]
    for _ in range(50):
        n = int(rng.integers(1, 4))
        generators.append(sb.random_generator(n, rng))
    for _, wd, gen in generators:
        margin = sb.condition1_margin(wd, gen.Q)
        worst = min(worst, margin - (gen.rho2 / 2.0 - 1e-12))
    assert worst >= 0.0
    report(8, "weight positivity margin", worst, 0.0, ", lower bound slack")


def test_09_ladder_power_identities():
    rng = np.random.default_rng(20260305)
    worst = 0.0
    for _, wd, gen in (em_data(0.5), ghs_data(0.5), sb.random_generator(2, rng)):
        n = gen.n
        low = sb.annihilation_ops(gen.Q)
        high = sb.creation_ops(wd, gen)
        gp = random_poly(n, 3, gen.Q, rng)

        def lower(i, v):
            return sb.apply_op(low, i, v)

        def raise_(i, v):
            return sb.apply_op(high, i, v)

        for i in range(n):
            for m in (1, 2, 3):
                up_m = gp
                for _ in range(m):
                    up_m = raise_(i, up_m)
                lhs1 = lower(i, up_m)
                up_m1 = gp
                for _ in range(m - 1):
                    up_m1 = raise_(i, up_m1)
                acc = lower(i, gp)
                for _ in range(m):
                    acc = raise_(i, acc)
                rhs1 = acc + up_m1.scaled(2 * m * gen.rho2)
                d, s = sb.coeff_distance(lhs1, rhs1)
                worst = max(worst, d / s)

                lhs2 = up_m
                for _ in range(m):
                    lhs2 = lower(i, lhs2)
                rhs2 = gp
                for k in range(1, m + 1):
                    rhs2 = raise_(i, lower(i, rhs2)) + rhs2.scaled(2 * k * gen.rho2)
                d, s = sb.coeff_distance(lhs2, rhs2)
                worst = max(worst, d / s)

                lhs3 = up_m
                for _ in range(m + 1):
                    lhs3 = lower(i, lhs3)
                rhs3 = lower(i, gp)
                for k in range(1, m + 1):
                    rhs3 = lower(i, raise_(i, rhs3)) + rhs3.scaled(2 * k * gen.rho2)
                d, s = sb.coeff_distance(lhs3, rhs3)
                worst = max(worst, d / s)
    assert worst <= 1e-9
    report(9, "ladder power identities (m <= 3)", worst, 1e-9)


def test_10_finite_degree_completeness():
    worst = 0.0
    for _, wd, gen in (em_data(0.5), ghs_data(0.5)):
        fam = sb.hermite_family(wd, gen, 3)
        for beta in sb.multi_indices(gen.n, 3):
            f = sb.GaussPoly(sb.PolyC.monomial(beta), gen.Q)
            _, residual = sb.expand_in_family(f, fam, wd)
            worst = max(worst, residual / sb.hphi_norm(f, wd))
    assert worst <= 1e-8
    report(10, "finite-degree expansion completeness", worst, 1e-8)


def test_11_transform_isometry_and_round_trip():
    start = time.perf_counter()
    quad = sb.QuadSpec(nodes=64)
    worst_iso = 0.0
    triples = [bargmann_triple()] + [
        sb.validate_phase_triple(*sb.example_triple("em", s)) for s in (0.3, 0.5, 0.7)
    ]
    for pt in triples:
        wd = sb.compute_weight_data(pt)
        for k in range(3):
            u = sb.TestFunction.hermite_basis((k,))
            worst_iso = max(
                worst_iso, sb.isometry_residual(pt, u, wd, quad, mode="fit")
            )
    assert worst_iso <= 1e-3
    worst_rt = 0.0
    xs = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    for pt in (bargmann_triple(), sb.validate_phase_triple(*sb.example_triple("em", 0.5))):
        wd = sb.compute_weight_data(pt)
        u0 = sb.TestFunction.hermite_basis((0,))
        worst_rt = max(worst_rt, sb.round_trip_error(pt, u0, xs, quad, wd))
    elapsed = time.perf_counter() - start
    assert worst_rt <= 1e-3
    assert elapsed < 60.0
    report(
        11,
        "transform isometry and inversion",
        max(worst_iso, worst_rt),
        1e-3,
        f", {elapsed:.1f}s",
    )


def test_12_kernel_diagonal():
    rng = np.random.default_rng(20260306)
    worst = 0.0
    for pt in (bargmann_triple(), sb.validate_phase_triple(*sb.example_triple("em", 0.5))):
        wd = sb.compute_weight_data(pt)
        kp = sb.make_kernel_params(pt, wd)
        for _ in range(10):
            z = rng.standard_normal(pt.n) + 1j * rng.standard_normal(pt.n)
            got = sb.kernel_eval(kp, z, z)
            phi = (z @ (wd.phi_zzbar @ z.conj())).real + (z @ (wd.phi_zz @ z)).real
            want = kp.c_Phi * math.exp(2.0 * phi)
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-10
    report(12, "kernel diagonal consistency", worst, 1e-10)
