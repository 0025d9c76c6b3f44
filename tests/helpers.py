"""Shared construction helpers for the test suite."""

import math

import numpy as np

import sbhermite as sb

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def bargmann_triple(n: int = 1) -> sb.PhaseTriple:
    eye = np.eye(n)
    return sb.validate_phase_triple(0.5j * eye, -1j * eye, 1j * eye)


def bargmann_data(rho2: float = 3.0 / 16.0):
    """Standard triple with the solver basis (U = 1) and X = 1."""
    pt = bargmann_triple(1)
    wd = sb.compute_weight_data(pt)
    gen = sb.build_generator(wd, math.sqrt(rho2), np.eye(1))
    return pt, wd, gen


def em_data(s: float):
    """One-dimensional example family with its canonical (U, X, rho)."""
    a, b, c = sb.example_triple("em", s)
    pt = sb.validate_phase_triple(a, b, c)
    wd = sb.with_unitary(sb.compute_weight_data(pt), [[1j]])
    gen = sb.build_generator(wd, math.sqrt((1.0 - s) / (1.0 + s)), np.eye(1))
    return pt, wd, gen


def ghs_data(s: float):
    """Two-dimensional example family with its canonical (U, X, rho)."""
    a, b, c = sb.example_triple("ghs", s)
    pt = sb.validate_phase_triple(a, b, c)
    wd = sb.with_unitary(sb.compute_weight_data(pt), 1j * np.eye(2))
    gen = sb.build_generator(wd, math.sqrt((1.0 - s) / (2.0 * (1.0 + s))), SWAP2)
    return pt, wd, gen


def ground_image(pt: sb.PhaseTriple):
    """Closed form T h_0 (z) = c0 exp(-<z, M z>) of the transformed Hermite
    ground state h_0 = pi^(-n/4) exp(-|x|^2/2); returns (c0, M).

    With W = E - iC: M = B W^-1 B^T / 2 - iA/2 and
    c0 = c_phi pi^(-n/4) (2 pi)^(n/2) det(W)^(-1/2).  Re W = E > 0, so every
    eigenvalue of W has positive real part; the root is their product of
    principal roots, which for n <= 2 is the principal branch of det(W)^(1/2).
    """
    n = pt.n
    w = np.eye(n) - 1j * pt.C
    m = 0.5 * pt.B @ np.linalg.solve(w, pt.B.T) - 0.5j * pt.A
    root_det = np.prod(np.sqrt(np.linalg.eigvals(w)))
    c0 = pt.c_phi * math.pi ** (-n / 4.0) * (2.0 * math.pi) ** (n / 2.0) / root_det
    return complex(c0), 0.5 * (m + m.T)


def ground_state(x) -> np.ndarray:
    """h_0(x) = pi^(-n/4) exp(-|x|^2/2) on a batch (q, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return math.pi ** (-x.shape[1] / 4.0) * np.exp(-0.5 * np.sum(x * x, axis=1))


def random_poly(n: int, degree: int, M, rng) -> sb.GaussPoly:
    terms = {
        alpha: complex(rng.standard_normal(), rng.standard_normal())
        for alpha in sb.multi_indices(n, degree)
    }
    return sb.GaussPoly(sb.PolyC(n, terms), M)


def assert_gp_close(a: sb.GaussPoly, b: sb.GaussPoly, rtol: float, msg: str = ""):
    diff, scale = sb.coeff_distance(a, b)
    assert diff <= rtol * max(scale, 1e-300), f"{msg}: {diff:.3e} > {rtol:.1e} * {scale:.3e}"
