"""Defining matrix triples, weight data, and generator construction.

The pipeline is: validate the defining matrices (A, B, C), derive the
weight's mixed Hermitian block and holomorphic symmetric block, then build
the annihilation/creation coefficient matrices from the spectral
factorization of the Hermitian block and a unitary intertwiner X.

All record types are frozen dataclasses whose array fields are marked
read-only, so instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import (
    DimensionMismatch,
    EigFailure,
    IntertwinerInvalid,
    NonPositiveCI,
    NonSymmetricA,
    NonSymmetricC,
    RhoOutOfRange,
    SingularB,
    SymmetryViolation,
)

#: default absolute tolerance for algebraic identities
DEFAULT_TOL = 1e-10
#: default tolerance for identities reached through chained constructions
CHAINED_TOL = 1e-8


@dataclass(frozen=True)
class PhaseTriple:
    """Validated defining matrices plus derived constants.

    ``C_I`` is the elementwise imaginary part of C (real symmetric positive
    definite) and ``c_phi`` the transform prefactor
    2^(-n/2) pi^(-3n/4) |det B| (det C_I)^(-1/4).
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    C_I: np.ndarray
    c_phi: float


@dataclass(frozen=True)
class WeightData:
    """Second-derivative blocks of the weight and their spectral data.

    ``phi_zzbar`` is Hermitian positive definite, ``phi_zz`` complex
    symmetric, ``beta`` the inverse of ``phi_zzbar``.  Eigenvalues ``lam``
    are the positive square roots of the eigenvalues of ``phi_zzbar``,
    sorted ascending, with ``U`` column-ordered to match; ``lam0`` is the
    smallest.
    """

    n: int
    phi_zzbar: np.ndarray
    phi_zz: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    lam0: float
    U: np.ndarray


@dataclass(frozen=True)
class GeneratorData:
    """Coefficient matrices of a generator at level rho.

    ``Q`` and ``S`` are complex symmetric, ``SQ = S + Q``, ``mu`` holds
    sqrt(lam_i^2 - rho^2), and ``xi_coeff`` is the derivative-coefficient
    matrix shared by the creation operators and their principal parts.
    """

    n: int
    rho: float
    X: np.ndarray
    mu: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    SQ: np.ndarray
    xi_coeff: np.ndarray

    @property
    def rho2(self) -> float:
        return self.rho * self.rho


def validate_phase_triple(A, B, C, tol: float = DEFAULT_TOL) -> PhaseTriple:
    """Check the defining conditions on (A, B, C) and package the triple.

    Raises NonSymmetricA, NonSymmetricC, SingularB or NonPositiveCI, each
    naming the violated condition.
    """
    A = mx.as_square(A, "A")
    B = mx.as_square(B, "B")
    C = mx.as_square(C, "C")
    n = A.shape[0]
    if B.shape[0] != n or C.shape[0] != n:
        raise DimensionMismatch("A, B, C must share one dimension")
    if not mx.is_symmetric(A, tol):
        raise NonSymmetricA(f"A is not complex symmetric within tol={tol}")
    if not mx.is_symmetric(C, tol):
        raise NonSymmetricC(f"C is not complex symmetric within tol={tol}")
    det_b = np.linalg.det(B)
    if abs(det_b) <= tol:
        raise SingularB(f"|det B| = {abs(det_b):.3e} is below tol={tol}")
    c_imag = C.imag.copy()
    eigs = np.linalg.eigvalsh(0.5 * (c_imag + c_imag.T))
    if eigs[0] <= tol:
        raise NonPositiveCI(
            f"smallest eigenvalue of Im(C) is {eigs[0]:.3e}, not positive"
        )
    det_ci = float(np.prod(eigs))
    c_phi = 2.0 ** (-n / 2.0) * math.pi ** (-3.0 * n / 4.0) * abs(det_b) * det_ci ** (-0.25)
    return PhaseTriple(
        n=n,
        A=mx.frozen(A),
        B=mx.frozen(B),
        C=mx.frozen(C),
        C_I=mx.frozen(c_imag, dtype=float),
        c_phi=float(c_phi),
    )


def compute_weight_data(pt: PhaseTriple, tol: float = DEFAULT_TOL) -> WeightData:
    """Derive the weight blocks and the spectral data of the Hermitian one."""
    ci_inv = np.linalg.inv(pt.C_I)
    phi_zzbar = pt.B @ ci_inv @ pt.B.conj().T / 4.0
    phi_zzbar = 0.5 * (phi_zzbar + phi_zzbar.conj().T)
    phi_zz = -pt.B @ ci_inv @ pt.B.T / 4.0 + 0.5j * pt.A
    if not mx.is_symmetric(phi_zz, max(tol, 1e-12)):
        raise SymmetryViolation("derived holomorphic block is not symmetric")
    try:
        lam2, u = np.linalg.eigh(phi_zzbar)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise EigFailure(str(exc)) from exc
    if lam2[0] <= 0.0:
        raise EigFailure(f"Hermitian block has nonpositive eigenvalue {lam2[0]:.3e}")
    beta = np.linalg.inv(phi_zzbar)
    lam = np.sqrt(lam2)
    return WeightData(
        n=pt.n,
        phi_zzbar=mx.frozen(phi_zzbar),
        phi_zz=mx.frozen(phi_zz),
        beta=mx.frozen(beta),
        lam=mx.frozen(lam, dtype=float),
        lam0=float(lam[0]),
        U=mx.frozen(u),
    )


def with_unitary(wd: WeightData, U, tol: float = DEFAULT_TOL) -> WeightData:
    """Replace the eigenbasis by another unitary diagonalizing the same block.

    Eigenbases are unique only up to per-eigenvalue unitary mixing, so a
    caller may supply its preferred U (for instance a pure-phase multiple).
    """
    U = mx.as_square(U, "U")
    if U.shape[0] != wd.n:
        raise DimensionMismatch("U has the wrong dimension")
    if not mx.is_unitary(U, tol):
        raise IntertwinerInvalid("replacement eigenbasis is not unitary")
    diag = U.conj().T @ wd.phi_zzbar @ U
    if mx.max_abs(diag - np.diag(wd.lam**2)) > tol * max(1.0, wd.lam0**2):
        raise IntertwinerInvalid(
            "replacement U does not diagonalize the Hermitian block to diag(lam^2)"
        )
    return WeightData(
        n=wd.n,
        phi_zzbar=wd.phi_zzbar,
        phi_zz=wd.phi_zz,
        beta=wd.beta,
        lam=wd.lam,
        lam0=wd.lam0,
        U=mx.frozen(U),
    )


def validate_intertwiner(X, wd: WeightData, rho: float, tol: float = DEFAULT_TOL) -> bool:
    """True iff X is unitary and commutes with diag(mu_i / lam_i) as required.

    The commutation condition is X^T D = D X with D = diag(mu_i / lam_i),
    mu_i = sqrt(lam_i^2 - rho^2).  Raises RhoOutOfRange unless
    0 < rho < lam0 strictly (equality is excluded).
    """
    X = mx.as_square(X, "X")
    if X.shape[0] != wd.n:
        raise DimensionMismatch("X has the wrong dimension")
    if not (0.0 < rho < wd.lam0):
        raise RhoOutOfRange(f"rho={rho} outside (0, lam0={wd.lam0})")
    if not mx.is_unitary(X, tol):
        return False
    d = np.diag(np.sqrt(wd.lam**2 - rho * rho) / wd.lam)
    return mx.max_abs(X.T @ d - d @ X) <= tol * max(1.0, mx.max_abs(d))


def build_generator(
    wd: WeightData,
    rho: float,
    X,
    tol: float = DEFAULT_TOL,
    residual_tol: float = CHAINED_TOL,
) -> GeneratorData:
    """Construct Q, S, S+Q and the creation coefficient matrix.

    Q = -phi_zz + U diag(mu) X diag(lam) U^T and
    S = phi_zz - U diag(lam^2/mu) X diag(lam) U^T; both must come out
    complex symmetric, and the factorization residual
    (phi_zz+Q) conj(beta) (phi_zz+Q)^* - (phi_zzbar - rho^2 E)
    must stay below ``residual_tol``.  The creation coefficient
    xi = conj(phi_zz+Q) beta is built as conj(U) diag(mu) conj(X) diag(1/lam) U^H,
    the same matrix with no inverse and no cancellation.
    """
    X = mx.as_square(X, "X")
    if not validate_intertwiner(X, wd, rho, tol):
        raise IntertwinerInvalid("X fails unitarity or the commutation condition")
    lam = wd.lam
    mu = np.sqrt(lam**2 - rho * rho)
    u = wd.U
    middle = u @ np.diag(mu) @ X @ np.diag(lam) @ u.T
    q = -wd.phi_zz + middle
    s = wd.phi_zz - u @ np.diag(lam**2 / mu) @ X @ np.diag(lam) @ u.T
    scale = max(1.0, mx.max_abs(q), mx.max_abs(s))
    if mx.max_abs(q - q.T) > tol * scale:
        raise SymmetryViolation("constructed Q is not complex symmetric")
    if mx.max_abs(s - s.T) > tol * scale:
        raise SymmetryViolation("constructed S is not complex symmetric")
    residual = mx.max_abs(0.5 * ccr_matrix(wd, q) - rho * rho * np.eye(wd.n))
    if residual > residual_tol:
        raise IntertwinerInvalid(
            f"factorization residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    xi = u.conj() @ np.diag(mu) @ X.conj() @ np.diag(1.0 / lam) @ u.conj().T
    return GeneratorData(
        n=wd.n,
        rho=float(rho),
        X=mx.frozen(X),
        mu=mx.frozen(mu, dtype=float),
        Q=mx.frozen(q),
        S=mx.frozen(s),
        SQ=mx.frozen(s + q),
        xi_coeff=mx.frozen(xi),
    )


def ccr_matrix(wd: WeightData, Q) -> np.ndarray:
    """Matrix of commutators between annihilation and creation components.

    Entry (i, j) equals
    2 { phi_zzbar - (phi_zz+Q) conj(phi_zzbar^-1) (phi_zz+Q)^* }_(i,j);
    for a generator built by :func:`build_generator` this is 2 rho^2 E.
    """
    Q = mx.as_square(Q, "Q")
    if Q.shape[0] != wd.n:
        raise DimensionMismatch("Q has the wrong dimension")
    gq = wd.phi_zz + Q
    return 2.0 * (wd.phi_zzbar - gq @ wd.beta.conj() @ gq.conj().T)


def condition1_margin(wd: WeightData, Q) -> float:
    """Smallest eigenvalue of the real form of the combined weight exponent.

    The form is q(z) = <z, phi_zzbar zbar> + Re <z, (phi_zz+Q) z> in the
    coordinates (Re z, Im z).  Nonpositive values flag a non-integrable
    weight; constructed generators satisfy margin >= rho^2 / 2.
    """
    Q = mx.as_square(Q, "Q")
    m = mx.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + Q)
    return float(np.linalg.eigvalsh(m)[0])


def sq_closed_form_residual(wd: WeightData, gen: GeneratorData) -> float:
    """Distance of S+Q from its closed form -rho^2 U diag(1/mu) X diag(lam) U^T."""
    closed = -gen.rho2 * wd.U @ np.diag(1.0 / gen.mu) @ gen.X @ np.diag(wd.lam) @ wd.U.T
    return mx.max_abs(gen.SQ - closed)


def eq2202_residual(wd: WeightData, gen: GeneratorData) -> float:
    """Residual of the factorization identity satisfied by phi_zz + Q."""
    gq = wd.phi_zz + gen.Q
    target = wd.U @ np.diag(gen.mu**2) @ wd.U.conj().T
    return mx.max_abs(gq @ wd.beta.conj() @ gq.conj().T - target)


def random_phase_triple(
    n: int, rng: np.random.Generator, scale: float = 1.0
) -> PhaseTriple:
    """Random valid defining triple.

    A is random complex symmetric, B random with |det| >= 0.1, and
    C = C_R + i (W W^T + 0.1 E) with real symmetric C_R and real W, which
    guarantees a symmetric C with positive definite imaginary part.
    """
    a = mx.random_symmetric(n, rng, scale)
    b = mx.random_invertible(n, rng)
    w = rng.standard_normal((n, n))
    c_r = rng.standard_normal((n, n))
    c = 0.5 * (c_r + c_r.T) + 1j * (w @ w.T + 0.1 * np.eye(n))
    return validate_phase_triple(a, b, c)


def random_generator(
    n: int,
    rng: np.random.Generator,
    rho_fraction: float = 0.5,
) -> tuple[PhaseTriple, WeightData, GeneratorData]:
    """Random valid triple with diagonal-phase X and rho = fraction * lam0."""
    pt = random_phase_triple(n, rng)
    wd = compute_weight_data(pt)
    x = mx.random_diag_phases(n, rng)
    gen = build_generator(wd, rho_fraction * wd.lam0, x)
    return pt, wd, gen
