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

#: tolerance of the input and construction checks on algebraic identities
DEFAULT_TOL = 1e-10
#: tolerance of the factorization residual, reached through chained constructions
CHAINED_TOL = 1e-8


@dataclass(frozen=True)
class PhaseTriple:
    """Validated defining matrices plus derived constants.

    ``C_I`` is the elementwise imaginary part of C (real symmetric positive
    definite), ``C_I_eigenvalues`` its ascending spectrum, whose product is
    det C_I, and ``c_phi`` the transform prefactor
    2^(-n/2) pi^(-3n/4) |det B| (det C_I)^(-1/4), |det B| = ``det_B_abs``.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    C_I: np.ndarray
    C_I_eigenvalues: np.ndarray
    det_B_abs: float
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
    sqrt(lam_i^2 - rho^2), ``xi_coeff`` is the derivative-coefficient
    matrix shared by the creation operators and their principal parts, and
    ``factorization`` the product (phi_zz+Q) conj(beta) (phi_zz+Q)^*.
    """

    n: int
    rho: float
    X: np.ndarray
    mu: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    SQ: np.ndarray
    xi_coeff: np.ndarray
    factorization: np.ndarray

    @property
    def rho2(self) -> float:
        return self.rho * self.rho


def validate_phase_triple(A, B, C) -> PhaseTriple:
    """Check the defining conditions on (A, B, C) and package the triple.

    Raises ValueError for a non-finite entry, before any other check, then
    NonSymmetricA, NonSymmetricC, SingularB or NonPositiveCI, each naming
    the violated condition.
    """
    A = mx.as_square(A, "A")
    B = mx.as_square(B, "B")
    C = mx.as_square(C, "C")
    for name, m in zip("ABC", (A, B, C)):
        mx.require_finite(m, name)
    n = A.shape[0]
    if B.shape[0] != n or C.shape[0] != n:
        raise DimensionMismatch("A, B, C must share one dimension")
    if not mx.is_symmetric(A, DEFAULT_TOL):
        raise NonSymmetricA(f"A is not complex symmetric within tol={DEFAULT_TOL}")
    if not mx.is_symmetric(C, DEFAULT_TOL):
        raise NonSymmetricC(f"C is not complex symmetric within tol={DEFAULT_TOL}")
    # both tests are relative to the matrix's own scale, so they hold for
    # every multiple c B and c Im(C), c > 0: |det B| against the product of
    # the row norms of B (Hadamard's bound), the smallest eigenvalue of
    # Im(C) against the largest in magnitude
    det_b = float(abs(np.linalg.det(B)))
    hadamard = float(np.linalg.norm(B, axis=1).prod())
    if det_b <= DEFAULT_TOL * hadamard:
        raise SingularB(
            f"|det B| = {det_b:.3e} is below tol={DEFAULT_TOL} times the product "
            f"of its row norms, {hadamard:.3e}"
        )
    eigs = np.linalg.eigvalsh(0.5 * (C.imag + C.imag.T))
    if eigs[0] <= DEFAULT_TOL * max(abs(eigs[0]), abs(eigs[-1])):
        raise NonPositiveCI(
            f"smallest eigenvalue of Im(C) is {eigs[0]:.3e}, not positive against "
            f"the largest, {eigs[-1]:.3e}"
        )
    det_ci = float(eigs.prod())
    c_phi = 2.0 ** (-n / 2.0) * math.pi ** (-3.0 * n / 4.0) * det_b * det_ci ** (-0.25)
    return PhaseTriple(
        n=n,
        A=mx.frozen(A),
        B=mx.frozen(B),
        C=mx.frozen(C),
        C_I=mx.frozen(C.imag, dtype=float),
        C_I_eigenvalues=mx.frozen(eigs, dtype=float),
        det_B_abs=det_b,
        c_phi=float(c_phi),
    )


def compute_weight_data(pt: PhaseTriple) -> WeightData:
    """Derive the weight blocks and the spectral data of the Hermitian one."""
    b_ci = pt.B @ np.linalg.inv(pt.C_I)
    phi_zzbar = b_ci @ pt.B.conj().T / 4.0
    phi_zzbar = 0.5 * (phi_zzbar + phi_zzbar.conj().T)
    phi_zz = -b_ci @ pt.B.T / 4.0 + 0.5j * pt.A
    if not mx.is_symmetric(phi_zz, DEFAULT_TOL):
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


def _own_weight_data(wd: WeightData | None, n: int, pt: PhaseTriple | None = None) -> WeightData:
    """The one rule for weight data beside a triple or a kernel of dimension
    n: ``compute_weight_data(pt)`` if None, else DimensionMismatch unless n."""
    if wd is None:
        return compute_weight_data(pt)
    if wd.n != n:
        raise DimensionMismatch(f"wd has dimension {wd.n}, expected {n}")
    return wd


def with_unitary(wd: WeightData, U) -> WeightData:
    """Replace the eigenbasis by another unitary diagonalizing the same block.

    Eigenbases are unique only up to per-eigenvalue unitary mixing, so a
    caller may supply its preferred U (for instance a pure-phase multiple).
    """
    U = mx.as_square(U, "U")
    if U.shape[0] != wd.n:
        raise DimensionMismatch("U has the wrong dimension")
    if not mx.is_unitary(U, DEFAULT_TOL):
        raise IntertwinerInvalid("replacement eigenbasis is not unitary")
    diag = U.conj().T @ wd.phi_zzbar @ U
    if mx.max_abs(diag - np.diag(wd.lam**2)) > DEFAULT_TOL * max(1.0, wd.lam0**2):
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


def validate_intertwiner(X, wd: WeightData, rho: float) -> bool:
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
    if not mx.is_unitary(X, DEFAULT_TOL):
        return False
    d = np.sqrt(wd.lam**2 - rho * rho) / wd.lam
    return mx.agree(X.T * d, d[:, None] * X, DEFAULT_TOL)


def build_generator(wd: WeightData, rho: float, X) -> GeneratorData:
    """Construct Q, S, S+Q and the creation coefficient matrix.

    Q = -phi_zz + U diag(mu) X diag(lam) U^T and
    S = phi_zz - U diag(lam^2/mu) X diag(lam) U^T; both must come out
    complex symmetric, and the factorization residual
    (phi_zz+Q) conj(beta) (phi_zz+Q)^* - (phi_zzbar - rho^2 E)
    must stay below ``CHAINED_TOL``.  The creation coefficient
    xi = conj(phi_zz+Q) beta is built as conj(U) diag(mu) conj(X) diag(1/lam) U^H,
    the same matrix with no inverse and no cancellation.
    """
    X = mx.as_square(X, "X")
    if not validate_intertwiner(X, wd, rho):
        raise IntertwinerInvalid("X fails unitarity or the commutation condition")
    lam = wd.lam
    mu = np.sqrt(lam**2 - rho * rho)
    u = wd.U
    # a diagonal factor scales columns (on the right) or rows (on the left)
    q = -wd.phi_zz + (u * mu @ X * lam) @ u.T
    s = wd.phi_zz - (u * (lam**2 / mu) @ X * lam) @ u.T
    scale = max(1.0, mx.max_abs(q), mx.max_abs(s))
    if mx.max_abs(q - q.T) > DEFAULT_TOL * scale:
        raise SymmetryViolation("constructed Q is not complex symmetric")
    if mx.max_abs(s - s.T) > DEFAULT_TOL * scale:
        raise SymmetryViolation("constructed S is not complex symmetric")
    product = _factorization(wd, q)
    residual = mx.max_abs(0.5 * _ccr(wd, product) - rho * rho * np.eye(wd.n))
    if residual > CHAINED_TOL:
        raise IntertwinerInvalid(
            f"factorization residual {residual:.3e} exceeds {CHAINED_TOL:.1e}"
        )
    xi = (u.conj() * mu @ X.conj() * (1.0 / lam)) @ u.conj().T
    return GeneratorData(
        n=wd.n,
        rho=float(rho),
        X=mx.frozen(X),
        mu=mx.frozen(mu, dtype=float),
        Q=mx.frozen(q),
        S=mx.frozen(s),
        SQ=mx.frozen(s + q),
        xi_coeff=mx.frozen(xi),
        factorization=mx.frozen(product),
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
    return _ccr(wd, _factorization(wd, Q))


def _factorization(wd: WeightData, Q) -> np.ndarray:
    """(phi_zz+Q) conj(beta) (phi_zz+Q)^*, the left side of the factorization
    identity, formed once per generator (``GeneratorData.factorization``)."""
    gq = wd.phi_zz + Q
    return gq @ wd.beta.conj() @ gq.conj().T


def _ccr(wd: WeightData, product: np.ndarray) -> np.ndarray:
    """``ccr_matrix`` from the product of ``_factorization``."""
    return 2.0 * (wd.phi_zzbar - product)


def _combined_spectrum(wd: WeightData, Q) -> np.ndarray:
    """Eigenvalues, ascending, of the real form of the combined weight
    exponent: q(z) = <z, phi_zzbar zbar> + Re <z, (phi_zz+Q) z> in the
    coordinates (Re z, Im z), half the M_R of ``integrals.combined_form``."""
    Q = mx.as_square(Q, "Q")
    return np.linalg.eigvalsh(mx.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + Q))


def condition1_margin(wd: WeightData, Q) -> float:
    """Smallest eigenvalue of the real form of the combined weight exponent
    (``_combined_spectrum``).  Nonpositive values flag a non-integrable
    weight; constructed generators satisfy margin >= rho^2 / 2.
    """
    return float(_combined_spectrum(wd, Q)[0])


def sq_closed_form_residual(wd: WeightData, gen: GeneratorData) -> float:
    """Distance of S+Q from its closed form -rho^2 U diag(1/mu) X diag(lam) U^T."""
    closed = (-gen.rho2 * wd.U * (1.0 / gen.mu) @ gen.X * wd.lam) @ wd.U.T
    return mx.max_abs(gen.SQ - closed)


def eq2202_residual(wd: WeightData, gen: GeneratorData) -> float:
    """Residual of the factorization identity: max |factorization - U diag(mu^2) U^*|."""
    return mx.max_abs(gen.factorization - (wd.U * gen.mu**2) @ wd.U.conj().T)


def _identity_residuals(wd: WeightData, gen: GeneratorData) -> tuple[dict, np.ndarray]:
    """The algebra stage's residuals, ``ccr`` and ``eq2202`` from the stored
    product, and ``_combined_spectrum``, whose first entry is the margin."""
    spectrum = _combined_spectrum(wd, gen.Q)
    residuals = {
        "ccr": mx.max_abs(_ccr(wd, gen.factorization) - 2.0 * gen.rho2 * np.eye(wd.n)),
        "eq2202": eq2202_residual(wd, gen),
        "symmetry_Q": mx.max_abs(gen.Q - gen.Q.T),
        "symmetry_S": mx.max_abs(gen.S - gen.S.T),
        "sq_closed_form": sq_closed_form_residual(wd, gen),
        "condition1_margin": float(spectrum[0]),
    }
    return residuals, spectrum


def random_phase_triple(n: int, rng: np.random.Generator) -> PhaseTriple:
    """Random valid defining triple.

    A is random complex symmetric, B random with |det| >= 0.1, and
    C = C_R + i (W W^T + 0.1 E) with real symmetric C_R and real W, which
    guarantees a symmetric C with positive definite imaginary part.
    """
    a = mx.random_symmetric(n, rng)
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
