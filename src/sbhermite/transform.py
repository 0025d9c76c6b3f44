"""The integral transform, its adjoint and the reproducing kernel, exactly.

``transform_image`` maps test functions to GaussPolys with no quadrature:
T h_0 is a Gaussian in closed form, and the raising operators moved
through the transform are first-order operators on C^n, so the images
come from the raising chain the generator family uses: the
image lane (``_image_lane``: T a+ folded at the image exponent, in the Wick
frame of that exponent where a norm is taken, and T h_0's constant),
chained and scaled by 1 / sqrt(alpha!) (``_image_scaled``).  The public
functions chain it alone (``_image_block``), and rows of that block are
what a coefficient vector multiplies; ``run_verify`` chains it beside the
family and its Rodrigues form.  ``transform`` and ``transform_batch``
evaluate the exact image at their points.

The adjoint transform and the reproducing identity integrate a
holomorphic polynomial times one complex Gaussian over C^n, so each has a
closed form, ``_over_cn``: completing the square gives the Gaussian's mass
and a mean affine in the evaluation point, and the polynomial's mean is
its heat polynomial at that mean, built by the chain kernel of
``gausspoly`` (``_monomial_chain``) once per call for all points; its
determinant's root and T h_0's are ``_root_det``'s.  The quadrature
isometry takes the norm of the monomial image through the public inner
product.  No function here integrates numerically: ``QuadSpec`` and
the ``quad`` parameters are accepted and validated, and change no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import matrices as mx
from .config import MAX_NODES
from .errors import DimensionMismatch, NonIntegrableWeight
from .gausspoly import GaussPoly, LinearDiffOp, PolyC, evaluate, mi_factorial
from .gausspoly import _block_of, _chain_rows, _gauss_polys, _in_frame
from .gausspoly import _monomial_chain, _multi_index, _real_scaled, _tabulated_sum
from .integrals import MomentCache, _pair_inners, hphi_inner, make_moment_cache
from .model import PhaseTriple, WeightData, compute_weight_data


@dataclass(frozen=True)
class KernelParams:
    """Data of the reproducing kernel C_Phi exp(2 Psi(z, zetabar))."""

    psi_zzbar: np.ndarray
    psi_zz: np.ndarray
    c_Phi: float


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls, kept for the callers that pass them: every
    transform is exact, so ``nodes`` changes no value.

    The one rule for ``nodes``: an integer (numpy integers too, bool not)
    in [1, ``MAX_NODES``], stored as an int; anything else is a ValueError
    naming ``nodes``."""

    nodes: int = 64

    def __post_init__(self):
        nodes = self.nodes
        if not (isinstance(nodes, Integral) and not isinstance(nodes, bool)
                and 1 <= nodes <= MAX_NODES):
            raise ValueError(f"nodes must be an integer in [1, {MAX_NODES}], got {nodes!r}")
        object.__setattr__(self, "nodes", int(nodes))


@dataclass(frozen=True)
class TestFunction:
    """Finite expansion in the orthonormal Gaussian-Hermite basis on R^n.

    ``coefficients`` maps multi-indices to complex weights; the squared L2
    norm is the coefficient square sum, exactly.  Multi-indices pass the
    rule of ``gausspoly._multi_index`` and are stored as int tuples.
    """

    n: int
    coefficients: dict

    def __post_init__(self):
        coeffs = {_multi_index(k, self.n): c for k, c in self.coefficients.items()}
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def hermite_basis(cls, alpha) -> "TestFunction":
        alpha = tuple(alpha)
        return cls(n=len(alpha), coefficients={alpha: 1.0 + 0.0j})

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coefficients.values()))

    def degree(self) -> int:
        """Largest total degree |alpha| among the coefficients (0 if none)."""
        return max((sum(a) for a in self.coefficients), default=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pts, one = mx.as_points(x, self.n, "x", float)
        envelope = np.exp(-0.5 * np.sum(pts * pts, axis=1))
        out = self.polynomial_part(pts) * envelope
        return out[0] if one else out

    def polynomial_part(self, x: np.ndarray) -> np.ndarray:
        """Value with the common Gaussian envelope exp(-|x|^2/2) removed,
        so callers can fold that envelope into larger exponents safely.

        Each coordinate gets one table of Hermite polynomials, shared by
        every term."""
        pts, _ = mx.as_points(x, self.n, "x", float)
        coeffs = self.coefficients
        tops = np.max(list(coeffs), axis=0) if coeffs else [0] * self.n
        tables = [_hermite_table(pts[:, i], int(k)) for i, k in enumerate(tops)]
        return math.pi ** (-self.n / 4.0) * _tabulated_sum(coeffs, tables, pts.shape[0])


def _hermite_table(t: np.ndarray, degree: int) -> list:
    """[1, g_1(t), .., g_degree(t)] with g_k = pi^(1/4) h_k, h_k = H_k /
    sqrt(2^k k! sqrt(pi)) the normalized Hermite polynomials, by the
    three-term recurrence g_(k+1) = sqrt(2/(k+1)) t g_k - sqrt(k/(k+1)) g_(k-1)."""
    out = [1.0, math.sqrt(2.0) * t]
    for k in range(1, degree):
        up, down = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))
        out.append(up * t * out[k] - down * out[k - 1])
    return out[: degree + 1]


def transform_batch(
    pt: PhaseTriple, u: TestFunction, Z: np.ndarray, quad: QuadSpec | None = None
) -> np.ndarray:
    """Transform values at a batch of points: the exact image
    ``transform_image(pt, u)`` evaluated at every point at once.  ``quad``
    changes no value."""
    Z, _ = mx.as_points(Z, pt.n, "Z")
    mx.require_finite(Z, "Z")
    return evaluate(transform_image(pt, u), Z)


def transform(
    pt: PhaseTriple, u: TestFunction, z, quad: QuadSpec | None = None
) -> complex | np.ndarray:
    """Transform of a test function at one point of C^n, or at each of a batch."""
    z, one = mx.as_points(z, pt.n, "z")
    mx.require_finite(z, "z")
    values = transform_batch(pt, u, z, quad)
    return complex(values[0]) if one else values


def image_exponent(pt: PhaseTriple) -> np.ndarray:
    """Gaussian exponent matrix of transformed Hermite expansions.

    Transforms of p(x) exp(-|x|^2/2) equal q(z) exp(-<z, M z>) with
    M = B (E - iC)^(-1) B^T / 2 - iA/2.  ``transform_image`` returns its
    GaussPolys with this exponent.
    """
    w = np.eye(pt.n) - 1j * pt.C
    m = 0.5 * pt.B @ np.linalg.solve(w, pt.B.T) - 0.5j * pt.A
    return 0.5 * (m + m.T)


def _intertwined_raising(pt: PhaseTriple) -> LinearDiffOp:
    """The raising operators a+ = (x - d/dx) / sqrt(2) moved through the
    transform, T a+ u = (G d/dz + H z) Tu.  With phi(z, x) = <z, A z>/2 +
    <z, B x> + <x, C x>/2, T(x u) = B^-1 (-i d/dz - A z) Tu and T(d/dx u) =
    -i B^T z Tu - i C T(x u) by parts, so G = -i (E + iC) B^-1 / sqrt(2)
    and H = (i B^T - (E + iC) B^-1 A) / sqrt(2)."""
    eb = (np.eye(pt.n) + 1j * pt.C) @ np.linalg.inv(pt.B) / math.sqrt(2.0)
    return LinearDiffOp(-1j * eb, 1j * pt.B.T / math.sqrt(2.0) - eb @ pt.A)


def _image_lane(pt: PhaseTriple, cache: MomentCache | None = None) -> tuple:
    """The chain lane (T a+, c0) of the exact transforms of the Hermite
    functions, and their exponent M = ``image_exponent``: T a+ folded
    (``_in_frame``) at M onto monomial coefficients, or onto Wick ones in
    the frame of ``cache`` (a cache for M, whose exponent is read).
    T h_0 = c0 exp(-<z, M z>),
    c0 = c_phi pi^(-n/4) (2 pi)^(n/2) det(W)^(-1/2) with W = E - iC, and
    T h_alpha = (T a+)^alpha T h_0 / sqrt(alpha!) (``_image_scaled``).  The
    root of det(W) is ``_root_det``'s: W's real part E + Im C is > 0."""
    n = pt.n
    root_det = _root_det(np.eye(n) - 1j * pt.C)
    c0 = pt.c_phi * math.pi ** (-n / 4.0) * (2.0 * math.pi) ** (n / 2.0) / root_det
    M = image_exponent(pt) if cache is None else cache.exponent
    return (_in_frame(_intertwined_raising(pt), M, cache), c0), M


def _image_scaled(rows: np.ndarray, factorials) -> np.ndarray:
    """Chain rows (T a+)^alpha T h_0 of the image lane, one per alpha, scaled
    to T h_alpha by 1 / sqrt(alpha!), given alpha! per row in ``factorials``."""
    return _real_scaled(rows, (1.0 / np.sqrt(np.asarray(factorials, dtype=float)))[:, None])


def _image_block(pt: PhaseTriple, alphas, cache: MomentCache | None = None) -> tuple:
    """Exact transforms T h_alpha of the orthonormal Hermite functions, one
    row per alpha of ``alphas``, and their exponent M: the image lane
    (``_image_lane``) chained alone and scaled."""
    lane, M = _image_lane(pt, cache)
    rows = _chain_rows([lane], alphas)[0]
    return _image_scaled(rows, [mi_factorial(a) for a in alphas]), M


def _image_coefficients(pt: PhaseTriple, u: TestFunction, cache=None) -> tuple:
    """Tu = sum of c_alpha T h_alpha as one row, the coefficient vector of u
    times the rows of ``_image_block(pt, alphas, cache)``, and M."""
    if u.n != pt.n:
        raise DimensionMismatch("test function and triple dimensions differ")
    rows, M = _image_block(pt, list(u.coefficients), cache)
    coeffs = np.array(list(u.coefficients.values()), dtype=complex)
    return coeffs[None] @ rows, M


def transform_image(pt: PhaseTriple, u: TestFunction) -> GaussPoly:
    """Exact transform of a test function (``_image_coefficients``), built
    over the ancestors of its multi-indices only."""
    row, M = _image_coefficients(pt, u)
    return _gauss_polys(row, M)[0]


def make_kernel_params(pt: PhaseTriple, wd: WeightData | None = None) -> KernelParams:
    """C_Phi = (2 pi)^(-n) |det B|^2 / det C_I from the triple's own data."""
    wd = wd or compute_weight_data(pt)
    c_phi_norm = (2.0 * math.pi) ** (-pt.n) * pt.det_B_abs**2 / float(pt.C_I_eigenvalues.prod())
    return KernelParams(psi_zzbar=wd.phi_zzbar, psi_zz=wd.phi_zz, c_Phi=float(c_phi_norm))


def kernel_eval(kp: KernelParams, z, zeta) -> complex | np.ndarray:
    """Reproducing kernel C_Phi exp(2 Psi(z, zetabar)) with
    Psi = <z, A zbar'> + <z, G z>/2 + <zbar', conj(G) zbar'>/2, per pair of points;
    one point pairs with each of a batch, two batches must have one size.
    Psi is one quadratic form in w = (z, zbar'), w^T P w with
    P = [[G/2, A], [0, conj(G)/2]], taken for every pair by one einsum."""
    n = kp.psi_zzbar.shape[0]
    (z, one), (zeta, one_zeta) = mx.as_points(z, n, "z"), mx.as_points(zeta, n, "zeta")
    if len(z) != len(zeta) and 1 not in (len(z), len(zeta)):
        raise DimensionMismatch(f"z {z.shape} and zeta {zeta.shape} are batches of unequal size")
    w = np.concatenate(np.broadcast_arrays(z, zeta.conj()), axis=1)
    form = np.block([[0.5 * kp.psi_zz, kp.psi_zzbar], [np.zeros((n, n)), 0.5 * kp.psi_zz.conj()]])
    values = kp.c_Phi * np.exp(2.0 * np.einsum("ri,ij,rj->r", w, form, w))
    return complex(values[0]) if one and one_zeta else values


def _root_det(P) -> complex:
    """det(P)^(1/2) of a complex symmetric P, continued from Im P = 0 along
    Re P + i t Im P: det(L) prod sqrt(1 + i s_k), L L^T = Re P and s_k the
    eigenvalues of L^-1 Im P L^-T (no 1 + i t s_k meets the principal
    root's cut).  NonIntegrableWeight unless Re P is positive definite."""
    try:
        chol = np.linalg.cholesky(P.real)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("decay form of the integrand not positive definite") from exc
    li = np.linalg.inv(chol)
    s = np.linalg.eigvalsh(li @ P.imag @ li.T)
    return math.prod(np.diag(chol).tolist()) * np.prod(np.sqrt(1.0 + 1j * s))


def _over_cn(P, beta, c, poly: PolyC) -> np.ndarray:
    """Integrals over C^n of poly(z) exp(-w^T P w + <zbar, beta_r> + c_r) in
    the real coordinates w = (Re z, Im z), one per row of ``beta`` (rows, n),
    in closed form; ``P`` is complex symmetric with positive definite real
    part, else NonIntegrableWeight.

    With b_r the linear form of row r in w, the Gaussian is pi^n
    det(P)^(-1/2) exp(c_r + b_r P^-1 b_r / 4) times the law of w with mean
    P^-1 b_r / 2 and covariance P^-1 / 2, so z = T w, T the z rows of
    ``matrices.complex_coords``, has mean m_r = T P^-1 b_r / 2 and
    bilinear covariance K = T P^-1 T^T / 2.  The mean of a holomorphic
    polynomial is its heat polynomial exp(d^T K d / 2) poly at m_r; on
    z^a that is (z + K d/dz)^a 1, the chain of the commuting operators
    (K, E) (``_monomial_chain``), built once for all rows.  det(P)^(1/2),
    continued from Im P = 0, is ``_root_det``'s."""
    n = beta.shape[1]
    t = mx.complex_coords(n)
    root_det = _root_det(P)
    cov = np.linalg.inv(2.0 * P)
    cov = 0.5 * (cov + cov.T)
    b = beta @ t[n:]
    mean = b @ cov @ t[:n].T
    heat = _monomial_chain(LinearDiffOp(t[:n] @ cov @ t[:n].T, np.eye(n)),
                           _block_of([poly], poly.degree()))
    mass = np.exp(c + 0.5 * np.einsum("ri,ij,rj->r", b, cov, b)) * (math.pi**n / root_det)
    return mass * _gauss_polys(heat, np.zeros((n, n)))[0].poly(mean)


def _inverse_exponent(pt: PhaseTriple, F: GaussPoly, xs: np.ndarray, wd: WeightData):
    """(P, beta, c) of the adjoint-transform integrand at the real points xs
    (rows, n): -i conj(phi(z, x)) - 2 Phi(z) - <z, M z> with
    Phi(z) = <z, phi_zzbar zbar> + Re <z, phi_zz z>."""
    P = mx.lift(
        wd.phi_zz + F.M, 2.0 * wd.phi_zzbar, wd.phi_zz.conj() + 0.5j * pt.A.conj()
    )
    beta = -1j * (xs @ pt.B.conj().T)
    c = -0.5j * np.einsum("ri,ij,rj->r", xs, pt.C.conj(), xs)
    return P, beta, c


def inverse_transform(
    pt: PhaseTriple,
    F: GaussPoly,
    x,
    quad: QuadSpec | None = None,
    wd: WeightData | None = None,
) -> complex | np.ndarray:
    """Adjoint transform at a real point, or at each of a batch,
    C_phi * integral of exp(-i conj(phi(z, x))) F(z) exp(-2 Phi(z)).

    ``F`` must be a GaussPoly, such as an exact image from
    ``transform_image``; its exponent joins the integrand's exponent, so
    the integral of a polynomial times one Gaussian is exact
    (``_over_cn``), all points at once.  ``quad`` changes no value.
    """
    if not isinstance(F, GaussPoly):
        raise TypeError(f"inverse_transform needs a GaussPoly, got {type(F).__name__}")
    wd = wd or compute_weight_data(pt)
    x, one = mx.as_points(x, pt.n, "x", float)
    if F.n != pt.n:
        raise DimensionMismatch("F must share the triple's dimension")
    mx.require_finite(x, "x")
    P, beta, c = _inverse_exponent(pt, F, x, wd)
    values = pt.c_phi * _over_cn(P, beta, c, F.poly)
    return complex(values[0]) if one else values


def kernel_reproduce(
    kp: KernelParams,
    wd: WeightData,
    F: GaussPoly,
    z,
    quad: QuadSpec | None = None,
) -> complex | np.ndarray:
    """Integral of K(z, .) F(.) exp(-2 Phi) over C^n; equals F(z) for
    members of the weighted space of entire functions; one per point z,
    all exact (``_over_cn``) at once.  ``quad`` changes no value."""
    n = kp.psi_zzbar.shape[0]
    z, one = mx.as_points(z, n, "z")
    if F.n != n:
        raise DimensionMismatch("F must share the kernel's dimension")
    mx.require_finite(z, "z")
    # 2 Psi(z, zetabar) - <zeta, M zeta> - 2 Phi(zeta); the zetabar-zetabar
    # blocks of Psi and Phi cancel, since psi_zz = phi_zz
    P = mx.lift(wd.phi_zz + F.M, 2.0 * wd.phi_zzbar, np.zeros((n, n)))
    beta = 2.0 * (z @ kp.psi_zzbar)
    c = np.einsum("ri,ij,rj->r", z, kp.psi_zz, z)
    values = kp.c_Phi * _over_cn(P, beta, c, F.poly)
    return complex(values[0]) if one else values


def isometry_residual(
    pt: PhaseTriple,
    u: TestFunction,
    wd: WeightData | None = None,
    quad: QuadSpec | None = None,
    mode: str = "fit",
) -> float:
    """Relative defect | ||Tu||^2 - ||u||^2 | / ||u||^2 of the exact image Tu.

    Both modes are exact, and their names are kept for the callers that
    pass them; ``quad`` changes no value.  Mode "fit" chains Tu directly in
    the Wick frame of its exponent and takes normalizer * sum |w_a|^2 a!
    (see ``integrals``); mode "quad", its cross-check, builds the monomial
    image ``transform_image`` and takes its norm by ``hphi_inner``, which
    converts it to the Wick frame at the public edge.
    """
    wd = wd or compute_weight_data(pt)
    norm_u = u.norm_sq()
    if norm_u == 0.0:
        raise ValueError("test function must be nonzero")
    if mode == "fit":
        cache = make_moment_cache(wd, image_exponent(pt))
        row, _ = _image_coefficients(pt, u, cache)
        norm_tu = float(_pair_inners(cache, row, [0], [0])[0].real)
    elif mode == "quad":
        image = transform_image(pt, u)
        norm_tu = hphi_inner(image, image, wd).real
    else:
        raise ValueError(f"unknown isometry mode {mode!r}")
    return abs(norm_tu - norm_u) / norm_u


def round_trip_error(
    pt: PhaseTriple,
    u: TestFunction,
    xs: np.ndarray,
    quad: QuadSpec | None = None,
    wd: WeightData | None = None,
) -> float:
    """Max pointwise defect of ``inverse_transform`` of the exact image
    ``transform_image(pt, u)`` against the original test function; all
    points of ``xs`` are inverted by one exact integral call, one row each.
    ``quad`` changes no value."""
    image = transform_image(pt, u)
    xs, _ = mx.as_points(xs, pt.n, "xs", float)
    if xs.shape[0] == 0:
        return 0.0
    mx.require_finite(xs, "xs")
    return float(np.max(np.abs(inverse_transform(pt, image, xs, quad, wd) - u(xs))))
