"""The integral transform: exact images, and quadrature as the cross-check.

``hermite_images`` and ``transform_image`` map test functions to GaussPolys
with no quadrature: T h_0 is a Gaussian in closed form, and the raising
operators moved through the transform are first-order operators on C^n,
so the images come from the raising chain the generator family uses.

The forward transform, its inverse, the reproducing identity and the
quadrature isometry go through one tensor Gauss-Hermite integrator,
``_gauss_hermite``: each caller writes its Gaussian factors as one complex
quadratic exponent in the real coordinates, so each node costs one
quadratic form and one exp; the grid is summed in slabs of a fixed size.
Every integrand is a polynomial times that exponential: the round trip and
the quadrature isometry integrate the exact image, never a quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import DimensionMismatch, NonIntegrableWeight, QuadratureUnderflow
from .gausspoly import GaussPoly, LinearDiffOp, PolyC, mi_factorial
from .gausspoly import _raising_chain, _tabulated_sum
from .integrals import combined_form, hphi_inner
from .model import PhaseTriple, WeightData, compute_weight_data


@dataclass(frozen=True)
class KernelParams:
    """Data of the reproducing kernel C_Phi exp(2 Psi(z, zetabar))."""

    psi_zzbar: np.ndarray
    psi_zz: np.ndarray
    c_Phi: float


#: largest valid rule: numpy's hermgauss gives zero weights at 371 nodes, NaN beyond
MAX_NODES = 370


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls: ``nodes`` per axis and an optional fixed ``center``."""

    nodes: int = 64
    center: np.ndarray | None = None


@dataclass(frozen=True)
class TestFunction:
    """Finite expansion in the orthonormal Gaussian-Hermite basis on R^n.

    ``coefficients`` maps multi-indices to complex weights; the squared L2
    norm is the coefficient square sum, exactly.
    """

    n: int
    coefficients: dict

    @classmethod
    def hermite_basis(cls, alpha) -> "TestFunction":
        alpha = tuple(int(a) for a in alpha)
        return cls(n=len(alpha), coefficients={alpha: 1.0 + 0.0j})

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coefficients.values()))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = x.reshape(-1, self.n)
        envelope = np.exp(-0.5 * np.sum(pts * pts, axis=1))
        out = self.polynomial_part(pts) * envelope
        return out[0] if squeeze else out

    def polynomial_part(self, x: np.ndarray) -> np.ndarray:
        """Value with the common Gaussian envelope exp(-|x|^2/2) removed,
        so callers can fold that envelope into larger exponents safely.

        Each coordinate gets one table of Hermite polynomials, shared by
        every term."""
        pts = np.asarray(x, dtype=float).reshape(-1, self.n)
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


#: grid points per slab of the fused integrator; bounds its temporaries
_SLAB_POINTS = 1 << 15


def _tensor_grid(t: np.ndarray, dim: int) -> np.ndarray:
    """All dim-tuples of the 1-D values t, last axis fastest: (len(t)^dim, dim)."""
    grids = np.meshgrid(*([t] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@functools.lru_cache(maxsize=32)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``nodes``-point Gauss-Hermite rule."""
    t, wt = np.polynomial.hermite.hermgauss(nodes)
    return mx.frozen(t), mx.frozen(wt)


def _gauss_hermite(
    P: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    integrand,
    nodes: int,
    center: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Integrals over R^d of integrand(w @ basis) exp(-w^T P w + b_r . w + c_r).

    One value per row r of ``b`` (rows, d) and ``c`` (rows,); ``P`` is
    complex symmetric with positive definite real part.  ``integrand``, a
    polynomial, receives a batch of points (q, m), each coordinate a
    contiguous column; ``basis`` (d, m) defaults to the identity, and
    ``matrices.complex_coords(n)[:n].T`` hands it complex points of C^n.
    The node window is w = w_r + L^-T t with L L^T = Re P, the real decay
    of the exponent, and w_r = (2 Re P)^-1 Re b_r, the maximizer of the
    real Gaussian part, unless ``center`` fixes it; then
    QuadratureUnderflow is raised when some w_r lies outside the node span.
    Substituted, the exponent plus the node compensation t.t is one
    quadratic polynomial -t^T K t + bt_r . t + ct_r with the purely
    imaginary K = L^-1 (i Im P) L^-T: the real decay cancels in closed
    form.  The tensor grid of the ``nodes``-point Gauss-Hermite rule is
    summed in slabs of at most ``_SLAB_POINTS`` points (more only when one
    node axis is longer): all trailing node axes that fit times a run of
    (row, leading node) indices, so the nodes^d grid is never built.
    """
    dim = P.shape[0]
    basis = np.eye(dim) if basis is None else basis
    try:
        chol = np.linalg.cholesky(P.real)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("quadrature decay form not positive definite") from exc
    w_c = np.linalg.solve(2.0 * P.real, b.real.T).T
    if not 1 <= nodes <= MAX_NODES:
        raise ValueError(f"nodes must lie in [1, {MAX_NODES}], got {nodes}")
    t, wt = _hermite_rule(nodes)
    if center is not None:
        fixed = np.asarray(center, dtype=float).reshape(dim)
        if np.max(np.abs((w_c - fixed) @ chol)) > np.max(np.abs(t)):
            raise QuadratureUnderflow(
                "integrand center lies outside the fixed node window"
            )
        w_c = np.broadcast_to(fixed, w_c.shape)
    li = np.linalg.inv(chol)  # rows of points: w = w_c + t @ li
    k = 1j * (li @ P.imag @ li.T)
    bt = (b - 2.0 * w_c @ P) @ li.T
    ct = c + np.einsum("ri,ri->r", b - w_c @ P, w_c)
    p_c = w_c @ basis
    p_dir = li @ basis

    # trailing axes whose grid fits a slab; (row, leading index) runs fill it
    tail_dim = 1
    while tail_dim < dim and nodes ** (tail_dim + 1) <= _SLAB_POINTS:
        tail_dim += 1
    lead_dim = dim - tail_dim
    t_tail = _tensor_grid(t, tail_dim)
    wt_tail = np.prod(_tensor_grid(wt, tail_dim), axis=1).astype(complex)
    e_tail = -np.einsum("qi,ij,qj->q", t_tail, k[lead_dim:, lead_dim:], t_tail)
    p_tail = np.ascontiguousarray((t_tail @ p_dir[lead_dim:]).T)
    t_tail = np.ascontiguousarray(t_tail.T, dtype=complex)
    k_lead, k_cross = k[:lead_dim, :lead_dim], k[:lead_dim, lead_dim:]
    place = nodes ** np.arange(lead_dim - 1, -1, -1)
    n_lead = nodes**lead_dim
    n_outer = b.shape[0] * n_lead
    step = max(1, _SLAB_POINTS // t_tail.shape[1])
    out = np.zeros(b.shape[0], dtype=complex)
    for start in range(0, n_outer, step):
        rows, lead = np.divmod(np.arange(start, min(start + step, n_outer)), n_lead)
        digits = lead[:, None] // place % nodes
        t_lead = t[digits]
        bt_r = bt[rows]
        e_lead = (
            ct[rows]
            + np.einsum("qi,qi->q", bt_r[:, :lead_dim], t_lead)
            - np.einsum("qi,ij,qj->q", t_lead, k_lead, t_lead)
        )
        slope = bt_r[:, lead_dim:] - 2.0 * t_lead @ k_cross
        expo = slope @ t_tail
        expo += e_lead[:, None]
        expo += e_tail
        np.exp(expo, out=expo)
        p_lead = p_c[rows] + t_lead @ p_dir[:lead_dim]
        pts = p_lead.T[:, :, None] + p_tail[:, None, :]
        expo *= integrand(pts.reshape(pts.shape[0], -1).T).reshape(expo.shape)
        np.add.at(out, rows, (expo @ wt_tail) * np.prod(wt[digits], axis=1))
    return out / float(np.prod(np.diag(chol)))


def transform_batch(
    pt: PhaseTriple, u: TestFunction, Z: np.ndarray, quad: QuadSpec | None = None
) -> np.ndarray:
    """Transform values at a batch of points, one x-quadrature per point.

    The integrand exp(i phi(z, x)) u(x) carries the unit envelope
    exp(-|x|^2/2) of the Hermite test family in its exponent, so the
    x-window completes the square against the full Gaussian decay
    (C_I + E)/2 and centers on the maximizer of the real exponent, the
    solution of (C_I + E) x = Re(i B^T z).  Without the envelope term the
    window misses the decay of u and far evaluation points degrade.  An
    explicit ``center`` in the quadrature spec overrides the shift and
    raises QuadratureUnderflow when the true center escapes the node window.
    """
    quad = quad or QuadSpec()
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[1] != pt.n:
        raise DimensionMismatch("Z must have shape (m, n)")
    # i phi(z, x) - |x|^2/2 = -x^T P x + (i B^T z) . x + i <z, A z>/2
    P = 0.5 * (np.eye(pt.n) - 1j * pt.C)
    b = 1j * (Z @ pt.B)
    c = 0.5j * np.einsum("ri,ij,rj->r", Z, pt.A, Z)
    return pt.c_phi * _gauss_hermite(
        P, b, c, u.polynomial_part, quad.nodes, quad.center
    )


def transform(
    pt: PhaseTriple, u: TestFunction, z, quad: QuadSpec | None = None
) -> complex:
    """Transform of a test function at one point of C^n."""
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    return complex(transform_batch(pt, u, z, quad)[0])


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


def hermite_images(pt: PhaseTriple, max_degree: int) -> dict:
    """Exact transforms T h_alpha, |alpha| <= max_degree, of the orthonormal
    Hermite functions: GaussPolys with exponent M = ``image_exponent(pt)``,
    T h_0 = c0 exp(-<z, M z>), c0 = c_phi pi^(-n/4) (2 pi)^(n/2) det(W)^(-1/2)
    with W = E - iC, and T h_alpha = (T a+)^alpha T h_0 / sqrt(alpha!).  W has
    Hermitian part E + Im C > 0, so det(W)^(-1/2), continued from W = E, is
    the product of the principal roots of its eigenvalues for every n."""
    n = pt.n
    root_det = np.prod(np.sqrt(np.linalg.eigvals(np.eye(n) - 1j * pt.C)))
    c0 = pt.c_phi * math.pi ** (-n / 4.0) * (2.0 * math.pi) ** (n / 2.0) / root_det
    ground = GaussPoly(PolyC.constant(n, c0), image_exponent(pt))
    chain = _raising_chain(_intertwined_raising(pt), ground, max_degree)
    return {a: gp.scaled(1.0 / math.sqrt(mi_factorial(a))) for a, gp in chain.items()}


def transform_image(pt: PhaseTriple, u: TestFunction) -> GaussPoly:
    """Exact transform of a test function, the sum of c_alpha T h_alpha over
    its coefficients (see ``hermite_images``)."""
    if u.n != pt.n:
        raise DimensionMismatch("test function and triple dimensions differ")
    images = hermite_images(pt, max((sum(a) for a in u.coefficients), default=0))
    image = GaussPoly(PolyC(pt.n), images[(0,) * pt.n].M)
    for alpha, c in u.coefficients.items():
        image += images[tuple(alpha)].scaled(c)
    return image


def make_kernel_params(pt: PhaseTriple, wd: WeightData | None = None) -> KernelParams:
    wd = wd or compute_weight_data(pt)
    c_phi_norm = (2.0 * math.pi) ** (-pt.n) * abs(np.linalg.det(pt.B)) ** 2 / float(
        np.linalg.det(pt.C_I)
    )
    return KernelParams(
        psi_zzbar=wd.phi_zzbar, psi_zz=wd.phi_zz, c_Phi=float(c_phi_norm)
    )


def kernel_eval(kp: KernelParams, z, zeta) -> complex:
    """Reproducing kernel C_Phi exp(2 Psi(z, zetabar)) with
    Psi = <z, A zbar'> + <z, G z>/2 + <zbar', conj(G) zbar'>/2."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if z.shape != zeta.shape:
        raise DimensionMismatch("z and zeta must share a dimension")
    zb = zeta.conj()
    psi = (
        z @ (kp.psi_zzbar @ zb)
        + 0.5 * z @ (kp.psi_zz @ z)
        + 0.5 * zb @ (kp.psi_zz.conj() @ zb)
    )
    return complex(kp.c_Phi * np.exp(2.0 * psi))


def _over_cn(P, beta, c, poly, nodes: int, center=None) -> complex:
    """Integral over C^n of poly(z) exp(-w^T P w + <zbar, beta> + c) in the
    real coordinates w = (Re z, Im z), by ``_gauss_hermite``."""
    n = beta.shape[0]
    t = mx.complex_coords(n)
    b = (beta @ t[n:])[None, :]
    return complex(_gauss_hermite(P, b, np.array([c]), poly, nodes, center, t[:n].T)[0])


def inverse_transform(
    pt: PhaseTriple,
    F: GaussPoly,
    x,
    quad: QuadSpec | None = None,
    wd: WeightData | None = None,
) -> complex:
    """Adjoint transform at a real point,
    C_phi * integral of exp(-i conj(phi(z, x))) F(z) exp(-2 Phi(z)).

    ``F`` must be a GaussPoly, such as an exact image from
    ``transform_image``; its exponent joins the integrand's exponent, so
    the quadrature integrates a polynomial times one Gaussian.
    """
    if not isinstance(F, GaussPoly):
        raise TypeError(f"inverse_transform needs a GaussPoly, got {type(F).__name__}")
    quad = quad or QuadSpec()
    wd = wd or compute_weight_data(pt)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != pt.n:
        raise DimensionMismatch("x has the wrong dimension")
    # -i conj(phi(z, x)) - 2 Phi(z) - <z, M z> with
    # Phi(z) = <z, phi_zzbar zbar> + Re <z, phi_zz z>
    P = mx.lift(
        wd.phi_zz + F.M, 2.0 * wd.phi_zzbar, wd.phi_zz.conj() + 0.5j * pt.A.conj()
    )
    beta = -1j * (pt.B.conj() @ x)
    c = -0.5j * (x @ pt.C.conj() @ x)
    return pt.c_phi * _over_cn(P, beta, c, F.poly, quad.nodes, quad.center)


def kernel_reproduce(
    kp: KernelParams,
    wd: WeightData,
    F: GaussPoly,
    z,
    quad: QuadSpec | None = None,
) -> complex:
    """Integral of K(z, .) F(.) exp(-2 Phi) over C^n; equals F(z) for
    members of the weighted space of entire functions."""
    quad = quad or QuadSpec()
    z = np.asarray(z, dtype=complex).reshape(-1)
    # 2 Psi(z, zetabar) - <zeta, M zeta> - 2 Phi(zeta); the zetabar-zetabar
    # blocks of Psi and Phi cancel, since psi_zz = phi_zz
    P = mx.lift(wd.phi_zz + F.M, 2.0 * wd.phi_zzbar, np.zeros((F.n, F.n)))
    beta = 2.0 * (kp.psi_zzbar.T @ z)
    c = z @ kp.psi_zz @ z
    return kp.c_Phi * _over_cn(P, beta, c, F.poly, quad.nodes, quad.center)


def isometry_residual(
    pt: PhaseTriple,
    u: TestFunction,
    wd: WeightData | None = None,
    quad: QuadSpec | None = None,
    mode: str = "fit",
) -> float:
    """Relative defect | ||Tu||^2 - ||u||^2 | / ||u||^2 of the exact image Tu.

    Mode "fit" (name kept for callers) takes the weighted norm by the moment
    engine and ignores ``quad``; mode "quad", the moment engine's
    cross-check, integrates |poly|^2 by tensor quadrature against the real
    form of |exp(-<z, M z>)|^2 exp(-2 Phi).
    """
    wd = wd or compute_weight_data(pt)
    norm_u = u.norm_sq()
    if norm_u == 0.0:
        raise ValueError("test function must be nonzero")
    image = transform_image(pt, u)
    if mode == "fit":
        norm_tu = hphi_inner(image, image, wd).real
    elif mode == "quad":
        quad = quad or QuadSpec()
        norm_tu = _over_cn(
            combined_form(wd, image.M, image.M).M_R,
            np.zeros(pt.n),
            0.0,
            lambda Z: np.abs(image.poly(Z)) ** 2,
            quad.nodes,
        ).real
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
    """Max pointwise defect of the quadrature inverse of the exact image
    ``transform_image(pt, u)`` against the original test function."""
    wd = wd or compute_weight_data(pt)
    image = transform_image(pt, u)
    xs = np.asarray(xs, dtype=float).reshape(-1, pt.n)
    return max(
        (abs(inverse_transform(pt, image, x, quad, wd) - complex(u(x))) for x in xs),
        default=0.0,
    )
