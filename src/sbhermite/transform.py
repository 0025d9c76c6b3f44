"""The integral transform: exact images, and quadrature as the cross-check.

``hermite_images`` and ``transform_image`` map test functions to GaussPolys
with no quadrature: T h_0 is a Gaussian in closed form, and the raising
operators moved through the transform are first-order operators on C^n,
so the images come from the raising chain the generator family uses: the
image lane (``_image_lane``: T a+ folded at the image exponent, in the Wick
frame of that exponent where a norm is taken, and T h_0's constant),
chained and scaled by 1 / sqrt(alpha!) (``_image_scaled``).  The public
functions chain it alone (``_image_block``), and rows of that block are
what a coefficient vector multiplies; ``run_verify`` chains it beside the
family and its Rodrigues form.

The forward transform, its inverse, the reproducing identity and the
quadrature isometry go through one tensor Gauss-Hermite integrator,
``_gauss_hermite``: each caller writes its Gaussian factors as one complex
quadratic exponent in the real coordinates and passes the degree of its
polynomial integrand.  The integrator computes the tensor sum without
visiting the grid: per outer point (row, lead node) it projects the
integrand exactly onto Hermite polynomials of the tail axes and contracts
those coefficients with a tail table, so neither the integrand nor an exp
is evaluated per grid point.  Its one-axis tables and lead grid depend
only on the rule and are planned once per process (``_axis_plan``,
``_lead_plan``); a call builds only what depends on its input.
``transform`` and ``transform_batch`` evaluate all their points in one
call, one row each.  The round trip (all its points in one call) and the
quadrature isometry integrate the exact image, never a quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import matrices as mx
from .errors import DimensionMismatch, NonIntegrableWeight
from .gausspoly import GaussPoly, LinearDiffOp, mi_factorial, multi_indices
from .gausspoly import _chain_rows, _checked_basis, _gauss_polys, _in_frame, _multi_index
from .gausspoly import _real_scaled, _tabulated_sum
from .integrals import MomentCache, _pair_inners, combined_form, make_moment_cache
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
    """Quadrature controls: ``nodes`` per axis of a window that
    ``_gauss_hermite`` centers where each integrand's real exponent peaks.

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


#: work items (outer points times tail-table rows or projection points) per
#: chunk of the integrator's outer loop; bounds its temporaries
_SLAB_POINTS = 1 << 16


def _tensor_grid(t: np.ndarray, dim: int) -> np.ndarray:
    """All dim-tuples of the 1-D values t, last axis fastest: (len(t)^dim, dim)."""
    if dim == 0:
        return np.zeros((1, 0), dtype=t.dtype)
    grids = np.meshgrid(*([t] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _tensor_rows(g: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """prod_j g[beta_j, i_j] for each row beta of ``betas`` (nb, dim) at each
    point (i_1, .., i_dim) of the tensor grid of the columns of the one-axis
    table ``g``, last axis fastest: (nb, g.shape[1]^dim)."""
    out = g[betas[:, 0]]
    for j in range(1, betas.shape[1]):
        out = (out[:, :, None] * g[betas[:, j]][:, None, :]).reshape(len(betas), -1)
    return out


@functools.lru_cache(maxsize=32)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``nodes``-point Gauss-Hermite rule."""
    t, wt = np.polynomial.hermite.hermgauss(nodes)
    return mx.frozen(t), mx.frozen(wt)


@functools.lru_cache(maxsize=64)
def _axis_plan(nodes: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-axis tables ``_gauss_hermite`` needs for the ``nodes``-point
    rule and integrands of degree <= ``degree``, read-only: g_k(t) w,
    k = 0..degree (``_hermite_table``), on its nodes t with weights w
    (degree + 1, nodes); g_k(s) w_s / sqrt(pi) on the nodes s of the
    (degree + 1)-point projection rule (degree + 1, degree + 1); and s."""

    def weighted(x, w):
        return np.array([np.broadcast_to(v, x.shape) for v in _hermite_table(x, degree)]) * w

    t, wt = _hermite_rule(nodes)
    s, ws = _hermite_rule(degree + 1)
    return mx.frozen(weighted(t, wt)), mx.frozen(weighted(s, ws) / math.sqrt(math.pi)), s


@functools.lru_cache(maxsize=32)
def _lead_plan(nodes: int, lead_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point of the ``lead_dim``-axis tensor grid of the ``nodes``-point
    rule, last axis fastest, read-only: its node digits (nodes^lead,
    lead_dim), its nodes and the product of their weights."""
    t, wt = _hermite_rule(nodes)
    digits = _tensor_grid(np.arange(nodes), lead_dim)
    return mx.frozen(digits), mx.frozen(t[digits]), mx.frozen(np.prod(wt[digits], axis=1))


def _gauss_hermite(
    P: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    integrand,
    degree: int,
    nodes: int,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Integrals over R^d of integrand(w @ basis) exp(-w^T P w + b_r . w + c_r).

    One value per row r of ``b`` (rows, d) and ``c`` (rows,); ``P`` is
    complex symmetric with positive definite real part.  ``integrand`` is a
    polynomial of total degree at most ``degree`` and receives a batch of
    points (q, m), each coordinate a contiguous column; ``basis`` (d, m)
    defaults to the identity, and ``matrices.complex_coords(n)[:n].T``
    hands it complex points of C^n.  ``nodes`` is a valid rule size (see
    ``QuadSpec``).  The node window is w = w_r + L^-T t with L L^T = Re P,
    the real decay of the exponent, and w_r = (2 Re P)^-1 Re b_r, the
    maximizer of row r's real Gaussian part.  Substituted, the exponent
    plus the node compensation t.t is one quadratic polynomial
    -t^T K t + bt_r . t + ct_r with the purely imaginary
    K = L^-1 (i Im P) L^-T: the real decay cancels in closed form.

    The value is the tensor ``nodes``-point Gauss-Hermite sum, computed
    without visiting the grid.  The node axes split into lead and tail, the
    tail the fewest trailing axes with nodes^tail >= rows * nodes^lead.
    For each outer point (row, lead node) the integrand is a polynomial of
    degree <= ``degree`` in the tail coordinates, so its coefficients in the
    orthonormal Hermite polynomials h_beta, |beta| <= degree, follow exactly
    from its values on the (degree + 1)-point rule's grid.  Against them, a
    table of tail weights x exp(-t K t) x h_beta(t) is contracted with the
    lead-tail coupling exp(slope . t), a product of one-axis factors: one
    matrix product over the last tail axis and one batched matrix-vector
    product per other tail axis.  Outer points run in chunks of about
    ``_SLAB_POINTS`` work items.

    What depends only on the rule is planned once per process, read-only:
    the one-axis tables of ``_axis_plan`` (per nodes and degree) and the
    lead grid of ``_lead_plan`` (per nodes and lead axes), of sizes
    O(nodes (degree + 1)) and O(nodes^lead lead); no table of the tail
    grid stays resident.  A call computes only what depends on its input:
    the window, the tail phase exp(-t K t) (the tail table is the tensor
    of the one-axis tables times it), the couplings and the integrand
    values.
    """
    dim = P.shape[0]
    basis = np.eye(dim) if basis is None else basis
    try:
        chol = np.linalg.cholesky(P.real)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("quadrature decay form not positive definite") from exc
    w_c = np.linalg.solve(2.0 * P.real, b.real.T).T
    t, _ = _hermite_rule(nodes)
    li = np.linalg.inv(chol)  # rows of points: w = w_c + t @ li
    k = 1j * (li @ P.imag @ li.T)
    bt = (b - 2.0 * w_c @ P) @ li.T
    ct = c + np.einsum("ri,ri->r", b - w_c @ P, w_c)
    p_c = w_c @ basis
    p_dir = li @ basis

    rows = b.shape[0]
    tail_dim = 1
    while tail_dim < dim and nodes**tail_dim < rows * nodes ** (dim - tail_dim):
        tail_dim += 1
    lead_dim = dim - tail_dim
    betas = np.array(multi_indices(tail_dim, degree))
    g_nodes, g_proj, s = _axis_plan(nodes, degree)
    lead_digits, lead_nodes, lead_weights = _lead_plan(nodes, lead_dim)
    # the tail table, (betas x nodes^(tail - 1), nodes): the last tail axis
    # is the inner dimension of the matrix product with its coupling factor
    t_tail = _tensor_grid(t, tail_dim)
    phase = np.exp(-((t_tail @ k[lead_dim:, lead_dim:]) * t_tail).sum(axis=1))
    table = (_tensor_rows(g_nodes, betas) * phase).reshape(-1, nodes)
    # coefficients = values on the projection grid @ proj, exact to degree
    proj = _tensor_rows(g_proj, betas).T
    s_pts = _tensor_grid(s, tail_dim) @ p_dir[lead_dim:]

    k_lead, k_cross = k[:lead_dim, :lead_dim], k[:lead_dim, lead_dim:]
    # one-axis couplings exp(slope_j t), slope = bt_r,tail - 2 t_lead K_cross:
    # a row factor times a pure phase per lead axis and lead node, both
    # tabulated here.  Each row factor gives up the largest real part of
    # bt_rj t over the nodes to the outer exponent, so neither overflows.
    shift = np.abs(bt[:, lead_dim:].real) * t[-1]
    row_axis = np.exp(bt[:, lead_dim:, None] * t - shift[:, :, None])
    lead_axis = np.exp(-2.0 * k_cross[:, None, :, None] * t[:, None, None] * t)
    shift = shift.sum(axis=1)
    n_lead = len(lead_weights)
    n_outer = rows * n_lead
    step = max(1, _SLAB_POINTS // max(table.shape[0], s_pts.shape[0]))
    out = np.zeros(rows, dtype=complex)
    for start in range(0, n_outer, step):
        r, lead = np.divmod(np.arange(start, min(start + step, n_outer)), n_lead)
        digits, t_lead = lead_digits[lead], lead_nodes[lead]
        e_lead = (
            ct[r]
            + shift[r]
            + np.einsum("qi,qi->q", bt[r, :lead_dim], t_lead)
            - np.einsum("qi,ij,qj->q", t_lead, k_lead, t_lead)
        )
        p_lead = p_c[r] + t_lead @ p_dir[:lead_dim]
        pts = p_lead.T[:, :, None] + s_pts.T[:, None, :]
        coeff = integrand(pts.reshape(pts.shape[0], -1).T).reshape(len(r), -1) @ proj
        axis = row_axis[r]
        for i in range(lead_dim):
            axis = axis * lead_axis[i, digits[:, i]]
        # acc is (table rows, outer points); each other tail axis contracts
        # as batched matrix-vector products on a transposed view, no copy
        # (axis @ table.T, the same product, raised peak memory by 0.3 MB)
        acc = table @ axis[:, -1].T
        for j in range(tail_dim - 2, -1, -1):
            acc = acc.reshape(-1, nodes, len(r)).transpose(2, 0, 1)
            acc = (acc @ axis[:, j, :, None])[..., 0].T
        tail_sum = np.einsum("bm,mb->m", acc, coeff)
        np.add.at(out, r, tail_sum * np.exp(e_lead) * lead_weights[lead])
    return out / float(np.prod(np.diag(chol)))


def transform_batch(
    pt: PhaseTriple, u: TestFunction, Z: np.ndarray, quad: QuadSpec | None = None
) -> np.ndarray:
    """Transform values at a batch of points, one x-quadrature per point,
    all in one integrator call.

    The integrand exp(i phi(z, x)) u(x) carries the unit envelope
    exp(-|x|^2/2) of the Hermite test family in its exponent, so the
    x-window completes the square against the full Gaussian decay
    (C_I + E)/2 and centers on the maximizer of the real exponent, the
    solution of (C_I + E) x = Re(i B^T z).  Without the envelope term the
    window misses the decay of u and far evaluation points degrade.
    """
    quad = quad or QuadSpec()
    Z, _ = mx.as_points(Z, pt.n, "Z")
    mx.require_finite(Z, "Z")
    # i phi(z, x) - |x|^2/2 = -x^T P x + (i B^T z) . x + i <z, A z>/2
    P = 0.5 * (np.eye(pt.n) - 1j * pt.C)
    b = 1j * (Z @ pt.B)
    c = 0.5j * np.einsum("ri,ij,rj->r", Z, pt.A, Z)
    return pt.c_phi * _gauss_hermite(P, b, c, u.polynomial_part, u.degree(), quad.nodes)


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
    the frame of ``cache`` (for M).  T h_0 = c0 exp(-<z, M z>),
    c0 = c_phi pi^(-n/4) (2 pi)^(n/2) det(W)^(-1/2) with W = E - iC, and
    T h_alpha = (T a+)^alpha T h_0 / sqrt(alpha!) (``_image_scaled``).  W has
    Hermitian part E + Im C > 0, so det(W)^(-1/2), continued from W = E, is
    the product of the principal roots of its eigenvalues for every n."""
    n = pt.n
    root_det = np.prod(np.sqrt(np.linalg.eigvals(np.eye(n) - 1j * pt.C)))
    c0 = pt.c_phi * math.pi ** (-n / 4.0) * (2.0 * math.pi) ** (n / 2.0) / root_det
    M = image_exponent(pt)
    return (_in_frame(_intertwined_raising(pt), M, cache), c0), M


def _image_scaled(rows: np.ndarray, alphas) -> np.ndarray:
    """Chain rows (T a+)^alpha T h_0 of the image lane, one per alpha of
    ``alphas``, scaled to T h_alpha by 1 / sqrt(alpha!)."""
    norms = [1.0 / math.sqrt(mi_factorial(a)) for a in alphas]
    return _real_scaled(rows, np.array(norms).reshape(-1, 1))


def _image_block(pt: PhaseTriple, alphas, cache: MomentCache | None = None) -> tuple:
    """Exact transforms T h_alpha of the orthonormal Hermite functions, one
    row per alpha of ``alphas``, and their exponent M: the image lane
    (``_image_lane``) chained alone and scaled."""
    lane, M = _image_lane(pt, cache)
    return _image_scaled(_chain_rows([lane], alphas)[0], alphas), M


def hermite_images(pt: PhaseTriple, max_degree: int) -> dict:
    """Exact transforms T h_alpha, |alpha| <= max_degree, of the orthonormal
    Hermite functions, as GaussPolys with exponent ``image_exponent(pt)``
    keyed by alpha: the rows of ``_image_block``."""
    basis = _checked_basis(pt.n, max_degree)
    block, M = _image_block(pt, basis)
    return dict(zip(basis, _gauss_polys(block, M)))


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
    wd = wd or compute_weight_data(pt)
    c_phi_norm = (2.0 * math.pi) ** (-pt.n) * abs(np.linalg.det(pt.B)) ** 2 / float(
        np.linalg.det(pt.C_I)
    )
    return KernelParams(
        psi_zzbar=wd.phi_zzbar, psi_zz=wd.phi_zz, c_Phi=float(c_phi_norm)
    )


def kernel_eval(kp: KernelParams, z, zeta) -> complex | np.ndarray:
    """Reproducing kernel C_Phi exp(2 Psi(z, zetabar)) with
    Psi = <z, A zbar'> + <z, G z>/2 + <zbar', conj(G) zbar'>/2, per pair of points;
    one point pairs with each of a batch, two batches must have one size."""
    n = kp.psi_zzbar.shape[0]
    (z, one), (zeta, one_zeta) = mx.as_points(z, n, "z"), mx.as_points(zeta, n, "zeta")
    if len(z) != len(zeta) and 1 not in (len(z), len(zeta)):
        raise DimensionMismatch(f"z {z.shape} and zeta {zeta.shape} are batches of unequal size")
    psi = [a @ (kp.psi_zzbar @ b) + 0.5 * a @ (kp.psi_zz @ a) + 0.5 * b @ (kp.psi_zz.conj() @ b)
           for a, b in zip(*np.broadcast_arrays(z, zeta.conj()))]
    values = kp.c_Phi * np.exp(2.0 * np.array(psi))
    return complex(values[0]) if one and one_zeta else values


def _over_cn(P, beta, c, poly, degree: int, nodes: int) -> np.ndarray:
    """Integrals over C^n of poly(z) exp(-w^T P w + <zbar, beta_r> + c_r) in
    the real coordinates w = (Re z, Im z), one per row of ``beta`` (rows, n),
    by ``_gauss_hermite``; ``poly`` has total degree at most ``degree``."""
    n = beta.shape[1]
    t = mx.complex_coords(n)
    return _gauss_hermite(P, beta @ t[n:], c, poly, degree, nodes, t[:n].T)


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
    the quadrature integrates a polynomial times one Gaussian.
    """
    if not isinstance(F, GaussPoly):
        raise TypeError(f"inverse_transform needs a GaussPoly, got {type(F).__name__}")
    quad = quad or QuadSpec()
    wd = wd or compute_weight_data(pt)
    x, one = mx.as_points(x, pt.n, "x", float)
    if F.n != pt.n:
        raise DimensionMismatch("F must share the triple's dimension")
    mx.require_finite(x, "x")
    P, beta, c = _inverse_exponent(pt, F, x, wd)
    values = pt.c_phi * _over_cn(P, beta, c, F.poly, F.poly.degree(), quad.nodes)
    return complex(values[0]) if one else values


def kernel_reproduce(
    kp: KernelParams,
    wd: WeightData,
    F: GaussPoly,
    z,
    quad: QuadSpec | None = None,
) -> complex | np.ndarray:
    """Integral of K(z, .) F(.) exp(-2 Phi) over C^n; equals F(z) for
    members of the weighted space of entire functions; one per point z."""
    quad = quad or QuadSpec()
    n = kp.psi_zzbar.shape[0]
    z, one = mx.as_points(z, n, "z")
    if F.n != n:
        raise DimensionMismatch("F must share the kernel's dimension")
    mx.require_finite(z, "z")
    # 2 Psi(z, zetabar) - <zeta, M zeta> - 2 Phi(zeta); the zetabar-zetabar
    # blocks of Psi and Phi cancel, since psi_zz = phi_zz
    P = mx.lift(wd.phi_zz + F.M, 2.0 * wd.phi_zzbar, np.zeros((n, n)))
    beta = 2.0 * (z @ kp.psi_zzbar)
    c = np.array([p @ kp.psi_zz @ p for p in z])
    values = kp.c_Phi * _over_cn(P, beta, c, F.poly, F.poly.degree(), quad.nodes)
    return complex(values[0]) if one else values


def isometry_residual(
    pt: PhaseTriple,
    u: TestFunction,
    wd: WeightData | None = None,
    quad: QuadSpec | None = None,
    mode: str = "fit",
) -> float:
    """Relative defect | ||Tu||^2 - ||u||^2 | / ||u||^2 of the exact image Tu.

    Mode "fit" (name kept for callers) builds Tu in the Wick frame of its
    exponent and takes normalizer * sum |w_a|^2 a! (see ``integrals``),
    ignoring ``quad``; mode "quad", its cross-check, integrates |poly|^2 of
    the monomial image by tensor quadrature against the real form of
    |exp(-<z, M z>)|^2 exp(-2 Phi).
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
        quad = quad or QuadSpec()
        norm_tu = _over_cn(
            combined_form(wd, image.M).M_R,
            np.zeros((1, pt.n)),
            np.zeros(1),
            lambda Z: np.abs(image.poly(Z)) ** 2,
            2 * image.poly.degree(),
            quad.nodes,
        )[0].real
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
    points of ``xs`` are inverted by one quadrature call, one row each."""
    image = transform_image(pt, u)
    xs, _ = mx.as_points(xs, pt.n, "xs", float)
    if xs.shape[0] == 0:
        return 0.0
    mx.require_finite(xs, "xs")
    return float(np.max(np.abs(inverse_transform(pt, image, xs, quad, wd) - u(xs))))
