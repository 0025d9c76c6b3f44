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
visiting the grid: it projects each row's integrand once, exactly, onto
Hermite polynomials of all axes from its values on the (degree + 1)-point
grid, gives each lead node its tail coefficients by one-axis Hermite
values, and contracts those with a tail table, so neither the integrand
nor an exp is evaluated per grid point.  What depends only on the rule,
the degree and the split is planned once per process (``_axis_plan``,
``_index_plan``), and only one-axis and Hermite-index tables stay
resident; a call builds only what depends on its input.
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
from .gausspoly import GaussPoly, LinearDiffOp, _basis_array, mi_factorial
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


#: work items per chunk of the integrator, bounding its temporaries: in the
#: outer loop, outer points times the widest per-point array (tail-table
#: rows, coupling or lead Hermite row); in the projection, integrand points
#: times the degree + 1 values tabulated per point and coordinate
_SLAB_POINTS = 1 << 16


def _tensor_grid(t: np.ndarray, dim: int) -> np.ndarray:
    """All dim-tuples of the 1-D values t, last axis fastest: (len(t)^dim, dim)."""
    grid = np.empty((len(t),) * dim + (dim,), dtype=t.dtype)
    for i in range(dim):
        grid[..., i] = t.reshape((-1,) + (1,) * (dim - 1 - i))
    return grid.reshape(len(t) ** dim, dim)


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


def _hermite_coefficients(integrand, p_c, p_dir, g_proj, s) -> np.ndarray:
    """Coefficients of integrand(p_c[r] + t @ p_dir) in the products
    prod_i g_(k_i)(t_i) of the ``_hermite_table`` polynomials, k in
    [0, D]^d with D + 1 = len(s), per row r, last axis fastest:
    (rows, (D + 1)^d).  The integrand is evaluated once per row on the
    tensor grid of the projection nodes s, in chunks of at most
    ``_SLAB_POINTS`` / (D + 1) points (it tabulates up to D + 1 values per
    point and coordinate), and ``g_proj`` (see ``_axis_plan``) is
    contracted with one axis at a time.  The (D + 1)-point rule is exact
    to degree 2 D + 1, so for a polynomial of degree <= D every
    coefficient is exact, and those with |k| > D vanish."""
    rows, width = p_c.shape
    size, dim = len(s), p_dir.shape[0]
    grid = (_tensor_grid(s, dim) @ p_dir).T
    values = np.empty((rows, grid.shape[1]), dtype=complex)
    step = max(1, _SLAB_POINTS // size)
    g_step, r_step = min(step, grid.shape[1]), max(1, step // grid.shape[1])
    for r0 in range(0, rows, r_step):
        for g0 in range(0, grid.shape[1], g_step):
            pts = p_c.T[:, r0 : r0 + r_step, None] + grid[:, None, g0 : g0 + g_step]
            block = values[r0 : r0 + r_step, g0 : g0 + g_step]
            block[...] = integrand(pts.reshape(width, -1).T).reshape(block.shape)
    coef = values
    for _ in range(dim):
        coef = (coef.reshape(-1, size) @ g_proj.T).reshape(rows, -1, size).transpose(0, 2, 1)
    return coef.reshape(rows, -1)


@functools.lru_cache(maxsize=32)
def _index_plan(lead_dim: int, tail_dim: int, degree: int) -> tuple:
    """The Hermite indices of a lead/tail split, read-only: the lead
    indices kl and the tail indices beta, |kl|, |beta| <= ``degree``; for
    each pair the position of (kl, beta) in the coefficients of
    ``_hermite_coefficients``; and whether |kl| + |beta| <= ``degree``."""
    size = degree + 1
    kl, betas = _basis_array(lead_dim, degree), _basis_array(tail_dim, degree)
    flat_l = kl @ size ** np.arange(lead_dim + tail_dim - 1, tail_dim - 1, -1)
    flat_t = betas @ size ** np.arange(tail_dim - 1, -1, -1)
    live = kl.sum(axis=1)[:, None] + betas.sum(axis=1) <= degree
    return tuple(mx.frozen(a) for a in (kl, betas, flat_l[:, None] + flat_t, live))


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
    without visiting the grid.  Each row's integrand, a polynomial of
    degree <= D = ``degree`` in t, is projected once onto the orthonormal
    Hermite polynomials of all d axes from its values on the (D + 1)^d grid
    of the (D + 1)-point rule, which is exact (``_hermite_coefficients``).
    The node axes split into lead and tail, the tail the fewest trailing
    axes whose table (one row per tail index |beta| <= D and tail node)
    has at least as many entries as there are outer points (row, lead
    node).  An outer point gets its tail coefficients by contracting the
    lead indices with the weighted Hermite values at its lead nodes.
    Against them, a table of tail weights x exp(-t K t) x h_beta(t) is
    contracted with the lead-tail coupling exp(slope . t), a product of
    one-axis factors: one matrix product over the last tail axis, then one
    batched product with the coefficients and one per other tail axis.
    Outer points run in chunks of about ``_SLAB_POINTS`` work items, a
    range of the outer lead axes times the grid of the inner ones, whose
    factors are tabulated once per call.

    What depends only on the rule is planned once per process, read-only:
    the one-axis tables of ``_axis_plan`` (per nodes and degree, size
    O(nodes (D + 1))) and the Hermite indices of ``_index_plan`` (per split
    and degree); no table of the lead or tail grid stays resident.  A call
    computes only what depends on its input: the window, the coefficients,
    the tail phase exp(-t K t) (the tail table is the tensor of the
    one-axis tables times it) and the couplings.
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

    rows = b.shape[0]
    tail_dim = 1
    while tail_dim < dim and (math.comb(tail_dim + degree, degree) * nodes**tail_dim
                              < rows * nodes ** (dim - tail_dim)):
        tail_dim += 1
    lead_dim = dim - tail_dim
    g_nodes, g_proj, s = _axis_plan(nodes, degree)
    kl, betas, pick, live = _index_plan(lead_dim, tail_dim, degree)
    coef = _hermite_coefficients(integrand, w_c @ basis, li @ basis, g_proj, s)
    # per row, the coefficients of lead index kl and tail index beta, zero
    # where |kl| + |beta| exceeds the degree (there they vanish exactly)
    coef = np.where(live, coef[:, pick], 0.0)
    # the tail table, (betas x nodes^(tail - 1), nodes): the last tail axis
    # is the inner dimension of the matrix product with its coupling factor
    t_tail = _tensor_grid(t, tail_dim)
    phase = np.exp(-((t_tail @ k[lead_dim:, lead_dim:]) * t_tail).sum(axis=1))
    table = (_tensor_rows(g_nodes, betas) * phase).reshape(-1, nodes)

    k_lead, k_cross = k[:lead_dim, :lead_dim], k[:lead_dim, lead_dim:]
    # one-axis couplings exp(slope_j t), slope = bt_r,tail - 2 t_lead K_cross:
    # a row factor times a pure phase per lead axis and lead node, both
    # tabulated here.  Each row factor gives up the largest real part of
    # bt_rj t over the nodes to the outer exponent, so neither overflows.
    shift = np.abs(bt[:, lead_dim:].real) * t[-1]
    row_axis = np.exp(bt[:, lead_dim:, None] * t - shift[:, :, None])
    # K is purely imaginary and the nodes are antisymmetric (t[-1 - j] =
    # -t[j] exactly), so the lead-tail coupling at tail node -t_j is the
    # conjugate of that at t_j: only the first half is exponentiated
    half = (nodes + 1) // 2
    lead_axis = np.empty((lead_dim, nodes, tail_dim, nodes), dtype=complex)
    lead_axis[..., :half] = np.exp(-2.0 * k_cross[:, None, :, None] * t[:, None, None] * t[:half])
    np.conjugate(lead_axis[..., nodes - half - 1 :: -1], out=lead_axis[..., half:])
    row_part = ct + shift.sum(axis=1)
    n_lead = nodes**lead_dim
    step = max(1, _SLAB_POINTS // max(table.shape[0], tail_dim * nodes, len(kl)))
    lead_step, row_step = min(step, n_lead), max(1, step // n_lead)
    # a chunk of the lead grid is a range of its outer axes times the whole
    # grid of the inner axes, the most trailing lead axes that fit a chunk:
    # inner factors are tabulated once, outer ones gathered per chunk
    inner_dim = 0
    while inner_dim < lead_dim and nodes ** (inner_dim + 1) <= lead_step:
        inner_dim += 1
    outer_dim = lead_dim - inner_dim
    inner_cpl = np.ones((1, tail_dim, nodes), dtype=complex)
    inner_h = np.ones((1, len(kl)))
    for i in range(outer_dim, lead_dim):
        inner_cpl = (inner_cpl[:, None] * lead_axis[i]).reshape(-1, tail_dim, nodes)
        inner_h = (inner_h[:, None] * g_nodes[kl[:, i]].T).reshape(-1, len(kl))
    inner_t = _tensor_grid(t, inner_dim)
    n_outer = nodes**outer_dim
    outer_step = max(1, lead_step // len(inner_t))
    out = np.zeros(rows, dtype=complex)
    for o0 in range(0, n_outer, outer_step):
        outer = np.arange(o0, min(o0 + outer_step, n_outer))
        digits = np.empty((len(outer), outer_dim), dtype=np.intp)
        for i in range(outer_dim - 1, -1, -1):
            outer, digits[:, i] = np.divmod(outer, nodes)
        cpl, h_lead = inner_cpl[None], inner_h[None]
        for i in range(outer_dim):
            cpl = cpl * lead_axis[i, digits[:, i], None]
            h_lead = h_lead * g_nodes[:, digits[:, i]].T[:, None, kl[:, i]]
        cpl, h_lead = cpl.reshape(-1, tail_dim, nodes), h_lead.reshape(-1, len(kl))
        t_lead = np.empty((len(digits), len(inner_t), lead_dim))
        t_lead[:, :, :outer_dim] = t[digits][:, None]
        t_lead[:, :, outer_dim:] = inner_t
        t_lead = t_lead.reshape(len(digits) * len(inner_t), lead_dim)
        e_lead = -((t_lead @ k_lead) * t_lead).sum(axis=1)
        for r0 in range(0, rows, row_step):
            rr = slice(r0, min(r0 + row_step, rows))
            coeff = h_lead @ coef[rr]
            m = coeff.shape[0] * coeff.shape[1]
            # the coupling of each tail axis at each outer point, formed only
            # when its axis is contracted
            axis = (row_axis[rr, None, -1] * cpl[:, -1]).reshape(m, nodes)
            acc = coeff.reshape(m, 1, -1) @ (axis @ table.T).reshape(m, len(betas), -1)
            for j in range(tail_dim - 2, -1, -1):
                axis = (row_axis[rr, None, j] * cpl[:, j]).reshape(m, nodes, 1)
                acc = acc.reshape(m, -1, nodes) @ axis
            expo = np.exp(row_part[rr, None] + bt[rr, :lead_dim] @ t_lead.T + e_lead)
            out[rr] += (acc.reshape(-1, len(t_lead)) * expo).sum(axis=1)
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
