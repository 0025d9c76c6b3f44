"""Quadrature evaluation of the integral transform, its inverse and kernel.

The forward transform integrates an oscillatory Gaussian against a test
function on R^n; the inverse, the reproducing identity and the quadrature
isometry integrate over C^n = R^(2n).  All four go through one tensor
Gauss-Hermite integrator, ``_gauss_hermite``.  Each caller writes its
Gaussian factors (the phase, the weight exp(-2 Phi), the kernel, the
exponent of a GaussPoly or the unit envelope of a test function) as one
complex quadratic polynomial E(w) in the real coordinates, assembled once
per call as (matrix, vector, constant); the integrand is G(w) exp(E(w))
with G the polynomial part, or a callable's value.  The integrator
completes the square against the real decay of E, substitutes the shifted
and scaled node window analytically, and so evaluates one quadratic form
in the node coordinates plus one exp per node, with no separately
overflowing factor.  The tensor grid is summed in slabs of a fixed size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FitFailure,
    NonIntegrableWeight,
    QuadratureUnderflow,
)
from .gausspoly import GaussPoly, PolyC, _tabulated_sum, multi_indices
from .integrals import combined_form, hphi_inner, make_moment_cache
from .model import PhaseTriple, WeightData, compute_weight_data


@dataclass(frozen=True)
class KernelParams:
    """Data of the reproducing kernel C_Phi exp(2 Psi(z, zetabar))."""

    psi_zzbar: np.ndarray
    psi_zz: np.ndarray
    c_Phi: float


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls: ``nodes`` per axis for integrals, ``fit_grid``
    per real axis for transform sampling, optional fixed ``center``."""

    nodes: int = 64
    fit_grid: int = 12
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


def _complex_basis(n: int) -> np.ndarray:
    """Rows mapping real coordinates w = (x, y) to z = x + iy: z = w @ basis."""
    return np.vstack([np.eye(n), 1j * np.eye(n)])


def _lift(zz, zzbar, zbzb) -> np.ndarray:
    """Complex symmetric S (2n, 2n) with w^T S w = <z, zz z> + <z, zzbar zbar>
    + <zbar, zbzb zbar> in the real coordinates w = (x, y), z = x + iy."""
    t = _complex_basis(zz.shape[0]).T  # z = t w
    tb = t.conj()
    s = t.T @ zz @ t + t.T @ zzbar @ tb + tb.T @ zbzb @ tb
    return 0.5 * (s + s.T)


def _lift_zbar(beta: np.ndarray) -> np.ndarray:
    """Coefficient vector b with b . w = <zbar, beta>."""
    return np.concatenate([beta, -1j * beta])


def _gauss_hermite(
    P: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    integrand,
    nodes: int,
    center: np.ndarray | None = None,
    window: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Integrals over R^d of integrand(w @ basis) exp(-w^T P w + b_r . w + c_r).

    One value per row r of ``b`` (rows, d) and ``c`` (rows,); ``P`` is
    complex symmetric.  ``integrand`` receives a batch of points (q, m),
    each coordinate a contiguous column; ``basis`` (d, m) defaults to the
    identity, and ``_complex_basis`` hands it complex points of C^n.
    The node window is w = w_r + L^-T t with L L^T = ``window`` (default
    Re P, the real decay of the exponent; a callable integrand passes the
    decay of its own envelope added) and w_r = (2 window)^-1 Re b_r, the
    maximizer of the real Gaussian part, unless ``center`` fixes it; then
    QuadratureUnderflow is raised when some w_r lies outside the node span.
    Substituted, the exponent plus the node compensation t.t is one
    quadratic polynomial -t^T K t + bt_r . t + ct_r with
    K = L^-1 (P - window) L^-T: the real decay cancels in closed form, and
    K is purely imaginary when the window is Re P.  The tensor grid of the
    ``nodes``-point Gauss-Hermite rule is summed in slabs of at most
    ``_SLAB_POINTS`` points (more only when one node axis is longer): all
    trailing node axes that fit times a run of (row, leading node) indices,
    so the nodes^d grid is never built.
    """
    dim = P.shape[0]
    window = P.real if window is None else window
    basis = np.eye(dim) if basis is None else basis
    try:
        chol = np.linalg.cholesky(window)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("quadrature decay form not positive definite") from exc
    w_c = np.linalg.solve(2.0 * window, b.real.T).T
    t, wt = np.polynomial.hermite.hermgauss(nodes)
    if center is not None:
        fixed = np.asarray(center, dtype=float).reshape(dim)
        if np.max(np.abs((w_c - fixed) @ chol)) > np.max(np.abs(t)):
            raise QuadratureUnderflow(
                "integrand center lies outside the fixed node window"
            )
        w_c = np.broadcast_to(fixed, w_c.shape)
    li = np.linalg.inv(chol)  # rows of points: w = w_c + t @ li
    k = li @ (P - window) @ li.T
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
    M = B (E - iC)^(-1) B^T / 2 - iA/2.  The fit mode of the isometry check
    fits on this exponent, and ``round_trip_error`` passes it as the decay
    of the transformed function to the inverse transform.
    """
    w = np.eye(pt.n) - 1j * pt.C
    m = 0.5 * pt.B @ np.linalg.solve(w, pt.B.T) - 0.5j * pt.A
    return 0.5 * (m + m.T)


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


def inverse_transform(
    pt: PhaseTriple,
    F,
    x,
    quad: QuadSpec | None = None,
    wd: WeightData | None = None,
    decay: np.ndarray | None = None,
) -> complex:
    """Adjoint transform at a real point,
    C_phi * integral of exp(-i conj(phi(z, x))) F(z) exp(-2 Phi(z)).

    ``F`` may be a GaussPoly or any callable accepting a complex batch
    (q, n); callables should supply ``decay``, the symmetric matrix of
    their Gaussian envelope, which defaults to F.M for GaussPoly input.
    The exponent of a GaussPoly joins the integrand's exponent; the
    envelope of a callable only sets the node window.
    """
    quad = quad or QuadSpec()
    wd = wd or compute_weight_data(pt)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != pt.n:
        raise DimensionMismatch("x has the wrong dimension")
    gauss = isinstance(F, GaussPoly)
    m = F.M if gauss else np.zeros((pt.n, pt.n))
    if decay is None:
        decay = m
    # -i conj(phi(z, x)) - 2 Phi(z) - <z, M z> with
    # Phi(z) = <z, phi_zzbar zbar> + Re <z, phi_zz z>
    herm = 2.0 * wd.phi_zzbar
    bar = wd.phi_zz.conj() + 0.5j * pt.A.conj()
    P = _lift(wd.phi_zz + m, herm, bar)
    window = _lift(wd.phi_zz + decay, herm, bar).real
    b = _lift_zbar(-1j * (pt.B.conj() @ x))
    c = -0.5j * (x @ pt.C.conj() @ x)
    value = _gauss_hermite(
        P, b[None, :], np.array([c]), F.poly if gauss else F, quad.nodes,
        quad.center, window, _complex_basis(pt.n),
    )
    return pt.c_phi * complex(value[0])


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
    # 2 Psi(z, zetabar) - <zeta, M zeta> - 2 Phi(zeta)
    P = _lift(wd.phi_zz + F.M, 2.0 * wd.phi_zzbar, (wd.phi_zz - kp.psi_zz).conj())
    b = _lift_zbar(2.0 * (kp.psi_zzbar.T @ z))
    c = z @ kp.psi_zz @ z
    value = _gauss_hermite(
        P, b[None, :], np.array([c]), F.poly, quad.nodes, quad.center,
        basis=_complex_basis(F.n),
    )
    return kp.c_Phi * complex(value[0])


def isometry_residual(
    pt: PhaseTriple,
    u: TestFunction,
    wd: WeightData | None = None,
    quad: QuadSpec | None = None,
    mode: str = "fit",
) -> float:
    """Relative defect | ||Tu||^2 - ||u||^2 | / ||u||^2.

    Mode "fit" least-squares fits transform samples onto a monomial times
    Gaussian basis with the known image exponent and evaluates the weighted
    norm exactly through the moment engine; mode "quad" integrates
    |Tu|^2 exp(-2 Phi) by tensor quadrature directly.
    """
    quad = quad or QuadSpec()
    wd = wd or compute_weight_data(pt)
    norm_u = u.norm_sq()
    if norm_u == 0.0:
        raise ValueError("test function must be nonzero")
    m_t = image_exponent(pt)
    form = combined_form(wd, m_t, m_t)
    if mode == "fit":
        # Sample on the real slice: polynomial coefficients are identifiable
        # from real points, and the transform stays within float range there
        # even when the weight is badly scaled in imaginary directions.
        scale_re = m_t.real
        shift = max(0.0, -float(np.linalg.eigvalsh(scale_re)[0])) + 0.5
        d_s = scale_re + shift * np.eye(pt.n)
        chol_s = np.linalg.cholesky(d_s)
        t, _ = np.polynomial.hermite.hermgauss(max(quad.fit_grid, 4))
        x_pts = _tensor_grid(t, pt.n) @ np.linalg.inv(chol_s)
        z_pts = x_pts.astype(complex)
        samples = transform_batch(pt, u, z_pts, quad)
        degree = max(sum(a) for a in u.coefficients)
        alphas = multi_indices(pt.n, degree)
        envelope = np.exp(-np.einsum("qi,ij,qj->q", z_pts, m_t, z_pts))
        design = np.stack(
            [np.prod(z_pts**np.asarray(a), axis=1) * envelope for a in alphas],
            axis=1,
        )
        coeffs, _, _, _ = np.linalg.lstsq(design, samples, rcond=None)
        fit_err = float(np.linalg.norm(design @ coeffs - samples))
        scale = float(np.linalg.norm(samples))
        if fit_err > 1e-6 * max(scale, 1e-30):
            raise FitFailure(
                f"fit residual {fit_err:.3e} too large for sample norm {scale:.3e}"
            )
        gp = GaussPoly(PolyC(pt.n, dict(zip(alphas, coeffs))), m_t)
        cache = make_moment_cache(wd, m_t)
        norm_tu = hphi_inner(gp, gp, wd, cache).real
    elif mode == "quad":
        # |Tu|^2 exp(-2 Phi): the window is the decay of the whole integrand
        P = _lift(wd.phi_zz, 2.0 * wd.phi_zzbar, wd.phi_zz.conj())
        norm_tu = _gauss_hermite(
            P,
            np.zeros((1, 2 * pt.n)),
            np.zeros(1),
            lambda Z: np.abs(transform_batch(pt, u, Z, quad)) ** 2,
            quad.nodes,
            window=form.M_R,
            basis=_complex_basis(pt.n),
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
    """Max pointwise defect of the inverse composed with the forward
    transform against the original test function."""
    quad = quad or QuadSpec()
    wd = wd or compute_weight_data(pt)
    m_t = image_exponent(pt)
    xs = np.asarray(xs, dtype=float).reshape(-1, pt.n)
    tu = lambda Z: transform_batch(pt, u, Z, quad)  # noqa: E731
    worst = 0.0
    for x in xs:
        back = inverse_transform(pt, tu, x, quad, wd, decay=m_t)
        worst = max(worst, abs(back - complex(u(x))))
    return worst
