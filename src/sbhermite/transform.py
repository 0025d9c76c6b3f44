"""Quadrature evaluation of the integral transform, its inverse and kernel.

The forward transform integrates an oscillatory Gaussian against a test
function on R^n; the inverse and the reproducing identity integrate over
C^n = R^(2n).  Both use tensor Gauss-Hermite rules after completing the
square against the dominant Gaussian decay, with node windows shifted to
the stationary center of the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import (
    DimensionMismatch,
    FitFailure,
    NonIntegrableWeight,
    QuadratureUnderflow,
)
from .gausspoly import GaussPoly, PolyC, multi_indices
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
        so callers can fold that envelope into larger exponents safely."""
        pts = np.asarray(x, dtype=float).reshape(-1, self.n)
        out = np.zeros(pts.shape[0], dtype=complex)
        for alpha, c in self.coefficients.items():
            term = np.full(pts.shape[0], complex(c))
            for i, k in enumerate(alpha):
                term = term * _hermite_polynomial(k, pts[:, i])
            out += term
        return out


def _hermite_polynomial(k: int, t: np.ndarray) -> np.ndarray:
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    norm = 1.0 / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return norm * np.polynomial.hermite.hermval(t, coeffs)


def _tensor_gh(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes (m^dim, dim) and product weights."""
    t, w = np.polynomial.hermite.hermgauss(m)
    grids = np.meshgrid(*([t] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return nodes, weights


def _phase(pt: PhaseTriple, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """phi(z, x) = <z,Az>/2 + <z,Bx> + <x,Cx>/2, broadcast over batches."""
    quad_z = 0.5 * np.einsum("...i,ij,...j->...", Z, pt.A, Z)
    cross = np.einsum("...i,ij,...j->...", Z, pt.B, X)
    quad_x = 0.5 * np.einsum("...i,ij,...j->...", X, pt.C, X)
    return quad_z + cross + quad_x


def transform_batch(
    pt: PhaseTriple, u: TestFunction, Z: np.ndarray, quad: QuadSpec | None = None
) -> np.ndarray:
    """Transform values at a batch of points, one x-quadrature per point.

    The x-window completes the square against the full Gaussian decay
    C_I + E (the phase part plus the unit envelope of the Hermite test
    family) and centers on the maximizer of the real exponent, the solution
    of (C_I + E) x = Re(i B^T z).  Without the envelope term the window
    misses the decay of u and far evaluation points degrade.  An explicit
    ``center`` in the quadrature spec overrides the shift and raises
    QuadratureUnderflow when the true center escapes the node window.
    """
    quad = quad or QuadSpec()
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[1] != pt.n:
        raise DimensionMismatch("Z must have shape (m, n)")
    decay = pt.C_I + np.eye(pt.n)
    chol = np.linalg.cholesky(decay)
    nodes, weights = _tensor_gh(pt.n, quad.nodes)
    v = np.real(1j * (Z @ pt.B))
    centers = np.linalg.solve(decay, v.T).T
    if quad.center is not None:
        fixed = np.asarray(quad.center, dtype=float).reshape(pt.n)
        t_span = float(np.max(np.abs(nodes)))
        offset = (centers - fixed[None, :]) @ chol / math.sqrt(2.0)
        if np.max(np.abs(offset)) > t_span:
            raise QuadratureUnderflow(
                "integrand center lies outside the fixed node window"
            )
        centers = np.broadcast_to(fixed, centers.shape)
    spread = math.sqrt(2.0) * nodes @ np.linalg.inv(chol)
    X = centers[:, None, :] + spread[None, :, :]
    phi = _phase(pt, Z[:, None, :], X)
    tsq = np.sum(nodes * nodes, axis=1)
    upoly = u.polynomial_part(X.reshape(-1, pt.n)).reshape(X.shape[0], X.shape[1])
    # fold the unit envelope of u into the exponent; factors can overflow alone
    expo = 1j * phi - 0.5 * np.sum(X * X, axis=2) + tsq[None, :]
    g = np.exp(expo) * upoly
    det_l = float(np.prod(np.diag(chol)))
    return pt.c_phi * (2.0 ** (pt.n / 2.0) / det_l) * (g @ weights)


def transform(
    pt: PhaseTriple, u: TestFunction, z, quad: QuadSpec | None = None
) -> complex:
    """Transform of a test function at one point of C^n."""
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    return complex(transform_batch(pt, u, z, quad)[0])


def image_exponent(pt: PhaseTriple) -> np.ndarray:
    """Gaussian exponent matrix of transformed Hermite expansions.

    Transforms of p(x) exp(-|x|^2/2) equal q(z) exp(-<z, M z>) with
    M = B (E - iC)^(-1) B^T / 2 - iA/2; used by the fit mode of the
    isometry check.
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


def weight_value(wd: WeightData, Z: np.ndarray) -> np.ndarray:
    """Phi(z) on a batch: <z, phi_zzbar zbar> + Re <z, phi_zz z>."""
    herm = np.einsum("...i,ij,...j->...", Z, wd.phi_zzbar, Z.conj())
    sym = np.einsum("...i,ij,...j->...", Z, wd.phi_zz, Z)
    return herm.real + sym.real


def _gauss_quad_c(
    m_r: np.ndarray,
    v: np.ndarray,
    integrand,
    nodes_per_axis: int,
    center: np.ndarray | None = None,
):
    """Integrate ``integrand(z)`` over C^n = R^(2n) against unit measure.

    ``m_r`` is the real decay form of |integrand| and ``v`` the linear
    coefficient of its exponent, so the window centers on the stationary
    point w_c = (2 m_r)^(-1) v.  ``integrand`` receives a complex batch
    (q, n) plus the node weight compensation ``tsq`` and must fold every
    Gaussian factor and exp(tsq) into a single exponential to avoid
    spurious overflow at far nodes.
    """
    dim = m_r.shape[0]
    n = dim // 2
    try:
        chol = np.linalg.cholesky(m_r)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("quadrature decay form not positive definite") from exc
    w_c = np.linalg.solve(2.0 * m_r, v)
    nodes, weights = _tensor_gh(dim, nodes_per_axis)
    if center is not None:
        fixed = np.asarray(center, dtype=float).reshape(dim)
        t_span = float(np.max(np.abs(nodes)))
        offset = chol.T @ (w_c - fixed)
        if np.max(np.abs(offset)) > t_span:
            raise QuadratureUnderflow(
                "integrand center lies outside the fixed node window"
            )
        w_c = fixed
    w_pts = w_c[None, :] + nodes @ np.linalg.inv(chol)
    z_pts = w_pts[:, :n] + 1j * w_pts[:, n:]
    tsq = np.sum(nodes * nodes, axis=1)
    vals = integrand(z_pts, tsq)
    det_l = float(np.prod(np.diag(chol)))
    return complex((vals @ weights) / det_l)


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
    """
    quad = quad or QuadSpec()
    wd = wd or compute_weight_data(pt)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != pt.n:
        raise DimensionMismatch("x has the wrong dimension")
    if decay is None:
        decay = F.M if isinstance(F, GaussPoly) else np.zeros((pt.n, pt.n))
    b_q = decay + 2.0 * wd.phi_zz - 0.5j * pt.A
    m_r = mx.real_quadratic_form(2.0 * wd.phi_zzbar, b_q)
    c = 1j * (pt.B @ x)
    v = np.concatenate([c.real, -c.imag])

    def integrand(Z, tsq):
        phi = _phase(pt, Z, x[None, :])
        expo = -1j * np.conj(phi) - 2.0 * weight_value(wd, Z) + tsq
        if isinstance(F, GaussPoly):
            expo = expo - np.einsum("qi,ij,qj->q", Z, F.M, Z)
            return F.poly(Z) * np.exp(expo)
        return F(Z) * np.exp(expo)

    return pt.c_phi * _gauss_quad_c(m_r, v, integrand, quad.nodes, quad.center)


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
    b_q = wd.phi_zz + F.M
    m_r = mx.real_quadratic_form(2.0 * wd.phi_zzbar, b_q)
    d = 2.0 * kp.psi_zzbar.T @ z
    v = np.concatenate([d.real, d.imag])

    def integrand(Zeta, tsq):
        zb = Zeta.conj()
        psi = (
            (kp.psi_zzbar @ zb.T).T @ z
            + 0.5 * z @ (kp.psi_zz @ z)
            + 0.5 * np.einsum("qi,ij,qj->q", zb, kp.psi_zz.conj(), zb)
        )
        expo = (
            2.0 * psi
            - np.einsum("qi,ij,qj->q", Zeta, F.M, Zeta)
            - 2.0 * weight_value(wd, Zeta)
            + tsq
        )
        return kp.c_Phi * F.poly(Zeta) * np.exp(expo)

    return _gauss_quad_c(m_r, v, integrand, quad.nodes, quad.center)


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
        nodes, _ = _tensor_gh(pt.n, max(quad.fit_grid, 4))
        x_pts = nodes @ np.linalg.inv(chol_s)
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
        def integrand(Z, tsq):
            tu = transform_batch(pt, u, Z, quad)
            return np.abs(tu) ** 2 * np.exp(tsq - 2.0 * weight_value(wd, Z))

        norm_tu = _gauss_quad_c(
            form.M_R, np.zeros(2 * pt.n), integrand, quad.nodes
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
