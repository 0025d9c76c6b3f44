"""Exact weighted inner products of Gaussian polynomials via Wick moments.

Every integrand appearing in the verification suite is a polynomial times a
centered Gaussian on R^(2n), so inner products reduce to finitely many
Gaussian moments.  They are taken directly in the complex coordinates: the
vector u = (z, zbar) = T w of the real coordinates w = (Re z, Im z) has the
bilinear covariance K = T Sigma T^T, and the Isserlis recursion on K gives
E[z^a zbar^b].  A moment cache holds these values as a Hermitian matrix over
the monomials that calls have touched, grown lazily by the monomials each
call adds, so sparse high-degree arguments cost only their own entries.  An
inner product is the bilinear form f^T Mom[rows, cols] conj(g) on
coefficient vectors and the Gram matrix of a family is one product
P Mom P^H.  No quadrature error enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .errors import (
    DegreeCapExceeded,
    DimensionMismatch,
    IncompleteFamily,
    MExponentMismatch,
    NonIntegrableWeight,
)
from .gausspoly import GaussPoly, annihilation_ops, apply_op, creation_ops, multi_indices
from .model import GeneratorData, WeightData

#: default cap on the total real degree of a requested moment
DEFAULT_DEGREE_CAP = 24


@dataclass(frozen=True)
class RealQuadraticForm:
    """Real positive definite form -w^T M_R w of a combined Gaussian exponent.

    ``normalizer`` is the plain Gaussian mass pi^n (det M_R)^(-1/2) over
    R^(2n) coordinates w = (Re z, Im z).
    """

    M_R: np.ndarray
    normalizer: float


@dataclass
class MomentCache:
    """Memoized centered Gaussian moments for one combined weight.

    ``covariance`` is the real covariance Sigma = (2 M_R)^(-1) of w and
    ``zcov`` the bilinear covariance K of (z, zbar).  ``memo`` maps a + b
    (concatenated multi-indices) to E[z^a zbar^b] and ``real_memo`` maps beta
    to E[w^beta]; both index 2n coordinates, so they are kept apart.
    ``moments[index[a], index[b]]`` is E[z^a zbar^b] for the monomials touched
    so far; entries whose total degree passes the cap are NaN and never read.
    The cache is the only mutable object in this module and must stay
    confined to one evaluation context.
    """

    form: RealQuadraticForm
    covariance: np.ndarray
    zcov: np.ndarray
    exponent: np.ndarray
    degree_cap: int = DEFAULT_DEGREE_CAP
    memo: dict = field(default_factory=dict)
    real_memo: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    moments: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=complex))


def combined_form(wd: WeightData, M_F, M_G, tol: float = 1e-9) -> RealQuadraticForm:
    """Real form of |exp factors| x weight for a pair of Gaussian exponents.

    The two exponents must agree (otherwise the combined exponent acquires a
    non-real part and the product is not integrable against the weight in
    this representation).  Positive definiteness is required; failures flag
    an invalid generator or mismatched exponents.
    """
    M_F = mx.as_square(M_F, "M_F")
    M_G = mx.as_square(M_G, "M_G")
    scale = max(1.0, mx.max_abs(M_F), mx.max_abs(M_G))
    if mx.max_abs(M_F - M_G) > tol * scale:
        raise NonIntegrableWeight("mismatched Gaussian exponents")
    m_sym = 0.5 * (M_F + M_G)
    m_r = 2.0 * mx.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + m_sym)
    try:
        np.linalg.cholesky(m_r)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight(
            "combined exponent is not positive definite"
        ) from exc
    n = wd.n
    normalizer = math.pi**n / math.sqrt(float(np.linalg.det(m_r)))
    return RealQuadraticForm(M_R=mx.frozen(m_r, dtype=float), normalizer=normalizer)


def _cache_from_form(form: RealQuadraticForm, M, degree_cap: int) -> MomentCache:
    cov = np.linalg.inv(2.0 * form.M_R)
    cov = 0.5 * (cov + cov.T)
    t = mx.complex_coords(cov.shape[0] // 2)
    return MomentCache(
        form=form,
        covariance=mx.frozen(cov, dtype=float),
        zcov=mx.frozen(t @ cov @ t.T),
        exponent=mx.frozen(M),
        degree_cap=degree_cap,
    )


def make_moment_cache(
    wd: WeightData, M, degree_cap: int = DEFAULT_DEGREE_CAP
) -> MomentCache:
    """Moment cache for inner products of Gaussian polynomials sharing M."""
    return _cache_from_form(combined_form(wd, M, M), M, degree_cap)


def wick_moment(mc: MomentCache, beta) -> float:
    """Centered Gaussian moment E[w^beta] under the real covariance Sigma."""
    beta = tuple(int(b) for b in beta)
    if len(beta) != mc.covariance.shape[0]:
        raise DimensionMismatch("beta must index the 2n real coordinates")
    if sum(beta) > mc.degree_cap:
        raise DegreeCapExceeded(
            f"moment degree {sum(beta)} exceeds cap {mc.degree_cap}"
        )
    return _isserlis(mc.covariance.tolist(), mc.real_memo, beta)


def _isserlis(cov: list, memo: dict, beta: tuple[int, ...]):
    """E[u^beta] for a centered Gaussian vector u with E[u u^T] = cov.

    Odd total degrees vanish; even ones follow the Isserlis recursion on the
    first active variable.  ``cov`` may be complex (a bilinear, not a
    Hermitian, covariance) and is passed as nested lists for speed.
    """
    val = memo.get(beta)
    if val is not None:
        return val
    total = sum(beta)
    if total == 0:
        val = 1.0
    elif total % 2 == 1:
        val = 0.0
    else:
        j = next(i for i, b in enumerate(beta) if b)
        rest = list(beta)
        rest[j] -= 1
        row = cov[j]
        val = 0.0
        for k, bk in enumerate(rest):
            if bk:
                child = list(rest)
                child[k] -= 1
                val += row[k] * bk * _isserlis(cov, memo, tuple(child))
    memo[beta] = val
    return val


def _positions(mc: MomentCache, monos) -> list[int]:
    """Rows of ``monos`` in ``mc.moments``, appending the missing monomials.

    Each new one gets its entries against every indexed monomial, mirrored by
    E[z^b zbar^a] = conj(E[z^a zbar^b]); entries past the cap stay NaN."""
    old = len(mc.index)
    for a in monos:
        mc.index.setdefault(a, len(mc.index))
    m = len(mc.index)
    if m > old:
        mons = list(mc.index)
        degs = [sum(a) for a in mons]
        mom = np.full((m, m), np.nan, dtype=complex)
        mom[:old, :old] = mc.moments
        cov = mc.zcov.tolist()
        for j in range(old, m):
            for i in range(j + 1):
                if degs[i] + degs[j] <= mc.degree_cap:
                    val = _isserlis(cov, mc.memo, mons[i] + mons[j])
                    mom[i, j] = val
                    mom[j, i] = val.conjugate()
        mc.moments = mom
    return [mc.index[a] for a in monos]


def _checked_cache(mc: MomentCache | None, gps, wd: WeightData) -> MomentCache:
    """``mc`` (or a new cache for the first exponent) after checking that every
    argument matches the weight dimension and the cache exponent."""
    if any(gp.n != wd.n for gp in gps):
        raise DimensionMismatch("arguments do not match the weight dimension")
    if mc is None:
        mc = make_moment_cache(wd, gps[0].M)
    scale = max(1.0, mx.max_abs(mc.exponent))
    if any(mx.max_abs(gp.M - mc.exponent) > 1e-9 * scale for gp in gps):
        raise MExponentMismatch("cache was built for a different exponent")
    return mc


def _coeff_matrix(mc: MomentCache, gps) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of ``gps`` as rows over their monomials, and the moment
    matrix of those monomials.

    Raises DegreeCapExceeded if products of two rows would exceed the cap.
    """
    degree = max(gp.poly.degree() for gp in gps)
    if 2 * degree > mc.degree_cap:
        raise DegreeCapExceeded(
            f"product degree {2 * degree} exceeds the moment cap {mc.degree_cap}"
        )
    monos = list(dict.fromkeys(m for gp in gps for m in gp.poly.terms))
    col = {m: k for k, m in enumerate(monos)}
    out = np.zeros((len(gps), len(monos)), dtype=complex)
    for r, gp in enumerate(gps):
        for mono, c in gp.poly.terms.items():
            out[r, col[mono]] = c
    pos = _positions(mc, monos)
    return out, mc.moments[np.ix_(pos, pos)]


def hphi_inner(
    F: GaussPoly, G: GaussPoly, wd: WeightData, cache: MomentCache | None = None
) -> complex:
    """Weighted inner product (F, G) = integral F conj(G) e^(-2 Phi).

    Sums f_a conj(g_b) E[z^a zbar^b] times the Gaussian normalization, exact
    to floating point for polynomial degrees within the cap.  Pass ``cache``
    to share moments across many products with the same exponent.
    """
    if cache is None and F.n == wd.n == G.n:
        form = combined_form(wd, F.M, G.M)
        cache = _cache_from_form(form, 0.5 * (F.M + G.M), DEFAULT_DEGREE_CAP)
    cache = _checked_cache(cache, (F, G), wd)
    dF, dG = F.poly.degree(), G.poly.degree()
    if dF + dG > cache.degree_cap:
        raise DegreeCapExceeded(
            f"product degree {dF + dG} exceeds the moment cap {cache.degree_cap}"
        )
    if not F.poly.terms or not G.poly.terms:
        return 0.0 + 0.0j
    nf = len(F.poly.terms)
    pos = _positions(cache, [*F.poly.terms, *G.poly.terms])
    block = cache.moments[np.ix_(pos[:nf], pos[nf:])]
    f = np.fromiter(F.poly.terms.values(), dtype=complex, count=nf)
    g = np.fromiter(G.poly.terms.values(), dtype=complex, count=len(pos) - nf)
    return cache.form.normalizer * complex(f @ block @ g.conj())


def hphi_norm(F: GaussPoly, wd: WeightData, cache: MomentCache | None = None) -> float:
    """Weighted norm ||F||, the square root of (F, F)."""
    val = hphi_inner(F, F, wd, cache)
    return math.sqrt(max(val.real, 0.0))


def gram_matrix(
    family: dict[tuple[int, ...], GaussPoly],
    wd: WeightData,
    cache: MomentCache | None = None,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Gram matrix of a family, with its graded-lex index list.

    Entry (a, b) is the inner product of members a and b, computed for all
    pairs at once as normalizer * P Mom P^H over the coefficient matrix P;
    the result is made exactly Hermitian.
    """
    keys = sorted(family.keys(), key=lambda t: (sum(t), t))
    if not keys:
        return [], np.zeros((0, 0), dtype=complex)
    members = [family[k] for k in keys]
    cache = _checked_cache(cache, members, wd)
    p, mom = _coeff_matrix(cache, members)
    gram = cache.form.normalizer * (p @ mom @ p.conj().T)
    return keys, 0.5 * (gram + gram.conj().T)


def adjoint_residual(
    wd: WeightData,
    gen: GeneratorData,
    F: GaussPoly,
    G: GaussPoly,
    i: int,
    cache: MomentCache | None = None,
) -> float:
    """|(lower_i F, G) - (F, raise_i G)| for arguments sharing the exponent Q.

    Values near zero validate the implemented raising operator as the true
    adjoint with respect to the weighted inner product.
    """
    if cache is None:
        cache = make_moment_cache(wd, gen.Q)
    low = annihilation_ops(gen.Q)
    high = creation_ops(wd, gen)
    lhs = hphi_inner(apply_op(low, i, F), G, wd, cache)
    rhs = hphi_inner(F, apply_op(high, i, G), wd, cache)
    return abs(lhs - rhs)


def expand_in_family(
    F: GaussPoly,
    family: dict[tuple[int, ...], GaussPoly],
    wd: WeightData,
    cache: MomentCache | None = None,
) -> tuple[dict[tuple[int, ...], complex], float]:
    """Coefficients of F against the normalized family, plus the residual norm.

    Requires every index with |alpha| <= deg(F) to be present.  The residual
    ||F - sum c_alpha psi_alpha|| is computed directly from the coefficient
    remainder, not from a Parseval shortcut.
    """
    deg = F.poly.degree()
    needed = multi_indices(wd.n, deg)
    missing = [a for a in needed if a not in family]
    if missing:
        raise IncompleteFamily(f"family lacks indices {missing[:4]} (degree {deg})")
    gps = [F] + [family[a] for a in needed]
    cache = _checked_cache(cache, gps, wd)
    p, mom = _coeff_matrix(cache, gps)
    mom = cache.form.normalizer * mom
    f, pm = p[0], p[1:]
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", pm @ mom, pm.conj()).real, 0.0))
    c = (pm.conj() @ mom.T @ f) / norms
    remainder = f - (c / norms) @ pm
    residual = math.sqrt(max(complex(remainder @ mom @ remainder.conj()).real, 0.0))
    return dict(zip(needed, c.tolist())), residual
