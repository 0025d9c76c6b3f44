"""Exact weighted inner products of Gaussian polynomials via Wick moments.

Every integrand appearing in the verification suite is a polynomial times a
centered Gaussian on R^(2n), so inner products reduce to finitely many
Gaussian moments.  They are taken directly in the complex coordinates: the
vector u = (z, zbar) = T w of the real coordinates w = (Re z, Im z) has the
bilinear covariance K = T Sigma T^T.  A moment cache holds E[z^a zbar^b] as
a Hermitian matrix over the downward closure of the monomials that calls
have asked for (every b <= a entrywise of a requested a).  A call asks
only for the block columns (see ``gausspoly``) that some row uses, so a
sparse argument such as z_1^12 costs its 13-monomial closure.
The matrix is filled from the Stein identity (Gaussian integration by
parts) E[u_j f(u)] = sum_k K[j, k] E[d f / d u_k], which ties every moment
of total degree t to moments of degree t - 2.  A fill therefore runs layer
by layer of total degree: each layer is one gather and one batched
weighted sum over index maps cached per closure, whatever its number of
entries.  Growing the closure adds rows and columns and never recomputes
held entries; entries past the degree cap are never computed.  An inner
product is the bilinear form f^T Mom[rows, cols] conj(g) on coefficient
vectors and the Gram matrix of a family is one product P Mom P^H.  No
quadrature error enters anywhere.  The real moments E[w^beta] of
``wick_moment`` come from the Isserlis recursion on Sigma instead, an
independent route to the same numbers.

Callers that need many products work stage-wide: all arguments go into one
coefficient block P, and any set of pairs (l, r) is one row sum of
(P Mom)[l] * conj(P)[r] (``_pair_inners``); a Gram matrix and many
expansions in a family are one block too (``_gram_block``,
``_expansions``).  ``hphi_inner``, ``gram_matrix`` and ``expand_in_family``
convert their arguments to one block and are cases of these, so no inner
product is implemented twice.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
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
from .gausspoly import (
    GaussPoly,
    _adjoint_block,
    _basis,
    _block_of,
    _degree_of,
    annihilation_ops,
    creation_ops,
    multi_indices,
)
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
    """Centered Gaussian moments for one combined weight.

    ``covariance`` is the real covariance Sigma = (2 M_R)^(-1) of w and
    ``zcov`` the bilinear covariance K of (z, zbar).  ``moments[index[a],
    index[b]]`` is E[z^a zbar^b] over a downward-closed set of monomials: the
    closure of every monomial asked for so far, in the order it was added.
    Entries whose total degree passes the cap are NaN and never computed.
    ``memo`` is a read-only mapping view of the entries held, keyed by a + b
    (concatenated multi-indices); ``real_memo`` maps beta to E[w^beta].  Both
    index 2n coordinates, so they are kept apart.  ``fills`` counts the times
    the matrix grew and ``filled`` the entries within the cap those fills
    added.  The cache is the only mutable object in this module and must
    stay confined to one evaluation context.
    """

    form: RealQuadraticForm
    covariance: np.ndarray
    zcov: np.ndarray
    exponent: np.ndarray
    degree_cap: int = DEFAULT_DEGREE_CAP
    real_memo: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    moments: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=complex))
    fills: int = 0
    filled: int = 0

    @property
    def memo(self) -> Mapping:
        """E[z^a zbar^b] keyed by a + b, over the entries within the cap."""
        return _MomentView(self)


class _MomentView(Mapping):
    """Mapping view of the finite entries of a cache's moment matrix; built
    on access, it copies nothing."""

    def __init__(self, mc: MomentCache):
        self._mc = mc

    def __getitem__(self, key):
        half = len(key) // 2
        index = self._mc.index
        a, b = tuple(key[:half]), tuple(key[half:])
        if len(key) % 2 or a not in index or b not in index:
            raise KeyError(key)
        val = self._mc.moments[index[a], index[b]]
        if np.isnan(val):
            raise KeyError(key)
        return complex(val)

    def __iter__(self):
        monos = list(self._mc.index)
        for r, c in zip(*np.nonzero(~np.isnan(self._mc.moments))):
            yield monos[r] + monos[c]

    def __len__(self):
        return int(np.count_nonzero(~np.isnan(self._mc.moments)))


def combined_form(wd: WeightData, M_F, M_G, tol: float = 1e-9) -> RealQuadraticForm:
    """Real form of |exp factors| x weight for a pair of Gaussian exponents.

    The two exponents must agree (otherwise the combined exponent acquires a
    non-real part and the product is not integrable against the weight in
    this representation).  Positive definiteness is required; failures flag
    an invalid generator or mismatched exponents.
    """
    M_F = mx.as_square(M_F, "M_F")
    M_G = mx.as_square(M_G, "M_G")
    if not mx.agree(M_F, M_G, tol):
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


@functools.lru_cache(maxsize=128)
def _closure(monos: tuple) -> tuple:
    """The downward closure of ``monos`` (every b <= some a entrywise) in
    graded-lex order, so the zero index comes first."""
    seen: set = set()
    stack = list(monos)
    while stack:
        a = stack.pop()
        if a not in seen:
            seen.add(a)
            stack.extend(a[:k] + (e - 1,) + a[k + 1:] for k, e in enumerate(a) if e)
    return tuple(sorted(seen, key=lambda a: (sum(a), a)))


@dataclass(frozen=True)
class _FillMaps:
    """Index maps of one fill of a moment matrix; see ``_fill_maps``."""

    past: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    layers: tuple
    entries: int


@functools.lru_cache(maxsize=64)
def _fill_maps(monos: tuple, old: int, cap: int) -> _FillMaps:
    """Maps of the Stein fill of the moments over ``monos``, a downward-closed
    set in matrix order whose first ``old`` rows and columns are filled.

    Targets are the entries (a, b) on or below the diagonal, a row of index
    at least ``old``, with even total degree t, 2 <= t <= cap; their mirrors
    (b, a) are conjugates.  Odd entries vanish, and ``past`` marks the
    entries past the cap, which stay NaN.  With j the first nonzero index of
    a and c = a - e_j,

        Mom[a, b] = sum_k K[j, k] c_k Mom[c - e_k, b] + K[j, n+k] b_k Mom[c, b - e_k],

    so layer t reads only layer t - 2.  ``counts`` holds (c, b) per target,
    ``first`` its j; each layer holds the flat sources (2n per target), the
    targets and their mirrors.  A source with count 0 reads the odd, hence
    finite, entry (c, b).  ``entries`` counts the entries within the cap
    that the fill adds.
    """
    m, n = len(monos), len(monos[0])
    e = np.array(monos, dtype=np.int64).reshape(m, n)
    deg = e.sum(axis=1)
    pos = {a: p for p, a in enumerate(monos)}
    # down[k, p]: position of monos[p] - e_k, or p where that index is 0
    down = np.array([[pos[a[:k] + (a[k] - 1,) + a[k + 1:]] if a[k] else p
                      for p, a in enumerate(monos)] for k in range(n)], dtype=np.int64)
    # targets (r, c), c <= r, r new, ordered by layer of even total degree
    rows, cols = np.tril_indices(m)
    tot = deg[rows] + deg[cols]
    keep = (rows >= old) & (tot % 2 == 0) & (tot >= 2) & (tot <= cap)
    rows, cols, tot = rows[keep], cols[keep], tot[keep]
    by_layer = [np.flatnonzero(tot == t) for t in range(2, int(tot.max(initial=0)) + 1, 2)]
    order = np.concatenate([np.zeros(0, dtype=np.int64), *by_layer])
    rows, cols = rows[order], cols[order]
    first = np.argmax(e[rows] > 0, axis=1)
    parent = down[first, rows]
    # stacked for one matmul per layer: (1, 2n) weights times (2n, 1) sources
    src = np.concatenate([down[:, parent].T * m + cols[:, None],
                          parent[:, None] * m + down[:, cols].T], axis=1)[:, :, None]
    counts = np.concatenate([e[parent], e[cols]], axis=1)[:, None, :]
    tgt = (rows * m + cols)[:, None, None]
    mirror = (cols * m + rows)[:, None, None]
    past = deg[:, None] + deg[None, :] > cap
    entries = int(np.count_nonzero(~past) - np.count_nonzero(~past[:old, :old]))
    bounds = list(itertools.accumulate((len(i) for i in by_layer), initial=0))
    src, tgt, mirror = mx.frozen(src), mx.frozen(tgt), mx.frozen(mirror)
    layers = tuple((lo, hi, src[lo:hi], tgt[lo:hi], mirror[lo:hi])
                   for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo)
    counts = mx.frozen(counts, dtype=np.min_scalar_type(counts.max(initial=0)))
    return _FillMaps(mx.frozen(past), mx.frozen(first[:, None]), counts, layers, entries)


def _positions(mc: MomentCache, monos) -> list[int]:
    """Rows of ``monos`` in ``mc.moments``, first growing the matrix to the
    downward closure of the monomials it lacks.

    The new entries come layer by layer of total degree from the Stein
    recurrence of ``_fill_maps``: one gather and one weighted sum per
    layer, whatever its number of entries.  Entries already held are not
    recomputed."""
    index = mc.index
    missing = [a for a in monos if a not in index]
    if missing:
        old = len(index)
        for a in _closure(tuple(missing)):
            index.setdefault(a, len(index))
        maps = _fill_maps(tuple(index), old, mc.degree_cap)
        mom = np.where(maps.past, np.nan, 0j)
        mom[0, 0] = 1.0
        if old:
            mom[:old, :old] = mc.moments
        flat = mom.reshape(-1)
        weights = mc.zcov.take(maps.first, axis=0) * maps.counts
        for lo, hi, src, tgt, mirror in maps.layers:
            vals = weights[lo:hi] @ flat[src]
            flat[tgt] = vals
            flat[mirror] = vals.conj()
        mc.moments = mom
        mc.fills += 1
        mc.filled += maps.entries
    return [index[a] for a in monos]


def _checked_cache(mc: MomentCache | None, gps, wd: WeightData) -> MomentCache:
    """``mc`` (or a new cache for the first exponent) after checking that every
    argument matches the weight dimension and the cache exponent."""
    if any(gp.n != wd.n for gp in gps):
        raise DimensionMismatch("arguments do not match the weight dimension")
    if mc is None:
        mc = make_moment_cache(wd, gps[0].M)
    if not all(mx.agree(gp.M, mc.exponent, 1e-9) for gp in gps):
        raise MExponentMismatch("cache was built for a different exponent")
    return mc


def _used_columns(mc: MomentCache, p: np.ndarray) -> tuple:
    """A block cut to the columns some row uses, their monomials, and the
    degree of each row."""
    basis = _basis(mc.exponent.shape[0], _degree_of(mc.exponent.shape[0], p.shape[1]))
    cols = np.flatnonzero(p.any(axis=0))
    p, monos = p[:, cols], [basis[j] for j in cols]
    mono_deg = np.array([sum(m) for m in monos], dtype=int)
    return p, monos, np.max(np.where(p != 0, mono_deg, 0), axis=1, initial=0)


def _moment_matrix(mc: MomentCache, monos, product_degree: int) -> np.ndarray:
    """Moments E[z^a zbar^b] over ``monos``, the columns of a coefficient
    block.

    ``product_degree`` is the largest degree of a product of two rows the
    caller contracts.  Raises DegreeCapExceeded if it passes the cap.  Below
    it, moment entries past the cap read as zero: they pair only
    coefficients of rows whose product the caller does not take.
    """
    if product_degree > mc.degree_cap:
        raise DegreeCapExceeded(
            f"product degree {product_degree} exceeds the moment cap {mc.degree_cap}"
        )
    pos = _positions(mc, monos)
    mom = mc.moments[np.ix_(pos, pos)]
    if 2 * max((sum(m) for m in monos), default=0) > mc.degree_cap:
        mom[np.isnan(mom)] = 0.0
    return mom


def _row_inners(mom: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[k] Mom conj(right[k]) for every row k: the row sums of
    (left Mom) * conj(right)."""
    return np.einsum("ij,ij->i", left @ mom, right.conj())


def _pair_inners(mc: MomentCache, p: np.ndarray, left, right) -> np.ndarray:
    """Inner products (row l, row r) of the coefficient block ``p`` for the
    index pairs of ``left`` and ``right``."""
    p, monos, row_deg = _used_columns(mc, p)
    mom = _moment_matrix(mc, monos, int(np.max(row_deg[left] + row_deg[right])))
    return mc.form.normalizer * _row_inners(mom, p[left], p[right])


def _gram_block(mc: MomentCache, p: np.ndarray) -> np.ndarray:
    """Gram matrix normalizer * P Mom P^H of the rows of a block, made
    exactly Hermitian."""
    p, monos, row_deg = _used_columns(mc, p)
    mom = _moment_matrix(mc, monos, 2 * int(row_deg.max(initial=0)))
    gram = mc.form.normalizer * (p @ mom @ p.conj().T)
    return 0.5 * (gram + gram.conj().T)


def _expansions(
    mc: MomentCache, fs: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of ``fs`` against the normalized rows of ``members``, two
    blocks over one graded basis, from one coefficient matrix: the
    coefficients (one row per f), the residual norms
    ||f - sum c_a psi_a / ||psi_a|| || and the norms ||f||.

    Residuals come from the coefficient remainder, not from a Parseval
    shortcut.
    """
    p, monos, row_deg = _used_columns(mc, np.vstack([fs, members]))
    mom = mc.form.normalizer * _moment_matrix(mc, monos, 2 * int(row_deg.max(initial=0)))
    f, pm = p[: len(fs)], p[len(fs):]
    norms = np.sqrt(np.maximum(_row_inners(mom, pm, pm).real, 0.0))
    c = (f @ mom @ pm.conj().T) / norms
    remainder = f - (c / norms) @ pm
    residuals = np.sqrt(np.maximum(_row_inners(mom, remainder, remainder).real, 0.0))
    return c, residuals, np.sqrt(np.maximum(_row_inners(mom, f, f).real, 0.0))


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
    d = max(F.poly.degree(), G.poly.degree())
    return complex(_pair_inners(cache, _block_of([F.poly, G.poly], d), [0], [1])[0])


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
    pairs at once by ``_gram_block`` on the family's coefficient block.
    """
    keys = sorted(family.keys(), key=lambda t: (sum(t), t))
    if not keys:
        return [], np.zeros((0, 0), dtype=complex)
    members = [family[k] for k in keys]
    cache = _checked_cache(cache, members, wd)
    d = max(m.poly.degree() for m in members)
    return keys, _gram_block(cache, _block_of([m.poly for m in members], d))


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
    if not 0 <= i < wd.n:  # a negative i would pick a component from the end
        raise DimensionMismatch(f"component index {i} is outside 0..{wd.n - 1}")
    if cache is None:
        cache = make_moment_cache(wd, gen.Q)
    cache = _checked_cache(cache, (F, G), wd)
    ladder = annihilation_ops(gen.Q), creation_ops(wd, gen)
    d = max(F.poly.degree(), G.poly.degree())
    fg = _block_of([F.poly, G.poly], d)
    rows = _adjoint_block(ladder, i, fg[:1], fg[1:], cache.exponent)
    lhs, rhs = _pair_inners(cache, rows, [2, 0], [1, 3])
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
    members = [family[a] for a in needed]
    cache = _checked_cache(cache, [F, *members], wd)
    d = max(gp.poly.degree() for gp in (F, *members))
    block = _block_of([F.poly, *(m.poly for m in members)], d)
    c, residuals, _ = _expansions(cache, block[:1], block[1:])
    return dict(zip(needed, c[0].tolist())), float(residuals[0])
