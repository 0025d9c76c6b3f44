"""Exact weighted inner products of Gaussian polynomials in the Wick frame.

Every integrand of the verification suite is a polynomial times a centered
Gaussian on R^(2n), so an inner product is a finite sum of Gaussian
moments.  A moment cache for a combined exponent M holds the real
covariance Sigma = (2 M_R)^(-1) of w = (Re z, Im z), the bilinear
covariance K of (z, zbar), and the frame of M from two blocks of K:
L = chol(E[z zbar^T]) and C = L^(-1) E[z z^T] L^(-T).  The whitened
coordinates u = L^(-1) z have E[u ubar^T] = 1 and E[u u^T] = C, and the
Wick powers :u^a: with respect to C satisfy

    u_l :u^a: = :u^(a + e_l): + sum_k C[l, k] a_k :u^(a - e_k):,
    d/du_k :u^a: = a_k :u^(a - e_k):,

and, by Wick's theorem, E[:u^a: conj(:u^b:)] = delta_ab a!.  On Wick
coefficients (rows of a coefficient block, see ``gausspoly``) an inner
product is the diagonal sum normalizer * sum_a f_a conj(g_a) a!, with no
moment matrix, no cancellation between monomial moments and no degree cap.

A first-order operator (G, H) acting at exponent M acts on Wick
coefficients as (G L^(-T) + h L C, h L), h = H - 2 G M
(``gausspoly._in_frame`` with a cache as its frame), so the kernel and
chains of ``gausspoly`` run on them unchanged; the verify pipeline builds
every block in a frame.  The public inner products reach the frame
through one edge, ``_wick_rows``: it checks their arguments against the
weight and one cache (``make_moment_cache``, the only constructor, at
one exponent) and converts the monomial GaussPolys (``_wick_block``): z^a
is the chain of the multiplication operators z_l over the ancestors of
the monomials used, so z_1^12 costs 13 chain rows of dense Wick vectors.

Stage-wide callers work on one block: any set of pairs (l, r) is one
weighted row sum (``_pair_inners``), a Gram matrix one product
normalizer * P diag(a!) P^H (``_gram_block``), and many expansions in a
family one block too (``_expansions``).  ``hphi_inner``, ``gram_matrix``,
``expand_in_family`` and ``adjoint_residual`` are cases of these, so no
inner product is implemented twice.  The real moments E[w^beta] of
``wick_moment`` come from the Isserlis recursion on Sigma, memoized in the
cache's ``memo``: an independent route that the tests use as the oracle,
capped at total degree ``DEGREE_CAP``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .errors import (
    DegreeCapExceeded,
    DimensionMismatch,
    IncompleteFamily,
    NonIntegrableWeight,
)
from .gausspoly import (
    GaussPoly,
    LinearDiffOp,
    _adjoint_block,
    _basis,
    _basis_array,
    _block_of,
    _chain_rows,
    _component,
    _degree_of,
    _frame_ladder,
    _in_frame,
    multi_indices,
)
from .model import GeneratorData, WeightData

#: cap on the total real degree of a moment of ``wick_moment``
DEGREE_CAP = 24


@dataclass(frozen=True)
class RealQuadraticForm:
    """Real positive definite form -w^T M_R w of a combined Gaussian exponent.

    ``factor`` is the lower Cholesky factor of M_R and ``normalizer`` the
    plain Gaussian mass pi^n (det M_R)^(-1/2) over R^(2n) coordinates
    w = (Re z, Im z), taken from the factor's diagonal.
    """

    M_R: np.ndarray
    normalizer: float
    factor: np.ndarray


@dataclass
class MomentCache:
    """Gaussian moment data and the Wick frame of one exponent's weight.

    ``covariance`` is the real covariance Sigma = (2 M_R)^(-1) of w and
    ``zcov`` the bilinear covariance K of (z, zbar).  ``L`` and ``C`` are
    the frame of ``exponent``: L = chol(E[z zbar^T]) and
    C = L^(-1) E[z z^T] L^(-T), the covariance of the whitened coordinates
    u = L^(-1) z (see the module notes).  ``memo`` maps beta to E[w^beta]
    as ``wick_moment`` computes it.  The memo is the only mutable part, so
    a cache must stay confined to one evaluation context.
    """

    form: RealQuadraticForm
    covariance: np.ndarray
    zcov: np.ndarray
    exponent: np.ndarray
    L: np.ndarray
    C: np.ndarray
    memo: dict = field(default_factory=dict)


def combined_form(wd: WeightData, M) -> RealQuadraticForm:
    """Real form of |exp(-<z, M z>)|^2 x weight for one Gaussian exponent M.

    Positive definiteness is required; a failure flags an invalid generator
    or an exponent that is not integrable against the weight.
    """
    M = mx.as_square(M, "M")
    m_r = 2.0 * mx.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + M)
    try:
        factor = np.linalg.cholesky(m_r)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("combined exponent is not positive definite") from exc
    normalizer = math.pi**wd.n / math.prod(np.diag(factor).tolist())
    return RealQuadraticForm(M_R=mx.frozen(m_r, dtype=float), normalizer=normalizer,
                             factor=mx.frozen(factor, dtype=float))


def make_moment_cache(wd: WeightData, M) -> MomentCache:
    """Moment cache for inner products of Gaussian polynomials sharing M."""
    form = combined_form(wd, M)
    inv = np.linalg.inv(form.factor)
    cov = 0.5 * (inv.T @ inv)  # (2 M_R)^-1 from M_R = F F^T
    cov = 0.5 * (cov + cov.T)
    n = cov.shape[0] // 2
    t = mx.complex_coords(n)
    zcov = t @ cov @ t.T
    herm = zcov[:n, n:]
    chol = np.linalg.cholesky(0.5 * (herm + herm.conj().T))
    p = np.linalg.inv(chol)
    c = p @ zcov[:n, :n] @ p.T
    return MomentCache(
        form=form,
        covariance=mx.frozen(cov, dtype=float),
        zcov=mx.frozen(zcov),
        exponent=mx.frozen(M),
        L=mx.frozen(chol),
        C=mx.frozen(0.5 * (c + c.T)),
    )


def wick_moment(mc: MomentCache, beta) -> float:
    """Centered Gaussian moment E[w^beta] under the real covariance Sigma."""
    beta = tuple(int(b) for b in beta)
    if len(beta) != mc.covariance.shape[0]:
        raise DimensionMismatch("beta must index the 2n real coordinates")
    if sum(beta) > DEGREE_CAP:
        raise DegreeCapExceeded(f"moment degree {sum(beta)} exceeds cap {DEGREE_CAP}")
    return _isserlis(mc.covariance.tolist(), mc.memo, beta)


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


def _wick_block(mc: MomentCache, block: np.ndarray) -> np.ndarray:
    """Wick coefficients, in the frame of ``mc``, of a block of monomial
    coefficients with the cache's exponent.

    Row z^a of the conversion is the chain of the multiplication operators
    z_l, the operator (0, E) in the frame; it is built over the first-index
    ancestors of the columns some row uses only, never as a basis x basis
    matrix.  The result is over ``_basis(n, d)``, d the largest degree of
    those columns.
    """
    n = mc.exponent.shape[0]
    basis = _basis(n, _degree_of(n, block.shape[1]))
    cols = np.flatnonzero(block.any(axis=0))
    mult = _in_frame(LinearDiffOp(np.zeros((n, n)), np.eye(n)), mc.exponent, mc)
    rows = _chain_rows([(mult, 1.0)], [basis[j] for j in cols])[0]
    return block[:, cols] @ rows


def _wick_rows(wd: WeightData, gps, cache: MomentCache | None) -> tuple:
    """The edge of the public inner products: ``cache`` (or a new one at the
    first argument's exponent) and the Wick coefficients of the GaussPolys
    ``gps`` in its frame, one row each, after checking that every argument
    matches the weight dimension and the cache exponent."""
    if any(gp.n != wd.n for gp in gps):
        raise DimensionMismatch("arguments do not match the weight dimension")
    cache = cache or make_moment_cache(wd, gps[0].M)
    for gp in gps:
        mx.require_same_exponent(gp.M, cache.exponent, "an argument and the moment cache")
    d = max(gp.poly.degree() for gp in gps)
    return cache, _wick_block(cache, _block_of([gp.poly for gp in gps], d))


@functools.lru_cache(maxsize=128)
def _factorials(n: int, degree: int) -> np.ndarray:
    """a! over ``_basis(n, degree)``, read-only: per multi-index the exact
    product of its entries' factorials, rounded once to float.  The product
    is at most |a|!, so int64 holds it up to degree 20; beyond that the
    table holds Python integers."""
    table = np.array([math.factorial(k) for k in range(degree + 1)],
                     dtype=np.int64 if degree <= 20 else object)
    return mx.frozen(table[_basis_array(n, degree)].prod(axis=1).astype(float))


def _weights(mc: MomentCache, width: int) -> np.ndarray:
    """normalizer * a! over the graded basis of a block of ``width``
    columns: the diagonal of the inner product on Wick coefficients."""
    n = mc.exponent.shape[0]
    return mc.form.normalizer * _factorials(n, _degree_of(n, width))


def _row_inners(w: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_a w_a left[k, a] conj(right[k, a]) for every row k."""
    return np.einsum("ij,ij->i", left * w, right.conj())


def _pair_inners(mc: MomentCache, p: np.ndarray, left, right) -> np.ndarray:
    """Inner products (row l, row r) of the Wick coefficient block ``p``
    for the index pairs of ``left`` and ``right``."""
    return _row_inners(_weights(mc, p.shape[1]), p[left], p[right])


def _gram_block(mc: MomentCache, p: np.ndarray) -> np.ndarray:
    """Gram matrix normalizer * P diag(a!) P^H of the rows of a Wick
    coefficient block, made exactly Hermitian."""
    gram = (p * _weights(mc, p.shape[1])) @ p.conj().T
    return 0.5 * (gram + gram.conj().T)


def _expansions(
    mc: MomentCache, fs: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of ``fs`` against the normalized rows of ``members``, two
    Wick coefficient blocks over one graded basis: the coefficients (one
    row per f), the residual norms ||f - sum c_a psi_a / ||psi_a|| || and
    the norms ||f||.

    Residuals come from the coefficient remainder, not from a Parseval
    shortcut.
    """
    w = _weights(mc, fs.shape[1])
    norms = np.sqrt(np.maximum(_row_inners(w, members, members).real, 0.0))
    c = ((fs * w) @ members.conj().T) / norms
    remainder = fs - (c / norms) @ members
    residuals = np.sqrt(np.maximum(_row_inners(w, remainder, remainder).real, 0.0))
    return c, residuals, np.sqrt(np.maximum(_row_inners(w, fs, fs).real, 0.0))


def hphi_inner(
    F: GaussPoly, G: GaussPoly, wd: WeightData, cache: MomentCache | None = None
) -> complex:
    """Weighted inner product (F, G) = integral F conj(G) e^(-2 Phi).

    Both arguments go to Wick coefficients in the frame of their common
    exponent (``_wick_rows``: MExponentMismatch if the exponents differ),
    and the product is the diagonal sum of the module notes, exact to
    floating point at every degree.  Pass ``cache`` to share the frame
    across many products with the same exponent.
    """
    cache, fg = _wick_rows(wd, (F, G), cache)
    return complex(_pair_inners(cache, fg, [0], [1])[0])


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
    pairs at once by ``_gram_block`` on the Wick coefficients of the
    family's block.
    """
    keys = sorted(family.keys(), key=lambda t: (sum(t), t))
    if not keys:
        return [], np.zeros((0, 0), dtype=complex)
    cache, rows = _wick_rows(wd, [family[k] for k in keys], cache)
    return keys, _gram_block(cache, rows)


def adjoint_residual(
    wd: WeightData,
    gen: GeneratorData,
    F: GaussPoly,
    G: GaussPoly,
    i: int,
    cache: MomentCache | None = None,
) -> float:
    """|(lower_i F, G) - (F, raise_i G)| for arguments sharing one exponent.

    Values near zero validate the implemented raising operator as the true
    adjoint with respect to the weighted inner product.  The operators act
    on the Wick coefficients of F and G folded at the cache's exponent, which
    need not be Q, as in the verify pipeline.
    """
    i = _component(i, wd.n)
    cache, fg = _wick_rows(wd, (F, G), cache or make_moment_cache(wd, gen.Q))
    rows = _adjoint_block(_frame_ladder(wd, gen, cache), i, fg[:1], fg[1:])
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
    cache, block = _wick_rows(wd, [F, *(family[a] for a in needed)], cache)
    c, residuals, _ = _expansions(cache, block[:1], block[1:])
    return dict(zip(needed, c[0].tolist())), float(residuals[0])
