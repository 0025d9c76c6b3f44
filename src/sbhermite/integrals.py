"""Exact weighted inner products of Gaussian polynomials in the Wick frame.

Every integrand of the verification suite is a polynomial times a centered
Gaussian on R^(2n), so an inner product is a finite sum of Gaussian
moments.  The weight of a combined exponent M is exp(-w^T M_R w) in
w = (Re z, Im z), and one factorization of M_R (``_root_and_inverse``,
which also serves the closed-form integrals of ``transform``) gives its
mass pi^n det(M_R)^(-1/2), the moment cache's normalizer, and M_R^-1.  The
cache holds the bilinear covariance K = T M_R^-1 T^T / 2 of (z, zbar), T
of ``matrices.complex_coords``, and the frame of M from two blocks of K:
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
through one edge, ``_wick_rows``: it builds the frame at the first
argument's exponent (``make_moment_cache``, the only constructor), checks
every argument against the weight and that exponent, and converts the
monomial GaussPolys (``_wick_block``): z^a is the chain of the
multiplication operators z_l over the ancestors of the monomials used, so
z_1^12 costs 13 chain rows of dense Wick vectors, and no dense block of
the arguments over the whole basis is formed.

Stage-wide callers work on one block: any set of pairs (l, r) is one
weighted row sum (``_pair_inners``), a Gram matrix one product
normalizer * P diag(a!) P^H (``_gram_block``), and many expansions in a
family one block too (``_expansions``), as are k adjoint triples
(``_adjoint_inners``).  ``hphi_inner``, ``gram_matrix``, ``expand_in_family``
and ``adjoint_residual`` are cases of these, so no inner product is
implemented twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .errors import DimensionMismatch, IncompleteFamily, NonIntegrableWeight
from .gausspoly import (
    GaussPoly,
    LinearDiffOp,
    _adjoint_block,
    _basis_array,
    _component,
    _degree_of,
    _factorial_rows,
    _frame_ladder,
    _in_frame,
    _monomial_chain,
    _rank,
    multi_indices,
)
from .model import GeneratorData, WeightData


@dataclass(frozen=True)
class MomentCache:
    """Gaussian moment data and the Wick frame of one exponent's weight.

    ``normalizer`` is the Gaussian mass pi^n det(M_R)^(-1/2) over
    w = (Re z, Im z) and ``zcov`` the bilinear covariance K of (z, zbar).
    ``L`` and ``C`` are the frame of ``exponent``: L = chol(E[z zbar^T]) and
    C = L^(-1) E[z z^T] L^(-T), the covariance of the whitened coordinates
    u = L^(-1) z (see the module notes).  No code of the package reads or
    writes ``memo``: it stays only because the benchmark tracer
    (``bench/tracing.py``) counts its entries, which the tests' Isserlis
    oracle fills with real moments E[w^beta].
    """

    normalizer: float
    zcov: np.ndarray
    exponent: np.ndarray
    L: np.ndarray
    C: np.ndarray
    memo: dict = field(default_factory=dict)


def _root_and_inverse(P) -> tuple[complex, np.ndarray]:
    """det(P)^(1/2) and P^-1 of a complex symmetric P with positive definite
    real part, from one factorization P = L (E + iS) L^T: L = chol(Re P)
    and S = L^-1 Im P L^-T = V diag(s) V^T.  The root det(L) prod
    sqrt(1 + i s_k) is continued from Im P = 0 along Re P + i t Im P (no
    1 + i t s_k meets the principal root's cut), and
    P^-1 = L^-T V diag(1 / (1 + i s)) V^T L^-1, made exactly symmetric.
    A real P has S = 0 and V = E.  NonIntegrableWeight unless Re P is
    positive definite."""
    try:
        chol = np.linalg.cholesky(P.real)
    except np.linalg.LinAlgError as exc:
        raise NonIntegrableWeight("combined exponent is not positive definite") from exc
    li = np.linalg.inv(chol)
    s, v = np.linalg.eigh(li @ P.imag @ li.T)
    w, z = li.T @ v, 1.0 + 1j * s
    inv = (w / z) @ w.T
    root = math.prod(np.diag(chol).tolist()) * math.prod(np.sqrt(z).tolist())
    return root, 0.5 * (inv + inv.T)


def make_moment_cache(wd: WeightData, M) -> MomentCache:
    """Moment cache for inner products of Gaussian polynomials sharing M,
    from one ``_root_and_inverse`` of M_R (see the module notes)."""
    M = mx.as_square(M, "M")
    n = wd.n
    root, inv = _root_and_inverse(2.0 * mx.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + M))
    t = mx.complex_coords(n)
    zcov = t @ (0.5 * inv) @ t.T
    herm = zcov[:n, n:]
    chol = np.linalg.cholesky(0.5 * (herm + herm.conj().T))
    p = np.linalg.inv(chol)
    c = p @ zcov[:n, :n] @ p.T
    return MomentCache(
        normalizer=math.pi**n / root.real,
        zcov=mx.frozen(zcov),
        exponent=mx.frozen(M),
        L=mx.frozen(chol),
        C=mx.frozen(0.5 * (c + c.T)),
    )


def _wick_block(mc: MomentCache, polys) -> np.ndarray:
    """Wick coefficients, in the frame of ``mc``, of the polynomials
    ``polys`` (with the cache's exponent), one row each.

    Row z^a of the conversion is the chain of the multiplication operators
    z_l, the operator (0, E) in the frame (``_monomial_chain``).
    """
    n = mc.exponent.shape[0]
    mult = _in_frame(LinearDiffOp(np.zeros((n, n)), np.eye(n)), mc.exponent, mc)
    return _monomial_chain(mult, polys)


def _wick_rows(wd: WeightData, gps) -> tuple:
    """The edge of the public inner products: a moment cache at the first
    argument's exponent and the Wick coefficients of the GaussPolys ``gps``
    in its frame, one row each, after checking that every argument matches
    the weight dimension and that exponent."""
    if any(gp.n != wd.n for gp in gps):
        raise DimensionMismatch("arguments do not match the weight dimension")
    cache = make_moment_cache(wd, gps[0].M)
    for gp in gps[1:]:
        mx.require_same_exponent(gp.M, cache.exponent, "the arguments")
    return cache, _wick_block(cache, [gp.poly for gp in gps])


@functools.lru_cache(maxsize=128)
def _factorials(n: int, degree: int) -> np.ndarray:
    """a! over ``_basis_array(n, degree)``, read-only: ``_factorial_rows``
    of the basis, so a degree above 170 is a ValueError naming a!'s index."""
    return mx.frozen(_factorial_rows(_basis_array(n, degree)))


def _weights(mc: MomentCache, width: int) -> np.ndarray:
    """normalizer * a! over the graded basis of a block of ``width``
    columns: the diagonal of the inner product on Wick coefficients."""
    n = mc.exponent.shape[0]
    return mc.normalizer * _factorials(n, _degree_of(n, width))


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
    mc: MomentCache, fs: np.ndarray | None, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of ``fs`` against the normalized rows of ``members``, two
    Wick coefficient blocks over one graded basis: the coefficients (one
    row per f), the residual norms ||f - sum c_a psi_a / ||psi_a|| || and
    the norms ||f||.

    ``fs`` None stands for the identity block, every Wick power :u^beta:
    of the basis as a unit row, which is never formed: its product with
    diag(w) is diag(w), so the coefficients scale the rows of members^H by
    w, the remainder is the identity less the projection, added on its
    diagonal, and the norms are sqrt(w).  These are the identity block's
    values bit for bit.  Residuals come from the coefficient remainder,
    not from a Parseval shortcut.
    """
    w = _weights(mc, members.shape[1])
    norms = np.sqrt(np.maximum(_row_inners(w, members, members).real, 0.0))
    if fs is None:
        c = (w[:, None] * members.conj().T) / norms
        remainder = np.negative((c / norms) @ members)
        remainder.flat[:: len(w) + 1] += 1.0
        f_norms = np.sqrt(w)
    else:
        c = ((fs * w) @ members.conj().T) / norms
        remainder = fs - (c / norms) @ members
        f_norms = np.sqrt(np.maximum(_row_inners(w, fs, fs).real, 0.0))
    residuals = np.sqrt(np.maximum(_row_inners(w, remainder, remainder).real, 0.0))
    return c, residuals, f_norms


def hphi_inner(F: GaussPoly, G: GaussPoly, wd: WeightData) -> complex:
    """Weighted inner product (F, G) = integral F conj(G) e^(-2 Phi).

    Both arguments go to Wick coefficients in the frame of their common
    exponent (``_wick_rows``: MExponentMismatch if the exponents differ),
    and the product is the diagonal sum of the module notes, exact to
    floating point at every degree.  Each call builds that frame; the
    products of a whole family share one in ``gram_matrix``.
    """
    cache, fg = _wick_rows(wd, (F, G))
    return complex(_pair_inners(cache, fg, [0], [1])[0])


def hphi_norm(F: GaussPoly, wd: WeightData) -> float:
    """Weighted norm ||F||, the square root of (F, F)."""
    val = hphi_inner(F, F, wd)
    return math.sqrt(max(val.real, 0.0))


def gram_matrix(
    family: dict[tuple[int, ...], GaussPoly], wd: WeightData
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Gram matrix of a family, with its graded-lex index list.

    Entry (a, b) is the inner product of members a and b, computed for all
    pairs at once by ``_gram_block`` on the Wick coefficients of the
    family's block.  The keys are ordered by their columns (``_rank``).
    """
    if not family:
        return [], np.zeros((0, 0), dtype=complex)
    keys = list(family)
    keys = [keys[k] for k in np.argsort(_rank(keys))]
    cache, rows = _wick_rows(wd, [family[k] for k in keys])
    return keys, _gram_block(cache, rows)


def _adjoint_inners(mc: MomentCache, ladder: tuple, comps, f: np.ndarray, g: np.ndarray):
    """(lower_i f, g), (f, raise_i g), (f, f) and (g, g) as rows of a (4, k)
    array, one column per triple (f, g, i) of ``_adjoint_block``'s rows."""
    idx = np.arange(4 * len(f)).reshape(4, -1)  # the rows f, g, lower_i f, raise_i g
    left, right = idx[[2, 0, 0, 1]].ravel(), idx[[1, 3, 0, 1]].ravel()
    return _pair_inners(mc, _adjoint_block(ladder, comps, f, g), left, right).reshape(4, -1)


def adjoint_residual(
    wd: WeightData, gen: GeneratorData, F: GaussPoly, G: GaussPoly, i: int
) -> float:
    """|(lower_i F, G) - (F, raise_i G)| for arguments sharing one exponent.

    Values near zero validate the implemented raising operator as the true
    adjoint with respect to the weighted inner product.  The operators act
    on the Wick coefficients of F and G, folded at the arguments' common
    exponent (MExponentMismatch if they differ).  That exponent need not be
    Q: lowering and raising are adjoint on the whole space.
    """
    i = _component(i, wd.n)
    cache, fg = _wick_rows(wd, (F, G))
    lhs, rhs = _adjoint_inners(cache, _frame_ladder(wd, gen, cache), i, fg[:1], fg[1:])[:2]
    return mx.max_abs(lhs - rhs)


def expand_in_family(
    F: GaussPoly, family: dict[tuple[int, ...], GaussPoly], wd: WeightData
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
    cache, block = _wick_rows(wd, [F, *(family[a] for a in needed)])
    c, residuals, _ = _expansions(cache, block[:1], block[1:])
    return dict(zip(needed, c[0].tolist())), float(residuals[0])
