"""Sparse complex polynomials times Gaussian factors and their operator algebra.

Everything here manipulates functions of the form P(z) exp(-<z, M z>) with
P sparse over multi-indices and M complex symmetric.  First-order operators
G d/dz + H z keep that class closed: a derivative pulls 2 (M z)_k down into
the polynomial factor, so application is exact apart from rounding.  That
fold is made in one place, ``_in_frame(op, M, frame)``: (G, H) at exponent
M is (G, H - 2 G M) on monomial coefficients, or its rewrite on Wick
coefficients in the frame of a moment cache (see ``integrals``).  Each
public function folds its exponent once, where it enters; no function
below that takes one.

The one format is the coefficient block: Gaussian polynomials sharing one
M form a complex matrix, one row per function and one column per
multi-index of the graded basis |alpha| <= d (``_basis_array``: read-only
int rows, the engine's one multi-index format, each basis a prefix of the
next; ``_rank`` maps a row to its column, ``_unrank`` back, ``_degree_of``
a width to d).  A ``PolyC`` is one sparse row, its columns and nonzero
coefficients; its dict ``terms`` is a view for the public API, the only
place tuples appear.  Inputs from outside pass one rule each:
``_dimension``, ``_multi_index``, ``_component``, ``matrices.as_points``
and ``matrices.require_same_exponent``.  One kernel, ``_apply_block(G, H,
block)``, applies row i of the folded G and H (rows, n) to row i of a
(rows, width) block over the basis of degree d (the chains, the adjoint
stage and ``apply_op`` put one operator on each row), with one result
shape, the basis of degree d + 1, and every term added, a zero one too,
with the rounding of Python's scalar complex product, so a row's result
depends on no other row and equals term-by-term application bit for bit.
The Hamiltonian is no kernel call: ``_hamiltonian_rows`` writes its rows
for given monomials from a cached plan, and the eigen stage and
``hamiltonian_apply`` multiply coefficients by them.
``_chain_rows(lanes, targets)`` builds op^alpha c0 for each lane (op, c0)
and each target alpha over the targets' ancestors only, one kernel call per
degree layer over the rows of every lane; the family, the Rodrigues form,
the images and the Wick conversion are chains, and ``run_verify`` chains
the first three as the lanes of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import matrices as mx
from .errors import DimensionMismatch, SymmetryViolation
from .model import GeneratorData, WeightData


@functools.lru_cache(maxsize=128)
def _binomials(n: int, top: int) -> np.ndarray:
    """table[m, s + 1] = C(s + m, m) and table[m, 0] = C(m - 1, m) for m <= n, s <= top."""
    table = np.zeros((n + 1, top + 2), dtype=np.intp)
    table[0, 1:] = 1
    for m in range(1, n + 1):
        np.cumsum(table[m - 1], out=table[m])
    return mx.frozen(table)


def _rank(alphas) -> np.ndarray:
    """Column of each multi-index, a row of the int array ``alphas`` (...,
    n), in the graded basis: the one map from a multi-index to its column.

    alpha is preceded by the C(|alpha| + n, n) - 1 other multi-indices of
    degree <= |alpha| but those after it in its layer.  These agree with
    alpha before some position k - 1 (k = 1..n-1) and are larger there, so
    their entries from k on sum to less than r_k = alpha_k + .. +
    alpha_(n-1): C(r_k - 1 + n - k, n - k) of them for each k."""
    alphas = np.asarray(alphas, dtype=np.intp)
    n, degree = alphas.shape[-1], alphas.sum(axis=-1)
    r = np.cumsum(alphas[..., ::-1], axis=-1)[..., ::-1]  # r[..., k] = r_k
    table = _binomials(n, int(degree.max(initial=0)))
    return table[n, degree + 1] - 1 - sum(table[n - k, r[..., k]] for k in range(1, n))


def _unrank(n: int, cols) -> np.ndarray:
    """The multi-index at each column of ``cols`` as int rows (..., n), the
    inverse of ``_rank``: |alpha| = r_0 is the number of C(s + n, n) <= col,
    and r_k is the largest r with C(r - 1 + n - k, n - k) <= what is left of
    ``_rank``'s sum C(r_0 + n, n) - 1 - col, since the later terms add up to
    less than the step to r_k + 1."""
    cols = np.asarray(cols, dtype=np.intp)
    last, top = int(cols.max(initial=0)), 0
    while math.comb(n + top, n) <= last:
        top += 1
    table = _binomials(n, top)
    r = np.searchsorted(table[n, 1:], cols, side="right")
    rest = table[n, r + 1] - 1 - cols
    out = np.empty(cols.shape + (n,), dtype=np.intp)
    for k in range(1, n + 1):  # table[0] leaves r_n = 0
        r_k = np.searchsorted(table[n - k], rest, side="right") - 1
        rest -= table[n - k, r_k]
        out[..., k - 1], r = r - r_k, r_k
    return out


@functools.lru_cache(maxsize=128)
def _basis_array(n: int, max_degree: int) -> np.ndarray:
    """All |alpha| <= max_degree in graded lex order, one row each, as a
    read-only int array (rows, n): ``_unrank`` of every column."""
    return mx.frozen(_unrank(n, np.arange(math.comb(n + max_degree, n))))


@functools.lru_cache(maxsize=256)
def _degree_of(n: int, width: int) -> int:
    """The d with len(_basis_array(n, d)) == width, the one map from a
    block's width to its degree; DimensionMismatch if no graded basis has it."""
    for d in range(width):
        if math.comb(n + d, n) == width:
            return d
    raise DimensionMismatch(f"{width} columns are no graded basis at n = {n}")


def multi_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_degree in graded lex order, as
    int tuples; the degree passes the rule of ``_checked_basis``."""
    return list(map(tuple, _checked_basis(n, max_degree).tolist()))


def _multi_index(alpha, n: int) -> tuple[int, ...]:
    """``alpha`` as an int tuple, the one rule for a multi-index from outside
    the engine: DimensionMismatch unless it has n entries, ValueError unless
    every entry is a nonnegative integer (of any real numeric type but bool)."""
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise DimensionMismatch(f"multi-index {alpha} needs {n} entries")
    if not all(isinstance(a, Real) and not isinstance(a, bool) and float(a).is_integer()
               and a >= 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative integers, got {alpha}")
    return tuple(int(a) for a in alpha)


def _dimension(n) -> int:
    """``n`` as a dimension, the one rule for it from outside the engine:
    ValueError naming n unless an integer but no bool and at least 1."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ValueError(f"dimension n must be an integer >= 1, got {n!r}")
    return int(n)


def _component(i, n: int) -> int:
    """``i`` as a component index, the one rule for it from outside the engine:
    ValueError unless an integer but no bool, DimensionMismatch unless in 0..n-1."""
    if isinstance(i, bool) or not isinstance(i, Integral):
        raise ValueError(f"component index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise DimensionMismatch(f"component index {i} is outside 0..{n - 1}")
    return int(i)


def mi_factorial(alpha) -> float:
    """alpha! as a float (exact integer arithmetic underneath)."""
    return float(math.prod(math.factorial(int(a)) for a in alpha))


def _power_table(v: np.ndarray, degree: int) -> list:
    """[1, v, v^2, .., v^degree] on a batch, by repeated multiplication."""
    out = [1.0, v]
    for _ in range(2, degree + 1):
        out.append(out[-1] * v)
    return out[: degree + 1]


def _tabulated_sum(terms, tables: list, q: int) -> np.ndarray:
    """sum over the pairs (alpha, c) of c prod_i tables[i][alpha_i] on a batch of q.

    ``tables[i][k]`` is the batch of values of the k-th factor of
    coordinate i (a power, or a scaled Hermite polynomial for test
    functions); factor 0 must be identically 1 and is never read.
    """
    total = np.zeros(q, dtype=complex)
    term = np.empty(q, dtype=complex)
    for alpha, c in terms:
        factors = [tables[i][e] for i, e in enumerate(alpha) if e]
        if not factors:
            total += c
            continue
        np.multiply(factors[0], c, out=term)
        for f in factors[1:]:
            term *= f
        total += term
    return total


class PolyC:
    """Sparse polynomial over C^n, a row of the graded basis: ``ranks``, the
    strictly increasing columns (``_rank``) of its terms, and ``coeffs``,
    their nonzero coefficients, both read-only.  ``terms`` is the dict view
    {alpha: c}, built in graded lex order when read.  From a dict, n passes
    ``_dimension`` and keys ``_multi_index``.  Arithmetic returns new objects.
    """

    __slots__ = ("n", "ranks", "coeffs")

    def __init__(self, n: int, terms=None):
        n, terms = _dimension(n), terms or {}
        ranks = _rank(np.array([_multi_index(k, n) for k in terms], dtype=np.intp).reshape(-1, n))
        order = np.argsort(ranks)
        coeffs = np.array([complex(v) for v in terms.values()], dtype=complex)[order]
        clean = PolyC._clean(n, ranks[order], coeffs)
        self.n, self.ranks, self.coeffs = n, clean.ranks, clean.coeffs

    @classmethod
    def _clean(cls, n: int, ranks: np.ndarray, coeffs: np.ndarray) -> "PolyC":
        """Wrap, unchecked, strictly increasing ranks and their complex
        coefficients, keeping the nonzero ones."""
        keep = coeffs != 0
        out = cls.__new__(cls)
        out.n, out.ranks, out.coeffs = n, ranks[keep], coeffs[keep]
        out.ranks.setflags(write=False)
        out.coeffs.setflags(write=False)
        return out

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        return dict(zip(map(tuple, _unrank(self.n, self.ranks).tolist()), self.coeffs.tolist()))

    @classmethod
    def constant(cls, n: int, value: complex = 1.0) -> "PolyC":
        return cls._clean(_dimension(n), np.zeros(1, dtype=np.intp), np.array([complex(value)]))

    @classmethod
    def monomial(cls, alpha, coeff: complex = 1.0) -> "PolyC":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: coeff})

    def degree(self) -> int:
        return int(_unrank(self.n, self.ranks[-1:]).sum())

    def scaled(self, c: complex) -> "PolyC":
        coeffs = np.array([c * v for v in self.coeffs.tolist()], dtype=complex)
        return PolyC._clean(self.n, self.ranks, coeffs)

    def __add__(self, other: "PolyC") -> "PolyC":
        if self.n != other.n:
            raise DimensionMismatch("polynomials live in different dimensions")
        ranks, used = _used_block([self, other])
        return PolyC._clean(self.n, ranks, used[0] + used[1])

    def __sub__(self, other: "PolyC") -> "PolyC":
        return self + other.scaled(-1.0)

    def __call__(self, z: np.ndarray):
        """Value at one point (n,), or values at a batch of points (q, n).

        Powers come from one table per coordinate, z_i^0 .. z_i^d_i by
        repeated multiplication, shared by every term.
        """
        pts, one = mx.as_points(z, self.n, "z")
        alphas = _unrank(self.n, self.ranks)
        tops = alphas.max(axis=0, initial=0)
        tables = [_power_table(pts[:, i], int(d)) for i, d in enumerate(tops)]
        total = _tabulated_sum(zip(alphas.tolist(), self.coeffs.tolist()), tables, pts.shape[0])
        return complex(total[0]) if one else total

    def __repr__(self):  # pragma: no cover - debugging aid
        body = " + ".join(f"{v:.6g}*z^{k}" for k, v in self.terms.items())
        return f"PolyC({body or '0'})"


@dataclass(frozen=True)
class GaussPoly:
    """A function z -> P(z) exp(-<z, M z>) with M complex symmetric."""

    poly: PolyC
    M: np.ndarray

    @classmethod
    def _clean(cls, poly: PolyC, M: np.ndarray) -> "GaussPoly":
        """Wrap, unchecked, a polynomial and the exponent of a GaussPoly of its dimension."""
        out = cls.__new__(cls)
        object.__setattr__(out, "poly", poly)
        object.__setattr__(out, "M", M)
        return out

    def __post_init__(self):
        object.__setattr__(self, "M", mx.frozen(self.M))
        if self.M.shape != (self.poly.n,) * 2:
            raise DimensionMismatch(f"exponent {self.M.shape} is not {self.n} x {self.n}")
        if not mx.is_symmetric(self.M, mx.EXPONENT_TOL):
            raise SymmetryViolation("exponent M is not symmetric")

    @property
    def n(self) -> int:
        return self.poly.n

    def scaled(self, c: complex) -> "GaussPoly":
        return GaussPoly(self.poly.scaled(c), self.M)

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        mx.require_same_exponent(self.M, other.M, "the two summands")
        return GaussPoly(self.poly + other.poly, self.M)

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        return self + other.scaled(-1.0)


@dataclass(frozen=True)
class LinearDiffOp:
    """Vector of first-order operators; component i is
    sum_k G[i,k] d/dz_k + sum_l H[i,l] z_l."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        g = mx.as_square(self.G, "G")
        h = mx.as_square(self.H, "H")
        if g.shape != h.shape:
            raise DimensionMismatch("G and H must share a shape")
        object.__setattr__(self, "G", mx.frozen(g))
        object.__setattr__(self, "H", mx.frozen(h))

    @property
    def n(self) -> int:
        return self.G.shape[0]


def _in_frame(op: LinearDiffOp, M, frame=None) -> LinearDiffOp:
    """``op`` acting on P exp(-<z, M z>) as an operator on the coefficients of
    P: d/dz_k pulls -2 (M z)_k down, so on monomials it is (G, H - 2 G M).
    In the Wick frame of ``frame``, a moment cache (see ``integrals``), it
    is (G L^(-T) + h L C, h L), h = H - 2 G M: z = L u, d/dz = L^(-T) d/du,
    and u_l acts on Wick powers as the raising term plus C d/du."""
    h = op.H - 2.0 * op.G @ M
    if frame is None:
        return LinearDiffOp(op.G, h)
    h = h @ frame.L
    return LinearDiffOp(np.linalg.solve(frame.L, op.G.T).T + h @ frame.C, h)


@functools.lru_cache(maxsize=256)
def _kernel_plan(n: int, degree: int) -> tuple:
    """Gathers of ``_apply_block`` from a block over ``_basis_array(n, degree)``:
    the output width, that of the basis of degree + 1, the width its
    derivative terms reach, and per term its index map and, for a
    derivative, its weights.

    Derivative term k gathers a + e_k -> a for |a| < degree, weighted by
    a_k + 1.  Multiplication term l gathers a - e_l -> a for every output
    column; a column with a_l = 0 reads a zero pad column appended to the
    block.  Both maps are ``_rank`` of shifted basis rows.
    """
    width = math.comb(n + degree, n)
    inner = math.comb(n + degree - 1, n) if degree else 0
    cols = math.comb(n + degree + 1, n)
    basis, e = _basis_array(n, degree + 1), np.eye(n, dtype=np.intp)
    deriv = tuple((k, mx.frozen(_rank(basis[:inner] + e[k])), mx.frozen(basis[:inner, k] + 1.0))
                  for k in range(n) if inner)
    # a column with a_l = 0 is clipped to a multi-index, then sent to the pad
    mult = tuple((l, mx.frozen(np.where(basis[:, l], _rank(np.maximum(basis - e[l], 0)), width)),
                  None) for l in range(n))
    return cols, inner, deriv, mult


#: result entries (rows x columns) per pass of ``_apply_block``'s term loop:
#: longer passes (above 128 KiB per buffer) made the C allocator fault fresh
#: pages on every call at n=2/degree 10
_KERNEL_CHUNK = 1 << 13


def _add_terms(acc: np.ndarray, planes: np.ndarray, terms, coef: np.ndarray):
    """acc += c * s for each (i, idx, w) of ``terms`` in order, on stacked
    (re, im) planes (2, rows, columns): s the columns ``idx`` of ``planes``,
    scaled by the weights ``w`` unless None, and c = coef[:, i], one (re,
    im) pair per row.  Each product is rounded as Python's complex product
    (cr sr - ci si, cr si + ci sr), never as a fused multiply-add, before
    it is added; three buffers serve every term."""
    t, u, s = np.empty((3,) + acc.shape)
    for i, idx, w in terms:
        planes.take(idx, axis=2, out=s, mode="clip")  # in range; unbuffered
        if w is not None:
            s *= w
        c = coef[:, i, :, None]
        np.multiply(s, c, out=t)  # (sr cr, si ci)
        np.multiply(s[::-1], c, out=u)  # (si cr, sr ci)
        np.subtract(t[0], t[1], out=t[0])
        np.add(u[0], u[1], out=t[1])
        acc += t


def _apply_block(G, H, block: np.ndarray) -> np.ndarray:
    """Row i of a block (rows, width) over ``_basis_array(n, degree)`` under
    sum_k G[i, k] d/dz_k + sum_l H[i, l] z_l, its exponent folded in
    (``_in_frame``): (rows, C(n + degree + 1, n)), over the basis of
    degree + 1.  The terms are added one by one, derivative terms
    g * (c * a_k) for k = 0..n-1, then multiplication terms h * c for
    l = 0..n-1, on real and imaginary planes, through index maps cached per
    (n, degree) (``_kernel_plan``).  A term zero in a row adds exact zeros
    to an accumulator that starts at +0.0, so a row's result depends on no
    other row.  Rows are taken in passes of at most about ``_KERNEL_CHUNK``
    result entries."""
    g = np.ascontiguousarray(G, dtype=complex)
    h = np.ascontiguousarray(H, dtype=complex)
    rows, n = g.shape
    width = block.shape[1]
    cols, inner, deriv, mult = _kernel_plan(n, _degree_of(n, width))
    # the coefficients as (re, im) x n x rows views
    gt, ht = g.view(float).reshape(rows, n, 2).T, h.view(float).reshape(rows, n, 2).T
    out = np.empty((rows, cols), dtype=complex)
    step = max(1, _KERNEL_CHUNK // cols)
    for lo in range(0, rows, step):
        part = slice(lo, lo + step)
        sub = block[part]
        planes = np.zeros((2, len(sub), width + 1))
        planes[0, :, :width] = sub.real
        planes[1, :, :width] = sub.imag
        acc = np.zeros((2, len(sub), cols))
        _add_terms(acc[..., :inner], planes, deriv, gt[..., part])
        _add_terms(acc, planes, mult, ht[..., part])
        out.real[part], out.imag[part] = acc
    return out


def _used_block(polys) -> tuple[np.ndarray, np.ndarray]:
    """The columns (``_rank``) some polynomial of ``polys`` uses, in graded
    lex order, and the coefficients of ``polys`` over them, one row per
    polynomial; for one polynomial, views of its arrays."""
    if len(polys) == 1:
        return polys[0].ranks, polys[0].coeffs[None]
    ranks = np.concatenate([p.ranks for p in polys])
    cols = np.sort(ranks)  # np.unique takes four times as long here
    cols = cols[np.diff(cols, prepend=-1) > 0]
    owner = np.repeat(np.arange(len(polys)), [len(p.ranks) for p in polys])
    out = np.zeros((len(polys), len(cols)), dtype=complex)
    out[owner, np.searchsorted(cols, ranks)] = np.concatenate([p.coeffs for p in polys])
    return cols, out


def _gauss_polys(block: np.ndarray, M: np.ndarray) -> list[GaussPoly]:
    """One GaussPoly per row of a block, holding its nonzero entries and their
    columns, with exponent M: checked once, shared by the rows."""
    M, cols = GaussPoly(PolyC.constant(M.shape[0]), M).M, np.arange(block.shape[1])
    return [GaussPoly._clean(PolyC._clean(M.shape[0], cols, row), M) for row in block]


def apply_op(op: LinearDiffOp, i: int, gp: GaussPoly) -> GaussPoly:
    """Apply component i of a first-order operator to a Gaussian polynomial.

    The result keeps the same exponent matrix; the polynomial degree rises
    by at most one.  This is the one-row case of ``_apply_block``.
    """
    if op.n != gp.n:
        raise DimensionMismatch("operator and argument dimensions differ")
    i, op = _component(i, op.n), _in_frame(op, gp.M)
    row = np.zeros((1, math.comb(gp.n + gp.poly.degree(), gp.n)), dtype=complex)
    row[0, gp.poly.ranks] = gp.poly.coeffs
    return _gauss_polys(_apply_block(op.G[i : i + 1], op.H[i : i + 1], row), gp.M)[0]


def annihilation_ops(Q) -> LinearDiffOp:
    """The lowering operators d/dz + 2 Q z that kill exp(-<z, Q z>)."""
    Q = mx.as_square(Q, "Q")
    return LinearDiffOp(np.eye(Q.shape[0], dtype=complex), 2.0 * Q)


def creation_ops(wd: WeightData, gen: GeneratorData) -> LinearDiffOp:
    """The raising operators, adjoint to the lowering ones in the weighted space.

    Component i is
    sum_{j,k} conj(gamma_ij + q_ij) beta_jk d/dz_k
    + 2 sum_l { conj(alpha_il) - sum_{j,k} conj(gamma_ij + q_ij) beta_jk gamma_kl } z_l,
    written here through the precomputed derivative block ``xi_coeff``.
    """
    g = gen.xi_coeff
    h = 2.0 * (wd.phi_zzbar.conj() - g @ wd.phi_zz)
    return LinearDiffOp(g, h)


def xi_ops(gen: GeneratorData) -> LinearDiffOp:
    """Principal (pure derivative) parts of the raising operators."""
    return LinearDiffOp(gen.xi_coeff, np.zeros_like(gen.xi_coeff))


def _frame_ladder(wd: WeightData, gen: GeneratorData, frame=None) -> tuple:
    """The lowering and raising operators folded (``_in_frame``) at the
    exponent of their coefficients: Q, or that of ``frame``, a moment cache."""
    M = gen.Q if frame is None else frame.exponent
    return tuple(_in_frame(op, M, frame)
                 for op in (annihilation_ops(gen.Q), creation_ops(wd, gen)))


def ground_state(gen: GeneratorData) -> GaussPoly:
    """The generator exp(-<z, Q z>)."""
    return GaussPoly(PolyC.constant(gen.n, 1.0), gen.Q)


def _checked_basis(n: int, max_degree) -> np.ndarray:
    """``_basis_array(n, max_degree)`` for a dimension and a degree from outside
    the engine: n passes ``_dimension``, and the one rule every public degree
    passes is a nonnegative integer, else ValueError."""
    n = _dimension(n)
    if isinstance(max_degree, bool) or not isinstance(max_degree, Integral) or max_degree < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {max_degree!r}")
    return _basis_array(n, max_degree)


@functools.lru_cache(maxsize=128)
def _chain_plan(n: int, targets: bytes) -> tuple:
    """The chain of the targets, int rows of n entries given by their bytes,
    cut to their ancestors (alpha comes from alpha - e_i, i its first
    nonzero index): per degree layer d >= 1 in lex order, each member's i
    and its parent's row in layer d - 1; per layer, the target rows it
    holds and their rows within it.  All paths are walked at once, a step
    per pass; sorted by ``_rank``, their rows and 0 are the layers, where
    each parent and target is found by its rank."""
    targets = np.frombuffer(targets, dtype=np.intp).reshape(-1, n)
    paths, step = [np.zeros((1, n), dtype=np.intp), targets], targets
    while step.any():
        step = step[step.any(axis=1)]
        step[np.arange(len(step)), (step != 0).argmax(axis=1)] -= 1
        paths.append(step)
    paths = np.vstack(paths)
    ranks, first = np.unique(_rank(paths), return_index=True)
    need = paths[first]
    degree = need.sum(axis=1)
    top = int(degree[-1])
    start = np.searchsorted(degree, np.arange(top + 2))
    raised = need[start[1]:]
    comps = (raised != 0).argmax(axis=1)
    lowered = raised - np.eye(n, dtype=np.intp)[comps]
    parents = np.searchsorted(ranks, _rank(lowered)) - start[degree[start[1]:] - 1]
    steps = tuple((mx.frozen(comps[lo:hi], dtype=int), mx.frozen(parents[lo:hi], dtype=int))
                  for lo, hi in zip(start[1:-1] - start[1], start[2:] - start[1]))
    degree = targets.sum(axis=1)
    rows = np.searchsorted(ranks, _rank(targets)) - start[degree]
    place = tuple((mx.frozen(np.flatnonzero(degree == d), dtype=int),
                   mx.frozen(rows[degree == d], dtype=int)) for d in range(top + 1))
    return steps, place


def _chain_rows(lanes, targets) -> np.ndarray:
    """op^alpha c0 for each lane (op, c0) of ``lanes``, ``op`` folded
    (``_in_frame``), and each alpha of ``targets`` (int rows): one block
    per lane, one row per target over ``_basis_array(n, max |alpha|)``,
    stacked as (lanes, targets, columns).

    Layer d comes from layer d - 1 by one kernel call over the ancestors of
    the targets (``_chain_plan``) in every lane at once: each alpha applies
    the component at its first nonzero index to its parent; the components
    commute, so the path does not matter (tests assert it).  The kernel's
    rows do not depend on each other, so a row equals the same row of the
    full chain, and a lane the same lane chained alone, bit for bit, and
    the cost follows the targets.
    """
    n = lanes[0][0].n
    targets = np.asarray(targets, dtype=np.intp).reshape(-1, n)
    steps, place = _chain_plan(n, targets.tobytes())
    G = np.stack([op.G for op, _ in lanes])
    H = np.stack([op.H for op, _ in lanes])
    layers = [np.array([c0 for _, c0 in lanes], dtype=complex).reshape(-1, 1, 1)]
    for comps, parents in steps:
        prev = layers[-1].take(parents, axis=1)
        layer = _apply_block(G[:, comps].reshape(-1, n), H[:, comps].reshape(-1, n),
                             prev.reshape(-1, prev.shape[2]))
        layers.append(layer.reshape(len(lanes), len(comps), -1))
    out = np.zeros((len(lanes), len(targets), math.comb(n + len(steps), n)), dtype=complex)
    for layer, (dest, src) in zip(layers, place):
        out[:, dest, : layer.shape[2]] = layer.take(src, axis=1)
    return out


def _monomial_chain(op: LinearDiffOp, polys) -> np.ndarray:
    """The coefficient block of the sparse polynomials ``polys`` with each
    monomial z^a replaced by op^a 1, ``op`` folded (``_in_frame``): the
    chain of ``op`` over the first-index ancestors of the monomials some
    polynomial uses (``_used_block``) only, never over a whole basis.  The
    result is over ``_basis_array(n, d)``, d the largest degree of those
    monomials."""
    cols, used = _used_block(polys)
    return used @ _chain_rows([(op, 1.0)], _unrank(op.n, cols))[0]


def hermite_family(
    wd: WeightData, gen: GeneratorData, max_total_degree: int
) -> dict[tuple[int, ...], GaussPoly]:
    """All family members with |alpha| <= max_total_degree: the raising
    chain of the creation operators from the generator exp(-<z, Q z>)."""
    basis = _checked_basis(gen.n, max_total_degree)
    block = _chain_rows([(_in_frame(creation_ops(wd, gen), gen.Q), 1.0)], basis)[0]
    return dict(zip(map(tuple, basis.tolist()), _gauss_polys(block, gen.Q)))


def rodrigues(wd: WeightData, gen: GeneratorData, alpha) -> GaussPoly:
    """Family member via the closed form
    e^{<z,Sz>} Xi^alpha e^{-<z,(S+Q)z>}.

    The member is row alpha of the raising chain of Xi on
    1 * exp(-<z,(S+Q)z>), built over the ancestors of alpha only
    (:func:`_chain_rows`); the final multiplication by e^{<z,Sz>} subtracts
    S from the exponent matrix.  ``alpha`` must pass the multi-index rule
    of ``_multi_index``.
    """
    alpha = _multi_index(alpha, gen.n)
    row = _chain_rows([(_in_frame(xi_ops(gen), gen.SQ), 1.0)], [alpha])[0]
    return _gauss_polys(row, gen.SQ - gen.S)[0]


def _real_scaled(block: np.ndarray, factor) -> np.ndarray:
    """``block`` times real factors (a scalar or one per row), both parts
    scaled separately as Python scales a complex by a float."""
    return (block.view(float) * factor).view(complex)


@functools.lru_cache(maxsize=32)
def _hamiltonian_plan(n: int, monomials: bytes) -> tuple:
    """The terms of ``_hamiltonian_rows`` for the monomials, int rows of n
    entries given by their bytes: the basis width, the distinct flat cells
    (row, column) they hit, and per term its cell, the index of its
    coefficient in [rho^2, P, R] (row-major) and its integer weight."""
    a = np.frombuffer(monomials, dtype=np.intp).reshape(-1, n)
    width = math.comb(n + int(a.sum(axis=1).max(initial=0)), n)
    j, l = np.nonzero(a)  # every lowering a -> a - e_l with a_l > 0
    e = np.eye(n, dtype=np.intp)
    lowered, a_l = a[j] - e[l], a[j, l]
    row, col = [np.arange(len(a))], [_rank(a)]
    index, weight = [np.zeros(len(a), dtype=np.intp)], [np.ones(len(a), dtype=np.intp)]
    for k in range(n):
        live = lowered[:, k] > 0
        row += [j, j[live]]
        col += [_rank(lowered + e[k]), _rank(lowered[live] - e[k])]
        index += [1 + k * n + l, 1 + n * n + k * n + l[live]]
        weight += [a_l, a_l[live] * lowered[live, k]]
    cells, cell = np.unique(np.concatenate(row) * width + np.concatenate(col), return_inverse=True)
    index, weight = np.concatenate(index), np.concatenate(weight).astype(float)
    return width, *(mx.frozen(v) for v in (cells, cell, index, weight))


def _hamiltonian_rows(rho2: float, ladder: tuple, monomials) -> np.ndarray:
    """rho^2 + sum_i raise_i lower_i on each monomial u^a, a row of the int
    array ``monomials``: one row each over ``_basis_array(n, max |a|)``.
    With the ladder of ``_frame_ladder`` lower_i = sum_l A_il d/du_l is a
    pure derivative and raise_i = sum_k G_ik d/du_k + H_ik u_k, so u^a goes
    to rho^2 u^a, a_l P_kl u^(a - e_l + e_k) and a_l b_k R_kl u^(b - e_k),
    b = a - e_l, P = H^T A, R = G^T A: cells and weights planned once per
    monomials (``_hamiltonian_plan``), values by one bincount per plane."""
    low, high = ladder
    monomials = np.asarray(monomials, dtype=np.intp)
    width, cells, cell, index, weight = _hamiltonian_plan(low.n, monomials.tobytes())
    coef = np.concatenate([[rho2], (high.H.T @ low.G).ravel(), (high.G.T @ low.G).ravel()])
    out = np.zeros((len(monomials), width), dtype=complex)
    flat = out.reshape(-1)
    for plane, part in ((flat.real, coef.real), (flat.imag, coef.imag)):
        plane[cells] = np.bincount(cell, weight * part[index], minlength=len(cells))
    return out


def hamiltonian_apply(wd: WeightData, gen: GeneratorData, gp: GaussPoly) -> GaussPoly:
    """Apply sum_i raise_i lower_i + rho^2 to a Gaussian polynomial, through
    the Hamiltonian's rows of the monomials it uses (``_hamiltonian_rows``).

    The argument must carry the generator exponent Q.
    """
    mx.require_same_exponent(gp.M, gen.Q, "the argument and the generator Q")
    cols, used = _used_block([gp.poly])
    out = used @ _hamiltonian_rows(gen.rho2, _frame_ladder(wd, gen), _unrank(gp.n, cols))
    return _gauss_polys(out, gp.M)[0]


def _adjoint_block(ladder: tuple, comps, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows f, g, lower_i f and raise_i g, with i = comps[r] for row r, of
    two blocks over ``_basis_array(n, degree)``: four blocks of rows
    stacked in that order over the basis of degree + 1, zero beyond their
    width; lower_i f and raise_i g are one kernel call, one operator per
    row of [f; g]."""
    low, high = ladder
    n, degree = low.n, _degree_of(low.n, f.shape[1]) + 1
    comps = np.broadcast_to(comps, f.shape[:1])
    k, width = f.shape
    out = np.zeros((4 * k, math.comb(n + degree, n)), dtype=complex)
    out[:k, :width], out[k : 2 * k, :width] = f, g
    out[2 * k :] = _apply_block(np.concatenate([low.G[comps], high.G[comps]]),
                                np.concatenate([low.H[comps], high.H[comps]]),
                                out[: 2 * k, :width])
    return out


def _row_max_abs(block: np.ndarray) -> np.ndarray:
    """Largest |c| of each row, rounded as Python's abs() of a complex (hypot)."""
    return np.hypot(block.real, block.imag).max(axis=1, initial=0.0)


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`coeff_distance` row by row on two blocks over the same
    columns: max |a - b| over the larger of the two row maxima."""
    top = np.maximum(_row_max_abs(a), _row_max_abs(b))
    return _row_max_abs(a - b) / np.maximum(top, 1e-300)


def evaluate(gp: GaussPoly, z) -> complex | np.ndarray:
    """Pointwise value P(z) exp(-<z, M z>), one per point of a batch, all
    points at once."""
    pts, one = mx.as_points(z, gp.n, "z")
    vals = gp.poly(pts) * np.exp(-np.einsum("ri,ij,rj->r", pts, gp.M, pts))
    return complex(vals[0]) if one else vals


def coeff_distance(a: GaussPoly, b: GaussPoly) -> tuple[float, float]:
    """Max coefficient difference and the larger of the two magnitudes.

    The exponent matrices must agree (``matrices.require_same_exponent``);
    relative closeness claims should divide the first value by the second.
    """
    mx.require_same_exponent(a.M, b.M, "the two arguments")
    _, used = _used_block([a.poly, b.poly])
    return float(_row_max_abs(used[:1] - used[1:])[0]), float(_row_max_abs(used).max())
