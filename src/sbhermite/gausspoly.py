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

Inside the engine the one format is the coefficient block: a set of
Gaussian polynomials sharing one M is a complex matrix with one row per
function and one column per multi-index of the graded basis |alpha| <= d
(``_basis``; each basis is a prefix of the next; d is read from the width
by ``_degree_of``).  The dicts are the public API's format, converted at
that edge by ``_block_of`` and ``_gauss_polys``; keys, component indices,
points and exponents from outside pass one rule each: ``_multi_index``,
``_component``, ``matrices.as_points`` and ``matrices.agree``.  One kernel,
``_apply_block(G, H, block)``, applies to row r of a block the folded
operator whose coefficients are row r of G and H (callers pass
``op.G[comps], op.H[comps]``; one row serves every row).  It adds the live
terms one by one, derivative terms k = 0..n-1 then multiplication terms
l = 0..n-1, each a gather through an index map cached per (n, d, live
terms), into the smallest graded basis the live terms reach,
``_basis(n, d + 1)`` with a live multiplication term and
``_basis(n, d - 1)`` without one.  The folded lowering operators
(``_frame_ladder``) are pure derivatives, so ``_hamiltonian_block`` maps a
block over ``_basis(n, d)`` to one over the same basis.  The products are
taken on real planes with the rounding of Python's scalar complex product;
numpy's complex multiply uses fused multiply-adds where the CPU has them
and rounds differently.  So a row's result does not depend on the rows
around it, and the kernel reproduces term-by-term application bit for bit;
``apply_op`` and ``hamiltonian_apply`` are its one-row cases.
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
from .errors import DimensionMismatch
from .model import GeneratorData, WeightData

def _basis_array(n: int, max_degree: int) -> np.ndarray:
    """All |alpha| <= max_degree in graded lex order, one row each, as an
    int array (rows, n).  Coordinates are prepended one at a time: for
    a = 0..max_degree, a followed by the multi-indices of the later
    coordinates with degree <= max_degree - a (a prefix of their graded
    basis), stably sorted by degree, keeps every degree layer in lex order."""
    basis = np.zeros((1, 0), dtype=np.intp)
    degree = np.zeros(1, dtype=np.intp)
    for k in range(n):
        sizes = [math.comb(k + max_degree - a, k) for a in range(max_degree + 1)]
        lead = np.repeat(np.arange(max_degree + 1), sizes)
        rest = np.arange(len(lead)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        degree = lead + degree[rest]
        order = np.argsort(degree, kind="stable")
        basis, degree = np.column_stack((lead, basis[rest]))[order], degree[order]
    return basis


def _graded_lex(alpha: tuple[int, ...]) -> tuple:
    """Sort key of graded lex order, (|alpha|, alpha): the order of
    ``_basis_array``, for multi-indices kept in dicts."""
    return sum(alpha), alpha


@functools.lru_cache(maxsize=128)
def _basis(n: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """``_basis_array(n, max_degree)`` as int tuples; the basis of degree d
    is a prefix of every larger one."""
    return tuple(map(tuple, _basis_array(n, max_degree).tolist()))


@functools.lru_cache(maxsize=128)
def _columns(n: int, max_degree: int) -> dict[tuple[int, ...], int]:
    """Column of each multi-index in a block over ``_basis(n, max_degree)``."""
    return {a: k for k, a in enumerate(_basis(n, max_degree))}


def _degree_of(n: int, width: int) -> int:
    """The d with len(_basis(n, d)) == width, the one map from a block's
    width to its degree; DimensionMismatch if no graded basis has it."""
    for d in range(width):
        if math.comb(n + d, n) == width:
            return d
    raise DimensionMismatch(f"{width} columns are no graded basis at n = {n}")


def multi_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_degree in graded lex order;
    the degree passes the rule of ``_checked_basis``."""
    return list(_checked_basis(n, max_degree))


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


def _tabulated_sum(terms: dict, tables: list, q: int) -> np.ndarray:
    """sum over alpha of c_alpha prod_i tables[i][alpha_i] on a batch of q.

    ``tables[i][k]`` is the batch of values of the k-th factor of
    coordinate i (a power, or a scaled Hermite polynomial for test
    functions); factor 0 must be identically 1 and is never read.
    """
    total = np.zeros(q, dtype=complex)
    term = np.empty(q, dtype=complex)
    for alpha, c in terms.items():
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
    """Sparse polynomial over C^n keyed by exponent multi-indices.

    Zero coefficients are never stored, and keys pass ``_multi_index``.
    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = int(n)
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for k, v in terms.items():
                k, v = _multi_index(k, self.n), complex(v)
                if v != 0:
                    self.terms[k] = v

    @classmethod
    def _clean(cls, n: int, terms: dict) -> "PolyC":
        """Wrap, unchecked, a dict of valid int-tuple keys and nonzero complex values."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def constant(cls, n: int, value: complex = 1.0) -> "PolyC":
        return cls(n, {(0,) * n: value})

    @classmethod
    def monomial(cls, alpha, coeff: complex = 1.0) -> "PolyC":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: coeff})

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def scaled(self, c: complex) -> "PolyC":
        return PolyC(self.n, {k: c * v for k, v in self.terms.items()})

    def __add__(self, other: "PolyC") -> "PolyC":
        if self.n != other.n:
            raise DimensionMismatch("polynomials live in different dimensions")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return PolyC(self.n, out)

    def __sub__(self, other: "PolyC") -> "PolyC":
        return self + other.scaled(-1.0)

    def __call__(self, z: np.ndarray):
        """Value at one point (n,), or values at a batch of points (q, n).

        Powers come from one table per coordinate, z_i^0 .. z_i^d_i by
        repeated multiplication, shared by every term.
        """
        pts, one = mx.as_points(z, self.n, "z")
        tops = np.max(list(self.terms), axis=0) if self.terms else [0] * self.n
        tables = [_power_table(pts[:, i], int(d)) for i, d in enumerate(tops)]
        total = _tabulated_sum(self.terms, tables, pts.shape[0])
        return complex(total[0]) if one else total

    def __repr__(self):  # pragma: no cover - debugging aid
        body = " + ".join(f"{v:.6g}*z^{k}" for k, v in sorted(self.terms.items()))
        return f"PolyC({body or '0'})"


@dataclass(frozen=True)
class GaussPoly:
    """A function z -> P(z) exp(-<z, M z>) with M complex symmetric."""

    poly: PolyC
    M: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", mx.frozen(self.M))
        if self.M.shape[0] != self.poly.n:
            raise DimensionMismatch("polynomial and exponent dimensions differ")

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


def _live(coef: np.ndarray) -> tuple[bool, ...]:
    """Per term (column) of a coefficient array, whether some row has it nonzero."""
    return tuple(np.logical_or.reduce(coef, axis=0).tolist())


def _raised_columns(basis: np.ndarray) -> np.ndarray:
    """Column of a + e_k in the graded basis for each row a of ``basis`` (a
    prefix of ``_basis_array``, in order) and each k: (rows, n).

    With N(j, s) = C(s + j - 1, j - 1) multi-indices of j entries and sum
    s, and r_i = a_i + .. + a_(n-1) (r_n = 0), a + e_k passes the N(n, |a|)
    of degree |a|; within its layer each position i < k adds
    N(j, r_i + 1) - N(j, r_(i+1) + 1) and position k adds N(j, r_k + 1),
    j = n - 1 - i entries after position i.  So no multi-index is looked up.
    """
    m, n = basis.shape
    r = np.cumsum(basis[:, ::-1], axis=1)[:, ::-1]
    top = int(r[:, 0].max())
    count = np.array([[math.comb(s + j - 1, j - 1) if j else int(s == 0) for s in range(top + 2)]
                      for j in range(n + 1)], dtype=np.intp)
    j = np.arange(n - 1, -1, -1)
    own = count[j, r + 1]
    passed = np.zeros((m, n), dtype=np.intp)
    np.cumsum(own[:, :-1] - count[j[:-1], r[:, 1:] + 1], axis=1, out=passed[:, 1:])
    return np.arange(m)[:, None] + count[n, r[:, :1]] + passed + own


@functools.lru_cache(maxsize=256)
def _kernel_plan(n: int, degree: int, live_g: tuple, live_h: tuple) -> tuple:
    """Gathers of ``_apply_block`` from a block over ``_basis(n, degree)``
    with the live derivative terms ``live_g`` and multiplication terms
    ``live_h``: the output width, the width its derivative terms reach,
    and per live term its index map and, for a derivative, its weights.

    Derivative term k gathers a + e_k -> a for |a| < degree, weighted by
    a_k + 1.  Multiplication term l gathers a - e_l -> a for every output
    column; a column with a_l = 0 reads a zero pad column appended to the
    block.  Both maps come from ``_raised_columns`` of the source basis.
    """
    wide = any(live_h)
    width = math.comb(n + degree, n)
    inner = math.comb(n + degree - 1, n) if degree else 0
    cols = math.comb(n + degree + 1, n) if wide else math.comb(n + max(degree - 1, 0), n)
    basis = _basis_array(n, degree if wide else max(degree - 1, 0))
    up = _raised_columns(basis)
    deriv = tuple((k, mx.frozen(up[:inner, k]), mx.frozen(basis[:inner, k] + 1.0))
                  for k, live in enumerate(live_g) if live and inner)
    mult = []
    for l, live in enumerate(live_h):
        if live:
            idx = np.full(cols, width)
            idx[up[:, l]] = np.arange(width)
            mult.append((l, mx.frozen(idx), None))
    return cols, inner, deriv, tuple(mult)


#: result entries per pass of ``_apply_block``'s term loop: rows are taken in
#: chunks of about this many entries, so that its buffers stay in cache
_KERNEL_CHUNK = 1 << 14


def _add_terms(acc: np.ndarray, planes: np.ndarray, terms, coef: np.ndarray):
    """acc += c * s for each (i, idx, w) of ``terms`` in order, on stacked
    (re, im) planes: s the columns ``idx`` of ``planes``, scaled by the
    weights ``w`` unless None, and c = coef[:, i].  Each product is rounded
    as Python's complex product (cr sr - ci si, cr si + ci sr), never as a
    fused multiply-add, before it is added; three buffers of the shape of
    ``acc`` serve every term."""
    s, t, u = np.empty((3, 2) + acc.shape[1:])
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
    """Row r of a coefficient block under the operator whose coefficients
    are row r of ``G`` and ``H`` (rows, n): sum_k G[r, k] d/dz_k +
    sum_l H[r, l] z_l, its exponent folded in (``_in_frame``).  A single
    row each, (n,), applies to every row of the block.

    ``block`` holds one function per row over ``_basis(n, degree)``.  The
    result is over the smallest graded basis its live terms reach:
    ``_basis(n, degree + 1)`` when a multiplication term is live in some
    row, else ``_basis(n, max(degree - 1, 0))`` (the folded lowering
    operators are pure derivatives).  The terms are added one by one in a
    fixed order, derivative terms g * (c * a_k) for k = 0..n-1, then
    multiplication terms h * c for l = 0..n-1, on the real and imaginary
    planes of the result, through index maps cached per (n, degree, live
    terms) (``_kernel_plan``).  A term whose coefficient is zero in every
    row is skipped; in the other rows a live term adds exact zeros to an
    accumulator that starts at +0.0, so a row's result does not depend on
    the rows around it.
    """
    rows, width = block.shape
    n = np.shape(G)[-1]
    g = np.ascontiguousarray(G, dtype=complex).reshape(-1, n)
    h = np.ascontiguousarray(H, dtype=complex).reshape(-1, n)
    cols, inner, deriv, mult = _kernel_plan(n, _degree_of(n, width), _live(g), _live(h))
    # the coefficients as (re, im) x n x rows views
    gt, ht = g.view(float).reshape(-1, n, 2).T, h.view(float).reshape(-1, n, 2).T
    out = np.empty((rows, cols), dtype=complex)
    step = max(1, _KERNEL_CHUNK // cols)
    for lo in range(0, rows, step):
        part = slice(lo, lo + step)
        own = part if len(g) > 1 else slice(None)  # a single row serves every row
        sub = block[part]
        planes = np.zeros((2, len(sub), width + 1))
        planes[0, :, :width] = sub.real
        planes[1, :, :width] = sub.imag
        acc = np.zeros((2, len(sub), cols))
        _add_terms(acc[:, :, :inner], planes, deriv, gt[..., own])
        _add_terms(acc, planes, mult, ht[..., own])
        out.real[part], out.imag[part] = acc
    return out


def _block_of(polys, degree: int) -> np.ndarray:
    """Coefficient block of ``polys`` over ``_basis(n, degree)``."""
    out = np.zeros((len(polys), len(_basis(polys[0].n, degree))), dtype=complex)
    col = _columns(polys[0].n, degree)
    for r, p in enumerate(polys):
        out[r, [col[a] for a in p.terms]] = list(p.terms.values())
    return out


def _padded(block: np.ndarray, n: int, degree: int) -> np.ndarray:
    """``block`` with zero columns appended up to ``_basis(n, degree)``."""
    out = np.zeros((block.shape[0], len(_basis(n, degree))), dtype=complex)
    out[:, : block.shape[1]] = block
    return out


def _gauss_polys(block: np.ndarray, M: np.ndarray) -> list[GaussPoly]:
    """One GaussPoly with exponent M per row of a block, holding the nonzero
    entries in column order."""
    n = M.shape[0]
    basis = _basis(n, _degree_of(n, block.shape[1]))
    out = []
    for row in block:
        nz = np.flatnonzero(row)
        poly = PolyC._clean(n, dict(zip([basis[j] for j in nz], row[nz].tolist())))
        out.append(GaussPoly(poly, M))
    return out


def apply_op(op: LinearDiffOp, i: int, gp: GaussPoly) -> GaussPoly:
    """Apply component i of a first-order operator to a Gaussian polynomial.

    The result keeps the same exponent matrix; the polynomial degree rises
    by at most one.  This is the one-row case of ``_apply_block``.
    """
    if op.n != gp.n:
        raise DimensionMismatch("operator and argument dimensions differ")
    i, op = _component(i, op.n), _in_frame(op, gp.M)
    out = _apply_block(op.G[i], op.H[i], _block_of([gp.poly], gp.poly.degree()))
    return _gauss_polys(out, gp.M)[0]


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


def _checked_basis(n: int, max_degree) -> tuple[tuple[int, ...], ...]:
    """``_basis(n, max_degree)`` for a degree from outside the engine, the one
    rule every public degree passes: a nonnegative integer, else ValueError."""
    if isinstance(max_degree, bool) or not isinstance(max_degree, Integral) or max_degree < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {max_degree!r}")
    return _basis(n, max_degree)


@functools.lru_cache(maxsize=128)
def _chain_plan(n: int, targets: tuple) -> tuple:
    """The chain of ``targets`` cut to their ancestors (alpha comes from
    alpha - e_i, i its first nonzero index): per degree layer d >= 1 in lex
    order, each member's i and its parent's row in layer d - 1; per layer,
    the target rows it holds and their rows within it."""
    need = {(0,) * n}
    for a in targets:
        while a not in need:
            need.add(a)
            i = next(k for k, e in enumerate(a) if e)
            a = a[:i] + (a[i] - 1,) + a[i + 1:]
    top = max(map(sum, targets), default=0)
    layers = [sorted(a for a in need if sum(a) == d) for d in range(top + 1)]
    rows = [{a: r for r, a in enumerate(layer)} for layer in layers]
    steps = []
    for d in range(1, top + 1):
        comps = [next(k for k, e in enumerate(a) if e) for a in layers[d]]
        parents = [rows[d - 1][a[:i] + (a[i] - 1,) + a[i + 1:]]
                   for a, i in zip(layers[d], comps)]
        steps.append((mx.frozen(comps, dtype=int), mx.frozen(parents, dtype=int)))
    degree = [sum(a) for a in targets]
    place = [(mx.frozen([t for t, e in enumerate(degree) if e == d], dtype=int),
              mx.frozen([rows[d][a] for a in targets if sum(a) == d], dtype=int))
             for d in range(top + 1)]
    return tuple(steps), tuple(place)


def _chain_rows(lanes, targets) -> np.ndarray:
    """op^alpha c0 for each lane (op, c0) of ``lanes``, ``op`` folded
    (``_in_frame``), and each alpha of ``targets`` (int tuples): one block
    per lane, one row per target over ``_basis(n, max |alpha|)``, stacked
    as (lanes, targets, columns).

    Layer d comes from layer d - 1 by one kernel call over the ancestors of
    the targets (``_chain_plan``) in every lane at once: each alpha applies
    the component at its first nonzero index to its parent; the components
    commute, so the path does not matter (tests assert it).  The kernel's
    rows do not depend on each other, so a row equals the same row of the
    full chain, and a lane the same lane chained alone, bit for bit, and
    the cost follows the targets.
    """
    n = lanes[0][0].n
    steps, place = _chain_plan(n, tuple(targets))
    G = np.stack([op.G for op, _ in lanes])
    H = np.stack([op.H for op, _ in lanes])
    layers = [np.array([c0 for _, c0 in lanes], dtype=complex).reshape(-1, 1, 1)]
    for comps, parents in steps:
        prev = layers[-1].take(parents, axis=1)
        size = prev.shape[0] * prev.shape[1]
        layer = _apply_block(G[:, comps].reshape(size, n), H[:, comps].reshape(size, n),
                             prev.reshape(size, -1))
        layers.append(layer.reshape(len(lanes), len(comps), -1))
    out = np.zeros((len(lanes), len(targets), len(_basis(n, len(steps)))), dtype=complex)
    for layer, (dest, src) in zip(layers, place):
        out[:, dest, : layer.shape[2]] = layer.take(src, axis=1)
    return out


def hermite_family(
    wd: WeightData, gen: GeneratorData, max_total_degree: int
) -> dict[tuple[int, ...], GaussPoly]:
    """All family members with |alpha| <= max_total_degree: the raising
    chain of the creation operators from the generator exp(-<z, Q z>)."""
    basis = _checked_basis(gen.n, max_total_degree)
    block = _chain_rows([(_in_frame(creation_ops(wd, gen), gen.Q), 1.0)], basis)[0]
    return dict(zip(basis, _gauss_polys(block, gen.Q)))


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


def _hamiltonian_block(gen: GeneratorData, ladder: tuple, block: np.ndarray) -> np.ndarray:
    """rho^2 + sum_i raise_i lower_i on every row of a block over
    ``_basis(n, degree)``, added rho^2 term first, then i = 0..n-1.  With the
    ladder of ``_frame_ladder`` lower_i is a pure derivative (a zero row at
    degree 0), so the result stays on the block's own basis."""
    low, high = ladder
    acc = _real_scaled(block, gen.rho2)
    for i in range(gen.n):
        lowered = _apply_block(low.G[i], low.H[i], block)
        acc += _apply_block(high.G[i], high.H[i], lowered)[:, : block.shape[1]]
    return acc


def hamiltonian_apply(wd: WeightData, gen: GeneratorData, gp: GaussPoly) -> GaussPoly:
    """Apply sum_i raise_i lower_i + rho^2 to a Gaussian polynomial.

    The argument must carry the generator exponent Q.
    """
    mx.require_same_exponent(gp.M, gen.Q, "the argument and the generator Q")
    out = _hamiltonian_block(gen, _frame_ladder(wd, gen), _block_of([gp.poly], gp.poly.degree()))
    return _gauss_polys(out, gp.M)[0]


def _adjoint_block(ladder: tuple, comps, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows f, g, lower_i f and raise_i g, with i = comps[r] for row r, of
    two blocks over ``_basis(n, degree)``: four blocks of rows stacked in
    that order over ``_basis(n, degree + 1)``, each padded to that width.
    lower_i f and raise_i g are one kernel call on [f; g]."""
    low, high = ladder
    n, degree = low.n, _degree_of(low.n, f.shape[1]) + 1
    comps = np.broadcast_to(comps, f.shape[:1])
    moved = _apply_block(np.concatenate([low.G[comps], high.G[comps]]),
                         np.concatenate([low.H[comps], high.H[comps]]), np.vstack([f, g]))
    return np.vstack([_padded(part, n, degree) for part in (f, g, moved)])


def _row_max_abs(block: np.ndarray) -> np.ndarray:
    """Largest |c| of each row, rounded as Python's abs() of a complex (hypot)."""
    return np.hypot(block.real, block.imag).max(axis=1)


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`coeff_distance` row by row on two blocks over the same
    columns: max |a - b| over the larger of the two row maxima."""
    top = np.maximum(_row_max_abs(a), _row_max_abs(b))
    return _row_max_abs(a - b) / np.maximum(top, 1e-300)


def evaluate(gp: GaussPoly, z) -> complex | np.ndarray:
    """Pointwise value P(z) exp(-<z, M z>), one per point of a batch."""
    pts, one = mx.as_points(z, gp.n, "z")
    vals = [gp.poly(p) * complex(np.exp(-p @ (gp.M @ p))) for p in pts]
    return vals[0] if one else np.array(vals)


def coeff_distance(a: GaussPoly, b: GaussPoly) -> tuple[float, float]:
    """Max coefficient difference and the larger of the two magnitudes.

    The exponent matrices must agree (``matrices.require_same_exponent``);
    relative closeness claims should divide the first value by the second.
    """
    mx.require_same_exponent(a.M, b.M, "the two arguments")
    d = max(a.poly.degree(), b.poly.degree())
    block = _block_of([a.poly, b.poly], d)
    return float(_row_max_abs(block[:1] - block[1:])[0]), float(_row_max_abs(block).max())
