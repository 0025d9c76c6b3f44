"""Sparse complex polynomials times Gaussian factors and their operator algebra.

Everything here manipulates functions of the form P(z) exp(-<z, M z>) with
P sparse over multi-indices and M complex symmetric.  First-order operators
G d/dz + H z keep that class closed: a derivative pulls 2 (M z)_k down into
the polynomial factor, so application is exact apart from rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import DimensionMismatch, MExponentMismatch
from .model import GeneratorData, WeightData

#: relative magnitude below which polynomial coefficients are dropped
PRUNE_REL = 1e-14


def multi_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_degree in graded lex order."""
    out: list[tuple[int, ...]] = []
    for d in range(max_degree + 1):
        out.extend(
            t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d
        )
    return out


def mi_factorial(alpha) -> float:
    """alpha! as a float (exact integer arithmetic underneath)."""
    return float(math.prod(math.factorial(int(a)) for a in alpha))


def _pruned_terms(terms: dict, rel: float = PRUNE_REL) -> dict:
    """Terms of magnitude at least ``rel`` times the largest; zeros go too."""
    top = max((abs(v) for v in terms.values()), default=0.0)
    if top == 0.0:
        return {}
    cut = rel * top
    return {k: v for k, v in terms.items() if abs(v) >= cut}


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

    Zero coefficients are never stored.  Instances are treated as immutable;
    all arithmetic returns new objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = int(n)
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for k, v in terms.items():
                v = complex(v)
                if v != 0:
                    self.terms[tuple(int(e) for e in k)] = v

    @classmethod
    def _clean(cls, n: int, terms: dict) -> "PolyC":
        """Wrap a dict whose keys are int tuples and values nonzero complex."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def constant(cls, n: int, value: complex = 1.0) -> "PolyC":
        return cls(n, {(0,) * n: value})

    @classmethod
    def monomial(cls, alpha, coeff: complex = 1.0) -> "PolyC":
        alpha = tuple(int(a) for a in alpha)
        return cls(len(alpha), {alpha: coeff})

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)

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

    def pruned(self, rel: float = PRUNE_REL) -> "PolyC":
        return PolyC._clean(self.n, _pruned_terms(self.terms, rel))

    def distance(self, other: "PolyC") -> float:
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
            default=0.0,
        )

    def __call__(self, z: np.ndarray):
        """Value at one point (n,), or values at a batch of points (q, n).

        Powers come from one table per coordinate, z_i^0 .. z_i^d_i by
        repeated multiplication, shared by every term.
        """
        z = np.asarray(z, dtype=complex)
        pts = z.reshape(-1, self.n)
        tops = np.max(list(self.terms), axis=0) if self.terms else [0] * self.n
        tables = [_power_table(pts[:, i], int(d)) for i, d in enumerate(tops)]
        total = _tabulated_sum(self.terms, tables, pts.shape[0])
        return complex(total[0]) if z.ndim < 2 else total

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

    def max_abs(self) -> float:
        return self.poly.max_abs()

    def scaled(self, c: complex) -> "GaussPoly":
        return GaussPoly(self.poly.scaled(c), self.M)

    def _check_same_exponent(self, other: "GaussPoly"):
        scale = max(1.0, mx.max_abs(self.M), mx.max_abs(other.M))
        if mx.max_abs(self.M - other.M) > 1e-12 * scale:
            raise MExponentMismatch("Gaussian exponents differ")

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        self._check_same_exponent(other)
        return GaussPoly(self.poly + other.poly, self.M)

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        self._check_same_exponent(other)
        return GaussPoly(self.poly - other.poly, self.M)


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


def apply_op(op: LinearDiffOp, i: int, gp: GaussPoly) -> GaussPoly:
    """Apply component i of a first-order operator to a Gaussian polynomial.

    The result keeps the same exponent matrix; the polynomial degree rises
    by at most one.
    """
    if op.n != gp.n:
        raise DimensionMismatch("operator and argument dimensions differ")
    # d/dz_k (P e^{-<z,Mz>}) = (dP/dz_k - 2 (M z)_k P) e^{-<z,Mz>}
    h_eff = op.H - 2.0 * op.G @ gp.M
    out: dict[tuple[int, ...], complex] = {}
    for k in range(gp.n):
        g = complex(op.G[i, k])
        if g != 0:
            for mono, c in gp.poly.terms.items():
                if mono[k] > 0:
                    key = mono[:k] + (mono[k] - 1,) + mono[k + 1:]
                    out[key] = out.get(key, 0.0) + g * (c * mono[k])
    for l in range(gp.n):
        h = complex(h_eff[i, l])
        if h != 0:
            for mono, c in gp.poly.terms.items():
                key = mono[:l] + (mono[l] + 1,) + mono[l + 1:]
                out[key] = out.get(key, 0.0) + h * c
    return GaussPoly(PolyC._clean(gp.n, _pruned_terms(out)), gp.M)


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


def ground_state(gen: GeneratorData) -> GaussPoly:
    """The generator exp(-<z, Q z>)."""
    return GaussPoly(PolyC.constant(gen.n, 1.0), gen.Q)


def hermite_family(
    wd: WeightData, gen: GeneratorData, max_total_degree: int
) -> dict[tuple[int, ...], GaussPoly]:
    """All family members with |alpha| <= max_total_degree.

    Each member is produced from an already-built one by a single raising
    application on the first nonzero index; the raising operators commute,
    so the path does not matter (and tests assert that it does not).
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    cre = creation_ops(wd, gen)
    family: dict[tuple[int, ...], GaussPoly] = {}
    for alpha in multi_indices(wd.n, max_total_degree):
        if sum(alpha) == 0:
            family[alpha] = ground_state(gen)
            continue
        i = next(idx for idx, a in enumerate(alpha) if a > 0)
        parent = list(alpha)
        parent[i] -= 1
        family[alpha] = apply_op(cre, i, family[tuple(parent)])
    return family


def rodrigues(wd: WeightData, gen: GeneratorData, alpha) -> GaussPoly:
    """Family member via the closed form
    e^{<z,Sz>} Xi^alpha e^{-<z,(S+Q)z>}.

    Xi^alpha is applied symbolically to 1 * exp(-<z,(S+Q)z>); the final
    multiplication by e^{<z,Sz>} is exact exponent arithmetic (subtract S
    from the exponent matrix), never a numeric evaluation.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != gen.n:
        raise DimensionMismatch("alpha has the wrong length")
    xi = xi_ops(gen)
    gp = GaussPoly(PolyC.constant(gen.n, 1.0), gen.SQ)
    for i, count in enumerate(alpha):
        for _ in range(count):
            gp = apply_op(xi, i, gp)
    return GaussPoly(gp.poly, gp.M - gen.S)


def hamiltonian_apply(wd: WeightData, gen: GeneratorData, gp: GaussPoly) -> GaussPoly:
    """Apply sum_i raise_i lower_i + rho^2 to a Gaussian polynomial.

    The argument must carry the generator exponent Q.
    """
    scale = max(1.0, mx.max_abs(gen.Q))
    if mx.max_abs(gp.M - gen.Q) > 1e-12 * scale:
        raise MExponentMismatch("argument exponent differs from the generator Q")
    low = annihilation_ops(gen.Q)
    high = creation_ops(wd, gen)
    # one dict for rho^2 gp + sum_i raise_i lower_i gp, added in that order
    acc = {k: gen.rho2 * v for k, v in gp.poly.terms.items()}
    for i in range(gen.n):
        for k, v in apply_op(high, i, apply_op(low, i, gp)).poly.terms.items():
            acc[k] = acc.get(k, 0.0) + v
    return GaussPoly(PolyC(gp.n, acc), gp.M)


def evaluate(gp: GaussPoly, z) -> complex:
    """Pointwise value P(z) exp(-<z, M z>)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != gp.n:
        raise DimensionMismatch("point has the wrong dimension")
    return gp.poly(z) * complex(np.exp(-z @ (gp.M @ z)))


def coeff_distance(a: GaussPoly, b: GaussPoly) -> tuple[float, float]:
    """Max coefficient difference and the larger of the two magnitudes.

    The exponent matrices must agree to machine scale; relative closeness
    claims should divide the first value by the second.
    """
    a._check_same_exponent(b)
    return a.poly.distance(b.poly), max(a.max_abs(), b.max_abs())
