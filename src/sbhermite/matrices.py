"""Complex-matrix predicates and small construction helpers.

Matrices are plain ``numpy.ndarray`` values of shape ``(n, n)``.  Every
predicate takes an explicit tolerance, and every ``require_*`` rule holds one
fixed for all callers, ``as_points`` that of points (real points stay real);
nothing here mutates its arguments.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, MExponentMismatch

#: relative tolerance within which two Gaussian exponent matrices agree
EXPONENT_TOL = 1e-12


def as_square(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_points(x, n: int, name: str, dtype=complex) -> tuple[np.ndarray, bool]:
    """The one rule for points: ``x`` is one point (n,) or a batch (q, n),
    returned as a batch with whether it was one point; DimensionMismatch if not.
    A nonzero imaginary part in real points (``dtype=float``) is a ValueError."""
    arr = np.asarray(x)
    if dtype is float and np.iscomplexobj(arr):
        if np.any(arr.imag):
            raise ValueError(f"{name} must be real points, got a nonzero imaginary part")
        arr = arr.real
    arr = np.asarray(arr, dtype=dtype)
    if arr.ndim not in (1, 2) or arr.shape[-1] != n:
        raise DimensionMismatch(f"{name} must have shape ({n},) or (q, {n}), got {arr.shape}")
    return arr.reshape(-1, n), arr.ndim == 1


def require_finite(a, name: str) -> None:
    """The one finite-input rule: ValueError naming ``a`` if any entry is
    NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")


def max_abs(a) -> float:
    """Largest |entry| of ``a`` as a float, 0.0 for an empty array."""
    arr = np.asarray(a)
    return float(np.abs(arr).max()) if arr.size else 0.0


def agree(a, b, tol: float) -> bool:
    """Equal shapes and max |a - b| <= tol max(1, max |a|, max |b|): the one agreement test."""
    return np.shape(a) == np.shape(b) and max_abs(a - b) <= tol * max(1.0, max_abs(a), max_abs(b))


def require_same_exponent(a, b, what: str) -> None:
    """The one rule for two Gaussian exponents: DimensionMismatch unless their
    shapes are equal, MExponentMismatch naming ``what`` was compared unless
    they ``agree`` at ``EXPONENT_TOL``."""
    if np.shape(a) != np.shape(b):
        raise DimensionMismatch(f"exponents of {what} have shapes {np.shape(a)} and {np.shape(b)}")
    if not agree(a, b, EXPONENT_TOL):
        raise MExponentMismatch(f"Gaussian exponents of {what} differ")


def is_symmetric(a, tol: float) -> bool:
    a = as_square(a)
    return max_abs(a - a.T) <= tol * max(1.0, max_abs(a))


def is_unitary(a, tol: float) -> bool:
    a = as_square(a)
    return max_abs(a @ a.conj().T - np.eye(a.shape[0])) <= tol


def frozen(a, dtype=None) -> np.ndarray:
    """Read-only contiguous copy, used for fields of immutable records."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def complex_coords(n: int) -> np.ndarray:
    """The 2n x 2n matrix T with (z, zbar) = T w in the real coordinates
    w = (x, y), z = x + iy; cached and read-only."""
    eye = np.eye(n)
    return frozen(np.block([[eye, 1j * eye], [eye, -1j * eye]]))


def lift(zz, zzbar, zbzb) -> np.ndarray:
    """Complex symmetric S (2n, 2n) with w^T S w = <z, zz z> + <z, zzbar zbar>
    + <zbar, zbzb zbar> in the real coordinates w = (x, y), z = x + iy."""
    n = zz.shape[0]
    t = complex_coords(n)
    blocks = np.zeros((2 * n, 2 * n), dtype=np.result_type(zz, zzbar, zbzb))
    blocks[:n, :n], blocks[:n, n:], blocks[n:, n:] = zz, zzbar, zbzb
    s = t.T @ blocks @ t
    return 0.5 * (s + s.T)


def real_quadratic_form(herm, sym) -> np.ndarray:
    """Real symmetric 2n x 2n matrix of a mixed complex quadratic form.

    Represents q(z) = <z, herm zbar> + Re <z, sym z> in the real
    coordinates w = (x, y) with z = x + iy, so that q(z) = w^T M w.
    ``herm`` must be Hermitian and ``sym`` complex symmetric.
    """
    herm = as_square(herm, "herm")
    sym = as_square(sym, "sym")
    if herm.shape != sym.shape:
        raise DimensionMismatch("herm and sym must share a shape")
    return lift(0.5 * sym, herm, 0.5 * sym.conj()).real


def random_complex(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    m = random_complex(n, rng)
    return 0.5 * (m + m.T)


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex matrix, resampled until |det| >= 0.1."""
    while True:
        m = random_complex(n, rng)
        if abs(np.linalg.det(m)) >= 0.1:
            return m


def random_diag_phases(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
