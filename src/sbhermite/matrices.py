"""Complex-matrix predicates and small construction helpers.

Matrices are plain ``numpy.ndarray`` values of shape ``(n, n)``.  Every
predicate takes an explicit tolerance; nothing here mutates its arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def as_square(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def max_abs(a) -> float:
    arr = np.asarray(a)
    return 0.0 if arr.size == 0 else float(np.max(np.abs(arr)))


def is_symmetric(a, tol: float) -> bool:
    a = as_square(a)
    return max_abs(a - a.T) <= tol * max(1.0, max_abs(a))


def is_hermitian(a, tol: float) -> bool:
    a = as_square(a)
    return max_abs(a - a.conj().T) <= tol * max(1.0, max_abs(a))


def is_unitary(a, tol: float) -> bool:
    a = as_square(a)
    return max_abs(a @ a.conj().T - np.eye(a.shape[0])) <= tol


def frozen(a, dtype=None) -> np.ndarray:
    """Read-only contiguous copy, used for fields of immutable records."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def complex_coords(n: int) -> np.ndarray:
    """The 2n x 2n matrix T with (z, zbar) = T w in the real coordinates
    w = (x, y), z = x + iy."""
    eye = np.eye(n)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]])


def lift(zz, zzbar, zbzb) -> np.ndarray:
    """Complex symmetric S (2n, 2n) with w^T S w = <z, zz z> + <z, zzbar zbar>
    + <zbar, zbzb zbar> in the real coordinates w = (x, y), z = x + iy."""
    t = complex_coords(zz.shape[0])
    s = t.T @ np.block([[zz, zzbar], [np.zeros_like(zzbar), zbzb]]) @ t
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


def random_complex(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_symmetric(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = random_complex(n, rng, scale)
    return 0.5 * (m + m.T)


def random_invertible(n: int, rng: np.random.Generator, min_det: float = 0.1) -> np.ndarray:
    """Random complex matrix, resampled until |det| >= min_det."""
    while True:
        m = random_complex(n, rng)
        if abs(np.linalg.det(m)) >= min_det:
            return m


def random_diag_phases(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
