"""Shared construction helpers for the test suite."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sbhermite as sb

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])
BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(sb.__file__).resolve().parents[1]


def fresh_python(script: str, *argv):
    """The JSON line that ``script`` prints last, run with ``argv`` in a
    fresh interpreter that imports the package from the same source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def bench_module(name: str):
    """A module of the benchmark harness (``bench/<name>.py``), loaded by
    path so that the tests use it exactly as the harness does."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bargmann_triple(n: int = 1) -> sb.PhaseTriple:
    eye = np.eye(n)
    return sb.validate_phase_triple(0.5j * eye, -1j * eye, 1j * eye)


def bargmann_data(rho2: float = 3.0 / 16.0):
    """Standard triple with the solver basis (U = 1) and X = 1."""
    pt = bargmann_triple(1)
    wd = sb.compute_weight_data(pt)
    gen = sb.build_generator(wd, math.sqrt(rho2), np.eye(1))
    return pt, wd, gen


def em_data(s: float):
    """One-dimensional example family with its canonical (U, X, rho)."""
    a, b, c = sb.example_triple("em", s)
    pt = sb.validate_phase_triple(a, b, c)
    wd = sb.with_unitary(sb.compute_weight_data(pt), [[1j]])
    gen = sb.build_generator(wd, math.sqrt((1.0 - s) / (1.0 + s)), np.eye(1))
    return pt, wd, gen


def ghs_data(s: float):
    """Two-dimensional example family with its canonical (U, X, rho)."""
    a, b, c = sb.example_triple("ghs", s)
    pt = sb.validate_phase_triple(a, b, c)
    wd = sb.with_unitary(sb.compute_weight_data(pt), 1j * np.eye(2))
    gen = sb.build_generator(wd, math.sqrt((1.0 - s) / (2.0 * (1.0 + s))), SWAP2)
    return pt, wd, gen


def ground_image(pt: sb.PhaseTriple):
    """Closed form T h_0 (z) = c0 exp(-<z, M z>) of the transformed Hermite
    ground state h_0 = pi^(-n/4) exp(-|x|^2/2); returns (c0, M).

    With W = E - iC: M = B W^-1 B^T / 2 - iA/2 and
    c0 = c_phi pi^(-n/4) (2 pi)^(n/2) det(W)^(-1/2).  The Hermitian part of W
    is E + Im C > 0, so every eigenvalue of W has positive real part, and
    det(W)^(1/2), continued from W = E where the Gaussian integral is real,
    is the product of their principal roots for every n (for n >= 3 this
    need not be the principal root of det(W) itself).
    """
    n = pt.n
    w = np.eye(n) - 1j * pt.C
    m = 0.5 * pt.B @ np.linalg.solve(w, pt.B.T) - 0.5j * pt.A
    c0 = pt.c_phi * math.pi ** (-n / 4.0) * (2.0 * math.pi) ** (n / 2.0) / eigenvalue_root_det(w)
    return complex(c0), 0.5 * (m + m.T)


def eigenvalue_root_det(w) -> complex:
    """det(W)^(1/2) as the product of the principal roots of the
    eigenvalues of W, continued from W = E when the Hermitian part of W is
    positive definite (then every eigenvalue has positive real part)."""
    return complex(np.prod(np.sqrt(np.linalg.eigvals(w))))


def continued_root_det(P, dps: int = 40) -> complex:
    """Oracle for ``transform._root_det``: det(Re P + i t Im P)^(1/2) at
    t = 1, continued from the positive root at t = 0 through mpmath
    determinants at ``dps`` digits.  Of the two roots at each step the one
    nearer the last is kept, and a step is halved until the root moves by
    less than a quarter of its size, so the nearer root is the continuation."""
    import mpmath

    with mpmath.workdps(dps):
        re_p, im_p = mpmath.matrix(P.real.tolist()), mpmath.matrix(P.imag.tolist())
        t, step = mpmath.mpf(0), mpmath.mpf(1) / 16
        root = mpmath.sqrt(mpmath.det(re_p))
        while t < 1:
            step = min(step, 1 - t)
            new = mpmath.sqrt(mpmath.det(re_p + mpmath.mpc(0, t + step) * im_p))
            new = new if abs(new - root) <= abs(new + root) else -new
            if abs(new - root) > abs(root) / 4:
                step /= 2
                continue
            t, root, step = t + step, new, 2 * step
        return complex(root)


def mp_generator(wd: sb.WeightData, rho: float, X, dps: int = 50) -> dict:
    """Oracle for ``build_generator``: Q, S, xi_coeff and mu at ``dps``
    digits from the float weight data, rounded to float.  U and lambda come
    from ``mpmath.eigh`` of the float phi_zzbar, ascending, each column of
    U turned by the phase that aligns it to the same column of ``wd.U`` (an
    eigenbasis is unique only up to those phases, and X acts in ``wd.U``'s);
    then mu = sqrt(lambda^2 - rho^2),
    Q = -phi_zz + U diag(mu) X diag(lambda) U^T,
    S = phi_zz - U diag(lambda^2 / mu) X diag(lambda) U^T and
    xi = conj(U) diag(mu) conj(X) diag(1/lambda) U^H."""
    import mpmath

    n = wd.n
    with mpmath.workdps(dps):
        lam2, u = mpmath.eigh(mpmath.matrix(wd.phi_zzbar.tolist()))
        order = sorted(range(n), key=lambda k: lam2[k])
        u = mpmath.matrix([[u[i, k] for k in order] for i in range(n)])
        for j in range(n):
            inner = mpmath.fsum(mpmath.conj(u[i, j]) * complex(wd.U[i, j]) for i in range(n))
            for i in range(n):
                u[i, j] *= inner / abs(inner)
        lam = [mpmath.sqrt(lam2[k]) for k in order]
        mu = [mpmath.sqrt(v * v - mpmath.mpf(rho) ** 2) for v in lam]
        x = mpmath.matrix(np.asarray(X, dtype=complex).tolist())
        phi_zz = mpmath.matrix(wd.phi_zz.tolist())
        lam_x = x * mpmath.diag(lam)
        q = -phi_zz + u * mpmath.diag(mu) * lam_x * u.T
        s = phi_zz - u * mpmath.diag([v * v / m for v, m in zip(lam, mu)]) * lam_x * u.T
        xi = (u.apply(mpmath.conj) * mpmath.diag(mu) * x.apply(mpmath.conj)
              * mpmath.diag([1 / v for v in lam]) * u.H)
        out = {name: np.array(m.tolist(), dtype=complex)
               for name, m in (("Q", q), ("S", s), ("xi_coeff", xi))}
        out["mu"] = np.array([float(v) for v in mu])
    return out


def mp_frame(wd: sb.WeightData, M, dps: int = 50) -> dict:
    """Oracle for the frame of ``make_moment_cache(wd, M)``: L, C and the
    normalizer at ``dps`` digits from the float phi blocks and exponent,
    rounded to float.  With K = phi_zz + M and T the map (x, y) -> (z, zbar),
    M_R = 2 Re T^T [[K/2, phi_zzbar], [0, conj(K)/2]] T, symmetrized, so
    that -w^T M_R w is the combined exponent; the normalizer is
    pi^n / prod diag chol(M_R); the covariance (2 M_R)^-1 of w gives
    E[z zbar^T] and E[z z^T] as blocks of T (2 M_R)^-1 T^T, and then
    L = chol(E[z zbar^T]), C = L^-1 E[z z^T] L^-T."""
    import mpmath

    n = wd.n
    with mpmath.workdps(dps):
        def mp(a):
            return mpmath.matrix(np.asarray(a, dtype=complex).tolist())

        k = mp(wd.phi_zz) + mp(M)
        t = mpmath.zeros(2 * n)
        blocks = mpmath.zeros(2 * n)
        for i in range(n):
            t[i, i], t[i, n + i], t[n + i, i], t[n + i, n + i] = 1, 1j, 1, -1j
            for j in range(n):
                blocks[i, j] = k[i, j] / 2
                blocks[i, n + j] = wd.phi_zzbar[i, j]
                blocks[n + i, n + j] = mpmath.conj(k[i, j]) / 2
        s = t.T * blocks * t
        m_r = (s + s.T).apply(mpmath.re)
        factor = mpmath.cholesky(m_r)
        normalizer = mpmath.pi**n / mpmath.fprod(factor[i, i] for i in range(2 * n))
        zcov = t * mpmath.inverse(2 * m_r) * t.T
        herm = mpmath.matrix([[zcov[i, n + j] for j in range(n)] for i in range(n)])
        chol = mpmath.cholesky((herm + herm.H) / 2)
        p = mpmath.inverse(chol)
        c = p * mpmath.matrix([[zcov[i, j] for j in range(n)] for i in range(n)]) * p.T
        return {"L": np.array(chol.tolist(), dtype=complex),
                "C": np.array(((c + c.T) / 2).tolist(), dtype=complex),
                "normalizer": float(normalizer)}


def hermite_images(pt: sb.PhaseTriple, max_degree: int) -> dict:
    """The exact transforms T h_alpha, |alpha| <= max_degree, keyed by
    alpha, each the ``transform_image`` of its Hermite function."""
    return {alpha: sb.transform_image(pt, sb.TestFunction.hermite_basis(alpha))
            for alpha in sb.multi_indices(pt.n, max_degree)}


def ground_state(x) -> np.ndarray:
    """h_0(x) = pi^(-n/4) exp(-|x|^2/2) on a batch (q, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return math.pi ** (-x.shape[1] / 4.0) * np.exp(-0.5 * np.sum(x * x, axis=1))


def random_poly(n: int, degree: int, M, rng) -> sb.GaussPoly:
    terms = {
        alpha: complex(rng.standard_normal(), rng.standard_normal())
        for alpha in sb.multi_indices(n, degree)
    }
    return sb.GaussPoly(sb.PolyC(n, terms), M)


def brute_force_gauss_hermite(P, b, c, integrand, nodes, basis=None):
    """Integrals over R^d of integrand(w @ basis) exp(-w^T P w + b_r . w + c_r)
    by the tensor ``nodes``-point Gauss-Hermite sum taken point by point:
    the integrand and one exp at every point of the full nodes^d grid
    w = w_r + t @ L^-1 of the Cholesky window L L^T = Re P, centered at
    w_r = (2 Re P)^-1 Re b_r.  One row per row of ``b`` (rows, d) and ``c``;
    ``basis`` (d, m) defaults to the identity, and
    ``complex_coords(n)[:n].T`` hands the integrand points of C^n.
    Returns the sums and the sums of the terms' absolute values, the scale
    of their rounding error: oscillating kernels cancel by up to 1e3."""
    dim = P.shape[0]
    basis = np.eye(dim) if basis is None else basis
    chol = np.linalg.cholesky(P.real)
    li = np.linalg.inv(chol)
    t, wt = np.polynomial.hermite.hermgauss(nodes)
    grid = np.stack([g.ravel() for g in np.meshgrid(*([t] * dim), indexing="ij")], axis=1)
    weights = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([wt] * dim), indexing="ij")], axis=1), axis=1
    )
    sums, masses = [], []
    for b_r, c_r in zip(b, c):
        w_c = np.linalg.solve(2.0 * P.real, b_r.real)
        w = w_c + grid @ li
        expo = -np.einsum("qi,ij,qj->q", w, P, w) + w @ b_r + c_r + np.sum(grid * grid, axis=1)
        terms = weights * np.exp(expo) * integrand(w @ basis)
        sums.append(np.sum(terms))
        masses.append(np.sum(np.abs(terms)))
    scale = np.prod(np.diag(chol))
    return np.array(sums) / scale, np.array(masses) / scale


def assert_gp_close(a: sb.GaussPoly, b: sb.GaussPoly, rtol: float, msg: str = ""):
    diff, scale = sb.coeff_distance(a, b)
    assert diff <= rtol * max(scale, 1e-300), f"{msg}: {diff:.3e} > {rtol:.1e} * {scale:.3e}"


def reference_coeff_distance(a: sb.GaussPoly, b: sb.GaussPoly) -> tuple[float, float]:
    """Dict oracle for ``coeff_distance``: the largest |a_k - b_k| over the
    union of the two supports, and the larger of the two largest |c|."""
    ta, tb = a.poly.terms, b.poly.terms
    diff = max((abs(ta.get(k, 0.0) - tb.get(k, 0.0)) for k in {*ta, *tb}), default=0.0)
    top = max((abs(c) for c in [*ta.values(), *tb.values()]), default=0.0)
    return diff, top


def reference_apply_op(op: sb.LinearDiffOp, i: int, gp: sb.GaussPoly) -> sb.GaussPoly:
    """Term-by-term oracle for component i of a first-order operator.

    d/dz_k z^a = a_k z^(a - e_k) and z_l z^a = z^(a + e_l), with weights
    G[i, k] and H[i, l] - 2 (G M)[i, l], added into one dict in the order
    k = 0..n-1, then l = 0..n-1, every term kept.  Test-only: the library
    applies operators to whole coefficient blocks.
    """
    h_eff = op.H - 2.0 * op.G @ gp.M
    out = {}
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
    return sb.GaussPoly(sb.PolyC(gp.n, out), gp.M)


def wick_moment(mc: sb.MomentCache, beta) -> float:
    """Oracle: the centered Gaussian moment E[w^beta] under the real
    covariance of a moment cache, w = (Re z, Im z), from the Isserlis
    recursion memoized in the cache's ``memo`` (the benchmark tracer counts
    its entries)."""
    return _isserlis(mc.covariance.tolist(), mc.memo, tuple(int(b) for b in beta))


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


def reference_moments(zcov, monos, cap: int) -> np.ndarray:
    """Per-entry oracle for the complex moment matrix over ``monos``.

    Entry (i, j) is E[z^a zbar^b], a = monos[i], b = monos[j], from the
    memoized Isserlis recursion on the concatenated index a + b with the
    bilinear covariance ``zcov`` of (z, zbar); entries whose total degree
    passes ``cap`` are NaN.  ``zcov`` may hold mpmath numbers, which the
    recursion then keeps.  Test-only: the library fills whole degree layers
    of the matrix at once.
    """
    cov = zcov.tolist() if isinstance(zcov, np.ndarray) else zcov
    memo: dict = {}
    m = len(monos)
    out = np.full((m, m), np.nan, dtype=object)
    for j in range(m):
        for i in range(j + 1):
            if sum(monos[i]) + sum(monos[j]) <= cap:
                val = _isserlis(cov, memo, tuple(monos[i]) + tuple(monos[j]))
                out[i, j] = val
                out[j, i] = val.conjugate()
    return out


def reference_basis(n: int, degree: int) -> list[tuple[int, ...]]:
    """Loop oracle for the graded lex basis |alpha| <= degree: every tuple
    of n entries with sum <= degree, grown entry by entry, sorted by
    (degree, alpha).  Only the C(n + degree, n) members are built, not the
    (degree + 1)^n tensor product, so n = 8 at degree 12 is in reach."""
    rows = [()]
    for _ in range(n):
        rows = [a + (e,) for a in rows for e in range(degree + 1 - sum(a))]
    return sorted(rows, key=lambda a: (sum(a), a))


def reference_kernel_plan(n: int, degree: int) -> tuple:
    """Loop oracle for ``gausspoly._kernel_plan``: the same tuple, built by
    looking every shifted multi-index up in a dict of columns."""
    col = {a: k for k, a in enumerate(reference_basis(n, degree))}
    inner = reference_basis(n, degree - 1) if degree else []
    out = reference_basis(n, degree + 1)
    deriv = tuple(
        (k, np.array([col[a[:k] + (a[k] + 1,) + a[k + 1:]] for a in inner], dtype=int),
         np.array([a[k] + 1.0 for a in inner]))
        for k in range(n) if inner)
    mult = tuple(
        (l, np.array([col[a[:l] + (a[l] - 1,) + a[l + 1:]] if a[l] else len(col)
                      for a in out], dtype=int), None)
        for l in range(n))
    return len(out), len(inner), deriv, mult


def reference_chain_plan(n: int, targets) -> tuple:
    """Set and dict oracle for ``gausspoly._chain_plan``: the same steps and
    places, from the ancestors of the targets (int tuples) walked one by
    one down their first-index paths into a set, sorted into degree layers
    and looked up in one dict of rows per layer."""
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
        steps.append((np.array(comps, dtype=int), np.array(parents, dtype=int)))
    degree = [sum(a) for a in targets]
    place = [(np.array([t for t, e in enumerate(degree) if e == d], dtype=int),
              np.array([rows[d][a] for a in targets if sum(a) == d], dtype=int))
             for d in range(top + 1)]
    return tuple(steps), tuple(place)


def reference_factorials(n: int, degree: int) -> np.ndarray:
    """Loop oracle for ``integrals._factorials``: alpha! per multi-index of
    the graded basis, the exact integer product rounded once to float."""
    return np.array([float(math.prod(math.factorial(e) for e in a))
                     for a in reference_basis(n, degree)])
