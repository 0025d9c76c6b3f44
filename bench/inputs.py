"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload seed:
random defining triples (drawn like ``sbhermite.model.random_phase_triple``,
so ill-conditioned draws and the checks they fail are kept), X phases,
golden-example parameters, evaluation points and test-function
coefficients.  Configs are written as schema ``v1`` JSON files; the worker
hands the program only those files and the arrays stored in
``inputs.json``.

A workload has ``SETS`` input sets.  Pass p of a run executes the
workload's fixed operation list on set p mod SETS, so one run averages the
seed-to-seed spread in work (pruned term counts vary with the
conditioning of each random triple) over several triples.

The closed forms below are independent of the program and serve as exact
references for the correctness gate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-deep", "verify-wide", "quadrature")

#: input sets per run; pass p uses set p mod SETS
SETS = 5

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])

# (name, n, max_degree) of the random-triple `verify` operations, then
# (example, max_degree) of the golden `example` operations.  Random n=1
# triples are left out: for about 7 % of them the pipeline's isometry stage
# raises FitFailure (README.md, "Known program defect"); n=1 is covered by
# the golden em family instead.
VERIFY_SIZES = {
    "verify-deep": ([("n2d10", 2, 10), ("n2d8", 2, 8), ("n3d4", 3, 4)], [("em", 12)]),
    "verify-wide": ([("n4d3", 4, 3), ("n3d3a", 3, 3), ("n3d3b", 3, 3), ("n2d3a", 2, 3),
                     ("n2d3b", 2, 3)], [("em", 3), ("ghs", 3)]),
}
TINY_VERIFY_SIZES = {
    "verify-deep": ([("n2d3", 2, 3)], [("em", 4)]),
    "verify-wide": ([("n2d2", 2, 2)], [("em", 2), ("ghs", 2)]),
}

# quadrature sizes: nodes per axis and point counts
QUAD_SIZES = {
    "kernel_nodes": 32, "kernel_points": 1,
    "inverse_nodes": 24, "inverse_points": 4,
    "batch_nodes": 32, "batch_points": 256,
    "em_nodes": 64, "em_points": 4, "cli_points": 4,
}
TINY_QUAD_SIZES = {
    "kernel_nodes": 16, "kernel_points": 1,
    "inverse_nodes": 24, "inverse_points": 1,
    "batch_nodes": 16, "batch_points": 8,
    "em_nodes": 64, "em_points": 1, "cli_points": 2,
}


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def encode_points(z) -> list:
    """Complex array as nested [re, im] pairs."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def decode_points(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def random_triple(n: int, rng: np.random.Generator):
    """Random valid (A, B, C): A complex symmetric, |det B| >= 0.1,
    C = C_R + i (W W^T + 0.1 E)."""

    def cplx():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    m = cplx()
    a = 0.5 * (m + m.T)
    while True:
        b = cplx()
        if abs(np.linalg.det(b)) >= 0.1:
            break
    w = rng.standard_normal((n, n))
    c_r = rng.standard_normal((n, n))
    c = 0.5 * (c_r + c_r.T) + 1j * (w @ w.T + 0.1 * np.eye(n))
    return a, b, c


def example_triple(name: str, s: float):
    """Golden example triples: ``em`` (n=1) and ``ghs`` (n=2)."""
    if name == "em":
        return (np.array([[1j / s]]), np.array([[1j * math.sqrt(1.0 - s * s)]]),
                np.array([[1j * s]]))
    eye = np.eye(2)
    a = (1j / (4.0 * s)) * ((1.0 - s * s) * eye + (1.0 + s * s) * SWAP2)
    return a, 1j * math.sqrt(1.0 - s * s) * eye, 2j * s * eye


def example_expected(name: str, s: float) -> dict:
    """Closed-form Q, S, rho^2 and mu^2 of the golden examples."""
    if name == "em":
        return {"Q": [[0.5]], "S": [[0.5]], "rho2": (1.0 - s) / (1.0 + s),
                "mu2": (1.0 - s) ** 3 / (4.0 * s * (1.0 + s))}
    return {"Q": (SWAP2 / 4.0).tolist(), "S": (SWAP2 / 4.0).tolist(),
            "rho2": (1.0 - s) / (2.0 * (1.0 + s)),
            "mu2": (1.0 - s) ** 3 / (8.0 * s * (1.0 + s))}


def ground_image(a, b, c):
    """Transform of the Hermite ground state h_0 in closed form.

    T h_0 (z) = c0 exp(-<z, M z>) with W = E - iC,
    M = B W^-1 B^T / 2 - iA/2 and
    c0 = c_phi pi^(-n/4) (2 pi)^(n/2) det(W)^(-1/2), the square root taken
    eigenvalue by eigenvalue on the principal branch (Re W = E > 0).
    Returns (c0, M).
    """
    n = a.shape[0]
    w = np.eye(n) - 1j * c
    m = 0.5 * b @ np.linalg.solve(w, b.T) - 0.5j * a
    c_phi = (2.0 ** (-n / 2.0) * math.pi ** (-0.75 * n) * abs(np.linalg.det(b))
             * float(np.linalg.det(c.imag)) ** -0.25)
    root_det = np.prod(np.sqrt(np.linalg.eigvals(w)))
    c0 = c_phi * math.pi ** (-n / 4.0) * (2.0 * math.pi) ** (n / 2.0) / root_det
    return complex(c0), 0.5 * (m + m.T)


def ground_state(x) -> np.ndarray:
    """h_0(x) = pi^(-n/4) exp(-|x|^2/2) on a batch (q, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return math.pi ** (-x.shape[1] / 4.0) * np.exp(-0.5 * np.sum(x * x, axis=1))


def gauss_poly_value(terms: dict, M, z) -> complex:
    """P(z) exp(-<z, M z>) for a dict of multi-index -> coefficient."""
    z = np.asarray(z, dtype=complex)
    poly = sum(c * np.prod(z ** np.asarray(alpha)) for alpha, c in terms.items())
    return complex(poly * np.exp(-z @ (np.asarray(M) @ z)))


def multi_indices(n: int, degree: int) -> list:
    out = []
    for d in range(degree + 1):
        out.extend(a for a in np.ndindex(*([d + 1] * n)) if sum(a) == d)
    return out


def _cplx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def v1_config(a, b, c, *, max_degree: int, seed: int, phases, rho_fraction=0.5,
              nodes=64) -> dict:
    return {
        "version": "v1",
        "n": int(a.shape[0]),
        "A": encode_matrix(a),
        "B": encode_matrix(b),
        "C": encode_matrix(c),
        "rho_fraction": rho_fraction,
        "X": {"phases": [float(p) for p in phases]},
        "max_degree": max_degree,
        "seed": seed,
        "quadrature": {"nodes": nodes},
    }


def _example_op(name: str, s: float, max_degree: int) -> dict:
    return {"kind": "example", "name": f"example-{name}", "example": name, "s": s,
            "max_degree": max_degree, "nodes": 64, "expected": example_expected(name, s)}


def _verify_set(workload: str, rng, tiny: bool, configs: dict, tag: str) -> dict:
    ops = []
    sizes, examples = (TINY_VERIFY_SIZES if tiny else VERIFY_SIZES)[workload]
    for name, n, deg in sizes:
        a, b, c = random_triple(n, rng)
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        key = f"{tag}-{name}"
        configs[key] = v1_config(a, b, c, max_degree=deg, phases=phases,
                                 seed=int(rng.integers(0, 2**31)))
        ops.append({"kind": "verify", "name": name, "config": key})
    for ex, deg in examples:
        ops.append(_example_op(ex, float(rng.uniform(0.3, 0.7)), deg))
    return {"ops": ops}


def _quadrature_set(rng, tiny: bool, configs: dict, tag: str) -> dict:
    q = TINY_QUAD_SIZES if tiny else QUAD_SIZES
    s_ghs = float(rng.uniform(0.3, 0.7))
    s_em = float(rng.uniform(0.3, 0.7))
    a2, b2, c2 = example_triple("ghs", s_ghs)
    a1, b1, c1 = example_triple("em", s_em)
    configs[f"{tag}-ghs"] = v1_config(a2, b2, c2, max_degree=3, phases=[0.0, 0.0],
                                      seed=0, nodes=q["kernel_nodes"])
    configs[f"{tag}-em"] = v1_config(a1, b1, c1, max_degree=3, phases=[0.0], seed=0,
                                     nodes=q["em_nodes"])
    kernel_terms = [[list(al), [float(v.real), float(v.imag)]]
                    for al, v in zip(multi_indices(2, 3), _cplx(rng, 10))]
    batch_terms = [[list(al), [float(v.real), float(v.imag)]]
                   for al, v in zip(multi_indices(2, 2), _cplx(rng, 6))]
    em_terms = [[[k], [float(v.real), float(v.imag)]]
                for k, v in enumerate(_cplx(rng, 4))]
    kappa = complex(_cplx(rng, ()))
    return {
        "ghs_config": f"{tag}-ghs",
        "em_config": f"{tag}-em",
        "s_ghs": s_ghs,
        "s_em": s_em,
        "ops": [_example_op("em", s_em, 3)],
        "kernel": {"nodes": q["kernel_nodes"], "terms": kernel_terms,
                   "Q": (SWAP2 / 4.0).tolist(),
                   "z": encode_points(_cplx(rng, (q["kernel_points"], 2), 0.5))},
        "inverse": {"nodes": q["inverse_nodes"], "kappa": [kappa.real, kappa.imag],
                    "x": rng.normal(0.0, 0.7, (q["inverse_points"], 2)).tolist()},
        "batch": {"nodes": q["batch_nodes"], "terms": batch_terms,
                  "z": encode_points(_cplx(rng, (q["batch_points"], 2), 0.5))},
        "em": {"nodes": q["em_nodes"], "terms": em_terms,
               "x": rng.normal(0.0, 1.0, q["em_points"]).tolist()},
        "cli": {"nodes": q["em_nodes"],
                "z": encode_points(_cplx(rng, (q["cli_points"], 1), 0.5))},
    }


def make_inputs(workload: str, seed: int, directory: Path, tiny: bool = False) -> Path:
    """Write every config plus ``inputs.json`` into ``directory``; return
    the path of ``inputs.json``.  The same seed gives the same files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    configs: dict = {}
    sets = []
    for j in range(SETS):
        tag = f"set{j}"
        if workload == "quadrature":
            sets.append(_quadrature_set(rng, tiny, configs, tag))
        else:
            sets.append(_verify_set(workload, rng, tiny, configs, tag))
    paths = {}
    for key, cfg in configs.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        paths[key] = str(path)
    first = sets[0]["ghs_config"] if workload == "quadrature" else sets[0]["ops"][0]["config"]
    spec = {"workload": workload, "seed": int(seed), "tiny": tiny, "configs": paths,
            "first_config": paths[first], "sets": sets}
    out = directory / "inputs.json"
    out.write_text(json.dumps(spec), encoding="utf-8")
    return out
