"""Run configuration, verification pipeline, and machine-readable reports.

A run parses a config, constructs the generator, then measures every
verifiable identity as a named residual with a named tolerance.  Reports
are deterministic for a fixed config and seed, timings aside.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .errors import ConfigError
from .gausspoly import (
    GaussPoly,
    PolyC,
    coeff_distance,
    hamiltonian_apply,
    hermite_family,
    mi_factorial,
    multi_indices,
    rodrigues,
)
from .integrals import (
    adjoint_residual,
    expand_in_family,
    gram_matrix,
    hphi_norm,
    make_moment_cache,
)
from .model import (
    build_generator,
    ccr_matrix,
    compute_weight_data,
    condition1_margin,
    eq2202_residual,
    sq_closed_form_residual,
    validate_phase_triple,
)
from .transform import QuadSpec, TestFunction, isometry_residual

SCHEMA_VERSION = "v1"
ENV_PROFILE = "SBHERMITE_TOL_PROFILE"

DEFAULT_TOLERANCES = {
    "ccr": 1e-10,
    "eq2202": 1e-10,
    "symmetry_Q": 1e-10,
    "symmetry_S": 1e-10,
    "sq_closed_form": 1e-10,
    "condition1_slack": 1e-12,
    "gram": 1e-8,
    "eigen": 1e-9,
    "rodrigues": 1e-9,
    "adjoint": 1e-8,
    "completeness": 1e-8,
    "isometry": 1e-3,
    "golden": 1e-12,
}

TOLERANCE_PROFILES = {
    "default": {},
    "strict": {"ccr": 1e-12, "eq2202": 1e-12, "gram": 1e-10, "adjoint": 1e-10},
    "loose": {"ccr": 1e-8, "eq2202": 1e-8, "gram": 1e-6, "eigen": 1e-7,
              "rodrigues": 1e-7, "adjoint": 1e-6, "completeness": 1e-6},
}


class StageFailure(RuntimeError):
    """A pipeline stage raised; carries the stage name and the partial
    report of the run (residuals, verdicts and timings so far)."""

    def __init__(self, stage: str, cause: Exception, report: "VerificationReport"):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
        self.report = report


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _parse_complex(value, path: str) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "complex entries must be [re, im] pairs",
    )
    re_, im_ = value
    _require(
        isinstance(re_, (int, float)) and isinstance(im_, (int, float)),
        path,
        "re and im must be numbers",
    )
    return complex(re_, im_)


def _parse_matrix(value, n: int, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == n, path, f"expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and len(row) == n, f"{path}[{i}]", f"expected {n} entries"
        )
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{path}[{i}][{j}]")
    return out


def encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def encode_gauss_poly(gp: GaussPoly) -> dict:
    """Report encoding: graded-lex (multi-index, [re, im]) pairs plus M."""
    terms = [
        [list(alpha), [float(c.real), float(c.imag)]]
        for alpha, c in sorted(gp.poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
    return {"terms": terms, "M": encode_matrix(gp.M)}


def decode_gauss_poly(raw: dict) -> GaussPoly:
    _require(isinstance(raw, dict), "gausspoly", "must be an object")
    _require("terms" in raw and "M" in raw, "gausspoly", "needs 'terms' and 'M'")
    m_rows = raw["M"]
    _require(isinstance(m_rows, list) and m_rows, "gausspoly.M", "must be a matrix")
    n = len(m_rows)
    m = _parse_matrix(m_rows, n, "gausspoly.M")
    terms = {}
    for k, entry in enumerate(raw["terms"]):
        _require(
            isinstance(entry, list) and len(entry) == 2,
            f"gausspoly.terms[{k}]",
            "must be [multi-index, [re, im]]",
        )
        alpha, val = entry
        _require(
            isinstance(alpha, list) and len(alpha) == n,
            f"gausspoly.terms[{k}]",
            f"multi-index must have {n} entries",
        )
        terms[tuple(int(a) for a in alpha)] = _parse_complex(
            val, f"gausspoly.terms[{k}]"
        )
    return GaussPoly(PolyC(n, terms), m)


def _profile_tolerances() -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    profile = os.environ.get(ENV_PROFILE, "default")
    if profile not in TOLERANCE_PROFILES:
        raise ConfigError(
            f"{ENV_PROFILE}: unknown profile {profile!r}, "
            f"expected one of {sorted(TOLERANCE_PROFILES)}"
        )
    tols.update(TOLERANCE_PROFILES[profile])
    return tols


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rho_fraction: float
    X: np.ndarray
    max_degree: int
    seed: int
    nodes: int
    tolerances: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require(isinstance(raw, dict), "$", "config must be an object")
        version = raw.get("version", SCHEMA_VERSION)
        _require(version == SCHEMA_VERSION, "version", f"expected {SCHEMA_VERSION!r}")
        n = raw.get("n")
        _require(isinstance(n, int) and n >= 1, "n", "must be a positive integer")
        mats = {}
        for name in ("A", "B", "C"):
            _require(name in raw, name, "missing matrix")
            mats[name] = _parse_matrix(raw[name], n, name)
        frac = raw.get("rho_fraction")
        _require(
            isinstance(frac, (int, float)) and 0.0 < frac < 1.0,
            "rho_fraction",
            "must lie strictly inside (0,1) so that 0<rho<lambda0",
        )
        xspec = raw.get("X", {"phases": [0.0] * n})
        _require(isinstance(xspec, dict), "X", "must be an object")
        if "phases" in xspec:
            phases = xspec["phases"]
            _require(
                isinstance(phases, list) and len(phases) == n,
                "X.phases",
                f"expected {n} angles",
            )
            _require(
                all(isinstance(p, (int, float)) for p in phases),
                "X.phases",
                "angles must be numbers",
            )
            x = np.diag(np.exp(1j * np.asarray(phases, dtype=float)))
        elif "matrix" in xspec:
            x = _parse_matrix(xspec["matrix"], n, "X.matrix")
        else:
            raise ConfigError("X: expected 'phases' or 'matrix'")
        max_degree = raw.get("max_degree", 3)
        _require(
            isinstance(max_degree, int) and max_degree >= 0,
            "max_degree",
            "must be a nonnegative integer",
        )
        seed = raw.get("seed", 0)
        _require(isinstance(seed, int) and seed >= 0, "seed", "must be a nonnegative integer")
        quadrature = raw.get("quadrature", {})
        _require(isinstance(quadrature, dict), "quadrature", "must be an object")
        nodes = quadrature.get("nodes", 64)
        _require(
            isinstance(nodes, int) and 4 <= nodes <= 512,
            "quadrature.nodes",
            "must be an integer in [4, 512]",
        )
        tols = _profile_tolerances()
        overrides = raw.get("tolerances", {})
        _require(isinstance(overrides, dict), "tolerances", "must be an object")
        for key, val in overrides.items():
            _require(key in tols, f"tolerances.{key}", "unknown tolerance name")
            _require(
                isinstance(val, (int, float)) and val > 0,
                f"tolerances.{key}",
                "must be a positive number",
            )
            tols[key] = float(val)
        return cls(
            n=n,
            A=mats["A"],
            B=mats["B"],
            C=mats["C"],
            rho_fraction=float(frac),
            X=x,
            max_degree=max_degree,
            seed=seed,
            nodes=nodes,
            tolerances=tols,
        )

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_config(path))


def read_config(path: str):
    """The raw, not yet validated JSON content of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"$: cannot read config {path}: {exc}") from exc


@dataclass
class VerificationReport:
    """Constructed generator data plus named residuals and verdicts.

    A run whose stage raised leaves a partial report: ``failed_stage`` and
    ``error_type`` name the stage and the exception class, and the fields
    of stages that did not run keep their empty defaults.
    """

    n: int
    rho2: float | None = None
    lam: list = field(default_factory=list)
    mu2: list = field(default_factory=list)
    Q: np.ndarray | None = None
    S: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    overall_pass: bool = False
    failed_stage: str | None = None
    error_type: str | None = None

    def to_dict(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "n": self.n,
            "rho2": self.rho2,
            "lambda": self.lam,
            "mu2": self.mu2,
            "Q": None if self.Q is None else encode_matrix(self.Q),
            "S": None if self.S is None else encode_matrix(self.S),
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "checks": dict(self.checks),
            "skipped": list(self.skipped),
            "warnings": list(self.warnings),
            "timings": dict(self.timings),
            "overall_pass": self.overall_pass,
            "failed_stage": self.failed_stage,
            "error_type": self.error_type,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _random_gausspoly(
    n: int, degree: int, M: np.ndarray, rng: np.random.Generator
) -> GaussPoly:
    terms = {}
    for alpha in multi_indices(n, degree):
        terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return GaussPoly(PolyC(n, terms), M)


class _StageTimer:
    """Runs the stages of one report and records each stage's wall time,
    also of a stage that raises; that stage's error finalizes the report
    as a partial one and travels with the StageFailure."""

    def __init__(self, report: "VerificationReport", tols: dict):
        self.report = report
        self.tols = tols

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            return fn()
        except Exception as exc:
            self.report.failed_stage = name
            self.report.error_type = type(exc).__name__
            _finalize(self.report, self.tols)
            raise StageFailure(name, exc, self.report) from exc
        finally:
            self.report.timings[name] = time.perf_counter() - start


def _tolerance_for(name: str, tols: dict) -> float:
    if name in tols:
        return tols[name]
    for prefix in ("gram", "eigen", "rodrigues", "adjoint", "completeness", "golden"):
        if name.startswith(prefix):
            return tols[prefix]
    raise KeyError(f"no tolerance defined for residual {name!r}")


def _finalize(report: VerificationReport, tols: dict):
    """Fill per-residual verdicts and the overall pass flag."""
    checks = {}
    for name, value in report.residuals.items():
        if name == "condition1_margin":
            threshold = report.rho2 / 2.0 - tols["condition1_slack"]
            checks[name] = bool(value >= threshold)
            report.tolerances[name] = threshold
        else:
            tol = _tolerance_for(name, tols)
            checks[name] = bool(value <= tol)
            report.tolerances[name] = tol
    report.checks = checks
    report.overall_pass = (
        report.failed_stage is None
        and all(checks.values())
        and all(math.isfinite(v) for v in report.residuals.values())
    )


def run_verify(config: RunConfig) -> VerificationReport:
    """Full pipeline: validate, construct, then verify every identity.

    Module errors raised inside a stage surface as StageFailure with the
    stage name and the partial report attached.
    """
    report = VerificationReport(n=config.n)
    timer = _StageTimer(report, config.tolerances)
    pt = timer.run("validate", lambda: validate_phase_triple(config.A, config.B, config.C))
    wd = timer.run("weight", lambda: compute_weight_data(pt))
    rho = config.rho_fraction * wd.lam0
    gen = timer.run("generator", lambda: build_generator(wd, rho, config.X))
    report.rho2 = gen.rho2
    report.lam = [float(v) for v in wd.lam]
    report.mu2 = [float(v * v) for v in gen.mu]
    report.Q = gen.Q
    report.S = gen.S
    res = report.residuals
    n, rho2 = wd.n, gen.rho2

    def algebra():
        res["ccr"] = mx.max_abs(ccr_matrix(wd, gen.Q) - 2.0 * rho2 * np.eye(n))
        res["eq2202"] = eq2202_residual(wd, gen)
        res["symmetry_Q"] = mx.max_abs(gen.Q - gen.Q.T)
        res["symmetry_S"] = mx.max_abs(gen.S - gen.S.T)
        res["sq_closed_form"] = sq_closed_form_residual(wd, gen)
        res["condition1_margin"] = condition1_margin(wd, gen.Q)

    timer.run("algebra", algebra)

    family = timer.run("family", lambda: hermite_family(wd, gen, config.max_degree))

    def gram():
        cache = make_moment_cache(wd, gen.Q)
        keys, g = gram_matrix(family, wd, cache)
        norm0 = g[0, 0].real
        diag_rel = 0.0
        offdiag_rel = 0.0
        for a, ka in enumerate(keys):
            predicted = (2.0 * rho2) ** sum(ka) * mi_factorial(ka) * norm0
            diag_rel = max(diag_rel, abs(g[a, a] - predicted) / g[a, a].real)
            for b in range(len(keys)):
                if b != a:
                    offdiag_rel = max(offdiag_rel, abs(g[a, b]) / g[a, a].real)
        res["gram_diag_maxrel"] = diag_rel
        res["gram_max_offdiag"] = offdiag_rel
        return cache

    # one moment cache, grown over the family monomials here, serves every later stage
    cache = timer.run("gram", gram)

    def eigen():
        worst = 0.0
        for alpha, member in family.items():
            image = hamiltonian_apply(wd, gen, member)
            expected = member.scaled((2.0 * sum(alpha) + 1.0) * rho2)
            diff, scale = coeff_distance(image, expected)
            worst = max(worst, diff / max(scale, 1e-300))
        res["eigen_max"] = worst

    timer.run("eigen", eigen)

    def rodrig():
        worst = 0.0
        for alpha, member in family.items():
            diff, scale = coeff_distance(rodrigues(wd, gen, alpha), member)
            worst = max(worst, diff / max(scale, 1e-300))
        res["rodrigues_max"] = worst

    timer.run("rodrigues", rodrig)

    def adjoint():
        rng = np.random.default_rng(config.seed)
        worst = 0.0
        for _ in range(10):
            f = _random_gausspoly(n, 3, gen.Q, rng)
            g = _random_gausspoly(n, 3, gen.Q, rng)
            i = int(rng.integers(0, n))
            scale = hphi_norm(f, wd, cache) * hphi_norm(g, wd, cache)
            worst = max(worst, adjoint_residual(wd, gen, f, g, i, cache) / scale)
        res["adjoint_max"] = worst

    timer.run("adjoint", adjoint)

    def completeness():
        worst = 0.0
        for beta in multi_indices(n, min(3, config.max_degree)):
            f = GaussPoly(PolyC.monomial(beta), gen.Q)
            _, residual = expand_in_family(f, family, wd, cache)
            worst = max(worst, residual / hphi_norm(f, wd, cache))
        res["completeness_residual"] = worst

    timer.run("completeness", completeness)

    if n == 1:
        def isometry():
            quad = QuadSpec(nodes=config.nodes)
            worst = 0.0
            for k in range(2):
                u = TestFunction.hermite_basis((k,))
                worst = max(worst, isometry_residual(pt, u, wd, quad, mode="fit"))
            res["isometry"] = worst

        timer.run("isometry", isometry)
    else:
        report.skipped.append("isometry")

    mu_min = float(np.min(gen.mu))
    if mu_min < 1e-3 * wd.lam0:
        report.warnings.append(
            f"ill-conditioned generator: min mu = {mu_min:.3e} "
            f"is tiny relative to lam0 = {wd.lam0:.3e}"
        )
    _finalize(report, config.tolerances)
    return report


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def example_triple(name: str, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Defining matrices of the two golden example families.

    ``em`` is the one-dimensional family with parameter s in (0,1);
    ``ghs`` is its two-dimensional coupled analogue.
    """
    if not 0.0 < s < 1.0:
        raise ConfigError(f"s: {s} is out of range, expected 0 < s < 1")
    if name == "em":
        a = np.array([[1j / s]])
        b = np.array([[1j * math.sqrt(1.0 - s * s)]])
        c = np.array([[1j * s]])
    elif name == "ghs":
        eye = np.eye(2)
        a = (1j / (4.0 * s)) * ((1.0 - s * s) * eye + (1.0 + s * s) * _SWAP)
        b = 1j * math.sqrt(1.0 - s * s) * eye
        c = 2j * s * eye
    else:
        raise ConfigError(f"name: unknown example {name!r}, expected 'em' or 'ghs'")
    return a, b, c


def example_expected(name: str, s: float) -> dict:
    """Closed forms the golden examples must reproduce."""
    if name == "em":
        return {
            "Q": np.array([[0.5]]),
            "S": np.array([[0.5]]),
            "rho2": (1.0 - s) / (1.0 + s),
            "mu2": (1.0 - s) ** 3 / (4.0 * s * (1.0 + s)),
        }
    return {
        "Q": _SWAP / 4.0,
        "S": _SWAP / 4.0,
        "rho2": (1.0 - s) / (2.0 * (1.0 + s)),
        "mu2": (1.0 - s) ** 3 / (8.0 * s * (1.0 + s)),
    }


def example_config(
    name: str,
    s: float,
    max_degree: int = 3,
    seed: int = 0,
    nodes: int = 64,
    tolerances: dict | None = None,
) -> dict:
    """Schema-v1 config dict of a golden example family.

    X is -E for ``em`` and -swap for ``ghs``: with the solver eigenbasis E
    of both families this is the canonical intertwiner of the closed forms.
    ``rho_fraction`` = 2 sqrt(s) / (1 + s) is rho / lambda_0 for both.
    """
    a, b, c = example_triple(name, s)
    x = -np.eye(1) if name == "em" else -_SWAP
    return {
        "version": SCHEMA_VERSION,
        "n": a.shape[0],
        "A": encode_matrix(a),
        "B": encode_matrix(b),
        "C": encode_matrix(c),
        "rho_fraction": 2.0 * math.sqrt(s) / (1.0 + s),
        "X": {"matrix": encode_matrix(x)},
        "max_degree": max_degree,
        "seed": seed,
        "quadrature": {"nodes": nodes},
        "tolerances": dict(tolerances or {}),
    }


def run_example(
    name: str,
    s: float,
    max_degree: int = 3,
    seed: int = 0,
    nodes: int = 64,
    tolerances: dict | None = None,
) -> VerificationReport:
    """Reproduce a golden example family and verify the whole suite on it.

    A golden example is a config like any other (see
    :func:`example_config`: X = -E for ``em``, X = -swap for ``ghs``, and
    ``rho_fraction`` = 2 sqrt(s) / (1 + s)); it passes the same schema
    checks and runs through :func:`run_verify`.  The closed-form Q, S,
    rho^2 and mu^2 values are then checked as extra ``golden_*`` residuals.
    """
    config = RunConfig.from_dict(
        example_config(name, s, max_degree, seed, nodes, tolerances)
    )
    report = run_verify(config)
    expected = example_expected(name, s)
    mu2 = np.asarray(report.mu2)
    report.residuals["golden_Q"] = mx.max_abs(report.Q - expected["Q"])
    report.residuals["golden_S"] = mx.max_abs(report.S - expected["S"])
    report.residuals["golden_mu2"] = float(np.max(np.abs(mu2 - expected["mu2"])))
    report.residuals["golden_rho2"] = abs(report.rho2 - expected["rho2"])
    # first-order conditioning bounds: the S path amplifies rounding in mu^2
    # by lam^3 / (2 mu^3), the Q path by lam / (2 mu); near mu -> 0 the
    # closed-form gates widen accordingly (they stay at the base tolerance
    # for moderate s, in particular for all acceptance values)
    tols = dict(config.tolerances)
    eps = float(np.finfo(float).eps)
    lam_max = report.lam[-1]
    mu_min = math.sqrt(float(np.min(mu2)))
    tols["golden_S"] = max(
        tols["golden"], 300.0 * eps * lam_max**2 * lam_max**3 / (2.0 * mu_min**3)
    )
    tols["golden_Q"] = max(
        tols["golden"], 300.0 * eps * lam_max**2 * lam_max / (2.0 * mu_min)
    )
    _finalize(report, tols)
    return report
