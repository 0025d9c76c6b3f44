"""Verification pipeline and machine-readable reports.

A run takes a parsed config (``config.RunConfig``), constructs the
generator, then measures every verifiable identity as a named residual
with a named tolerance.  Reports are deterministic for a fixed config and
seed, timings aside.  Each stage of ``run_verify`` is straight-line code
under one guard, ``with stage(name):`` (``_stage``): it records the stage's
wall time, also when the stage raises, and turns an Exception into a
StageFailure carrying the finalized partial report.  A residual that is not
finite is named in the report's warnings.

Stages work on whole families, not pair by pair or member by member, and
on one format: coefficient blocks (see ``gausspoly``) of Wick coefficients
in the frame of the generator exponent Q (see ``integrals``), where every
inner product is a diagonal sum.  The family stage builds the moment
caches at Q and at the image exponent, the ladder folded into the frame
of Q (``_frame_ladder``), and three blocks as the lanes of one chain, one
kernel call per degree layer: the family (the frame raising operators),
its Rodrigues form (Xi at S+Q in the frame of Q) and the images T h_alpha,
|alpha| <= max_degree (T a+ in the frame of the image exponent).  So the
family stage's timing counts the chain work of all three, and a failure
building either frame fails that stage.  The later stages use those blocks
and frames, and no stage passes an exponent below that.  The eigen stage
is one product of the family block with the Hamiltonian's rows over its
basis ``_basis_array(n, d)`` (``_hamiltonian_rows``; every lower_i is a
pure derivative in the frame, so the image stays on that basis), where
``eigen_max`` is taken row by row.
The Rodrigues stage checks the closed form's exponent and compares its
block with the family block row by row.  The adjoint stage draws its ten
random (f, g, i) triples as Wick coefficients into two blocks
(``_adjoint_draws``: a counter-based splitmix64 stream from the config's
seed in plain numpy, Box-Muller for the normals, so no run imports
``numpy.random``) and takes every inner product and norm from one block of
f, g, lower_i f and raise_i g (``_adjoint_inners``), the last two from one kernel call;
completeness expands every Wick power :u^beta:, |beta| <= max_degree, a
unit row that is never formed, against the whole family in one call.  The
isometry stage compares the Gram of the images with the identity.

Besides residuals, a report carries ``metrics``: family size and terms
(the nonzero Wick coefficients of the family block), cond(M_R) of the
combined real form (from the spectrum that gives condition1_margin),
rho / lambda_0, lambda_max / lambda_0, min mu / lambda_0 and
condition1_margin / rho^2.
They describe the run and never enter a verdict.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mx
from .config import (
    SCHEMA_VERSION,
    RunConfig,
    _parse_complex,
    _parse_matrix,
    _require,
    encode_matrix,
)
from .errors import ConfigError, StageFailure
from .gausspoly import (
    GaussPoly,
    PolyC,
    _basis_array,
    _chain_rows,
    _frame_ladder,
    _hamiltonian_rows,
    _in_frame,
    _multi_index,
    _real_scaled,
    _row_distances,
    xi_ops,
)
from .integrals import (
    _expansions,
    _factorials,
    _adjoint_inners,
    _gram_block,
    make_moment_cache,
)
from .model import _identity_residuals, build_generator, compute_weight_data, validate_phase_triple
from .transform import _image_lane, _image_scaled, image_exponent


def encode_gauss_poly(gp: GaussPoly) -> dict:
    """Report encoding: graded-lex (multi-index, [re, im]) pairs plus M."""
    terms = [[list(a), [c.real, c.imag]] for a, c in gp.poly.terms.items()]
    return {"terms": terms, "M": encode_matrix(gp.M)}


def decode_gauss_poly(raw: dict) -> GaussPoly:
    _require(isinstance(raw, dict), "gausspoly", "must be an object")
    _require("terms" in raw and "M" in raw, "gausspoly", "needs 'terms' and 'M'")
    m_rows = raw["M"]
    _require(isinstance(m_rows, list) and m_rows, "gausspoly.M", "must be a matrix")
    n = len(m_rows)
    m = _parse_matrix(m_rows, n, "gausspoly.M")
    _require(mx.is_symmetric(m, mx.EXPONENT_TOL), "gausspoly.M", "must be symmetric")
    _require(isinstance(raw["terms"], list), "gausspoly.terms", "must be a list")
    terms = {}
    for k, entry in enumerate(raw["terms"]):
        path = f"gausspoly.terms[{k}]"
        _require(
            isinstance(entry, list) and len(entry) == 2,
            path,
            "must be [multi-index, [re, im]]",
        )
        alpha, val = entry
        _require(isinstance(alpha, list), path, "multi-index must be a list")
        try:
            alpha = _multi_index(alpha, n)
        except ValueError as exc:  # DimensionMismatch is a ValueError too
            raise ConfigError(f"{path}: {exc}") from exc
        terms[alpha] = _parse_complex(val, path)
    return GaussPoly(PolyC(n, terms), m)


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
    metrics: dict = field(default_factory=dict)
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
            "metrics": dict(self.metrics),
            "overall_pass": self.overall_pass,
            "failed_stage": self.failed_stage,
            "error_type": self.error_type,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


#: splitmix64's increment (2^64 over the golden ratio) and its two multipliers
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of splitmix64 seeded with ``seed``
    (modulo 2^64), each as its top 53 bits over 2^53, in [0, 1).  Output k
    is counter based: the state seed + (k + 1) gamma through the three
    xor-shift(-multiply) rounds, all k at once in uint64 arithmetic, which
    wraps modulo 2^64 as the generator does."""
    gamma, m1, m2 = (np.uint64(v) for v in _SPLITMIX)
    z = np.uint64(seed % 2**64) + np.arange(1, count + 1, dtype=np.uint64) * gamma
    z = (z ^ (z >> 30)) * m1
    z = (z ^ (z >> 27)) * m2
    z ^= z >> 31
    return (z >> 11).astype(float) * 2.0**-53


def _adjoint_draws(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ten random (f, g, i) triples: f and g as rows of two coefficient
    blocks over every |alpha| <= 3, i as a component index per row.

    Triple t reads its 4 m + 1 uniforms (m = C(n + 3, n)) from
    ``_uniforms(seed, ...)`` from (4 m + 1) t on: 2 m Box-Muller pairs
    (u, v), the m coefficients of f and then those of g, each
    sqrt(-2 log(1 - u)) (cos 2 pi v + i sin 2 pi v), a pair of independent
    standard normals; then u for i = floor(u n)."""
    m = math.comb(n + 3, n)
    u = _uniforms(seed, 10 * (4 * m + 1)).reshape(10, 4 * m + 1)
    pairs = u[:, : 4 * m].reshape(10, 2, m, 2)
    radius = np.sqrt(-2.0 * np.log(1.0 - pairs[..., 0]))
    angle = 2.0 * math.pi * pairs[..., 1]
    coeffs = np.empty((10, 2, m), dtype=complex)
    coeffs.real = radius * np.cos(angle)
    coeffs.imag = radius * np.sin(angle)
    return coeffs[:, 0], coeffs[:, 1], np.floor(u[:, -1] * n).astype(int)


@contextmanager
def _stage(report: "VerificationReport", tols: dict, name: str):
    """Guard of one stage of a report: records the stage's wall time, also
    of a stage that raises; an Exception finalizes the report as a partial
    one and travels with the StageFailure, any other exception passes."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        report.failed_stage = name
        report.error_type = type(exc).__name__
        _finalize(report, tols)
        raise StageFailure(name, exc, report) from exc
    finally:
        report.timings[name] = time.perf_counter() - start


def _finalize(report: VerificationReport, tols: dict):
    """Fill per-residual verdicts and the overall pass flag, and name each
    non-finite residual in the warnings, once however often it runs.  The
    tolerance of a residual is ``tols`` at its name, else at its name up to the first ``_``."""
    checks = {}
    for name, value in report.residuals.items():
        if not math.isfinite(value):
            note = f"non-finite residual {name}: {value}"
            if note not in report.warnings:
                report.warnings.append(note)
        if name == "condition1_margin":
            threshold = report.rho2 / 2.0 - tols["condition1_slack"]
            checks[name] = bool(value >= threshold)
            report.tolerances[name] = threshold
        else:
            tol = tols[name if name in tols else name.split("_")[0]]
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
    stage = functools.partial(_stage, report, config.tolerances)
    with stage("validate"):
        pt = validate_phase_triple(config.A, config.B, config.C)
    with stage("weight"):
        wd = compute_weight_data(pt)
    rho = config.rho_fraction * wd.lam0
    with stage("generator"):
        gen = build_generator(wd, rho, config.X)
    report.rho2 = gen.rho2
    report.lam = [float(v) for v in wd.lam]
    report.mu2 = [float(v * v) for v in gen.mu]
    report.Q = gen.Q
    report.S = gen.S
    res = report.residuals
    metrics = report.metrics
    metrics["lam_max_over_lam0"] = float(wd.lam[-1] / wd.lam0)
    metrics["rho_over_lam0"] = float(rho / wd.lam0)
    mu_min = float(gen.mu.min())
    metrics["min_mu_over_lam0"] = mu_min / wd.lam0
    n, rho2 = wd.n, gen.rho2

    with stage("algebra"):
        # ccr and eq2202 from build_generator's product; one spectrum of the
        # combined real form (M_R / 2) gives the margin and cond(M_R)
        residuals, spectrum = _identity_residuals(wd, gen)
        res.update(residuals)
        metrics["condition1_margin_over_rho2"] = res["condition1_margin"] / rho2

    with stage("family"):
        # one moment cache at Q and one at the image exponent; every later
        # stage works in their Wick frames.  The family, its Rodrigues form
        # (Xi at S+Q, in the frame of Q) and the images T h_alpha are three
        # lanes of one chain, one row per alpha, the int rows of
        # _basis_array(n, max_degree)
        keys = _basis_array(n, config.max_degree)
        cache = make_moment_cache(wd, gen.Q)
        image_cache = make_moment_cache(wd, image_exponent(pt))
        ladder = _frame_ladder(wd, gen, cache)
        xi = _in_frame(xi_ops(gen), gen.SQ, cache)
        image_lane, _ = _image_lane(pt, image_cache)
        block, closed, images = _chain_rows([(ladder[1], 1.0), (xi, 1.0), image_lane], keys)
        images = _image_scaled(images, _factorials(n, config.max_degree))
    metrics["family_members"] = block.shape[0]
    metrics["family_terms"] = int(np.count_nonzero(block))
    metrics["cond_M_R"] = float(spectrum[-1] / spectrum[0])

    with stage("gram"):
        g = _gram_block(cache, block)
        diag = g.diagonal().real  # the imaginary parts are exactly zero
        # Python's float power: numpy's rounds some of these differently
        powers = np.array([(2.0 * rho2) ** d for d in keys.sum(axis=1).tolist()])
        predicted = powers * _factorials(n, config.max_degree) * diag[0]
        res["gram_diag_maxrel"] = float((np.abs(diag - predicted) / diag).max())
        # hypot, not np.abs: it rounds |g_ab| as the scalar abs() does
        offdiag = np.hypot(g.real, g.imag) / diag[:, None]
        np.fill_diagonal(offdiag, 0.0)
        res["gram_max_offdiag"] = float(offdiag.max())
        del g, offdiag  # N x N each, not kept for the later stages

    with stage("eigen"):
        # the Hamiltonian's rows over the basis, freed once multiplied
        image = block @ _hamiltonian_rows(rho2, ladder, keys)
        levels = (2.0 * keys.sum(axis=1) + 1.0) * rho2
        expected = _real_scaled(block, levels[:, None])
        res["eigen_max"] = float(_row_distances(image, expected).max())
        del image, expected  # N x N each, not kept for the later stages

    with stage("rodrigues"):
        # the closed form's lane of the family chain, compared row by row;
        # its exponent (S+Q) - S must be the family's Q
        mx.require_same_exponent(gen.SQ - gen.S, gen.Q, "(S+Q) - S and Q")
        res["rodrigues_max"] = float(_row_distances(closed, block).max())

    with stage("adjoint"):
        # (lower f, g), (f, raise g), (f, f), (g, g) for ten random triples
        f, g, comps = _adjoint_draws(n, config.seed)
        lhs, rhs, ff, gg = _adjoint_inners(cache, ladder, comps, f, g)
        scale = np.sqrt(np.maximum(ff.real, 0.0)) * np.sqrt(np.maximum(gg.real, 0.0))
        res["adjoint_max"] = float((np.abs(lhs - rhs) / scale).max())

    with stage("completeness"):
        # every Wick power :u^beta: with |beta| <= max_degree, one unit row
        # each (never formed), against the whole family; they span the same
        # spaces as the monomials, degree by degree
        residuals, norms = _expansions(cache, None, block)[1:]  # not the N x N coefficients
        res["completeness_residual"] = float((residuals / norms).max())

    with stage("isometry"):
        # the transform keeps the Hermite functions h_alpha, |alpha| <=
        # max_degree, orthonormal: the Gram of their exact images, the
        # image lane of the family chain in the Wick frame of the image
        # exponent
        g = _gram_block(image_cache, images)
        res["isometry"] = mx.max_abs(g - np.eye(len(keys)))

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


def example_config(name: str, s: float, max_degree: int = 3, nodes: int = 64) -> dict:
    """Schema-v1 config dict of a golden example family.

    X is -E for ``em`` and -swap for ``ghs``: with the solver eigenbasis E
    of both families this is the canonical intertwiner of the closed forms.
    ``rho_fraction`` = 2 sqrt(s) / (1 + s) is rho / lambda_0 for both.
    ``seed`` and ``tolerances`` keep their schema defaults; ``nodes`` is
    validated with the config and changes no value.
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
        "quadrature": {"nodes": nodes},
    }


def run_example(name: str, s: float, max_degree: int = 3, nodes: int = 64) -> VerificationReport:
    """Reproduce a golden example family and verify the whole suite on it.

    A golden example is a config like any other (see
    :func:`example_config`: X = -E for ``em``, X = -swap for ``ghs``, and
    ``rho_fraction`` = 2 sqrt(s) / (1 + s)); it passes the same schema
    checks and runs through :func:`run_verify`.  The closed-form Q, S,
    rho^2 and mu^2 values are then checked as extra ``golden_*`` residuals.
    """
    config = RunConfig.from_dict(example_config(name, s, max_degree, nodes))
    report = run_verify(config)
    expected = example_expected(name, s)
    mu2 = np.asarray(report.mu2)
    report.residuals["golden_Q"] = mx.max_abs(report.Q - expected["Q"])
    report.residuals["golden_S"] = mx.max_abs(report.S - expected["S"])
    report.residuals["golden_mu2"] = float(np.abs(mu2 - expected["mu2"]).max())
    report.residuals["golden_rho2"] = abs(report.rho2 - expected["rho2"])
    # first-order conditioning bounds: the S path amplifies rounding in mu^2
    # by lam^3 / (2 mu^3), the Q path by lam / (2 mu); near mu -> 0 the
    # closed-form gates widen accordingly (they stay at the base tolerance
    # for moderate s, in particular for all acceptance values)
    tols = dict(config.tolerances)
    eps = float(np.finfo(float).eps)
    lam_max = report.lam[-1]
    mu_min = math.sqrt(float(mu2.min()))
    tols["golden_S"] = max(
        tols["golden"], 300.0 * eps * lam_max**2 * lam_max**3 / (2.0 * mu_min**3)
    )
    tols["golden_Q"] = max(
        tols["golden"], 300.0 * eps * lam_max**2 * lam_max / (2.0 * mu_min)
    )
    _finalize(report, tols)
    return report
