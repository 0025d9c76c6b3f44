"""Run one workload in this process and write its measurements as JSON.

Started by ``run.py`` in a fresh interpreter per run, with BLAS/OpenMP
limited to one thread: ``peak_rss_mb`` is this process's high-water mark
and ``sbhermite.integrals._real_monomial`` is a process-global cache, so
workloads must not share a process.

One client drives the program in a closed loop: each operation starts when
the previous one has returned.  A warm-up pass over input set 0 runs
first; the timed passes then take the sets in rotation (set p mod SETS
for pass p) until ``--seconds`` would be exceeded, with at least one pass
per remaining set.  Every operation's output goes through the correctness
gate; its time does not count towards the pass.

    python3 bench/worker.py --inputs DIR/inputs.json --seconds 20 --trace 0 --out OUT.json
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import sbhermite as sb
import sbhermite.cli as sb_cli

import calibrate
from inputs import (
    SETS,
    decode_points,
    example_triple,
    gauss_poly_value,
    ground_image,
    ground_state,
)
from tracing import LAYERS, Tracer

# the console-script entry point, run in a fresh interpreter for setup_s
ENTRY = "import sys; from sbhermite.cli import main; sys.exit(main())"
SETUP_MIN = 5

STAGES = ("validate", "weight", "generator", "algebra", "family", "gram", "eigen",
          "rodrigues", "adjoint", "completeness", "isometry")

# gate tolerances, relative to the stated scale
TOL_EXACT = 1e-10      # quadrature against a closed form
TOL_DOUBLED = 1e-9     # quadrature against the doubled-node evaluation
# round-trip defect per unit coefficient norm; 64-node quadrature reaches
# 3e-7 at s = 0.3 and 1e-12 at s = 0.7
TOL_ROUND_TRIP = 1e-5
TOL_ISOMETRY = 1e-9
TOL_GOLDEN = 1e-10


class GateError(Exception):
    """An output rejected by the benchmark's own correctness check."""


def close(value, reference, tol: float, scale: float | None = None) -> bool:
    """All finite and max |value - reference| <= tol * scale, where scale
    defaults to max |reference|."""
    value = np.asarray(value, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if not np.all(np.isfinite(value)):
        return False
    if scale is None:
        scale = float(np.max(np.abs(reference)))
    return bool(np.max(np.abs(value - reference)) <= tol * max(scale, 1e-300))


def require(ok: bool, what: str):
    if not ok:
        raise GateError(what)


class Op:
    """One operation: ``run()`` calls the program and returns its output;
    ``check(output)`` raises GateError or returns (failing check names,
    stage timings) as reported by the program."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def value_check(reference, tol, scale=None):
    def check(out):
        require(close(out, reference, tol, scale), "value differs from its reference")
        return [], {}
    return check


def check_report(path: Path, expected: dict | None = None):
    """Gate for ``verify`` and ``example`` runs through the CLI."""

    def check(code):
        require(code in (0, 1), f"exit status {code}")
        require(path.exists(), f"exit status {code} without a report")
        report = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        residuals = report["residuals"]
        require(bool(residuals) and all(math.isfinite(v) for v in residuals.values()),
                "missing or non-finite residual")
        failing = sorted(name for name, ok in report["checks"].items() if not ok)
        require((code == 0) == (not failing), "exit status disagrees with the checks")
        if expected is not None:
            q = decode_points(report["Q"])
            s = decode_points(report["S"])
            require(close(q, expected["Q"], TOL_GOLDEN, 1.0), "golden Q")
            require(close(s, expected["S"], TOL_GOLDEN, 1.0), "golden S")
            require(close(report["rho2"], expected["rho2"], TOL_GOLDEN), "golden rho^2")
            require(close(report["mu2"], expected["mu2"], TOL_GOLDEN), "golden mu^2")
        return failing, report["timings"]

    return check


def _terms(raw) -> dict:
    return {tuple(alpha): complex(*c) for alpha, c in raw}


def verify_ops(item: dict, configs: dict, work: Path) -> list:
    ops = []
    for op in item["ops"]:
        out = work / f"report-{op['name']}.json"
        if op["kind"] == "verify":
            argv = ["verify", "--config", configs[op["config"]], "--out", str(out)]
            expected = None
        else:
            argv = ["example", "--name", op["example"], "--s", repr(op["s"]),
                    "--max-degree", str(op["max_degree"]), "--nodes", str(op["nodes"]),
                    "--out", str(out)]
            expected = op["expected"]
        ops.append(Op(op["name"], lambda argv=argv: sb_cli.main(argv),
                      check_report(out, expected)))
    return ops


def quadrature_ops(item: dict, configs: dict, work: Path) -> list:
    ghs_path, em_path = configs[item["ghs_config"]], configs[item["em_config"]]

    def load(path):
        cfg = sb.RunConfig.from_json(path)
        pt = sb.validate_phase_triple(cfg.A, cfg.B, cfg.C)
        return pt, sb.compute_weight_data(pt)

    ops = []
    k = item["kernel"]
    k_terms, k_q = _terms(k["terms"]), np.array(k["Q"])
    for j, z in enumerate(decode_points(k["z"])):
        def kernel(z=z):
            pt, wd = load(ghs_path)
            f = sb.GaussPoly(sb.PolyC(2, k_terms), k_q)
            return sb.kernel_reproduce(sb.make_kernel_params(pt, wd), wd, f, z,
                                       sb.QuadSpec(nodes=k["nodes"]))
        ops.append(Op(f"ghs-kernel-{j}", kernel,
                      value_check(gauss_poly_value(k_terms, k_q, z), TOL_EXACT)))

    inv = item["inverse"]
    kappa = complex(*inv["kappa"])
    c0, m_img = ground_image(*example_triple("ghs", item["s_ghs"]))
    for j, x in enumerate(np.asarray(inv["x"])):
        def inverse(x=x):
            pt, wd = load(ghs_path)
            g = sb.GaussPoly(sb.PolyC.constant(2, kappa * c0), m_img)
            return sb.inverse_transform(pt, g, x, sb.QuadSpec(nodes=inv["nodes"]), wd)
        ops.append(Op(f"ghs-inverse-{j}", inverse,
                      value_check(kappa * ground_state(x)[0], TOL_EXACT,
                                  abs(kappa) * ground_state(np.zeros(2))[0])))

    bt = item["batch"]
    u2 = sb.TestFunction(2, _terms(bt["terms"]))
    z_batch = decode_points(bt["z"])

    def batch():
        pt, _ = load(ghs_path)
        return sb.transform_batch(pt, u2, z_batch, sb.QuadSpec(nodes=bt["nodes"]))

    # no closed form for a general test function: doubled-node reference
    pt2, _ = load(ghs_path)
    batch_ref = sb.transform_batch(pt2, u2, z_batch, sb.QuadSpec(nodes=2 * bt["nodes"]))
    ops.append(Op("ghs-transform-batch", batch, value_check(batch_ref, TOL_DOUBLED)))

    em = item["em"]
    u1 = sb.TestFunction(1, _terms(em["terms"]))
    u_norm = math.sqrt(u1.norm_sq())
    quad = sb.QuadSpec(nodes=em["nodes"])
    xs = np.asarray(em["x"]).reshape(-1, 1)

    def round_trip():
        pt, wd = load(em_path)
        return sb.round_trip_error(pt, u1, xs, quad, wd)

    ops.append(Op("em-round-trip", round_trip, value_check(0.0, TOL_ROUND_TRIP, u_norm)))
    for mode in ("quad", "fit"):
        def isometry(mode=mode):
            pt, wd = load(em_path)
            return sb.isometry_residual(pt, u1, wd, quad, mode=mode)
        ops.append(Op(f"em-isometry-{mode}", isometry, value_check(0.0, TOL_ISOMETRY, 1.0)))

    cli = item["cli"]
    z_cli = decode_points(cli["z"])
    out = work / "transform-em.json"
    argv = ["transform", "--config", em_path, "--hermite", "0", "--nodes",
            str(cli["nodes"]), "--out", str(out), "--z",
            "; ".join(" ".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in z) for z in z_cli)]
    c0_em, m_em = ground_image(*example_triple("em", item["s_em"]))
    t_ref = c0_em * np.exp(-m_em[0, 0] * z_cli[:, 0] ** 2)

    def check_transform(code):
        require(code == 0 and out.exists(), f"exit status {code}")
        rows = json.loads(out.read_text(encoding="utf-8"))["points"]
        out.unlink()
        values = np.array([complex(*row["value"]) for row in rows])
        require(close(values, t_ref, TOL_EXACT), "transform differs from T h_0")
        return [], {}

    ops.append(Op("em-cli-transform", lambda: sb_cli.main(argv), check_transform))
    return ops + verify_ops(item, configs, work)


class Pass:
    """Wall times and verdicts of one pass over an operation list."""

    def __init__(self):
        self.op_s: list = []
        self.failures: list = []
        self.failing_checks: list = []
        self.stage_s: Counter = Counter()
        self.trace: dict | None = None

    @property
    def run_s(self) -> float:
        return sum(self.op_s)


def run_pass(ops: list, tracer: Tracer | None = None,
             cal: calibrate.Calibration | None = None) -> Pass:
    """Run ``ops`` once, checking each output; between operations ``cal``
    may time the calibration kernel."""
    result = Pass()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if cal is not None:
                cal.tick()
            start = time.perf_counter()
            try:
                out = tracer.op(op.run) if tracer is not None else op.run()
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                result.op_s.append(time.perf_counter() - start)
                result.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
                continue
            result.op_s.append(time.perf_counter() - start)
            try:
                failing, timings = op.check(out)
            except GateError as exc:
                result.failures.append(f"{op.name}: {exc}")
                continue
            result.failing_checks.extend(f"{op.name}:{name}" for name in failing)
            result.stage_s.update(timings)
    finally:
        if tracer is not None:
            result.trace = tracer.summary()
            tracer.uninstall()
    return result


def setup_once(config: str, work: Path) -> tuple[float, bool]:
    """Wall time of a fresh interpreter running ``sbhermite validate`` on
    ``config``, and whether it reported a valid triple."""
    out = work / "validate.json"
    cmd = [sys.executable, "-c", ENTRY, "validate", "--config", config, "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, timeout=60)
    wall = time.perf_counter() - start
    ok = (proc.returncode == 0 and out.is_file()
          and json.loads(out.read_text(encoding="utf-8")).get("valid") is True)
    out.unlink(missing_ok=True)
    return wall, ok


def _median(values) -> float:
    return float(statistics.median(values))


# per-layer metrics read from Tracer.summary(): name -> (table, key)
TRACE_TIMES = {
    **{f"{layer}.self_s": ("layer_self", layer) for layer in LAYERS},
    "integrals.hphi_inner.self_s": ("func_self", "integrals.hphi_inner"),
    "trace.bench_self_s": ("layer_self", "bench"),
}
TRACE_COUNTS = {
    "integrals.hphi_inner.calls": ("calls", "integrals.hphi_inner"),
    "integrals.moments_memoized": ("counts", "integrals.moments_memoized"),
    "integrals.moment_caches": ("counts", "integrals.moment_caches"),
    "gausspoly.apply_op.calls": ("calls", "gausspoly.apply_op"),
    "gausspoly.family.members": ("counts", "gausspoly.family.members"),
    "gausspoly.family.terms": ("counts", "gausspoly.family.terms"),
    "transform.calls": ("calls", "transform"),
    "transform.quad_points": ("counts", "transform.quad_points"),
    "model.calls": ("calls", "model"),
}


def layer_metrics(traced: list, untraced: list, factor: float) -> dict:
    """Per-layer metrics as medians over the traced passes, times scaled
    to reference speed by ``factor``."""
    out = {}
    for name, (table, key) in TRACE_TIMES.items():
        out[name] = (factor * _median([p.trace[table].get(key, 0.0) for p in traced]), "s")
    for name, (table, key) in TRACE_COUNTS.items():
        out[name] = (statistics.median_low([p.trace[table].get(key, 0) for p in traced]), "count")
    out["transform.quad_points_per_s"] = (_median([
        p.trace["counts"].get("transform.quad_points", 0)
        / max(factor * p.trace["layer_self"].get("transform", 0.0), 1e-9) for p in traced]), "1/s")
    for stage in STAGES:
        out[f"pipeline.stage.{stage}_s"] = (
            factor * _median([p.stage_s.get(stage, 0.0) for p in traced]), "s")
    traced_s = factor * _median([p.run_s for p in traced])
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - factor * _median([p.run_s for p in untraced]), "s")
    return out


def measure(spec: dict, work: Path, seconds: float, trace: bool) -> dict:
    build = quadrature_ops if spec["workload"] == "quadrature" else verify_ops
    sets = [build(item, spec["configs"], work) for item in spec["sets"]]

    warm = run_pass(sets[0])
    checks_by_set = {0: warm.failing_checks}
    passes, traced, setups = [], [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    cal = calibrate.Calibration()
    cal.sample()
    p = 1
    while True:
        j = p % SETS
        passes.append(run_pass(sets[j], cal=cal))
        if tracer is not None:
            traced.append(run_pass(sets[j], tracer, cal))
        else:
            setups.append(setup_once(spec["first_config"], work))
        checks_by_set.setdefault(j, passes[-1].failing_checks)
        elapsed = time.perf_counter() - start
        step = elapsed / p
        if p >= SETS - 1 and elapsed + step > seconds:
            break
        p += 1

    while not trace and len(setups) < SETUP_MIN:
        setups.append(setup_once(spec["first_config"], work))

    timed = passes + traced
    attempted = sum(len(x.op_s) for x in timed) + len(warm.op_s) + len(setups)
    failures = warm.failures + [f for x in timed for f in x.failures]
    failures += ["setup: sbhermite validate failed" for _, ok in setups if not ok]
    failing_checks = sorted(f"set{j}:{name}" for j, names in checks_by_set.items()
                            for name in names)
    factor = cal.factor
    if trace:
        metrics = layer_metrics(traced, passes, factor)
        metrics["pipeline.checks_failed"] = (len(failing_checks), "count")
    else:
        metrics = {
            "run_s": (factor * _median([x.run_s for x in passes]), "s"),
            "slowest_op_s": (factor * _median([max(x.op_s) for x in passes]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (factor * _median([t for t, _ in setups]), "s"),
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "failing_checks": failing_checks,
        "passes": len(passes),
        "factor": factor,
        "calibration_s": cal.samples,
        "setup_wall_s": [t for t, _ in setups],
        "pass_wall_s": [x.run_s for x in passes],
        "traced_wall_s": [x.run_s for x in traced],
        "layer_self_sum_s": [sum(x.trace["layer_self"].values()) for x in traced],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)
    spec = json.loads(inputs.read_text(encoding="utf-8"))
    result = measure(spec, inputs.parent, args.seconds, bool(args.trace))
    result["numpy"] = np.__version__
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
