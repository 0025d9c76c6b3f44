"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify-deep --seed 0 --seconds 20 --trace 0

Runs from any directory; the program is imported from ``src/`` next to
this directory (pure Python, nothing to build).  Steps:

1. write the seeded inputs (configs and arrays) to a scratch directory
   under ``.bench_work/``;
2. run the workload in a fresh worker process (``worker.py``) with
   BLAS/OpenMP limited to one thread, untraced (``--trace 0``, timing
   fresh ``sbhermite validate`` interpreters between passes for
   ``setup_s``) or with alternating untraced and traced passes
   (``--trace 1``);
3. print the environment, the failed operations and failing checks, every
   metric with its unit, and last the JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

Exits 1 without a result when the program's sources are missing or a
child process fails.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# limit threads before numpy is imported by the input generator
os.environ.update({var: "1" for var in THREAD_VARS})
from inputs import WORKLOADS, make_inputs  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(inputs: Path, seconds: float, trace: int) -> dict:
    out = inputs.parent / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def _rounded(values) -> list:
    return [round(v, 4) for v in values]


def collect(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
            log=print) -> dict:
    """Run one workload and return the result object; ``log`` receives the
    human-readable lines."""
    if not (SRC / "sbhermite" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        inputs = make_inputs(workload, seed, work, tiny)
        res = run_worker(inputs, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log(f"env: sha={git_sha()} python={platform.python_version()} numpy={res['numpy']} "
        f"nproc={os.cpu_count()} workload={workload} seed={seed} trace={trace}")
    log(f"passes: {res['passes']} timed, wall s per pass {_rounded(res['pass_wall_s'])}, "
        f"speed factor {res['factor']:.4f} from kernel s {_rounded(res['calibration_s'])}")
    if trace:
        log(f"trace: layer self-times sum to {_rounded(res['layer_self_sum_s'])} "
            f"of traced wall s {_rounded(res['traced_wall_s'])}")
    attempted, failed, metrics = res["attempted"], res["failed"], res["metrics"]
    if not trace:
        log(f"setup: wall s {_rounded(res['setup_wall_s'])}")
    log(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    for line in res["failures"]:
        log(f"failed op: {line}")
    log(f"checks_failed: {len(res['failing_checks'])} "
        f"{' '.join(res['failing_checks']) or '(none)'}")
    for name, (value, unit) in metrics.items():
        log(f"metric {name} = {value!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sbhermite benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = collect(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
