"""Fast self-test of the benchmark at tiny sizes (under a minute).

    python3 bench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
each with its unit, under ``--trace 0`` and ``--trace 1``; that the
correctness gate rejects deliberately wrong references; and that the
benchmark exits non-zero without a result where the program's sources are
missing.  Prints one line per check and exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import worker  # noqa: E402  (imports sbhermite from src/)
from inputs import WORKLOADS, make_inputs  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(ok: bool, what: str):
    if not ok:
        raise AssertionError(what)


def check_metrics():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.collect(workload, seed=7, seconds=0, trace=trace, tiny=True,
                                 log=lambda line: None)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['failed']} failed operations")
            want = {m["name"]: m["unit"] for m in CONTRACT[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics {sorted(got)} "
                                f"differ from {sorted(want)} or their units")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                       f"{workload} {name}: non-finite value")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics with units")


def check_gate():
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        spec = json.loads(make_inputs("quadrature", 7, work, tiny=True).read_text())
        ops = worker.quadrature_ops(spec["sets"][0], spec["configs"], work)
        ops = {op.name: op for op in ops}

        kernel = ops["ghs-kernel-0"]
        value = kernel.run()
        kernel.check(value)
        wrong = worker.value_check(value * (1.0 + 1e-6), worker.TOL_EXACT)
        bad = worker.Op("wrong-reference", kernel.run, wrong)
        failed = worker.run_pass([bad]).failures
        expect(len(failed) == 1, "gate accepted a kernel value against a wrong reference")
        print("ok   gate rejects a wrong quadrature reference")

        example = ops["example-em"]
        expected = dict(spec["sets"][0]["ops"][0]["expected"])
        expected["rho2"] *= 1.0 + 1e-6
        out = work / "report-example-em.json"
        bad = worker.Op("wrong-golden", example.run, worker.check_report(out, expected))
        failed = worker.run_pass([bad]).failures
        expect(len(failed) == 1 and "golden" in failed[0],
               "gate accepted an example report against a wrong closed form")
        print("ok   gate rejects a wrong golden closed form")


def check_without_sources():
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(run.BENCH.name) / "run.py"), "--workload", "quadrature",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "benchmark produced a result without the program's sources")
        print("ok   exits non-zero without the program's sources")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_gate()
    check_without_sources()
    check_metrics()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
