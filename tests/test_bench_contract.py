"""What the benchmark harness reads from the program, checked on one tiny run.

``bench/tracing.py`` wraps the public functions of the layer modules and
reads program state such as ``MomentCache.memo``; a refactor that breaks
one of its counters would otherwise only show as a silent zero in a traced
benchmark run.  The benchmark's own self-test runs here too.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import sbhermite as sb
from sbhermite.config import RunConfig, encode_matrix
from sbhermite.pipeline import run_verify

from helpers import bench_module, wick_moment


def n2_deg2_config() -> RunConfig:
    pt = sb.random_phase_triple(2, np.random.default_rng(5))
    return RunConfig.from_dict({
        "n": 2,
        "A": encode_matrix(pt.A),
        "B": encode_matrix(pt.B),
        "C": encode_matrix(pt.C),
        "rho_fraction": 0.5,
        "X": {"phases": [0.3, 1.2]},
        "max_degree": 2,
    })


def test_tracer_counts_moment_and_family_work():
    tracer = bench_module("tracing").Tracer()
    tracer.install()
    try:
        report = sb.run_verify(n2_deg2_config())
        verify_counts = tracer.summary()["counts"]
        # the counters the tracer reads from public calls, each driven
        # directly: run_verify builds its blocks in the Wick frame and
        # calls neither hermite_family nor the tests' Isserlis oracle
        tracer.reset()
        cfg = n2_deg2_config()
        wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
        gen = sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X)
        family = sb.hermite_family(wd, gen, 2)
        cache = sb.make_moment_cache(wd, gen.Q)
        wick_moment(wd, cache, (2, 0, 0, 2))
        counts = tracer.summary()["counts"]
    finally:
        tracer.uninstall()
    assert report.failed_stage is None
    assert verify_counts["integrals.moment_caches"] >= 1
    assert counts["integrals.moment_caches"] == 1
    # E[w^beta] and the moments of degree 2 it recurses through
    assert counts["integrals.moments_memoized"] == len(cache.memo) > 0
    assert counts["gausspoly.family.members"] == len(family) == 6
    assert counts["gausspoly.family.terms"] == sum(len(m.poly.terms) for m in family.values())
    assert counts["gausspoly.family.terms"] > 0
    # uninstall restores the untraced program
    assert sb.run_verify is run_verify


def test_bench_selftest_passes():
    # every workload at tiny sizes, traced and untraced, with zero failed
    # operations: a broken tracer hook or metric fails here, not only in a
    # benchmark run (bench/tracing.py reads quadrature arguments by name)
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "bench" / "selftest.py")], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
