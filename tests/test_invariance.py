"""Invariance oracles (ROADMAP item 20): a verdict must not depend on the
units of z or on a rotation of x.

- Units: z -> tz maps (A, B, C) to (t^2 A, t B, C) at the same rho / lambda0
  and X.  The relative residuals must agree across t; the absolute ones
  grow with t and are pinned as measured upper bounds per t, as
  ``TestRhoScan`` pins its counts, for item 20 to lower.
- x rotation: x -> Ox, O real orthogonal, maps (A, B, C) to (A, BO, O^T C O),
  which leaves the weight and so Q and the family unchanged.

Triples follow the grid of ``test_accuracy``: ``random_triple(n,
default_rng(seed))`` from ``bench/inputs.py``, seeds 1000-1011, X phases
0.3, rho / lambda0 = 0.5, at n=2/deg 8 and n=3/deg 6.  Every bound below
was measured on this grid when the file was committed.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbhermite as sb

from helpers import bench_module

SEEDS = range(1000, 1012)
SIZES = [(2, 8), (3, 6)]
UNITS = (0.1, 1.0, 10.0, 100.0)

#: relative residuals, which must not depend on the units of z
SCALE_FREE = ("gram_diag_maxrel", "eigen_max", "rodrigues_max", "completeness_residual")
#: most a relative residual may spread (largest / smallest) across the
#: units of a seed; measured: 24.7x (rodrigues_max, n=2 seed 1001), 17.5x
#: (gram_diag_maxrel), 6.8x (eigen_max), 4.7x (completeness_residual)
SCALE_FREE_FACTOR = 50.0
#: the same for ``isometry``; measured: 11.6x (n=2 seed 1009)
ISOMETRY_FACTOR = 25.0

#: (n, max_degree) -> residual -> upper bound at each t of UNITS over the
#: seeds: twice the measured largest, rounded up to 1, 2 or 5 times a power
#: of ten.  The failures they admit: gram_max_offdiag at t = 0.1 (n=2 seed
#: 1004 1.0e-7; n=3 seeds 1008, 1009, 1011, up to 1.3e-7) and ccr and
#: eq2202 at t = 100 (n=2 seeds 1000, 1004, 1007; n=3 six seeds, and seed
#: 1008 at t = 10), against tolerances of 1e-8 and 1e-10
UNIT_BOUNDS = {
    (2, 8): {
        "ccr": (5e-15, 2e-12, 5e-11, 1e-8),
        "eq2202": (2e-15, 1e-12, 2e-11, 5e-9),
        "symmetry_S": (2e-17, 5e-15, 5e-13, 5e-11),
        "sq_closed_form": (5e-17, 5e-15, 5e-13, 5e-11),
        "adjoint_max": (5e-15, 2e-13, 1e-12, 2e-11),
        "gram_max_offdiag": (5e-7, 2e-8, 1e-10, 5e-9),
    },
    (3, 6): {
        "ccr": (1e-13, 5e-12, 5e-10, 2e-8),
        "eq2202": (5e-14, 2e-12, 5e-10, 1e-8),
        "symmetry_S": (5e-17, 2e-15, 5e-13, 5e-11),
        "sq_closed_form": (5e-17, 1e-14, 1e-12, 5e-11),
        "adjoint_max": (2e-14, 5e-13, 2e-12, 1e-11),
        "gram_max_offdiag": (5e-7, 2e-8, 1e-10, 2e-9),
    },
}
#: the runs whose generator stage raises: (n, max_degree, seed, t).  At
#: t = 100 the factorization residual of n=3 seed 1008 is 1.03e-8, above
#: the absolute ``CHAINED_TOL`` of 1e-8
GENERATOR_FAILURES = {(3, 6, 1008, 100.0)}

#: most any residual may move (either way) under an x rotation, over a
#: floor of ``ROTATION_FLOOR`` added to both sides (some symmetry residuals
#: are exactly 0); measured: 20.5x (gram_diag_maxrel, n=2 seed 1011)
ROTATION_FACTOR = 50.0
ROTATION_FLOOR = 1e-16
#: largest relative distance of Q from the unrotated triple's; measured 2.6e-15
ROTATION_Q_RTOL = 1e-13


def _triple(n: int, seed: int):
    return bench_module("inputs").random_triple(n, np.random.default_rng(seed))


def _rotation(n: int, seed: int) -> np.ndarray:
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def _config(a, b, c, max_degree: int) -> sb.RunConfig:
    inputs = bench_module("inputs")
    n = a.shape[0]
    return sb.RunConfig.from_dict(
        inputs.v1_config(a, b, c, max_degree=max_degree, seed=0, phases=[0.3] * n))


def _verify(a, b, c, max_degree: int):
    """The report of a run, or None if a stage raised."""
    try:
        return sb.run_verify(_config(a, b, c, max_degree))
    except sb.errors.StageFailure:
        return None


@functools.lru_cache(maxsize=None)
def _in_units(n: int, max_degree: int, seed: int, t: float):
    a, b, c = _triple(n, seed)
    return _verify(t * t * a, t * b, c, max_degree)


@functools.lru_cache(maxsize=None)
def _rotated(n: int, max_degree: int, seed: int):
    a, b, c = _triple(n, seed)
    o = _rotation(n, seed)
    return _verify(a, b @ o, o.T @ c @ o, max_degree)


def _spread(values) -> float:
    return max(values) / min(values)


class TestUnits:
    @pytest.mark.parametrize("n, max_degree", SIZES)
    def test_relative_residuals_agree_across_units(self, n, max_degree):
        for seed in SEEDS:
            reports = [r for t in UNITS if (r := _in_units(n, max_degree, seed, t))]
            for name in SCALE_FREE:
                spread = _spread([r.residuals[name] for r in reports])
                assert spread <= SCALE_FREE_FACTOR, (seed, name, spread)
            spread = _spread([r.residuals["isometry"] for r in reports])
            assert spread <= ISOMETRY_FACTOR, (seed, spread)

    @pytest.mark.parametrize("n, max_degree", SIZES)
    def test_absolute_residuals_pinned_per_unit(self, n, max_degree):
        for k, t in enumerate(UNITS):
            reports = [r for s in SEEDS if (r := _in_units(n, max_degree, s, t))]
            for name, bounds in UNIT_BOUNDS[n, max_degree].items():
                worst = max(r.residuals[name] for r in reports)
                assert worst <= bounds[k], (t, name, worst)

    def test_generator_failures_pinned(self):
        failing = {(n, d, s, t) for n, d in SIZES for s in SEEDS for t in UNITS
                   if _in_units(n, d, s, t) is None}
        assert failing <= GENERATOR_FAILURES

    @settings(max_examples=25, deadline=None, database=None)
    @given(log_t=st.floats(-2.0, 2.0))
    def test_any_unit_seed_1004(self, log_t):
        base = _in_units(2, 8, 1004, 1.0).residuals
        got = _in_units(2, 8, 1004, 10.0**log_t).residuals
        for name in SCALE_FREE:
            assert _spread([got[name], base[name]]) <= SCALE_FREE_FACTOR, (name, got[name])
        assert _spread([got["isometry"], base["isometry"]]) <= ISOMETRY_FACTOR


class TestXRotation:
    @pytest.mark.parametrize("n, max_degree", SIZES)
    def test_generator_is_unchanged(self, n, max_degree):
        for seed in SEEDS:
            a, b, c = _triple(n, seed)
            o = _rotation(n, seed)
            qs = []
            for triple in ((a, b, c), (a, b @ o, o.T @ c @ o)):
                cfg = _config(*triple, max_degree)
                wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
                qs.append(sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X).Q)
            assert np.abs(qs[1] - qs[0]).max() <= ROTATION_Q_RTOL * np.abs(qs[0]).max(), seed

    @pytest.mark.parametrize("n, max_degree", SIZES)
    def test_residuals_and_verdicts_are_unchanged(self, n, max_degree):
        for seed in SEEDS:
            plain, rotated = _in_units(n, max_degree, seed, 1.0), _rotated(n, max_degree, seed)
            assert rotated.checks == plain.checks, seed
            for name, value in plain.residuals.items():
                moved = _spread([value + ROTATION_FLOOR, rotated.residuals[name] + ROTATION_FLOOR])
                assert moved <= ROTATION_FACTOR and math.isfinite(moved), (seed, name, moved)
