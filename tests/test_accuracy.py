"""Verdicts at the sizes beyond the acceptance cases: a committed grid of
random triples, and the seeds whose answers were once silently wrong.

Triples follow the benchmark's recipe: ``random_triple(n,
default_rng(seed))`` from ``bench/inputs.py``, X phases 0.3, rho / lambda0
= 0.5.
"""

import functools
import math

import numpy as np
import pytest

import sbhermite as sb

from helpers import bench_module

SEEDS = range(1000, 1012)

#: (n, max_degree) -> most seeds of SEEDS allowed to fail any check.  The
#: failures left are n=3/deg 8 seed 1008 (rodrigues_max 1.25e-9) and
#: n=5/deg 4 seed 1000 (gram_max_offdiag 4.4e-8, which divides by one
#: diagonal entry of a Gram whose diagonal spans many decades); ROADMAP.md
#: items 1 and 2 trace both to the metric and to the generator data.
MAX_FAILING = {(1, 12): 0, (2, 10): 0, (3, 6): 0, (4, 4): 0, (3, 8): 1, (4, 6): 0, (5, 4): 1}


def _config(n: int, max_degree: int, seed: int) -> sb.RunConfig:
    inputs = bench_module("inputs")
    a, b, c = inputs.random_triple(n, np.random.default_rng(seed))
    return sb.RunConfig.from_dict(
        inputs.v1_config(a, b, c, max_degree=max_degree, seed=0, phases=[0.3] * n))


@functools.lru_cache(maxsize=None)
def _report(n: int, max_degree: int, seed: int) -> sb.VerificationReport:
    return sb.run_verify(_config(n, max_degree, seed))


class TestSmallCoefficientsKept:
    """Seed 1004: lambda0 is small, so coefficients fall like lambda^|a| and
    entries tiny beside a row's largest still carry weighted norm.  A kernel
    that dropped them returned a wrong family, with the diagonal of its
    Gram off by 99 %."""

    @pytest.mark.parametrize("n, max_degree", [(1, 12), (2, 10)])
    def test_verify_residuals(self, n, max_degree):
        res = _report(n, max_degree, 1004).residuals
        assert res["gram_diag_maxrel"] <= 1e-8
        assert res["eigen_max"] <= 1e-9

    def test_family_gram_diagonal(self):
        cfg = _config(1, 12, 1004)
        wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
        gen = sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X)
        keys, g = sb.gram_matrix(sb.hermite_family(wd, gen, 12), wd)
        diag = g.diagonal().real
        want = [(2.0 * gen.rho2) ** k * math.factorial(k) * diag[0] for (k,) in keys]
        assert np.allclose(diag, want, rtol=1e-8, atol=0.0)


class TestVerdictGrid:
    @pytest.mark.parametrize("n, max_degree", list(MAX_FAILING))
    def test_failing_seeds_per_size(self, n, max_degree):
        failing = [s for s in SEEDS if not _report(n, max_degree, s).overall_pass]
        assert len(failing) <= MAX_FAILING[n, max_degree], failing

    @pytest.mark.parametrize("n, max_degree", [(1, 12), (2, 10)])
    def test_no_seed_fails_diagonal_or_eigen(self, n, max_degree):
        for s in SEEDS:
            checks = _report(n, max_degree, s).checks
            assert checks["gram_diag_maxrel"] and checks["eigen_max"], s
