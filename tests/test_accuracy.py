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


#: the rho scan of ROADMAP item 11 at degree 6: rho / lambda0 -> most grid
#: seeds (n=3) allowed to fail any check.  Read at the commit that added it:
#: 12, 12, 12, 11, 5, 0, 0, 0; below about 0.1 the folded raising
#: coefficients lose digits as (lambda0 / rho)^2, so these are bounds for
#: item 11 to lower, not claims
SCAN_GRID_FAILING = {1e-4: 12, 1e-3: 12, 1e-2: 12, 0.03: 11, 0.1: 5, 0.5: 0, 0.9: 0, 0.999: 0}
#: X phases -> rho / lambda0 -> most checks the textbook triple (A = 0,
#: B = E, C = iE, every lambda_i equal) may fail at each n = 1-3.  When
#: committed, both X failed gram_max_offdiag, rodrigues_max, eigen_max,
#: completeness_residual and gram_diag_maxrel at 1e-4 and the first two at
#: 1e-3; X = E also failed gram_max_offdiag at 1e-2 (2.1e-8)
SCAN_TEXTBOOK_FAILING = {
    0.3: {1e-4: 5, 1e-3: 2, 1e-2: 0, 0.03: 0, 0.1: 0, 0.5: 0, 0.9: 0, 0.999: 0},
    0.0: {1e-4: 5, 1e-3: 2, 1e-2: 1, 0.03: 0, 0.1: 0, 0.5: 0, 0.9: 0, 0.999: 0},
}


def _scan_report(a, b, c, rho_fraction: float, phase: float) -> sb.VerificationReport:
    inputs = bench_module("inputs")
    n = a.shape[0]
    return sb.run_verify(sb.RunConfig.from_dict(inputs.v1_config(
        a, b, c, max_degree=6, seed=0, phases=[phase] * n, rho_fraction=rho_fraction)))


class TestRhoScan:
    """Verdicts across 0 < rho < lambda0 (ROADMAP item 11), pinned as upper
    bounds on the failing counts."""

    @pytest.mark.parametrize("rho_fraction", list(SCAN_GRID_FAILING))
    def test_grid_seeds(self, rho_fraction):
        inputs = bench_module("inputs")
        failing = [
            s for s in SEEDS
            if not _scan_report(*inputs.random_triple(3, np.random.default_rng(s)),
                                rho_fraction, 0.3).overall_pass
        ]
        assert len(failing) <= SCAN_GRID_FAILING[rho_fraction], failing

    @pytest.mark.parametrize("phase", list(SCAN_TEXTBOOK_FAILING))
    @pytest.mark.parametrize("rho_fraction", list(SCAN_GRID_FAILING))
    def test_textbook_triple(self, rho_fraction, phase):
        for n in (1, 2, 3):
            report = _scan_report(np.zeros((n, n)), np.eye(n), 1j * np.eye(n), rho_fraction, phase)
            failed = [k for k, ok in report.checks.items() if not ok]
            assert len(failed) <= SCAN_TEXTBOOK_FAILING[phase][rho_fraction], (n, failed)
