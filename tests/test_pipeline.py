"""Config parsing, verification pipeline, report contracts, and the CLI."""

import contextlib
import dataclasses
import importlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

import sbhermite as sb
from sbhermite.cli import main as cli_main
from sbhermite.config import DEFAULT_TOLERANCES, RunConfig, encode_matrix
from sbhermite.errors import ConfigError, NonIntegrableWeight, StageFailure
from sbhermite.gausspoly import _chain_rows, _frame_ladder
from sbhermite.integrals import _gram_block
from sbhermite.pipeline import (
    _adjoint_draws,
    _uniforms,
    example_config,
    run_example,
    run_verify,
)

from helpers import fresh_python

# the package re-exports the function ``transform`` under the module's name
transform_module = importlib.import_module("sbhermite.transform")


def em_config_dict(s=0.5, **overrides):
    root2 = math.sqrt(1.0 - s * s)
    cfg = {
        "version": "v1",
        "n": 1,
        "A": [[[0.0, 1.0 / s]]],
        "B": [[[0.0, root2]]],
        "C": [[[0.0, s]]],
        "rho_fraction": math.sqrt(8.0 / 9.0),
        "X": {"phases": [0.0]},
        "max_degree": 3,
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


#: field -> the config (or encoded GaussPoly) with a given number there
NON_FINITE_CASES = {
    "tolerances.gram": lambda v: em_config_dict(tolerances={"gram": v}),
    "X.phases": lambda v: em_config_dict(X={"phases": [v]}),
    "A[0][0]": lambda v: em_config_dict(A=[[[v, 1.0]]]),
    "B[0][0]": lambda v: em_config_dict(B=[[[0.0, v]]]),
    "C[0][0]": lambda v: em_config_dict(C=[[[v, 0.5]]]),
    "X.matrix[0][0]": lambda v: em_config_dict(X={"matrix": [[[1.0, v]]]}),
    "gausspoly.terms[0]": lambda v: {"terms": [[[0], [v, 0.0]]], "M": [[[0.5, 0.0]]]},
    "gausspoly.M[0][0]": lambda v: {"terms": [[[0], [1.0, 0.0]]], "M": [[[v, 0.0]]]},
}


class TestRunConfig:
    def test_valid_roundtrip(self):
        cfg = RunConfig.from_dict(em_config_dict())
        assert cfg.n == 1
        assert cfg.A[0, 0] == 2j
        assert cfg.X[0, 0] == 1.0

    def test_max_degree_above_170_is_rejected(self, tmp_path, capsys):
        # 171! overflows a float: the run stopped in the family stage with an
        # unnamed OverflowError in a partial report
        assert RunConfig.from_dict(em_config_dict(max_degree=170)).max_degree == 170
        with pytest.raises(ConfigError, match=r"^max_degree: must be an integer in \[0, 170\]"):
            RunConfig.from_dict(em_config_dict(max_degree=171))
        with pytest.raises(ConfigError, match="^max_degree: "):
            run_example("em", 0.5, 171)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(em_config_dict()))
        assert cli_main(["verify", "--config", str(path), "--max-degree", "171"]) == 2
        assert capsys.readouterr().err.startswith("config error: max_degree: must be an integer")

    def test_rho_fraction_bounds(self):
        with pytest.raises(ConfigError, match="0<rho<lambda0"):
            RunConfig.from_dict(em_config_dict(rho_fraction=1.0))
        with pytest.raises(ConfigError, match="rho_fraction"):
            RunConfig.from_dict(em_config_dict(rho_fraction=0.0))

    def test_matrix_shape_error_carries_path(self):
        bad = em_config_dict()
        bad["B"] = [[[0.0, 1.0], [0.0, 1.0]]]
        with pytest.raises(ConfigError, match=r"B\[0\]"):
            RunConfig.from_dict(bad)

    def test_complex_entry_error(self):
        bad = em_config_dict()
        bad["A"] = [[[0.0]]]
        with pytest.raises(ConfigError, match=r"A\[0\]\[0\]"):
            RunConfig.from_dict(bad)

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerances.bogus"):
            RunConfig.from_dict(em_config_dict(tolerances={"bogus": 1e-3}))

    def test_version_checked(self):
        with pytest.raises(ConfigError, match="version"):
            RunConfig.from_dict(em_config_dict(version="v0"))

    def test_explicit_x_matrix(self):
        cfg = RunConfig.from_dict(em_config_dict(X={"matrix": [[[-1.0, 0.0]]]}))
        assert cfg.X[0, 0] == -1.0

    def test_phase_count_must_match_n(self):
        with pytest.raises(ConfigError, match="X.phases"):
            RunConfig.from_dict(em_config_dict(X={"phases": [0.0, 0.0]}))

    def test_x_needs_phases_or_matrix(self):
        with pytest.raises(ConfigError, match="^X: expected 'phases' or 'matrix'"):
            RunConfig.from_dict(em_config_dict(X={"angles": [0.0]}))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"max_degre": 9}, "max_degre"),
            ({"quadrature": {"node": 8}}, "quadrature.node"),
            ({"X": {"phases": [0.0], "angles": [0.0]}}, "X.angles"),
            ({"X": {"phases": [0.0], "matrix": [[[-1.0, 0.0]]]}}, "X"),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, capsys, overrides, field):
        # "max_degre": 9 verified at the default degree 3, "node": 8 ran
        # 64 nodes and an X with both keys dropped its matrix
        cfg = em_config_dict(**overrides)
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            RunConfig.from_dict(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"n": True}, "n"),
            ({"max_degree": True}, "max_degree"),
            ({"max_degree": False}, "max_degree"),
            ({"seed": False}, "seed"),
            ({"seed": True}, "seed"),
            ({"quadrature": {"nodes": True}}, "quadrature.nodes"),
            ({"X": {"phases": [False]}}, "X.phases"),
            ({"tolerances": {"gram": True}}, "tolerances.gram"),
            ({"rho_fraction": True}, "rho_fraction"),
            ({"A": [[[False, True]]]}, "A[0][0]"),
            ({"X": {"matrix": [[[1.0, False]]]}}, "X.matrix[0][0]"),
        ],
    )
    def test_json_booleans_are_no_numbers(self, tmp_path, capsys, overrides, field):
        # bool is an int to Python: "n": true raised a bare TypeError and
        # "max_degree": true failed the family stage with exit 1
        cfg = em_config_dict(**overrides)
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            RunConfig.from_dict(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize("field", ["n", "max_degree", "seed"])
    def test_numpy_integers_pass_the_integer_rule(self, field):
        # np.int64 was a ConfigError in n, max_degree and seed while
        # quadrature.nodes took one; stored as it came, a seed would
        # overflow in the adjoint stage's seed % 2**64
        base = em_config_dict(max_degree=2, seed=2**63 - 1)
        config = RunConfig.from_dict({**base, field: np.int64(base[field])})
        assert type(getattr(config, field)) is int
        assert getattr(config, field) == base[field]

        def report(cfg):
            return json.dumps({k: v for k, v in run_verify(cfg).to_dict().items()
                               if k != "timings"}, sort_keys=True)

        assert report(config) == report(RunConfig.from_dict(base))
        with pytest.raises(ConfigError, match=f"^{field}: "):
            RunConfig.from_dict({**base, field: True})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", list(NON_FINITE_CASES))
    def test_numbers_must_be_finite(self, field, value):
        # an infinite gram tolerance switched the gram checks off, and NaN
        # in X.phases or A failed a later stage with exit 1
        parse = sb.decode_gauss_poly if field.startswith("gausspoly") else RunConfig.from_dict
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            parse(NON_FINITE_CASES[field](value))

    def test_unreadable_config_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            RunConfig.from_json(str(tmp_path / "missing.json"))

    def test_report_to_json(self):
        report = run_verify(RunConfig.from_dict(em_config_dict(max_degree=1)))
        assert json.loads(report.to_json()) == json.loads(json.dumps(report.to_dict()))


class TestRunVerify:
    def test_em_config_passes(self):
        report = run_verify(RunConfig.from_dict(em_config_dict()))
        assert report.overall_pass
        # with the solver eigenbasis (U = 1) and X = 1 the constructed pair
        # lands on a different admissible Q than the canonical U = i choice
        assert report.Q[0, 0].real == pytest.approx(0.75, abs=1e-12)
        assert report.rho2 == pytest.approx((8.0 / 9.0) * (3.0 / 8.0), rel=1e-12)

    def test_em_config_with_pi_phase_matches_canonical_q(self):
        cfg = RunConfig.from_dict(em_config_dict(X={"phases": [math.pi]}))
        report = run_verify(cfg)
        assert report.overall_pass
        assert report.Q[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_random_n2_config_passes(self):
        rng = np.random.default_rng(31)
        pt = sb.random_phase_triple(2, rng)
        cfg = RunConfig.from_dict(
            {
                "version": "v1",
                "n": 2,
                "A": encode_matrix(pt.A),
                "B": encode_matrix(pt.B),
                "C": encode_matrix(pt.C),
                "rho_fraction": 0.5,
                "X": {"phases": [0.3, 1.2]},
                "max_degree": 2,
                "seed": 7,
            }
        )
        report = run_verify(cfg)
        assert report.overall_pass
        assert all(v < 1e-8 or k == "condition1_margin" for k, v in report.residuals.items())

    def test_n1_isometry_regression(self):
        # seed-0 draw 11 of the benchmark's triple recipe: the sampled
        # least-squares fit of the transform raised here (fit residual 5.7e14
        # against a sample norm of 9.2e15); the exact image has unit norm
        def encode(v):
            return [[[v.real, v.imag]]]

        cfg = RunConfig.from_dict(
            {
                "n": 1,
                "A": encode(1.5834728788021222 + 1.3203609870818391j),
                "B": encode(0.6333526228249152 - 2.2035098806466507j),
                "C": encode(0.6836861907765345 + 0.10270701416253594j),
                "rho_fraction": 0.5,
                "X": {"phases": [0.3]},
            }
        )
        report = run_verify(cfg)
        assert report.failed_stage is None
        assert report.residuals["isometry"] <= 1e-12

    def test_report_determinism(self):
        cfg = RunConfig.from_dict(em_config_dict())
        d1 = run_verify(cfg).to_dict()
        d2 = run_verify(cfg).to_dict()
        d1.pop("timings")
        d2.pop("timings")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_report_metrics(self):
        cfg = TestStageWork.n2_deg6_config()
        report = run_verify(cfg)
        metrics = report.to_dict()["metrics"]
        assert set(metrics) == {"family_members", "family_terms", "cond_M_R",
                                "rho_over_lam0", "lam_max_over_lam0",
                                "min_mu_over_lam0", "condition1_margin_over_rho2"}
        assert all(math.isfinite(v) for v in metrics.values())
        assert metrics["family_members"] == len(sb.multi_indices(2, 6))
        # Wick coefficients of the family block: member alpha has |alpha|
        # as its top degree, so it holds at least one nonzero
        assert metrics["family_terms"] >= metrics["family_members"]
        assert metrics["cond_M_R"] >= 1.0
        # lambda_max / lambda_min of the margin's spectrum is cond(M_R)
        wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
        m_r = 2.0 * sb.matrices.real_quadratic_form(wd.phi_zzbar, wd.phi_zz + report.Q)
        assert metrics["cond_M_R"] == pytest.approx(np.linalg.cond(m_r), rel=1e-12)
        assert metrics["rho_over_lam0"] == pytest.approx(cfg.rho_fraction, rel=1e-15)
        assert metrics["lam_max_over_lam0"] >= 1.0
        assert 0.0 < metrics["min_mu_over_lam0"]
        # constructed generators satisfy condition1_margin >= rho^2 / 2
        assert metrics["condition1_margin_over_rho2"] >= 0.5
        # descriptive only: no metric is a residual or carries a verdict
        assert not set(metrics) & (set(report.residuals) | set(report.checks))

    def test_every_residual_keeps_its_tolerance(self):
        # the tolerance key of every reported residual, as the name list of
        # the pipeline gave it before tolerance keys were derived from the
        # names; each key gets its own value here, so a wrong key shows
        tols = {key: (k + 1) * 1e-9 for k, key in enumerate(DEFAULT_TOLERANCES)}
        report = run_verify(RunConfig.from_dict(em_config_dict(tolerances=tols)))
        assert set(report.tolerances) == set(RESIDUAL_TOLERANCE_KEYS) | {"condition1_margin"}
        for residual, key in RESIDUAL_TOLERANCE_KEYS.items():
            assert report.tolerances[residual] == tols[key], residual
        golden = ("golden_Q", "golden_S", "golden_mu2", "golden_rho2")
        base = DEFAULT_TOLERANCES["golden"]
        for name, s in (("em", 0.5), ("ghs", 0.3), ("em", 0.95)):
            got = run_example(name, s).tolerances
            assert set(got) == set(RESIDUAL_TOLERANCE_KEYS) | {"condition1_margin", *golden}
            for residual, key in RESIDUAL_TOLERANCE_KEYS.items():
                assert got[residual] == DEFAULT_TOLERANCES[key], residual
            assert got["golden_mu2"] == got["golden_rho2"] == base
            assert min(got["golden_Q"], got["golden_S"]) >= base
        # at s = 0.95 the closed-form gate of S widens past the base tolerance
        assert got["golden_S"] > base


#: residual name -> its key of the tolerances, for every residual of a run
RESIDUAL_TOLERANCE_KEYS = {
    "ccr": "ccr", "eq2202": "eq2202", "symmetry_Q": "symmetry_Q",
    "symmetry_S": "symmetry_S", "sq_closed_form": "sq_closed_form",
    "gram_diag_maxrel": "gram", "gram_max_offdiag": "gram", "eigen_max": "eigen",
    "rodrigues_max": "rodrigues", "adjoint_max": "adjoint",
    "completeness_residual": "completeness", "isometry": "isometry",
}


class TestRunExample:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_em_reproduction(self, s):
        report = run_example("em", s, max_degree=2)
        assert report.overall_pass
        assert report.residuals["golden_Q"] <= 1e-12
        assert report.residuals["golden_S"] <= 1e-12
        assert report.rho2 == pytest.approx((1 - s) / (1 + s), rel=1e-14)

    def test_ghs_reproduction(self):
        report = run_example("ghs", 0.5, max_degree=2)
        assert report.overall_pass
        assert report.residuals["golden_Q"] <= 1e-12
        assert report.mu2[0] == pytest.approx(1.0 / 48.0, abs=1e-14)
        assert report.residuals["isometry"] <= report.tolerances["isometry"]
        assert report.checks["isometry"]
        assert report.skipped == []

    def test_near_boundary_warns_but_passes(self):
        report = run_example("em", 0.999, max_degree=2)
        assert report.overall_pass
        assert report.warnings
        assert report.mu2[0] == pytest.approx(0.001**3 / (4 * 0.999 * 1.999), rel=1e-6)

    def test_ghs_near_boundary_passes_at_degree_six(self):
        # rho comes from the computed lambda_0 times 2 sqrt(s) / (1 + s), which
        # keeps golden_S near 1.4e-10 and rodrigues_max near 1.9e-10 here
        report = run_example("ghs", 0.999, max_degree=6)
        assert report.overall_pass
        assert report.residuals["rodrigues_max"] <= report.tolerances["rodrigues_max"]

    @pytest.mark.parametrize("max_degree", [13, 16, 20])
    def test_em_at_high_degree(self, max_degree):
        # Gram products of real degree 26 to 40: inner products in the Wick
        # frame are diagonal sums at any degree, so the whole suite runs and
        # passes, isometry at every degree too
        report = run_example("em", 0.5, max_degree=max_degree)
        assert report.failed_stage is None and report.overall_pass
        assert report.residuals["gram_max_offdiag"] <= 1e-14
        assert report.residuals["isometry"] <= 1e-14

    def test_non_finite_residuals_are_named(self):
        # at s = 0.9 and degree 170 the Gram and isometry stages leave NaN
        # residuals; each is named in the warnings once, though run_example
        # finalizes the report twice, and so is their cause: the Wick
        # weight normalizer * a! (normalizer 29.8) of both frames overflows
        # at degree 170; one degree lower no weight does
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_example("em", 0.9, max_degree=170)
        assert report.failed_stage is None and not report.overall_pass
        bad = sorted(k for k, v in report.residuals.items() if not math.isfinite(v))
        assert bad == sorted(["gram_diag_maxrel", "gram_max_offdiag",
                              "completeness_residual", "isometry"])
        named = [w for w in report.warnings if w.startswith("non-finite residual")]
        assert sorted(named) == [f"non-finite residual {k}: nan" for k in bad]
        causes = [w for w in report.warnings if w.startswith("Wick weights")]
        assert causes == [f"Wick weights of the frame of {frame} overflow from degree 170: "
                          "normalizer 29.8 times a!" for frame in ("Q", "the image exponent")]
        report = run_example("em", 0.9, max_degree=169)
        assert report.warnings == [] and report.overall_pass

    def test_out_of_range_s(self):
        with pytest.raises(ConfigError):
            run_example("em", 1.5)
        with pytest.raises(ConfigError):
            run_example("nope", 0.5)


class TestCli:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_verify_pass_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict(max_degree=2))
        assert cli_main(["verify", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["overall_pass"] is True
        assert out["version"] == "v1"

    def test_verify_report_to_file(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict(max_degree=2))
        out_path = tmp_path / "report.json"
        assert cli_main(["verify", "--config", path, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["overall_pass"] is True

    @pytest.mark.parametrize("kind", ["verify", "example"])
    def test_report_file_is_the_report_on_one_sorted_line(self, kind, tmp_path, monkeypatch):
        # the file parses to exactly the report's to_dict(), and it is the
        # compact encoding of that dict with sorted keys, one line
        name = "run_verify" if kind == "verify" else "run_example"
        run, reports = getattr(sb.pipeline, name), []
        def kept(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(sb.pipeline, name, kept)
        if kind == "verify":
            argv = ["verify", "--config", self.write_config(tmp_path, em_config_dict(max_degree=2))]
        else:
            argv = ["example", "--name", "ghs", "--s", "0.5", "--max-degree", "2"]
        out_path = tmp_path / "report.json"
        assert cli_main([*argv, "--out", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        assert json.loads(text) == reports[0].to_dict()
        assert text == json.dumps(reports[0].to_dict(), sort_keys=True) + "\n"

    def test_verify_non_finite_tolerance_exit_two(self, tmp_path, capsys):
        # JSON Infinity used to pass as a tolerance and switch the check off
        path = self.write_config(tmp_path, em_config_dict(tolerances={"gram": math.inf}))
        assert cli_main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: tolerances.gram: ")

    def test_verify_failure_exit_one(self, tmp_path, capsys):
        cfg = em_config_dict(max_degree=2, tolerances={"ccr": 1e-30})
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["verify", "--config", path]) == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict(rho_fraction=1.0))
        assert cli_main(["verify", "--config", path]) == 2

    def test_module_error_surfaces_as_failure(self, tmp_path, capsys):
        cfg = em_config_dict()
        cfg["B"] = [[[0.0, 0.0]]]  # singular
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["verify", "--config", path]) == 1
        assert "validate" in capsys.readouterr().err

    def test_example_subcommand(self, capsys):
        assert cli_main(["example", "--name", "em", "--s", "0.5", "--max-degree", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["Q"][0][0][0] == pytest.approx(0.5, abs=1e-12)

    def test_example_equals_verify_on_its_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, sb.example_config("ghs", 0.4, max_degree=2))
        assert cli_main(["verify", "--config", path]) == 0
        verified = json.loads(capsys.readouterr().out)
        argv = ["example", "--name", "ghs", "--s", "0.4", "--max-degree", "2"]
        assert cli_main(argv) == 0
        example = json.loads(capsys.readouterr().out)
        golden = {k for k in example["residuals"] if k.startswith("golden_")}
        assert len(golden) == 4
        for key in ("residuals", "checks", "tolerances"):
            rest = {k: v for k, v in example[key].items() if k not in golden}
            assert rest == verified[key]
        for key in ("Q", "S", "rho2", "mu2", "lambda", "skipped", "warnings"):
            assert example[key] == verified[key]

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "--max-degree", "-1"], "max_degree"),
            (["verify", "--rho-fraction", "1.5"], "rho_fraction"),
            (["construct", "--rho-fraction", "0"], "rho_fraction"),
            (["transform", "--z", "0,0", "--nodes", "0"], "quadrature.nodes"),
            (["transform", "--z", "0,0", "--nodes", "2"], "quadrature.nodes"),
            (["transform", "--z", "0,0", "--nodes", "-3"], "quadrature.nodes"),
            (["example", "--nodes", "100000"], "quadrature.nodes"),
            (["example", "--nodes", "3"], "quadrature.nodes"),
            (["example", "--max-degree", "-1"], "max_degree"),
            (["transform", "--z", "0,0", "--nodes", "371"], "quadrature.nodes"),
            (["transform", "--z", "0,0", "--nodes", "400"], "quadrature.nodes"),
            (["example", "--nodes", "371"], "quadrature.nodes"),
        ],
    )
    def test_out_of_range_override_exit_two(self, tmp_path, capsys, argv, field):
        if argv[0] == "example":
            argv = argv[:1] + ["--name", "em", "--s", "0.5"] + argv[1:]
        else:
            path = self.write_config(tmp_path, em_config_dict())
            argv = argv[:1] + ["--config", path] + argv[1:]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {field}:")

    def test_override_applies_when_in_range(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict(max_degree=1))
        argv = ["verify", "--config", path, "--rho-fraction", "0.5", "--max-degree", "2"]
        assert cli_main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho2"] == pytest.approx(0.25 * (3.0 / 8.0), rel=1e-12)
        # the override is accepted, but the transform is exact: a 4-node
        # rule, which cannot integrate h_5, gives the 64-node value
        values = []
        for nodes in ("4", "64"):
            argv = ["transform", "--config", path, "--hermite", "5", "--z", "0.3,0.1",
                    "--nodes", nodes]
            assert cli_main(argv) == 0
            values.append(json.loads(capsys.readouterr().out)["points"][0]["value"])
        assert values[0] == values[1]

    def test_back_to_back_calls_share_no_state(self, tmp_path, capsys):
        # main parses with one parser per process; no option may outlive its call
        path = self.write_config(tmp_path, em_config_dict(max_degree=1))
        runs = [["--max-degree", "2", "--rho-fraction", "0.5"], [], ["--max-degree", "0"], []]
        members, rho2 = [], []
        for extra in runs:
            assert cli_main(["verify", "--config", path] + extra) == 0
            out = json.loads(capsys.readouterr().out)
            members.append(out["metrics"]["family_members"])
            rho2.append(out["rho2"])
        assert members == [3, 2, 1, 2]
        assert rho2[0] != rho2[1] == rho2[2] == rho2[3]
        assert cli_main(["example", "--name", "em", "--s", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["metrics"]["family_members"] == 4

    #: run in a fresh interpreter: the CLI on argv, then its exit code and
    #: every module loaded
    FRESH_CLI = (
        "import contextlib, io, json, sys\n"
        "from sbhermite.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )

    @classmethod
    def fresh_cli(cls, *argv) -> tuple[int, set]:
        """Exit code and ``sys.modules`` of the CLI run on ``argv`` in a
        fresh interpreter."""
        code, modules = fresh_python(cls.FRESH_CLI, *argv)
        return code, set(modules)

    def test_verify_and_example_leave_numpy_random_unloaded(self, tmp_path):
        # numpy imports numpy.random lazily, and loading it costs several MB
        # of resident memory; no verify or example run may reach it
        path = self.write_config(tmp_path, example_config("ghs", 0.5))
        for argv in (["verify", "--config", path], ["example", "--name", "em", "--s", "0.5"]):
            code, modules = self.fresh_cli(*argv)
            assert code == 0 and "numpy.random" not in modules, argv

    @pytest.mark.parametrize("argv, engine", [
        (["validate"], ()),
        (["construct"], ()),
        (["construct", "--family", "1"], ("gausspoly", "integrals", "pipeline", "transform")),
        (["transform", "--z", "0.3,0.1"], ("gausspoly", "integrals", "transform")),
    ])
    def test_subcommand_loads_only_the_modules_it_runs(self, tmp_path, argv, engine):
        # a fresh interpreter compiles every module it imports; validate and
        # plain construct need no engine module, transform no pipeline
        path = self.write_config(tmp_path, em_config_dict())
        code, modules = self.fresh_cli(argv[0], "--config", path, *argv[1:])
        base = ("", ".cli", ".config", ".errors", ".matrices", ".model")
        want = {f"sbhermite{name}" for name in base} | {f"sbhermite.{m}" for m in engine}
        assert code == 0
        assert {m for m in modules if m.split(".")[0] == "sbhermite"} == want

    def test_validate_and_construct(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict())
        assert cli_main(["validate", "--config", path]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["valid"] is True
        assert cli_main(["construct", "--config", path]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["rho2"] == pytest.approx((8.0 / 9.0) * (3.0 / 8.0), rel=1e-12)

    def test_transform_subcommand(self, tmp_path, capsys):
        std = {
            "version": "v1",
            "n": 1,
            "A": [[[0.0, 0.5]]],
            "B": [[[0.0, -1.0]]],
            "C": [[[0.0, 1.0]]],
            "rho_fraction": 0.5,
        }
        path = self.write_config(tmp_path, std)
        code = cli_main(
            ["transform", "--config", path, "--hermite", "0", "--z", "0.0,0.0; 1.0,0.5"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        want = (2 * math.pi) ** -0.5
        for row in out["points"]:
            assert row["value"][0] == pytest.approx(want, rel=1e-8)
            assert row["value"][1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("name, hermite", [("em", "3"), ("ghs", "1,2")])
    def test_transform_evaluates_all_points_in_one_call(
        self, tmp_path, capsys, monkeypatch, name, hermite
    ):
        path = self.write_config(tmp_path, example_config(name, 0.45))
        config = RunConfig.from_json(path)
        pt = sb.validate_phase_triple(config.A, config.B, config.C)
        u = sb.TestFunction.hermite_basis([int(v) for v in hermite.split(",")])
        rng = np.random.default_rng(41 + pt.n)
        Z = 0.5 * (rng.standard_normal((3, pt.n)) + 1j * rng.standard_normal((3, pt.n)))
        quad = sb.QuadSpec(nodes=config.nodes)
        want = np.array([sb.transform(pt, u, z, quad) for z in Z])
        rows = []
        exact = transform_module._evaluate

        def counting(gp, z):
            rows.append(len(z))
            return exact(gp, z)

        # the evaluation core, which the points reach once checked
        monkeypatch.setattr(transform_module, "_evaluate", counting)
        text = "; ".join(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in z) for z in Z)
        argv = ["transform", "--config", path, "--hermite", hermite, "--z", text]
        assert cli_main(argv) == 0
        assert rows == [3]
        out = json.loads(capsys.readouterr().out)["points"]
        got = np.array([complex(*row["value"]) for row in out])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_bad_points_config_error(self, tmp_path):
        std = em_config_dict()
        path = self.write_config(tmp_path, std)
        assert cli_main(["transform", "--config", path, "--z", "zzz"]) == 2

    @pytest.mark.parametrize("argv, code, err", [
        (["construct", "--family", "-1"], 2, "config error: --family"),
        (["transform", "--z", "0,0 1,1"], 2, "config error: --z: point"),
        (["transform", "--z", "a,b"], 2, "config error: --z: component 'a,b' is not numeric"),
        (["transform", "--z", "nan,0"], 2, "config error: --z: component 'nan,0' is not finite"),
        (["transform", "--z", "inf,0"], 2, "config error: --z: component 'inf,0' is not finite"),
        (["transform", "--z", "0,-inf"], 2, "config error: --z: component '0,-inf' is not finite"),
        # parses as a float, but overflows to inf
        (["transform", "--z", "1e400,0"], 2,
         "config error: --z: component '1e400,0' is not finite"),
    ])
    def test_cli_input_errors(self, tmp_path, capsys, argv, code, err):
        path = self.write_config(tmp_path, em_config_dict())
        assert cli_main([argv[0], "--config", path, *argv[1:]]) == code
        assert capsys.readouterr().err.startswith(err)

    def test_module_error_exit_one(self, tmp_path, capsys):
        # the swap intertwines no weight with distinct lambda (0.352, 2.436
        # here): build_generator raises, which exits 1 and writes no output
        pt = sb.random_phase_triple(2, np.random.default_rng(5))
        cfg = {"version": "v1", "n": 2, "A": encode_matrix(pt.A), "B": encode_matrix(pt.B),
               "C": encode_matrix(pt.C), "rho_fraction": 0.5,
               "X": {"matrix": encode_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))}}
        path = self.write_config(tmp_path, cfg)
        out_path = tmp_path / "generator.json"
        assert cli_main(["construct", "--config", path, "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("error: IntertwinerInvalid: ")
        assert not out_path.exists()

    def test_construct_family_emission(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict())
        assert cli_main(["construct", "--config", path, "--family", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["family"]) == {"0", "1", "2"}
        ground = out["family"]["0"]
        assert ground["terms"] == [[[0], [1.0, 0.0]]]
        gp = sb.decode_gauss_poly(ground)
        assert gp.poly.terms == {(0,): 1.0}

    def test_gauss_poly_encoding_roundtrip(self):
        gp = sb.GaussPoly(
            sb.PolyC(2, {(1, 0): 2.0 - 1.0j, (0, 2): 0.5j}),
            np.array([[0.5, 0.25j], [0.25j, -0.1]]),
        )
        back = sb.decode_gauss_poly(sb.encode_gauss_poly(gp))
        assert back.poly.terms == gp.poly.terms
        assert np.allclose(back.M, gp.M)

    def test_decode_gauss_poly_needs_a_symmetric_exponent(self):
        # an asymmetric M decoded and gave wrong derivatives
        raw = {"terms": [[[0, 0], [1.0, 0.0]]],
               "M": [[[0.3, 0.0], [0.2, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}
        with pytest.raises(ConfigError, match=r"^gausspoly\.M: must be symmetric"):
            sb.decode_gauss_poly(raw)
        raw["M"][1][0] = [0.2, 0.0]
        assert sb.decode_gauss_poly(raw).M[1, 0] == 0.2

    @pytest.mark.parametrize("alpha", [[1.5], [-2], ["x"], [None], [0, 1], [], "1", [True]])
    def test_decode_gauss_poly_checks_multi_indices(self, alpha):
        # [1.5] was stored as key (1,), [-2] was accepted and ["x"] raised a
        # bare ValueError; each now names the offending term
        raw = {"terms": [[[0], [1.0, 0.0]], [alpha, [2.0, 0.0]]], "M": [[[0.5, 0.0]]]}
        with pytest.raises(ConfigError, match=r"^gausspoly\.terms\[1\]: "):
            sb.decode_gauss_poly(raw)
        raw["terms"][1][0] = [1.0]
        assert sb.decode_gauss_poly(raw).poly.terms == {(0,): 1.0, (1,): 2.0}
        raw["terms"] = 5  # was a bare TypeError
        with pytest.raises(ConfigError, match=r"^gausspoly\.terms: must be a list"):
            sb.decode_gauss_poly(raw)

    def test_decode_gauss_poly_rejects_a_repeated_multi_index(self):
        # the second [1, 0] silently replaced the first: {(1, 0): 2}
        raw = {"terms": [[[1, 0], [1.0, 0.0]], [[1, 0], [2.0, 0.0]]],
               "M": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        with pytest.raises(ConfigError, match=r"^gausspoly\.terms\[1\]: repeats the "
                                              r"multi-index \[1, 0\] of gausspoly\.terms\[0\]$"):
            sb.decode_gauss_poly(raw)
        raw["terms"][1][0] = [1.0, 0.0]  # the same index, written as floats
        with pytest.raises(ConfigError, match=r"^gausspoly\.terms\[1\]: repeats"):
            sb.decode_gauss_poly(raw)
        raw["terms"][1][0] = [0, 1]
        assert sb.decode_gauss_poly(raw).poly.terms == {(1, 0): 1.0, (0, 1): 2.0}

    def test_bad_hermite_index_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict())
        for bad in ("x", "-1", "1,2", "1.5", ""):
            argv = ["transform", "--config", path, "--hermite", bad, "--z", "0.3,0.1"]
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith("config error: --hermite:")

    def test_hermite_index_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys):
        # T h_alpha is scaled by 1 / sqrt(alpha!): 171! is beyond the float
        # range, which was "error: OverflowError" and exit 1
        path = self.write_config(tmp_path, em_config_dict())
        argv = ["transform", "--config", path, "--hermite", "171", "--z", "0.3,0.1"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: --hermite: multi-index (171,): "
                                "alpha! is beyond the float range\n")
        assert cli_main([*argv[:4], "170", *argv[5:]]) == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 1

    @pytest.mark.parametrize("t, degree, first", [(1.0, 600, 394), (10.0, 170, 161)])
    def test_construct_refuses_a_family_that_is_not_finite(self, tmp_path, capsys,
                                                           t, degree, first):
        # the em family at s = 0.5 overflows from degree 394, and in units
        # t = 10 (the triple (t^2 A, t B, C)) from 161, inside MAX_DEGREE;
        # each run exited 0 and wrote NaN and Infinity, which are not JSON
        s = 0.5
        cfg = em_config_dict(s, A=[[[0.0, t * t / s]]], B=[[[0.0, t * math.sqrt(1 - s * s)]]])
        path = self.write_config(tmp_path, cfg)
        out_path = tmp_path / "family.json"
        argv = ["construct", "--config", path, "--family", str(degree), "--out", str(out_path)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (f"error: ValueError: --family: member ({first},) "
                                           "has coefficients that are not finite\n")
        assert not out_path.exists()
        assert cli_main([*argv[:4], str(first - 1), *argv[5:]]) == 0
        family = json.loads(out_path.read_text(), parse_constant=pytest.fail)["family"]
        assert len(family) == first

    def test_rho_fraction_flag(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict())
        assert cli_main(["construct", "--config", path, "--rho-fraction", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho2"] == pytest.approx(0.25 * (3.0 / 8.0), rel=1e-12)
        assert cli_main(["construct", "--config", path, "--rho-fraction", "1.5"]) == 2

    def test_tolerance_profile_env(self, monkeypatch):
        # no environment variable sets a tolerance: "loose" loosened seven
        # of them, so a verdict depended on more than the config
        for profile in ("loose", "strict", "bogus"):
            monkeypatch.setenv("SBHERMITE_TOL_PROFILE", profile)
            assert RunConfig.from_dict(em_config_dict()).tolerances == DEFAULT_TOLERANCES


class TestPartialReport:
    """A stage that raises leaves a partial report with its timings."""

    @staticmethod
    def fail_isometry(monkeypatch):
        gram = sb.pipeline._gram_block
        calls = []

        def boom(cache, block):
            # the gram stage takes the first Gram, the isometry stage the second
            calls.append(cache)
            if len(calls) == 2:
                raise NonIntegrableWeight("combined exponent is not positive definite")
            return gram(cache, block)

        monkeypatch.setattr("sbhermite.pipeline._gram_block", boom)

    def test_run_example_carries_partial_report(self, monkeypatch):
        self.fail_isometry(monkeypatch)
        with pytest.raises(StageFailure) as info:
            run_example("em", 0.5, max_degree=2)
        report = info.value.report
        assert info.value.stage == "isometry"
        assert report.failed_stage == "isometry"
        assert report.error_type == "NonIntegrableWeight"
        assert report.overall_pass is False
        stages = ("validate", "weight", "generator", "algebra", "family", "gram",
                  "eigen", "rodrigues", "adjoint", "completeness", "isometry")
        assert tuple(report.timings) == stages
        assert all(t >= 0.0 for t in report.timings.values())
        assert "isometry" not in report.residuals
        assert set(report.checks) == set(report.residuals)
        assert all(report.checks.values())
        assert report.Q[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_cli_writes_partial_report(self, monkeypatch, tmp_path, capsys):
        self.fail_isometry(monkeypatch)
        out_path = tmp_path / "report.json"
        argv = ["example", "--name", "em", "--s", "0.5", "--max-degree", "2",
                "--out", str(out_path)]
        assert cli_main(argv) == 1
        assert "stage 'isometry'" in capsys.readouterr().err
        assert out_path.read_text().count("\n") == 1  # one compact line
        report = json.loads(out_path.read_text())
        assert report["failed_stage"] == "isometry"
        assert report["error_type"] == "NonIntegrableWeight"
        assert report["overall_pass"] is False
        assert "isometry" in report["timings"] and "gram" in report["timings"]
        assert report["residuals"]["ccr"] <= report["tolerances"]["ccr"]

    def test_basis_failure_writes_family_report(self, monkeypatch, tmp_path, capsys):
        # the basis is formed inside the family stage, so a run whose basis
        # cannot be allocated still writes its partial report
        def no_memory(n, degree):
            raise MemoryError("Unable to allocate the basis")

        monkeypatch.setattr("sbhermite.pipeline._basis_array", no_memory)
        out_path = tmp_path / "report.json"
        argv = ["example", "--name", "em", "--s", "0.5", "--max-degree", "2",
                "--out", str(out_path)]
        assert cli_main(argv) == 1
        assert "stage 'family'" in capsys.readouterr().err
        report = json.loads(out_path.read_text())
        assert report["failed_stage"] == "family"
        assert report["error_type"] == "MemoryError"
        assert report["overall_pass"] is False
        assert "family" in report["timings"] and "gram" not in report["timings"]
        assert "ccr" in report["residuals"]

    def test_validate_failure_report(self, tmp_path, capsys):
        cfg = em_config_dict()
        cfg["B"] = [[[0.0, 0.0]]]  # singular
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failed_stage"] == "validate"
        assert report["error_type"] == "SingularB"
        assert list(report["timings"]) == ["validate"]
        assert report["Q"] is None and report["residuals"] == {}
        assert report["overall_pass"] is False

    def test_interrupt_passes_through_with_its_timing(self, monkeypatch):
        # a BaseException that is no Exception is not a stage failure: it
        # propagates as itself, the stage's timing recorded, no stage named
        report_type, reports, interrupt = sb.pipeline.VerificationReport, [], KeyboardInterrupt()

        def recorded(n):
            reports.append(report_type(n=n))
            return reports[-1]

        def interrupted(cache, block):
            raise interrupt

        monkeypatch.setattr(sb.pipeline, "VerificationReport", recorded)
        monkeypatch.setattr(sb.pipeline, "_gram_block", interrupted)
        with pytest.raises(KeyboardInterrupt) as info:
            run_example("em", 0.5, max_degree=2)
        assert info.value is interrupt
        (report,) = reports
        assert tuple(report.timings) == ("validate", "weight", "generator", "algebra",
                                         "family", "gram")
        assert report.failed_stage is None and report.error_type is None

    def test_passing_report_names_no_failure(self):
        report = run_verify(RunConfig.from_dict(em_config_dict(max_degree=2)))
        out = report.to_dict()
        assert out["failed_stage"] is None and out["error_type"] is None


class TestStageWork:
    """Stage-wide batching: the draws it keeps and the work it does."""

    @staticmethod
    def splitmix64(seed):
        """Scalar splitmix64 on Python integers: the published generator."""
        state = seed % 2**64
        while True:
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            yield z ^ (z >> 31)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adjoint_draws_match_scalar_recipe(self, n):
        # the vectorized draws follow the scalar recipe: per triple, a
        # Box-Muller pair of uniforms per coefficient of f, then of g, then
        # one uniform for the component index
        stream = (z >> 11 for z in self.splitmix64(3))
        f, g, comps = _adjoint_draws(n, 3)
        m = len(sb.multi_indices(n, 3))
        assert f.shape == g.shape == (10, m) and comps.shape == (10,)
        for t in range(10):
            for block in (f, g):
                for c in block[t].tolist():
                    u, v = next(stream) / 2**53, next(stream) / 2**53
                    radius = math.sqrt(-2.0 * math.log(1.0 - u))
                    want = complex(radius * math.cos(2.0 * math.pi * v),
                                   radius * math.sin(2.0 * math.pi * v))
                    assert abs(c - want) <= 1e-14 * abs(want)
            assert comps[t] == math.floor(next(stream) / 2**53 * n)
            assert 0 <= comps[t] < n

    def test_adjoint_draws_pinned(self):
        # the splitmix64 stream of seed 0 (top 53 bits as integers) and the
        # draws it gives at n = 2, pinned so that no numpy or Python upgrade
        # moves them silently; the normals go through numpy's log, cos and
        # sin, so they are held to a few ulps, the indices exactly
        assert [int(u * 2**53) for u in _uniforms(0, 3)] == [
            0x1C4415072F63B9, 0xDCF13CD54372C, 0xD88BA3100128]
        f, g, comps = _adjoint_draws(2, 0)
        pinned = {
            complex(f[0, 0]): (float.fromhex("-0x1.e247d108691cfp+0"),
                               float.fromhex("0x1.baa0a4a1ef33bp-1")),
            complex(g[9, 5]): (float.fromhex("-0x1.1a29a52092f78p-6"),
                               float.fromhex("0x1.331cb8cb36140p-1")),
        }
        for got, (re_, im_) in pinned.items():
            assert abs(got - complex(re_, im_)) <= 1e-15 * abs(complex(re_, im_))
        assert comps.tolist() == [1, 0, 1, 1, 1, 0, 1, 0, 1, 0]

    def test_adjoint_draws_follow_the_seed(self):
        for n in (1, 2, 3, 4):
            first = _adjoint_draws(n, 11)
            assert all(np.array_equal(a, b) for a, b in zip(first, _adjoint_draws(n, 11)))
            other = _adjoint_draws(n, 12)
            assert not np.array_equal(first[0], other[0])
            assert not np.array_equal(first[1], other[1])
        # a seed enters modulo 2^64
        assert np.array_equal(_adjoint_draws(2, 5)[0], _adjoint_draws(2, 5 + 2**64)[0])

    def test_seeded_reports_are_deterministic(self):
        # two runs of one config agree, timings aside; another seed moves
        # only the adjoint residual
        reports = {}
        for seed in (7, 8):
            cfg = dataclasses.replace(self.n2_deg6_config(), seed=seed)
            runs = [run_verify(cfg).to_dict() for _ in range(2)]
            for out in runs:
                out.pop("timings")
            assert runs[0] == runs[1]
            reports[seed] = runs[0]
        moved = {k for k, v in reports[7]["residuals"].items() if reports[8]["residuals"][k] != v}
        assert moved == {"adjoint_max"}

    @staticmethod
    def n2_deg6_config(seed=31):
        pt = sb.random_phase_triple(2, np.random.default_rng(seed))
        return RunConfig.from_dict(
            {
                "n": 2,
                "A": encode_matrix(pt.A),
                "B": encode_matrix(pt.B),
                "C": encode_matrix(pt.C),
                "rho_fraction": 0.5,
                "X": {"phases": [0.3, 1.2]},
                "max_degree": 6,
                "seed": 7,
            }
        )

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_gram_verdicts_match_pairwise_loop(self, seed):
        cfg = self.n2_deg6_config(seed)
        report = run_verify(cfg)
        wd = sb.compute_weight_data(sb.validate_phase_triple(cfg.A, cfg.B, cfg.C))
        gen = sb.build_generator(wd, cfg.rho_fraction * wd.lam0, cfg.X)
        # the Gram the pipeline builds: the family chain in the frame of Q
        cache = sb.make_moment_cache(wd, gen.Q)
        ladder = _frame_ladder(wd, gen, cache)
        keys = sb.multi_indices(2, cfg.max_degree)
        block = _chain_rows([(ladder[1], 1.0)], keys)[0]
        g = _gram_block(cache, block)
        diag_rel = offdiag_rel = 0.0
        for a, ka in enumerate(keys):
            predicted = (2.0 * gen.rho2) ** sum(ka) * sb.mi_factorial(ka) * g[0, 0].real
            diag_rel = max(diag_rel, abs(g[a, a] - predicted) / g[a, a].real)
            for b in range(len(keys)):
                if b != a:
                    offdiag_rel = max(offdiag_rel, abs(g[a, b]) / g[a, a].real)
        assert report.residuals["gram_diag_maxrel"] == diag_rel
        assert report.residuals["gram_max_offdiag"] == offdiag_rel

    @pytest.mark.parametrize("name", ["em", "ghs"])
    def test_completeness_covers_the_top_degree(self, monkeypatch, name):
        # the family spans every Wick power through max_degree; with its
        # last member, of degree max_degree, a copy of member 1, it does not
        assert run_example(name, 0.5, max_degree=4).residuals["completeness_residual"] <= 1e-14
        chain = sb.pipeline._chain_rows

        def duplicated(lanes, targets):
            blocks = chain(lanes, targets).copy()
            blocks[0, -1] = blocks[0, 1]  # lane 0 is the family
            return blocks

        monkeypatch.setattr(sb.pipeline, "_chain_rows", duplicated)
        report = run_example(name, 0.5, max_degree=4)
        assert report.residuals["completeness_residual"] > 0.1
        assert not report.checks["completeness_residual"]

    @staticmethod
    def count_stage_calls(monkeypatch, names) -> Counter:
        """Counts, per (stage, name), the calls of the functions ``names``
        of gausspoly, integrals and pipeline in the runs that follow."""
        calls = Counter()
        stage = [None]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[stage[0], name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for mod in (sb.gausspoly, sb.integrals, sb.pipeline):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        guard = sb.pipeline._stage

        @contextlib.contextmanager
        def staged(report, tols, name):
            stage[0] = name
            try:
                with guard(report, tols, name):
                    yield
            finally:
                stage[0] = None

        monkeypatch.setattr(sb.pipeline, "_stage", staged)
        return calls

    @pytest.mark.parametrize("name, degree", [("em", 0), ("em", 5), ("ghs", 3), ("n2", 6)])
    def test_kernel_calls_of_the_chained_blocks(self, monkeypatch, name, degree):
        # the family, Rodrigues and image blocks are three lanes of one
        # chain, one kernel call per degree layer, all in the family stage;
        # the adjoint stage applies lower_i and raise_i in one call, and the
        # eigen stage makes none (one product with the Hamiltonian's rows)
        if name == "n2":
            cfg = self.n2_deg6_config()
        else:
            cfg = RunConfig.from_dict(sb.example_config(name, 0.5, max_degree=degree))
        calls = self.count_stage_calls(monkeypatch, ("_apply_block",))
        report = run_verify(cfg)
        assert report.failed_stage is None
        kernel = {stage: count for (stage, _), count in calls.items()}
        assert "rodrigues" not in kernel and "isometry" not in kernel
        assert kernel.get("family", 0) == degree
        assert kernel["adjoint"] == 1
        assert "eigen" not in kernel

    def test_call_counts_per_stage(self, monkeypatch):
        cfg = self.n2_deg6_config()
        names = ("apply_op", "_apply_block", "_hamiltonian_rows", "creation_ops", "hphi_inner",
                 "_wick_block")
        calls = self.count_stage_calls(monkeypatch, names)
        report = run_verify(cfg)
        assert report.failed_stage is None
        n, degree = 2, 6
        assert calls["adjoint", "hphi_inner"] == calls["completeness", "hphi_inner"] == 0
        # every stage builds its blocks in the Wick frame: no monomial
        # block is converted
        assert sum(v for (_, name), v in calls.items() if name == "_wick_block") == 0
        # the family stage builds the frame ladder that eigen and adjoint use
        assert calls["family", "creation_ops"] == 1
        assert calls["eigen", "creation_ops"] == calls["adjoint", "creation_ops"] == 0
        # whole coefficient blocks through the one kernel, never member by member
        assert calls["family", "_apply_block"] <= degree
        assert calls["eigen", "_apply_block"] == 0
        assert calls["eigen", "_hamiltonian_rows"] == 1
        assert sum(v for (_, name), v in calls.items() if name == "_hamiltonian_rows") == 1
        assert calls["rodrigues", "_apply_block"] <= n * degree
        assert calls["adjoint", "_apply_block"] <= 2 * n
        for name in ("family", "eigen", "rodrigues", "adjoint"):
            assert calls[name, "apply_op"] == 0, name
