"""Config parsing, verification pipeline, report contracts, and the CLI."""

import json
import math

import numpy as np
import pytest

import sbhermite as sb
from sbhermite.cli import main as cli_main
from sbhermite.errors import ConfigError, FitFailure
from sbhermite.pipeline import RunConfig, StageFailure, run_example, run_verify


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


class TestRunConfig:
    def test_valid_roundtrip(self):
        cfg = RunConfig.from_dict(em_config_dict())
        assert cfg.n == 1
        assert cfg.A[0, 0] == 2j
        assert cfg.X[0, 0] == 1.0

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
                "A": sb.pipeline.encode_matrix(pt.A),
                "B": sb.pipeline.encode_matrix(pt.B),
                "C": sb.pipeline.encode_matrix(pt.C),
                "rho_fraction": 0.5,
                "X": {"phases": [0.3, 1.2]},
                "max_degree": 2,
                "seed": 7,
            }
        )
        report = run_verify(cfg)
        assert report.overall_pass
        assert all(v < 1e-8 or k == "condition1_margin" for k, v in report.residuals.items())

    def test_report_determinism(self):
        cfg = RunConfig.from_dict(em_config_dict())
        d1 = run_verify(cfg).to_dict()
        d2 = run_verify(cfg).to_dict()
        d1.pop("timings")
        d2.pop("timings")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


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
        assert "isometry" in report.skipped

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

    def test_example_tolerances_pass_the_schema(self):
        with pytest.raises(ConfigError, match="tolerances.nope"):
            run_example("em", 0.5, tolerances={"nope": 1.0})
        report = run_example("em", 0.5, max_degree=1, tolerances={"golden": 1e-11})
        assert report.tolerances["golden_rho2"] == 1e-11

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
        # a 4-node rule cannot integrate h_5 exactly; the override must reach it
        values = []
        for nodes in ("4", "64"):
            argv = ["transform", "--config", path, "--hermite", "5", "--z", "0.3,0.1",
                    "--nodes", nodes]
            assert cli_main(argv) == 0
            values.append(json.loads(capsys.readouterr().out)["points"][0]["value"])
        assert values[0] != pytest.approx(values[1], rel=1e-6)

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

    def test_bad_points_config_error(self, tmp_path):
        std = em_config_dict()
        path = self.write_config(tmp_path, std)
        assert cli_main(["transform", "--config", path, "--z", "zzz"]) == 2

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

    def test_rho_fraction_flag(self, tmp_path, capsys):
        path = self.write_config(tmp_path, em_config_dict())
        assert cli_main(["construct", "--config", path, "--rho-fraction", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho2"] == pytest.approx(0.25 * (3.0 / 8.0), rel=1e-12)
        assert cli_main(["construct", "--config", path, "--rho-fraction", "1.5"]) == 2

    def test_tolerance_profile_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SBHERMITE_TOL_PROFILE", "bogus")
        with pytest.raises(ConfigError):
            RunConfig.from_dict(em_config_dict())
        monkeypatch.setenv("SBHERMITE_TOL_PROFILE", "loose")
        cfg = RunConfig.from_dict(em_config_dict())
        assert cfg.tolerances["ccr"] == 1e-8


class TestPartialReport:
    """A stage that raises leaves a partial report with its timings."""

    @staticmethod
    def fail_isometry(monkeypatch):
        def boom(*args, **kwargs):
            raise FitFailure("fit residual 4.6e-05 too large for sample norm 7.8e-01")

        monkeypatch.setattr("sbhermite.pipeline.isometry_residual", boom)

    def test_run_example_carries_partial_report(self, monkeypatch):
        self.fail_isometry(monkeypatch)
        with pytest.raises(StageFailure) as info:
            run_example("em", 0.5, max_degree=2)
        report = info.value.report
        assert info.value.stage == "isometry"
        assert report.failed_stage == "isometry"
        assert report.error_type == "FitFailure"
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
        report = json.loads(out_path.read_text())
        assert report["failed_stage"] == "isometry"
        assert report["error_type"] == "FitFailure"
        assert report["overall_pass"] is False
        assert "isometry" in report["timings"] and "gram" in report["timings"]
        assert report["residuals"]["ccr"] <= report["tolerances"]["ccr"]

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

    def test_passing_report_names_no_failure(self):
        report = run_verify(RunConfig.from_dict(em_config_dict(max_degree=2)))
        out = report.to_dict()
        assert out["failed_stage"] is None and out["error_type"] is None
