import json

import pytest

from instanton_gas.cli import RunConfig, CliError, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_json_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["e_plus"] == pytest.approx(0.359488, abs=5e-7)
        assert data["e_minus"] == pytest.approx(1.140512, abs=5e-7)
        assert data["gap"] == pytest.approx(0.781025, abs=5e-7)

    def test_determinism(self, capsys):
        argv = ("spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
                "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_prefactor_pair_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega0", "1", "--omega1", "1", "--K", "1",
            "--S-inst", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["gap"] == pytest.approx(2.0, rel=1e-14)

    def test_contradictory_b_and_prefactor(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
            "--K", "1", "--S-inst", "0", "--format", "json",
        )
        assert code == 2
        err = json.loads(out)
        assert err["code"] == "contradictory-parameters"

    def test_missing_parameter_error_object(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--omega0", "1", "--format", "json")
        assert code == 2
        err = json.loads(out)
        assert set(err) == {"code", "message", "parameter"}
        assert err["code"] == "missing-parameter"
        assert err["parameter"] == "omega1"


class TestMomentsCommand:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--n", "0", "--m", "0", "--omega0", "1",
            "--omega1", "2", "--B", "0.3", "--T", "2", "--method", "all",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["method"] for r in rows} == {"closed", "recursive", "quadrature"}
        for row in rows:
            assert row["stripped"] == pytest.approx(0.625314, abs=5e-7)

    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--n", "0", "--m", "0", "--omega0", "1",
            "--omega1", "2", "--B", "0.3", "--T", "2",
        )
        assert code == 0
        assert "0.625314" in out

    def test_symmetric_method_requires_equal_frequencies(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--n", "1", "--m", "1", "--omega0", "1",
            "--omega1", "2", "--B", "0.3", "--T", "2", "--method", "symmetric",
            "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["code"] == "bad-value"

    def test_depth_beyond_cap_is_error_object(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--n", "70", "--m", "3", "--omega0", "2",
            "--omega1", "1.5", "--B", "0.5", "--T", "2", "--format", "json",
        )
        assert code == 1
        assert err == ""
        assert json.loads(out)["message"] == "n, m capped at 64"


class TestTriangleCommand:
    def test_verification_report(self, capsys):
        code, out, _ = run_cli(capsys, "triangle-verify", "--depth", "12",
                               "--ratio", "2/5")
        assert code == 0
        assert "relations checked: 4 families, failures: 0" in out

    def test_json_report(self, capsys):
        # negative ratios need the --flag=value form (leading dash)
        code, out, _ = run_cli(
            capsys, "triangle-verify", "--depth", "8", "--ratio=-3/7",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["total_failures"] == 0
        assert data["ratio"] == "-3/7"

    def test_decimal_ratio_rejected(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle-verify", "--depth", "8", "--ratio", "0.4",
            "--format", "json",
        )
        assert code == 2
        err = json.loads(out)
        assert err["code"] == "bad-value"
        assert err["parameter"] == "ratio"


class TestSumCommand:
    def test_partial_matches_closed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
            "--T", "2", "--terms", "25", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["partial"] == pytest.approx(data["closed"], rel=1e-12)
        assert len(data["terms"]) == 25

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
            "--T", "2", "--terms", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "quantity,value"
        assert len(lines) == 8


class TestBenchmarkCommands:
    def test_benchmark_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "benchmark", "--lambda", "4", "--b", "0.5", "--points",
            "1201", "--x-min", "-3", "--x-max", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("lambda,s_inst,omega0")
        assert len(lines) == 2

    def test_scaling_errors_cleanly_when_unusable(self, capsys):
        code, out, _ = run_cli(
            capsys, "scaling", "--b", "0.5", "--lambdas", "2,3,4", "--points",
            "1201", "--x-min", "-3", "--x-max", "3", "--format", "json",
        )
        assert code == 1
        err = json.loads(out)
        assert err["code"] == "ScalingError"

    def test_scaling_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "scaling", "--b", "0", "--lambdas", "16,20,25", "--points",
            "1501", "--x-min", "-3", "--x-max", "3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert -1.0 < data["slope"] < -0.6
        assert len(data["records"]) == 3


class TestConfigAndOutput:
    def test_config_file_equivalent_to_flags(self, capsys, tmp_path):
        argv = ("spectrum", "--omega0", "1.5", "--omega1", "2.5", "--B", "0.2",
                "--format", "json")
        _, flag_out, _ = run_cli(capsys, *argv)
        config = {
            "command": "spectrum",
            "parameters": {"omega0": 1.5, "omega1": 2.5, "B": 0.2},
            "output_format": "json",
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        _, cfg_out, _ = run_cli(capsys, "--config", str(path))
        assert cfg_out == flag_out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["gap"] == pytest.approx(0.781025, abs=5e-7)

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_runconfig_validation(self):
        with pytest.raises(CliError):
            RunConfig(command="nope", parameters={})
        with pytest.raises(CliError):
            RunConfig(command="spectrum", parameters={"omega0": 1.0})
