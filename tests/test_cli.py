import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from instanton_gas import cli, moments, schrodinger, spectrum
from instanton_gas.cli import main
from instanton_gas.moments import multi_instanton
from instanton_gas.potential import WellParameters
from instanton_gas.spectrum import energies, extract_coupling, gas_sum_partial, truncated_hamiltonian


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_error_object(code, out, parameter=None):
    assert code != 0
    err = strict_json(out)
    assert set(err) == {"code", "message", "parameter"}
    if parameter is not None:
        assert err["parameter"] == parameter
    return err


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

    def test_json_keys(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3",
            "--format", "json",
        )
        assert set(json.loads(out)) == {"e_plus", "e_minus", "gap", "amplitude_coefficient"}

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

    def test_zero_coupling_gives_zero_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--n", "0", "--m", "0", "--omega0", "1",
            "--omega1", "2", "--B", "0", "--T", "2", "--format", "json",
        )
        assert code == 0 and err == ""
        rows = strict_json(out)["rows"]
        assert [r["method"] for r in rows] == ["closed", "recursive", "quadrature"]
        assert all(r["stripped"] == r["full"] == 0.0 for r in rows)

    @pytest.mark.parametrize("method, code", [("quadrature", 0), ("all", 1)])
    def test_underflowing_half_time(self, capsys, method, code):
        # T / 2 underflows to 0: quadrature gives 0, the recursion refuses |d| T this small
        exit_code, out, err = run_cli(
            capsys, "moments", "--n", "0", "--m", "0", "--omega0", "1", "--omega1", "2",
            "--B", "0.5", "--T", "5e-324", "--method", method, "--format", "json",
        )
        assert exit_code == code and err == ""
        if code:
            assert assert_error_object(exit_code, out)["code"] == "numerical"
        else:
            assert strict_json(out)["rows"][0]["stripped"] == 0.0

    def test_depth_beyond_cap_is_error_object(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--n", "70", "--m", "3", "--omega0", "2",
            "--omega1", "1.5", "--B", "0.5", "--T", "2", "--format", "json",
        )
        assert code == 2
        assert err == ""
        assert json.loads(out)["message"] == "n, m capped at 64"

    @pytest.mark.parametrize("method", ["all", "closed", "recursive", "quadrature"])
    @pytest.mark.parametrize("n, m, parameter", [(70, 3, "n"), (3, 70, "m"), (-1, 0, "n")])
    def test_bad_index_names_it(self, capsys, method, n, m, parameter):
        code, out, _ = run_cli(
            capsys, "moments", f"--n={n}", f"--m={m}", "--omega0", "2",
            "--omega1", "1.5", "--B", "0.5", "--T", "2", "--method", method,
            "--format", "json",
        )
        assert code == 2
        assert assert_error_object(code, out, parameter)["code"] == "bad-value"


class TestTriangleCommand:
    def test_verification_report(self, capsys):
        code, out, _ = run_cli(capsys, "triangle-verify", "--depth", "12",
                               "--ratio", "2/5")
        assert code == 0
        assert "relations checked: 4 families, failures: 0" in out
        assert "main-rule: checked " in out

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

    @pytest.mark.parametrize("flags, parameter, message", [
        (("--depth", "4", "--ratio=0/5"), "ratio", "ratio must be nonzero"),
        (("--depth", "25", "--ratio=1/5"), "depth", "depth must be in [0, 24]"),
        (("--depth=-1", "--ratio=1/5"), "depth", "depth must be in [0, 24]"),
    ])
    def test_bad_value_names_its_parameter(self, capsys, flags, parameter, message):
        code, out, err = run_cli(capsys, "triangle-verify", *flags, "--format", "json")
        assert code == 2 and err == ""
        error = assert_error_object(code, out, parameter)
        assert error["code"] == "bad-value" and error["message"] == message


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

    @pytest.mark.parametrize("b", ["1.9", "1.99", "-1.99"])
    def test_near_degenerate_factor_is_silent(self, capsys, b):
        # x^2 + b x + 1 nearly vanishes next to a minimum: the action is
        # still computed without a warning on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "benchmark", "--lambda", "16", "--b", b, "--format", "json")
        assert code == 0
        assert err == "" and caught == []
        assert math.isfinite(strict_json(out)["s_inst"])

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

    def test_scaling_csv_and_json(self, capsys):
        argv = ("scaling", "--b", "0", "--lambdas", "16,20,25", "--points", "1501",
                "--x-min", "-3", "--x-max", "3")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,s_inst,omega0,omega1,gap_numeric,b_prime,refinement_error"
        assert len(lines) == 4
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        data = json.loads(out)
        assert set(data) >= {"slope", "intercept", "residuals", "excluded", "records"}
        assert [rec["lambda"] for rec in data["records"]] == [16.0, 20.0, 25.0]


def run_config(capsys, tmp_path, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return run_cli(capsys, "--config", str(path))


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

    def test_runconfig_validation(self, capsys, tmp_path):
        code, out, _ = run_config(capsys, tmp_path, {"command": "nope", "output_format": "json"})
        assert code == 2
        assert assert_error_object(code, out, "command")["code"] == "usage"
        code, out, _ = run_config(capsys, tmp_path, {
            "command": "spectrum", "parameters": {"omega0": 1.0}, "output_format": "json",
        })
        assert code == 2
        err = assert_error_object(code, out, "omega1")
        assert err["code"] == "missing-parameter"
        assert err["message"] == "command 'spectrum' requires --omega1"

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--omega0", "-1e308", "--omega1", "1", "--B", "0.3", "--format", "json"),
        ("moments", "--n", "abc", "--m", "1", "--omega0", "1", "--omega1", "2", "--B", "0.3",
         "--T", "2", "--format=json"),
        ("frobnicate", "--format", "json"),
        ("spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3", "--bogus", "1", "--format", "json"),
    ])
    def test_usage_error_follows_json_format(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err == ""
        assert assert_error_object(code, out)["code"] == "usage"

    def test_missing_flag_is_named_as_spelled(self, capsys):
        code, out, _ = run_cli(capsys, "benchmark", "--b", "0", "--format", "json")
        err = assert_error_object(code, out, "lam")
        assert err["message"] == "command 'benchmark' requires --lambda"


class TestConfigIsTheCommandLine:
    """A --config file is parsed as the flags it spells."""

    def test_values_are_read_as_flag_text(self, capsys, tmp_path):
        # a string "1" is the text of --omega0 1
        params = {"omega0": "1", "omega1": 2, "B": 0.3}
        code, out, _ = run_config(capsys, tmp_path, {
            "command": "spectrum", "parameters": params, "output_format": "json",
        })
        assert code == 0
        _, flag_out, _ = run_cli(capsys, "spectrum", "--omega0", "1", "--omega1", "2",
                                 "--B", "0.3", "--format", "json")
        assert out == flag_out

    def test_parameter_names_map_to_flags(self, capsys, tmp_path):
        argv = ("scaling", "--b", "0", "--lambdas", "16,20,25", "--K-hint", "1.5",
                "--points", "1501", "--x-min", "-3", "--x-max", "3", "--format", "csv")
        _, flag_out, _ = run_cli(capsys, *argv)
        code, out, _ = run_config(capsys, tmp_path, {
            "command": "scaling",
            "parameters": {"b": 0, "lambdas": [16, 20, 25], "k_hint": 1.5, "points": 1501,
                           "x_min": -3, "x_max": 3},
            "output_format": "csv",
        })
        assert code == 0 and out == flag_out
        _, flag_out, _ = run_cli(capsys, "spectrum", "--omega0", "1.5", "--omega1", "1.5",
                                 "--K", "2", "--S-inst", "1", "--format", "json")
        _, out, _ = run_config(capsys, tmp_path, {
            "command": "spectrum", "parameters": {"omega0": 1.5, "omega1": 1.5, "K": 2, "s_inst": 1},
            "output_format": "json",
        })
        assert out == flag_out

    @pytest.mark.parametrize("config, code, parameter", [
        ({"command": "spectrum", "parameters": {"omega0": 1, "omega1": 2, "B": 0.3, "bogus": 1}},
         "usage", "bogus"),
        ({"command": "spectrum", "parameters": {"omega0": 1, "omega1": 2, "B": 0.3}, "bogus": 1},
         "usage", "bogus"),
        ({"command": "spectrum", "parameters": {"omega0": 1, "omega1": 2, "lam": 4}}, "usage", "lam"),
        ({"command": "spectrum", "parameters": {"omega0": 1, "omega1": 2, "format": "csv"}},
         "usage", "format"),
        ({"command": "spectrum", "parameters": {"omega0": "x", "omega1": 2, "B": 0.3}}, "usage", None),
        ({"command": "spectrum", "parameters": {"omega0": True, "omega1": 2, "B": 0.3}}, "usage", None),
        ({"command": "spectrum", "parameters": [1, 2]}, "bad-value", "parameters"),
        ([1, 2], "bad-value", "config"),
    ])
    def test_bad_config_is_error_object(self, capsys, tmp_path, config, code, parameter):
        if isinstance(config, dict):
            config = {**config, "output_format": "json"}
        status, out, err = run_config(capsys, tmp_path, config)
        if isinstance(config, list):  # no output_format to follow
            assert status == 2 and out == ""
            assert err == "error: config must be a JSON object\n"
            return
        assert status == 2 and err == ""
        error = assert_error_object(status, out)
        assert (error["code"], error["parameter"]) == (code, parameter)

    def test_unknown_format_is_usage_error_on_both_paths(self, capsys, tmp_path):
        argv = ("spectrum", "--omega0", "1", "--omega1", "2", "--B", "0.3", "--format", "xml")
        flag_code, _, flag_err = run_cli(capsys, *argv)
        config = {"command": "spectrum", "parameters": {"omega0": 1, "omega1": 2, "B": 0.3},
                  "output_format": "xml"}
        config_code, _, config_err = run_config(capsys, tmp_path, config)
        assert flag_code == config_code == 2
        assert flag_err == config_err

    def test_config_and_command_together_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "spectrum", "parameters": {"omega0": 1, "omega1": 2,
                                                                         "B": 0.3}}))
        code, out, _ = run_cli(capsys, "--config", str(path), "spectrum", "--format", "json")
        assert assert_error_object(code, out, "config")["code"] == "usage"


WELL = ("--omega0", "2", "--omega1", "1", "--B", "0.5")


class TestBoundary:
    """Every input gives finite output with exit 0, or the error object."""

    @pytest.mark.parametrize("argv, parameter", [
        (("spectrum", "--omega0", "2", "--omega1", "1.5", "--B", "nan"), "B"),
        (("spectrum", "--omega0", "2", "--omega1", "inf", "--B", "0.5"), "omega1"),
        (("spectrum", "--omega0", "2", "--omega1", "-1", "--B", "0.5"), "omega1"),
        (("spectrum", "--omega0", "2", "--omega1", "1", "--K", "1", "--S-inst", "inf"), "s_inst"),
        (("sum", *WELL, "--T", "nan"), "T"),
        (("sum", *WELL, "--T", "2", "--terms", "0"), "terms"),
        (("sum", *WELL, "--T", "2", "--terms", "70"), "terms"),
    ])
    def test_bad_parameter_is_named(self, capsys, argv, parameter):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 2
        assert assert_error_object(code, out, parameter)["code"] == "bad-value"

    @pytest.mark.parametrize("flags, error_code", [
        (("--x-min=-1e308",), "SolverError"),  # the squared spacing overflows
        (("--points", "101", "--x-min=-1e100", "--x-max=1e100"), "DomainError"),  # so does V on the grid
        (("--lambda", "1e308", "--points", "101"), "PotentialError"),  # and the coefficients of V''
    ])
    def test_overflow_in_grid_or_family_is_error_object(self, capsys, flags, error_code):
        code, out, err = run_cli(capsys, "benchmark", "--lambda", "4", "--b", "0", *flags, "--format", "json")
        assert err == ""
        assert assert_error_object(code, out)["code"] == error_code

    def test_huge_family_is_finite(self, capsys):
        # the squared frequency offset overflows while extracting the coupling
        code, out, err = run_cli(capsys, "benchmark", "--lambda", "1e300", "--b", "1.5", "--points", "101",
                                 "--format", "json")
        assert code == 0 and err == ""
        assert all(math.isfinite(v) for v in _numbers(strict_json(out)))

    def test_too_many_points_is_error_object_before_any_array(self, capsys, monkeypatch):
        def no_array(grid):
            raise AssertionError("grid array built")

        monkeypatch.setattr(schrodinger.GridSpec, "array", no_array)
        for points in ("2000000000", "600001"):  # the grid, or only its refinement, too large
            code, out, err = run_cli(capsys, "benchmark", "--lambda", "4", "--b", "0", "--points", points,
                                     "--format", "json")
            assert err == ""
            error = assert_error_object(code, out)
            assert error["code"] == "SolverError" and "grid points" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("benchmark", "--lambda", "inf", "--b", "0"),
        ("benchmark", "--lambda", "4", "--b", "nan"),
        ("benchmark", "--lambda", "4", "--b", "0", "--x-min", "nan"),
        ("benchmark", "--lambda", "4", "--b", "0", "--x-max=-inf"),
    ])
    def test_non_finite_grid_or_family_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert err == ""
        assert assert_error_object(code, out)["code"] == "SolverError"

    def test_huge_time_sums_to_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sum", *WELL, "--T", "1e6", "--format", "json")
        assert code == 0
        data = strict_json(out)
        assert data["partial"] == 0.0 and data["closed"] == 0.0
        assert data["terms"] == [0.0] * 40

    def test_large_time_sum_is_finite(self, capsys):
        code, out, _ = run_cli(capsys, "sum", *WELL, "--T", "3000", "--format", "json")
        assert code == 0
        data = strict_json(out)
        assert 0.0 < data["closed"] < 1e-200
        assert data["partial"] == 0.0

    def test_overflowing_closed_sum_is_error_object(self, capsys):
        code, out, err = run_cli(
            capsys, "sum", "--omega0", "2", "--omega1", "1", "--B", "0.95", "--T", "30000",
            "--format", "json",
        )
        assert code == 1
        assert err == ""
        assert assert_error_object(code, out)["code"] == "SpectrumError"

    def test_extreme_asymmetry_is_finite(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--omega0", "1", "--omega1", "1e308", "--B", "1",
                               "--format", "json")
        assert code == 0
        data = strict_json(out)
        assert all(math.isfinite(v) for v in data.values())
        # mean - root cancels to 0.0 here; the lower level is about w0/2 = 0.5
        assert data["e_plus"] == pytest.approx(0.5, rel=1e-15)
        code, out, _ = run_cli(capsys, "sum", "--omega0", "1", "--omega1", "1e200", "--B", "1e-200",
                               "--T", "1", "--format", "json")
        assert code == 0
        data = strict_json(out)
        assert data["partial"] == data["closed"] == 0.0

    @pytest.mark.parametrize("fail, parameter", [
        (lambda p: multi_instanton(0, WellParameters(1.0, 2.0, 1.0)), "B"),
        (lambda p: multi_instanton(-1, p), "i"),
        (lambda p: energies(WellParameters(1.0, 2.0, 1.0)), "B"),
        (lambda p: gas_sum_partial(p, 0), "n_terms"),
        (lambda p: truncated_hamiltonian(1.0, 2.0, -1.0), "coupling"),
        (lambda p: extract_coupling(-1.0, 1.0, 2.0), "measured_gap"),
    ])
    @pytest.mark.parametrize("command, target", [
        (("spectrum",), "energies"),
        (("moments", "--n", "1", "--m", "1"), "moment_closed"),
    ])
    def test_package_parameter_error_is_error_object(self, capsys, monkeypatch, fail, parameter,
                                                     command, target):
        # argv cannot reach these errors, so the command's library call is replaced by one that
        # raises; on moments the error must not be reported as a failed evaluation (`numerical`)
        # the command imports its library call from the defining module when it runs
        module = {"energies": spectrum, "moment_closed": moments}[target]
        monkeypatch.setattr(module, target, lambda *args: fail(args[-1]))  # params is the last argument
        argv = (*command, "--omega0", "1", "--omega1", "2", "--B", "0.3", "--T", "1")
        exit_code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert exit_code == 2 and err == ""
        assert assert_error_object(exit_code, out, parameter)["code"] == "bad-value"
        exit_code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert exit_code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("method", ["closed", "recursive", "quadrature", "all"])
    @pytest.mark.parametrize("B, T", [("0.5", "1e4"), ("0.5", "1e7"), ("0.5", "1e300"), ("1e300", "2")])
    def test_moment_beyond_float64_is_error_object(self, capsys, method, B, T):
        code, out, err = run_cli(
            capsys, "moments", "--n", "3", "--m", "3", "--omega0", "1", "--omega1", "2",
            "--B", B, "--T", T, "--method", method, "--format", "json",
        )
        assert code == 1 and err == ""
        assert assert_error_object(code, out, "method")["code"] == "numerical"

    def test_non_finite_result_is_error_object(self, capsys):
        # finite inputs whose levels overflow: (w0 + w1)/4 is infinite
        argv = ("spectrum", "--omega0", "1e308", "--omega1", "1e308", "--B", "1")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        assert assert_error_object(code, out)["code"] == "non-finite-result"
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1 and out == "" and "not finite" in err


_FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324", "1e-300"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_SPECTRUM_FLAGS = ("--omega0", "--omega1", "--B", "--K", "--S-inst", "--T")


def _numbers(value):
    """Every int or float inside a parsed JSON value; a null leaf fails."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    assert isinstance(value, (int, float, str)), f"unexpected JSON leaf {value!r}"
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def assert_finite_json_or_error_object(argv, keys):
    """Exit 0 with strict JSON holding `keys` and finite numbers only (returned), or the error
    object (None returned)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        assert_error_object(code, out.getvalue())
        return None
    data = strict_json(out.getvalue())
    assert set(data) == keys
    assert all(math.isfinite(v) for v in _numbers(data))
    return data


def assert_finite_spectrum_or_error_object(argv):
    data = assert_finite_json_or_error_object(argv, {"e_plus", "e_minus", "gap", "amplitude_coefficient"})
    if data is not None:
        assert all(isinstance(v, float) and math.isfinite(v) for v in data.values())


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_SPECTRUM_FLAGS), _FLOAT_TEXT))
@example({"--omega0": "1", "--omega1": "1e308", "--B": "1"})  # (d / 2B)^2 overflows
def test_spectrum_output_is_finite_json_or_error_object(flags):
    argv = ["spectrum", *(f"{flag}={value}" for flag, value in sorted(flags.items())), "--format", "json"]
    assert_finite_spectrum_or_error_object(argv)


_JSON_VALUE = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=3),
)
_SPECTRUM_KEYS = ("omega0", "omega1", "B", "K", "s_inst", "T", "bogus")


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_SPECTRUM_KEYS), _JSON_VALUE))
@example({"omega0": "1", "omega1": 2, "B": 0.3})
@example({"omega0": 1, "omega1": 2, "B": 0.3, "bogus": 1})
def test_spectrum_config_is_finite_json_or_error_object(parameters):
    config = {"command": "spectrum", "parameters": parameters, "output_format": "json"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        assert_finite_spectrum_or_error_object(["--config", str(path)])


def _flags(valid, wild):
    """Flag dicts: each flag of `valid` drawn in its domain, then at most one flag of `wild`
    replaced by its wild text, or dropped where None is drawn."""

    def apply(flags, change):
        flags = {**flags, **change}
        return {flag: value for flag, value in flags.items() if value is not None}

    change = st.one_of(*(
        st.fixed_dictionaries({flag: st.one_of(st.none(), text)}) for flag, text in wild.items()
    ))
    return st.builds(apply, st.fixed_dictionaries(valid), st.one_of(st.just({}), change))


def _argv(command, flags):
    return [command, *(f"{flag}={value}" for flag, value in sorted(flags.items())), "--format", "json"]


_INT_TEXT = st.one_of(st.integers(-3, 70).map(str), st.sampled_from(["1.5", "1e3", "x", ""]))
_WELL_VALID = {
    "--omega0": st.floats(0.1, 10.0).map(repr),
    "--omega1": st.floats(0.1, 10.0).map(repr),
    "--B": st.floats(0.0, 2.0).map(repr),
    "--T": st.floats(0.01, 50.0).map(repr),
}
_WELL_WILD = dict.fromkeys(_SPECTRUM_FLAGS, _FLOAT_TEXT)


@settings(max_examples=150, deadline=None)
@given(_flags({**_WELL_VALID, "--terms": st.integers(1, 64).map(str)}, {**_WELL_WILD, "--terms": _INT_TEXT}))
@example({"--omega0": "1", "--omega1": "1e308", "--B": "1", "--T": "1"})
def test_sum_output_is_finite_json_or_error_object(flags):
    assert_finite_json_or_error_object(
        _argv("sum", flags), {"closed", "partial", "n_terms", "terms", "no_tunneling"}
    )


_METHODS = ("closed", "recursive", "quadrature", "symmetric", "all")


# each example may run quadrature or a wide-digit mpmath evaluation, so few of them
@settings(max_examples=25, deadline=None)
@given(_flags(
    {**_WELL_VALID, "--n": st.integers(0, 12).map(str), "--m": st.integers(0, 12).map(str),
     "--method": st.sampled_from(_METHODS)},
    {**_WELL_WILD, "--n": _INT_TEXT, "--m": _INT_TEXT, "--method": st.sampled_from(["guess", ""])},
))
@example({"--omega0": "1", "--omega1": "1", "--B": "1e308", "--T": "1", "--n": "0", "--m": "1",
          "--method": "symmetric"})  # B^2 overflows
@example({"--omega0": "1", "--omega1": "2", "--B": "5e-324", "--T": "0.5", "--n": "0", "--m": "0",
          "--method": "all"})  # B T underflows to 0
def test_moments_output_is_finite_json_or_error_object(flags):
    assert_finite_json_or_error_object(_argv("moments", flags), {"n", "m", "rows"})


@settings(max_examples=40, deadline=None)
@given(_flags(
    {"--depth": st.integers(0, 20).map(str),
     "--ratio": st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 60))},
    {"--depth": _INT_TEXT,
     "--ratio": st.one_of(st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-9, 9)),
                          st.sampled_from(["0.4", "1e2", "2/5/3", "-3", "x", ""]))},
))
def test_triangle_verify_output_is_finite_json_or_error_object(flags):
    assert_finite_json_or_error_object(
        _argv("triangle-verify", flags),
        {"depth", "ratio", "families", "total_checked", "total_failures"},
    )


_BENCHMARK_KEYS = {"lambda", "s_inst", "omega0", "omega1", "gap_numeric", "b_prime", "refinement_error",
                   "asymmetry_dominated"}


# each example solves two grids of up to 1201 and 2401 points, so few of them
@settings(max_examples=30, deadline=None)
@given(_flags(
    {"--lambda": st.floats(0.5, 64.0).map(repr), "--b": st.floats(-1.99, 1.99).map(repr),
     "--points": st.integers(3, 1201).map(str), "--x-min": st.floats(-4.0, -1.5).map(repr),
     "--x-max": st.floats(1.5, 4.0).map(repr)},
    {**dict.fromkeys(("--lambda", "--b", "--x-min", "--x-max"), _FLOAT_TEXT),
     "--points": st.one_of(_INT_TEXT, st.just("2000000000"))},
))
@example({"--lambda": "4", "--b": "0", "--points": "2000000000"})  # refused before any array
@example({"--lambda": "1e6", "--b": "0", "--points": "1201"})  # below the subtraction floor: gap 0.0
def test_benchmark_output_is_finite_json_or_error_object(flags):
    assert_finite_json_or_error_object(_argv("benchmark", flags), _BENCHMARK_KEYS)
