import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nonneg_dp.bias import bias_ratio_restricted_vs_bit
from nonneg_dp.cli import _q_grid, main
from nonneg_dp.distributions import _even_grid


def run(*argv):
    return main(list(argv))


def read_csv_report(path):
    """Parse a CSV report back into header, typed rows and summary lines."""
    header, rows, summaries = [], [], []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                summaries.append(line[1:].strip())
            elif not header:
                header = line.split(",")
            else:
                rows.append([_typed(cell) for cell in line.split(",")])
    return header, rows, summaries


def _typed(cell):
    try:
        return float(cell) if cell else ""
    except ValueError:
        return cell


def assert_usage_error(capsys):
    """The run printed one ``error:`` line to stderr, no traceback, no report."""
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and out == ""


def fmt17(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


class TestBiasCurve:
    def test_clamped_curve_values(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run("bias-curve", "--mechanism", "bit", "--epsilon", "1",
                   "--sensitivity", "1", "--q-min", "0", "--q-max", "4",
                   "--q-points", "5", "--samples", "20000", "--seed", "3",
                   "--out", str(out))
        assert code == 0
        header, rows, _ = read_csv_report(str(out))
        assert header == ["q", "bias_closed_form", "bias_quadrature", "bias_mc", "mc_stderr"]
        assert rows[0][0] == 0.0 and rows[0][1] == 0.5
        for q, closed, quad, mc, stderr in rows:
            assert quad == pytest.approx(closed, abs=1e-8)
            assert abs(mc - closed) <= 4 * stderr

    def test_restricted_curve_starts_at_scale(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("bias-curve", "--mechanism", "restricted", "--q-points", "3",
                   "--q-max", "2", "--samples", "20000", "--seed", "5",
                   "--out", str(out)) == 0
        _, rows, _ = read_csv_report(str(out))
        assert rows[0][1] == 1.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        assert run("bias-curve", "--mechanism", "bit", "--q-points", "2",
                   "--q-max", "1", "--samples", "1000", "--seed", "1",
                   "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["bias_closed_form"] == 0.5

    def test_multiplicative_requires_positive_grid(self, tmp_path):
        code = run("bias-curve", "--mechanism", "multiplicative", "--kbound", "0.5",
                   "--q-min", "0", "--q-max", "2", "--q-points", "3",
                   "--samples", "1000", "--seed", "1",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestOptimalAlpha:
    def test_unit_scale_report(self, tmp_path):
        out = tmp_path / "alpha.json"
        assert run("optimal-alpha", "--scale", "1", "--out", str(out)) == 0
        record = json.loads(out.read_text())
        assert record["alpha_star"] == pytest.approx(0.35173371124919584, abs=1e-11)
        assert record["B_at_zero"] == 0.5
        assert record["B_at_alpha_star"] == pytest.approx(record["alpha_star"], abs=1e-10)
        assert record["improvement_ratio"] > 1

    def test_scaling_with_b(self, tmp_path):
        out = tmp_path / "alpha.json"
        assert run("optimal-alpha", "--scale", "2", "--out", str(out)) == 0
        record = json.loads(out.read_text())
        assert record["alpha_star"] == pytest.approx(0.7034674224983917, rel=1e-10)

    def test_scale_from_privacy_parameters(self, tmp_path):
        out = tmp_path / "alpha.json"
        assert run("optimal-alpha", "--epsilon", "2", "--sensitivity", "1",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["b"] == 0.5


class TestCompare:
    def test_ratio_column(self, tmp_path):
        out = tmp_path / "compare.csv"
        assert run("compare", "--epsilon", "1", "--sensitivity", "1",
                   "--q-min", "0", "--q-max", "20", "--q-points", "50",
                   "--out", str(out)) == 0
        _, rows, _ = read_csv_report(str(out))
        assert rows[0][3] == 4.0
        for q, _, _, ratio in rows:
            assert ratio > 2.0
            assert ratio == pytest.approx(bias_ratio_restricted_vs_bit(q, 1.0, 1.0),
                                          rel=1e-10)


class TestLinearGrid:
    """The q grid, built without numpy, is np.linspace's grid bit for bit."""

    @staticmethod
    def _cases():
        cases = [(0.0, 0.0, 2), (3.5, 3.5, 21), (0.0, 1.0, 2), (5e-324, 5e-324, 3), (5e-324, 1e-323, 200),
                 (0.0, 5e-324, 5000), (5e-324, 1e308, 200), (0.0, 1.7976931348623157e308, 5000),
                 (1e-300, 1e-300 * (1 + 2**-52), 7), (0.0, 10.0, 21), (0.1, 0.7, 5000)]
        rng = np.random.default_rng(19)
        for _ in range(300):
            q_min = float(10.0 ** rng.uniform(-323, 308)) if rng.random() < 0.9 else 0.0
            q_max = min(q_min + float(10.0 ** rng.uniform(-323, 308)), sys.float_info.max)
            cases.append((q_min, q_max, int(rng.choice([2, 3, 21, 200, 5000, rng.integers(2, 5001)]))))
        return cases

    def test_linear_grid_equals_linspace(self):
        for q_min, q_max, points in self._cases():
            args = SimpleNamespace(q_min=q_min, q_max=q_max, q_points=points, q_log=False)
            grid = _q_grid(args)
            assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(q_min, q_max, points).tolist()]

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 0.3, 1.0, 7.5, 1e300])
    def test_post_processor_vetting_grid_equals_linspace(self, scale):
        # PostProcessor.custom spot-checks nonnegativity on this grid.
        grid = _even_grid(-20.0 * scale, 20.0 * scale, 10_000)
        want = np.linspace(-20.0 * scale, 20.0 * scale, 10_000).tolist()
        assert [x.hex() for x in grid] == [x.hex() for x in want]


class TestVerifyDp:
    def test_plain_passes_at_epsilon(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run("verify-dp", "--mechanism", "laplace", "--epsilon", "1",
                   "--sensitivity", "1", "--out", str(out)) == 0
        cert = json.loads(out.read_text())
        assert cert["passed"] is True
        assert cert["max_log_ratio_observed"] == 1.0
        assert cert["grid_description"] == "2 points in [0, 1]"

    @pytest.mark.parametrize("argv,level,observed", [
        (("--mechanism", "laplace", "--epsilon", "715", "--sensitivity", "1"), 715.0, 1 / (1 / 715)),
        (("--mechanism", "restricted", "--epsilon", "300", "--sensitivity", "1e300"), 600.0,
         300.69314718055995),
        # sensitivity/(sensitivity/epsilon) rounds one ulp, 7.5e-9, above epsilon.
        (("--mechanism", "laplace", "--epsilon", "66101462.07479755", "--sensitivity", "3.3533866948340587"),
         66101462.07479755, 66101462.074797556),
    ], ids=["laplace-715", "restricted-1e300", "laplace-6.6e7"])
    def test_large_levels_and_sensitivities_are_certified(self, argv, level, observed, tmp_path):
        # A 2000-point grid of densities read 715.00000000153079 and failed the
        # first, and met zero densities on the second.
        out = tmp_path / "cert.json"
        assert run("verify-dp", *argv, "--out", str(out)) == 0
        cert = json.loads(out.read_text())
        assert (cert["epsilon_claimed"], cert["max_log_ratio_observed"], cert["passed"]) == (
            level, observed, True)

    def test_restricted_passes_at_doubled_level(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run("verify-dp", "--mechanism", "restricted", "--epsilon", "1",
                   "--sensitivity", "1", "--out", str(out)) == 0
        cert = json.loads(out.read_text())
        assert cert["epsilon_claimed"] == 2.0 and cert["passed"] is True

    def test_restricted_fails_when_claimed_single_level(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run("verify-dp", "--mechanism", "restricted", "--epsilon", "1",
                   "--sensitivity", "1", "--claimed", "1.0", "--out", str(out))
        assert code == 1
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.parametrize("claimed", ["nan", "inf", "-1"])
    def test_claimed_level_out_of_range_is_usage_error(self, claimed, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert run("verify-dp", "--mechanism", "laplace", f"--claimed={claimed}",
                   "--out", str(out)) == 2
        assert_usage_error(capsys)
        assert not out.exists()

    def test_multiplicative_passes_on_log_scale(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run("verify-dp", "--mechanism", "multiplicative", "--epsilon", "1",
                   "--kbound", "0.5", "--out", str(out)) == 0

    def test_postprocessed_has_no_density_to_certify(self, tmp_path):
        assert run("verify-dp", "--mechanism", "bit",
                   "--out", str(tmp_path / "cert.json")) == 2


class TestMcValidate:
    def test_z_scores_bounded(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run("mc-validate", "--mechanism", "bit", "--q-points", "5",
                   "--q-max", "4", "--samples", "20000", "--seed", "11",
                   "--out", str(out)) == 0
        _, rows, summaries = read_csv_report(str(out))
        assert len(summaries) == 1 and summaries[0].startswith("max_abs_z=")
        assert float(summaries[0].split("=")[1]) < 4.0
        for row in rows:
            assert abs(row[4]) < 4.0
            assert row[5] == ""  # no warning for clamping

    def test_divergent_multiplicative_flags_warning(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run("mc-validate", "--mechanism", "multiplicative", "--kbound", "2",
                   "--q-min", "1", "--q-max", "2", "--q-points", "2",
                   "--samples", "1000", "--seed", "11", "--out", str(out)) == 0
        header, rows, _ = read_csv_report(str(out))
        assert header[-1] == "warning"
        assert all("infinite" in row[5] for row in rows)

    def test_every_row_has_a_z_score_at_the_smallest_scale(self, tmp_path):
        # The squared deviations of draws of order 1e-300 underflow: the
        # standard error was 0 and z nan in every row.
        out = tmp_path / "mc.csv"
        assert run("mc-validate", "--mechanism", "restricted", "--scale", "1e-300",
                   "--q-max", "3e-300", "--q-points", "3", "--samples", "1000",
                   "--out", str(out)) == 0
        _, rows, summaries = read_csv_report(str(out))
        assert len(rows) == 3
        for row in rows:
            assert row[3] > 0 and math.isfinite(row[4])
        assert float(summaries[0].split("=")[1]) == max(abs(row[4]) for row in rows)


def run_reading_warnings(capsys, *argv):
    """Exit code and the messages of the ``warning:`` lines the run printed."""
    code = run(*argv)
    lines = capsys.readouterr().err.splitlines()
    return code, [line.removeprefix("warning: ") for line in lines if line.startswith("warning: ")]


class TestScaleOverride:
    """--scale sets the privacy level and the warnings, not just the noise."""

    def test_verify_dp_claims_the_level_of_the_scale_in_use(self, tmp_path, capsys):
        # b = 0.5 with sensitivity 1 is a level-2 mechanism, not level 1.
        out = tmp_path / "cert.json"
        code, caught = run_reading_warnings(
            capsys, "verify-dp", "--mechanism", "laplace", "--epsilon", "1", "--sensitivity", "1",
            "--scale", "0.5", "--out", str(out))
        assert code == 0 and caught == []
        cert = json.loads(out.read_text())
        assert cert["epsilon_claimed"] == 2.0 and cert["passed"] is True

    @pytest.mark.parametrize("argv,closed,warning", [
        (["--mechanism", "multiplicative", "--kbound", "0.3", "--scale", "1.5"], math.inf,
         "mean is infinite"),
        (["--mechanism", "multiplicative", "--kbound", "1.5", "--scale", "0.3"],
         0.098901098901098911, None),
        (["--mechanism", "laplace", "--sensitivity", "0", "--scale", "0.5"], 0.0, None),
    ], ids=["multiplicative-infinite-mean", "multiplicative-finite-mean", "zero-sensitivity"])
    def test_mc_validate_warns_about_the_scale_in_use(self, argv, closed, warning, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code, caught = run_reading_warnings(
            capsys, "mc-validate", *argv, "--epsilon", "1", "--q-min", "1", "--q-max", "1",
            "--q-points", "1", "--samples", "1000", "--out", str(out))
        assert code == 0
        _, [row], _ = read_csv_report(str(out))
        assert row[1] == closed
        if warning is None:
            assert row[5] == "" and caught == []
        else:
            assert warning in row[5]
            assert len(caught) == 1 and warning in caught[0]


    def test_zero_sensitivity_laplace_has_zero_closed_form(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run("mc-validate", "--mechanism", "laplace", "--sensitivity", "0",
                   "--q-points", "3", "--samples", "100", "--out", str(out)) == 0
        header, rows, _ = read_csv_report(str(out))
        assert header[1] == "bias_closed_form"
        assert len(rows) == 3 and all(row[1] == 0.0 for row in rows)


class TestQueryInfo:
    def test_mean_report(self, tmp_path):
        data = tmp_path / "records.txt"
        data.write_text("".join(f"0.{d}\n" for d in range(1, 10)) + "1.0\n")
        out = tmp_path / "info.json"
        assert run("query-info", "--data", str(data), "--lower", "0.1",
                   "--upper", "1", "--query", "mean", "--epsilon", "1",
                   "--out", str(out)) == 0
        record = json.loads(out.read_text())
        assert record["n"] == 10
        assert record["value"] == pytest.approx(0.55)
        assert record["sensitivity"] == pytest.approx(0.09)
        assert record["relative_bound"] == (1 - 0.1) / (0.1 * 10)

    def test_zero_lower_bound_reports_unbounded_ratio(self, tmp_path):
        data = tmp_path / "records.txt"
        data.write_text("0.5\n0.25\n")
        out = tmp_path / "info.json"
        assert run("query-info", "--data", str(data), "--lower", "0",
                   "--upper", "1", "--query", "mean", "--out", str(out)) == 0
        assert json.loads(out.read_text())["relative_bound"] == "inf"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, threshold, tmp_path, capsys):
        data = tmp_path / "records.txt"
        data.write_text("0.5\n0.25\n")
        out = tmp_path / "info.json"
        assert run("query-info", "--data", str(data), "--lower", "0", "--upper", "1",
                   "--query", "count", f"--threshold={threshold}", "--out", str(out)) == 2
        assert_usage_error(capsys)
        assert not out.exists()

    def test_count_below_its_floor_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "records.txt"
        data.write_text("0.5\n0.25\n")
        out = tmp_path / "info.json"
        assert run("query-info", "--data", str(data), "--query", "count",
                   "--count-floor", "5", "--out", str(out)) == 2
        assert_usage_error(capsys)
        assert not out.exists()

    def test_record_outside_bounds_is_usage_error(self, tmp_path):
        data = tmp_path / "records.txt"
        data.write_text("2.5\n")
        assert run("query-info", "--data", str(data), "--lower", "0",
                   "--upper", "1", "--query", "mean",
                   "--out", str(tmp_path / "o.json")) == 2

    def test_unparsable_record_is_usage_error(self, tmp_path):
        data = tmp_path / "records.txt"
        data.write_text("0.5\noops\n")
        assert run("query-info", "--data", str(data), "--lower", "0",
                   "--upper", "1", "--query", "mean",
                   "--out", str(tmp_path / "o.json")) == 2

    @pytest.mark.parametrize("query,value", [("mean", 1e308), ("sum", "inf")])
    def test_sum_past_the_double_range_in_a_fresh_process(self, query, value, tmp_path):
        # The sum overflowed inside math.fsum and the process exited 1 with a traceback.
        data = tmp_path / "big.txt"
        data.write_text("1e308\n1e308\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "nonneg_dp.cli", "query-info", "--data", str(data),
                               "--lower", "0", "--upper", "1.7e308", "--query", query],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["value"] == value


class TestConfigHandling:
    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scale": 2.0, "format": "json"}))
        out = tmp_path / "alpha.json"
        assert run("optimal-alpha", "--config", str(config), "--out", str(out)) == 0
        assert json.loads(out.read_text())["b"] == 2.0
        assert run("optimal-alpha", "--config", str(config), "--scale", "1",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["b"] == 1.0

    def test_malformed_config_is_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run("optimal-alpha", "--config", str(config)) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        args = ("bias-curve", "--mechanism", "bit", "--q-points", "3", "--q-max", "2",
                "--samples", "1000")
        flagged = tmp_path / "flagged.csv"
        assert run(*args, "--seed", "99", "--out", str(flagged)) == 0
        monkeypatch.setenv("NONNEG_DP_SEED", "99")
        from_env = tmp_path / "env.csv"
        assert run(*args, "--out", str(from_env)) == 0
        assert flagged.read_bytes() == from_env.read_bytes()

    def test_invalid_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("NONNEG_DP_SEED", "not-a-number")
        assert run("optimal-alpha", "--scale", "1") == 2


def write_config(tmp_path, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    return str(config)


def as_flags(values):
    """The command-line spelling of a config object."""
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    return flags


class TestConfigFile:
    """A config value goes through its flag's type, range and choices."""

    @pytest.mark.parametrize("command,values", [
        ("bias-curve", {"epsilon": "1"}),
        ("bias-curve", {"seed": "x"}),
        ("bias-curve", {"seed": 1.5}),
        ("bias-curve", {"seed": -1}),
        ("bias-curve", {"q_points": 2.5}),
        ("bias-curve", {"samples": 1e5}),
        ("bias-curve", {"mechanism": "bogus"}),
        ("bias-curve", {"epsilon": [1]}),
        ("compare", {"q_log": "no", "q_min": 1}),
        ("compare", {"q_max": None, "samples": 1000}),
        ("optimal-alpha", {"scale": True}),
        ("optimal-alpha", {"out": 1}),
        ("optimal-alpha", {"epsilom": 1}),
        ("optimal-alpha", {"eps": 2}),
        ("optimal-alpha", {"help": True}),
        ("optimal-alpha", {"config": "other.json"}),
        ("optimal-alpha", {"format": "xml"}),
        ("query-info", {"lower": "0"}),
    ])
    def test_bad_value_is_usage_error(self, command, values, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text("0.5\n")
        extra = ["--data", str(records)] if command == "query-info" else []
        assert run(command, "--config", write_config(tmp_path, values), *extra) == 2
        assert_usage_error(capsys)

    @pytest.mark.parametrize("text", ["[1, 2]", "null"])
    def test_config_that_is_not_an_object_is_usage_error(self, text, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert run("optimal-alpha", "--config", str(config)) == 2
        assert_usage_error(capsys)

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert run("optimal-alpha", "--config", str(tmp_path / "absent.json")) == 2
        assert_usage_error(capsys)

    def test_out_writes_that_path(self, tmp_path, capsys):
        out = tmp_path / "alpha.json"
        assert run("optimal-alpha", "--config", write_config(tmp_path, {"out": str(out)})) == 0
        assert capsys.readouterr().out == ""
        assert run("optimal-alpha") == 0
        assert out.read_text() == capsys.readouterr().out

    def test_null_keeps_the_default(self, tmp_path):
        out = tmp_path / "alpha.json"
        assert run("optimal-alpha", "--config", write_config(tmp_path, {"scale": None}),
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["b"] == 1.0

    def test_false_turns_a_switch_off(self, tmp_path):
        out = tmp_path / "compare.csv"
        config = write_config(tmp_path, {"q_log": False, "q_min": 1, "q_max": 3, "q_points": 3})
        assert run("compare", "--config", config, "--out", str(out)) == 0
        assert [row[0] for row in read_csv_report(str(out))[1]] == [1.0, 2.0, 3.0]
        assert run("compare", "--config", config, "--q-log", "--out", str(out)) == 0
        assert read_csv_report(str(out))[1][1][0] == pytest.approx(math.sqrt(3.0), rel=1e-15, abs=0)

    def test_seed_precedence_is_flag_then_file_then_env_then_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NONNEG_DP_SEED", raising=False)
        args = ("mc-validate", "--mechanism", "restricted", "--q-points", "2", "--samples", "1000")

        def report(*extra):
            out = tmp_path / "mc.csv"
            assert run(*args, *extra, "--out", str(out)) == 0
            return out.read_bytes()

        by_seed = {seed: report("--seed", str(seed)) for seed in (0, 5, 7, 9)}
        assert len(set(by_seed.values())) == 4
        config = write_config(tmp_path, {"seed": 5})
        assert report() == by_seed[0]
        monkeypatch.setenv("NONNEG_DP_SEED", "7")
        assert report() == by_seed[7]
        assert report("--config", config) == by_seed[5]
        assert report("--config", config, "--seed", "9") == by_seed[9]
        assert report("--seed", "9", "--config", config) == by_seed[9]

    @pytest.mark.parametrize("command,values", [
        ("bias-curve", {"mechanism": "ramp", "epsilon": 1.3, "sensitivity": 0.7, "scale": 0.9,
                        "alpha": 0.2, "kbound": 0.5, "q_min": 0.5, "q_max": 3, "q_points": 3,
                        "q_log": True, "samples": 1000, "seed": 4, "format": "json"}),
        ("optimal-alpha", {"mechanism": "laplace", "epsilon": 2, "sensitivity": 0.5, "scale": 0.3,
                           "alpha": 0.1, "kbound": 0.4, "seed": 4, "format": "csv"}),
        ("compare", {"epsilon": 0.7, "sensitivity": 2, "q_min": 0.25, "q_max": 8, "q_points": 5,
                     "q_log": True, "seed": 4, "format": "json"}),
        ("verify-dp", {"mechanism": "restricted", "epsilon": 0.5, "sensitivity": 1, "scale": 3,
                       "alpha": 0, "kbound": 0.4, "claimed": 0.7, "seed": 4, "format": "csv"}),
        ("mc-validate", {"mechanism": "multiplicative", "epsilon": 1, "sensitivity": 1,
                         "scale": 0.3, "alpha": 0, "kbound": 0.4, "q_min": 1, "q_max": 2,
                         "q_points": 2, "q_log": True, "samples": 1000, "seed": 4,
                         "format": "csv"}),
        ("query-info", {"data": "{records}", "epsilon": 0.5, "lower": 0.1, "upper": 2,
                        "lower_open": True, "query": "count", "threshold": 0.3,
                        "count_floor": 2, "seed": 4, "format": "json"}),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_file_gives_the_bytes_of_the_same_flags(self, command, values, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("0.25\n0.5\n1.5\n")
        values = {k: str(records) if v == "{records}" else v for k, v in values.items()}
        from_file, from_flags = tmp_path / "file.out", tmp_path / "flags.out"
        config = write_config(tmp_path, {**values, "out": str(from_file)})
        code = run(command, "--config", config)
        assert run(command, *as_flags(values), "--out", str(from_flags)) == code
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_data_is_required_from_flag_or_file(self, tmp_path, capsys):
        assert run("query-info") == 2
        assert_usage_error(capsys)
        records = tmp_path / "records.txt"
        records.write_text("0.5\n")
        assert run("query-info", "--config", write_config(tmp_path, {"data": str(records)})) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1


class TestErrorHandling:
    def test_bad_epsilon_is_usage_error(self):
        assert run("optimal-alpha", "--epsilon", "-1") == 2

    def test_missing_kbound_is_usage_error(self):
        assert run("bias-curve", "--mechanism", "multiplicative") == 2

    def test_log_grid_requires_positive_origin(self):
        assert run("compare", "--q-log", "--q-min", "0") == 2

    def test_unwritable_output_path(self):
        assert run("optimal-alpha", "--scale", "1",
                   "--out", "/nonexistent-dir/report.json") == 2

    @pytest.mark.parametrize("argv", [
        ("bias-curve", "--mechanism", "bit", "--sensitivity", "0"),
        ("verify-dp", "--mechanism", "laplace", "--sensitivity", "0"),
        ("verify-dp", "--mechanism", "restricted", "--sensitivity", "0"),
    ])
    def test_library_domain_error_is_usage_error(self, argv, capsys):
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("verify-dp", "--mechanism", "laplace", "--epsilon", "6.104230829e43", "--sensitivity", "9.74e-272"),
        ("verify-dp", "--mechanism", "laplace", "--scale", "1e-310"),
        ("bias-curve", "--mechanism", "bit", "--scale", "1e-310", "--q-points", "2"),
    ], ids=["verify-dp-scale-1.6e-315", "verify-dp-scale-flag", "bias-curve-scale-flag"])
    def test_subnormal_scale_is_usage_error(self, argv, capsys):
        # The first printed "passed": false and exited 1: its scale had lost
        # bits, so the level Delta/b it gave exceeded epsilon.
        assert run(*argv) == 2
        assert_usage_error(capsys)

    @pytest.mark.parametrize("argv", [
        ("compare", "--scale", "5", "--q-max", "2", "--q-points", "3"),
        ("compare", "--mechanism", "restricted"),
        ("query-info", "--sensitivity", "2"),
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv, capsys):
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kbound", ["0.95", "0.99"])
    def test_multiplicative_quadrature_near_unit_scale(self, kbound, tmp_path, capsys):
        # The quadrature raised OverflowError here, a traceback from the CLI.
        out = tmp_path / "curve.csv"
        assert run("bias-curve", "--mechanism", "multiplicative", "--epsilon", "1",
                   "--kbound", kbound, "--q-min", "1", "--q-max", "1", "--q-points", "1",
                   "--samples", "1000", "--out", str(out)) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, [[_, closed, quad, _, _]], _ = read_csv_report(str(out))
        assert quad == pytest.approx(closed, rel=1e-13, abs=0)

    def test_monte_carlo_near_the_top_of_the_float_range(self, capsys):
        assert run("bias-curve", "--mechanism", "laplace", "--sensitivity", "1e300",
                   "--q-min", "1e306", "--q-max", "1e306", "--q-points", "1",
                   "--samples", "1000") == 0
        # Both Monte Carlo columns were inf.
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in row)

    @pytest.mark.parametrize("command", ["bias-curve", "mc-validate"])
    def test_sample_count_beyond_memory_is_usage_error(self, command, capsys):
        # 8e16 bytes of draws, beyond a 48-bit address space: numpy refuses
        # the allocation before it touches memory.
        assert run(command, "--q-points", "1", "--samples", str(10**16)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_mechanism_exits_via_argparse(self, capsys):
        assert run("bias-curve", "--mechanism", "bogus") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv,code,stderr", [
        (["bias-curve", "--mechanism", "bit", "--sensitivity", "0", "--q-points", "1"], 2,
         ["error: scale must be finite and > 0, got 0.0",
          "warning: degenerate mechanism: zero sensitivity adds no noise"]),
        (["verify-dp", "--mechanism", "laplace", "--sensitivity", "0"], 2,
         ["error: scale must be finite and > 0, got 0.0",
          "warning: degenerate mechanism: zero sensitivity adds no noise"]),
        (["verify-dp", "--mechanism", "multiplicative", "--kbound", "0.5"], 0,
         ["warning: scale >= 1/2: mechanism variance is infinite"]),
    ], ids=["bias-curve", "verify-dp-error", "verify-dp-report"])
    def test_fresh_process_prints_warnings_as_lines(self, argv, code, stderr, tmp_path):
        # Python's own format would print the warning's file, category and source line.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run([sys.executable, "-m", "nonneg_dp.cli", *argv, "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert all(line.startswith(("error: ", "warning: ")) for line in proc.stderr.splitlines())
        assert "UserWarning" not in proc.stderr and "warnings.warn" not in proc.stderr
        assert proc.stderr.splitlines() == stderr


class TestColdImport:
    """A fresh process never loads scipy, loads the quadrature only for the
    subcommands that integrate, and executes numpy only for those that
    build arrays.  Neither the import nor a subcommand that builds no array
    loads ``dataclasses`` or ``inspect``, which cost a cold process about 10 ms,
    and neither the import nor an integral loads ``typing``."""

    # numpy.* submodules exist only once numpy has executed; the lazily
    # loaded numpy entry itself does not count.  Modules already loaded at
    # start-up, as by site, do not count either.
    SCRIPT = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import nonneg_dp, nonneg_dp.cli\n"
        "code = nonneg_dp.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'scipy' or m == 'nonneg_dp.quadpack'),\n"
        "                  sorted(m for m in sys.modules if m.startswith('numpy.')),\n"
        "                  sorted({'dataclasses', 'inspect'} & set(sys.modules) - before)]))\n"
    )

    # Subcommands whose every number is a scalar closed form.
    NUMPY_FREE = ("optimal-alpha", "compare", "verify-dp", "query-info")

    def _fresh(self, tmp_path, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("NONNEG_DP_SEED", None)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv, "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        # [exit code, scipy and quadpack modules, numpy submodules, dataclasses and inspect loaded]
        return json.loads(proc.stdout)

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        script = ("import sys\n"
                  "before = set(sys.modules)\n"
                  "import nonneg_dp.cli\n"
                  "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout == "[]\n"

    @staticmethod
    def _loads_typing_without_site(statements):
        # -S keeps site, and any .pth file it runs, from loading typing first.
        paths = [str(Path(__file__).parents[1] / "src"), str(Path(np.__file__).parents[1])]
        script = f"import sys\nsys.path[:0] = {paths!r}\n{statements}print('typing' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                              timeout=120, check=True)
        return proc.stdout

    def test_import_without_site_loads_no_typing(self):
        assert self._loads_typing_without_site("import nonneg_dp.cli\n") == "False\n"

    def test_integral_without_site_loads_no_typing(self):
        # The first integral imports the quadrature.
        statements = "import nonneg_dp.cli\nnonneg_dp.distributions._integrate(abs, -1.0, 1.0, [0.0])\n"
        assert self._loads_typing_without_site(statements) == "False\n"

    @pytest.mark.parametrize("argv", [
        ("optimal-alpha",),
        ("compare",),
        ("verify-dp", "--mechanism", "laplace"),
        ("query-info", "--data", "{records}"),
    ], ids=lambda argv: argv[0])
    def test_closed_form_subcommands_never_load_the_quadrature(self, argv, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("0.25\n0.5\n")
        argv = [arg.replace("{records}", str(records)) for arg in argv]
        code, quadrature_modules, numpy_modules, dataclass_modules = self._fresh(tmp_path, *argv)
        assert [code, quadrature_modules] == [0, []]
        assert (numpy_modules == []) == (argv[0] in self.NUMPY_FREE)
        if argv[0] in self.NUMPY_FREE:
            assert dataclass_modules == []

    @pytest.mark.parametrize("mechanism", [("restricted",), ("multiplicative", "--kbound", "0.3")],
                             ids=["restricted", "multiplicative"])
    def test_every_certificate_loads_neither_library(self, mechanism, tmp_path):
        assert self._fresh(tmp_path, "verify-dp", "--mechanism", *mechanism) == [0, [], [], []]

    def test_log_grid_loads_numpy_without_the_quadrature(self, tmp_path):
        code, quadrature_modules, numpy_modules, _ = self._fresh(tmp_path, "compare", "--q-log", "--q-min", "1")
        assert [code, quadrature_modules] == [0, []]
        assert numpy_modules

    def test_every_integral_runs_with_scipy_blocked(self, tmp_path):
        # sys.modules["scipy"] = None makes any import of scipy fail, as if
        # it were not installed.
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import nonneg_dp.cli\n"
            "from nonneg_dp.mechanisms import PostProcessor\n"
            "from nonneg_dp.verify import check_divergence_log_laplace\n"
            "out = sys.argv[1]\n"
            "codes = [nonneg_dp.cli.main([command, '--mechanism', *mechanism, '--q-points', '2',\n"
            "                             '--samples', '100', '--out', out])\n"
            "         for command in ('bias-curve', 'mc-validate')\n"
            "         for mechanism in (['laplace'], ['bit'], ['ramp'], ['restricted'],\n"
            "                           ['multiplicative', '--kbound', '0.3', '--q-min', '1'])]\n"
            "PostProcessor.custom(lambda x: max(x, 0.0), 1.0)\n"
            "report = check_divergence_log_laplace(1.0, (10.0, 20.0, 40.0, 80.0, 160.0))\n"
            "print(json.dumps([codes, report.diverges, 'nonneg_dp.quadpack' in sys.modules,\n"
            "                  sorted(m for m in sys.modules if m.startswith('scipy.'))]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("NONNEG_DP_SEED", None)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(proc.stdout) == [[0] * 10, True, True, []]

    def test_import_without_numpy_fails(self):
        script = ("import sys\n"
                  "sys.modules['numpy'] = None   # as if it were not installed\n"
                  "try:\n"
                  "    import nonneg_dp\n"
                  "except ModuleNotFoundError as exc:\n"
                  "    print(exc.name)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout == "numpy\n"

    def test_tracer_shim_returns_scipy_integrate_only(self):
        import scipy.integrate

        import nonneg_dp.cli as cli
        assert cli.integrate is scipy.integrate
        with pytest.raises(AttributeError):
            cli.no_such_name


class TestParserReuse:
    """The parser is built once per process, and no flag value or default of
    one call carries over into the next."""

    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "import nonneg_dp.cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = nonneg_dp.cli.main(argv)\n"
        "    runs.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )

    def _process(self, *argvs):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("NONNEG_DP_SEED", None)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)   # [exit code, stdout, stderr] per call

    def test_calls_in_one_process_equal_calls_on_their_own(self, tmp_path):
        config = write_config(tmp_path, {"mechanism": "restricted", "q_points": 2, "q_max": 3,
                                         "samples": 1000, "seed": 5, "format": "json"})
        argvs = [
            ["mc-validate", "--mechanism", "restricted", "--samples", "10"],
            ["mc-validate", "--config", config, "--alpha", "0.5"],
            ["mc-validate", "--q-points", "2", "--samples", "1000"],
        ]
        together = self._process(*argvs)
        assert [code for code, _, _ in together] == [2, 0, 0]
        assert together[1][1] != together[2][1]
        assert together == [self._process(argv)[0] for argv in argvs]

class TestDeterminismAndRoundTrip:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("mc-validate", "--mechanism", "restricted", "--q-points", "4",
                "--q-max", "3", "--samples", "5000", "--seed", "21")
        assert run(*args, "--out", str(first)) == 0
        assert run(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_csv_round_trip_preserves_values(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("bias-curve", "--mechanism", "ramp", "--alpha", "0.35",
                   "--q-points", "4", "--q-max", "3", "--samples", "2000",
                   "--seed", "13", "--out", str(out)) == 0
        header, rows, summaries = read_csv_report(str(out))
        lines = [",".join(header)]
        lines += [",".join(fmt17(cell) for cell in row) for row in rows]
        lines += [f"# {s}" for s in summaries]
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_stdout_output(self, capsys):
        assert run("optimal-alpha", "--scale", "1") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["B_at_zero"] == 0.5
