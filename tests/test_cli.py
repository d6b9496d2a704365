import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from workforecast import __version__, jsonio
from workforecast.cli import cli
from workforecast.errors import MalformedJson
from workforecast.evaluate import build_dataset
from workforecast.features import read_features_csv
from workforecast.model import ModelFit, design, fit
from workforecast.perf import read_performance_csv

from helpers import quickstart_args, quickstart_inputs

ENV = {"WF_NO_COLOR": "1"}


def _invoke(args, **kwargs):
    runner = CliRunner()
    return runner.invoke(cli, args, env=ENV, catch_exceptions=False, **kwargs)


def _run_pipeline(root: Path, seed=7, extra_synth=(), extra_eval=()):
    """synth -> features -> fit -> evaluate -> figures; returns exit codes."""
    data = root / "data"
    codes = []
    codes.append(_invoke(["synth", "--out", str(data), "--seed", str(seed), *extra_synth]).exit_code)
    codes.append(
        _invoke([
            "features",
            "--employment", str(data / "employment.csv"),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv"),
            "--out", str(root / "features.csv"),
        ]).exit_code
    )
    codes.append(
        _invoke([
            "fit",
            "--features", str(root / "features.csv"),
            "--performance", str(data / "performance.csv"),
            "--model", str(root / "model.json"),
        ]).exit_code
    )
    codes.append(
        _invoke([
            "evaluate",
            "--features", str(root / "features.csv"),
            "--performance", str(data / "performance.csv"),
            "--out", str(root / "report.json"),
            *extra_eval,
        ]).exit_code
    )
    codes.append(
        _invoke([
            "figures",
            "--employment", str(data / "employment.csv"),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv"),
            "--features", str(root / "features.csv"),
            "--performance", str(data / "performance.csv"),
            "--report", str(root / "report.json"),
            "--out", str(root / "figs"),
        ]).exit_code
    )
    return codes


def _pipeline_files(root: Path):
    files = [
        root / "data" / "employment.csv",
        root / "data" / "unemployment.csv",
        root / "data" / "population.csv",
        root / "data" / "performance.csv",
        root / "data" / "truth.json",
        root / "features.csv",
        root / "model.json",
        root / "report.json",
    ]
    files.extend(sorted((root / "figs").glob("*.csv")))
    return files


class TestPipeline:
    def test_full_pipeline_exits_zero(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert len(report["folds"]) == 14
        assert report["run_config"]["subcommand"] == "evaluate"

    def test_noiseless_evaluation_is_essentially_exact(self, tmp_path):
        assert _run_pipeline(tmp_path, seed=7) == [0, 0, 0, 0, 0]
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["mae_model_pct"] <= 1e-7

    def test_rerun_produces_identical_bytes(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        assert _run_pipeline(first, seed=13) == [0, 0, 0, 0, 0]
        assert _run_pipeline(second, seed=13) == [0, 0, 0, 0, 0]
        for file_a, file_b in zip(_pipeline_files(first), _pipeline_files(second)):
            assert file_a.read_bytes().replace(bytes(str(first), "utf-8"), b"") == \
                file_b.read_bytes().replace(bytes(str(second), "utf-8"), b"")

    def test_overwrite_in_place_is_byte_identical(self, tmp_path):
        assert _run_pipeline(tmp_path, seed=21) == [0, 0, 0, 0, 0]
        snapshot = {path: path.read_bytes() for path in _pipeline_files(tmp_path)}
        assert _run_pipeline(tmp_path, seed=21) == [0, 0, 0, 0, 0]
        for path, blob in snapshot.items():
            assert path.read_bytes() == blob

    def test_per_region_evaluation(self, tmp_path):
        codes = _run_pipeline(
            tmp_path, seed=5,
            extra_synth=["--years", "2009:2018"],
            extra_eval=["--per-region"],
        )
        assert codes == [0, 0, 0, 0, 0]
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["scope"] == "per-region"


class TestExitCodes:
    def test_gapped_employment_file_exits_one(self, tmp_path):
        (tmp_path / "employment.csv").write_text(
            "region,year,employed\nR1,2010,100\nR1,2011,100\nR1,2013,100\n", encoding="utf-8"
        )
        (tmp_path / "unemployment.csv").write_text(
            "region,year,unemployed_6m\n" + "".join(f"R1,{y},5\n" for y in range(2010, 2014)),
            encoding="utf-8",
        )
        (tmp_path / "population.csv").write_text(
            "region,year,age_lo,age_hi,persons\n" + "".join(f"R1,{y},16,64,90\n" for y in range(2010, 2014)),
            encoding="utf-8",
        )
        result = _invoke([
            "features",
            "--employment", str(tmp_path / "employment.csv"),
            "--unemployment", str(tmp_path / "unemployment.csv"),
            "--population", str(tmp_path / "population.csv"),
            "--out", str(tmp_path / "features.csv"),
        ])
        assert result.exit_code == 1
        assert "ERROR GapInYears:" in result.stderr
        assert "2012" in result.stderr

    def test_fit_with_too_few_rows_exits_one(self, tmp_path):
        (tmp_path / "features.csv").write_text(
            "region,year,demand,supply,normalized,lag,age_lo,age_hi\n"
            "R1,2012,0.1,0.05,1,0,16,64\nR1,2013,0.2,0.06,1,0,16,64\n",
            encoding="utf-8",
        )
        (tmp_path / "performance.csv").write_text(
            "region,entry_year,n_entrants,n_success,performance\n"
            "R1,2012,10,4,0.400000\nR1,2013,10,5,0.500000\n",
            encoding="utf-8",
        )
        result = _invoke([
            "fit",
            "--features", str(tmp_path / "features.csv"),
            "--performance", str(tmp_path / "performance.csv"),
            "--model", str(tmp_path / "model.json"),
        ])
        assert result.exit_code == 1
        assert "ERROR TooFewObservations:" in result.stderr

    def test_missing_file_exits_one(self, tmp_path):
        result = _invoke([
            "validate",
            "--employment", str(tmp_path / "nope.csv"),
            "--unemployment", str(tmp_path / "nope.csv"),
            "--population", str(tmp_path / "nope.csv"),
        ])
        assert result.exit_code == 1
        assert result.stderr.startswith("ERROR FileNotFoundError:")

    def test_usage_error_exits_two(self):
        runner = CliRunner()
        assert runner.invoke(cli, ["features", "--bogus"], env=ENV).exit_code == 2
        assert runner.invoke(cli, ["evaluate"], env=ENV).exit_code == 2

    def test_bad_working_age_is_a_usage_error(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, [
            "features",
            "--employment", "e.csv", "--unemployment", "u.csv", "--population", "p.csv",
            "--working-age", "64-16",
            "--out", "f.csv",
        ], env=ENV)
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, flag", [
        (["synth", "--years", "-3:5"], "--years"),
        (["features", "--employment", "e.csv", "--unemployment", "u.csv", "--population", "p.csv",
          "--working-age", "-5:64"], "--working-age"),
    ])
    def test_negative_range_is_a_usage_error(self, tmp_path, args, flag):
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, [*args, "--out", str(out)], env=ENV)
        assert result.exit_code == 2
        assert f"Invalid value for {flag}: lower bound" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--demand-shift", "--supply-shift"])
    @pytest.mark.parametrize("shift", ["1e308", "-1e308"])
    def test_huge_shift_exits_one_naming_the_field(self, tmp_path, option, shift):
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, ["synth", "--out", str(out), "--shock-year", "2012", option, shift], env=ENV)
        assert result.exit_code == 1
        field = option[2:].replace("-", "_")
        assert _single_error_line(result, "InvalidConfig").startswith(f"ERROR InvalidConfig: {field} must be within")
        assert not out.exists()

    def test_supply_shift_of_the_whole_working_age_population_generates_a_panel(self, tmp_path):
        data = tmp_path / "data"
        result = _invoke(["synth", "--out", str(data), "--seed", "3", "--shock-year", "2012", "--supply-shift", "1"])
        assert result.exit_code == 0
        assert _invoke(_features_args(tmp_path, tmp_path / "features.csv")).exit_code == 0

    def test_unemployed_above_working_age_in_the_first_year_exits_one(self, tmp_path):
        """The first covered year yields no feature row, but its counts are still checked."""
        assert _invoke(["synth", "--out", str(tmp_path / "data"), "--seed", "3"]).exit_code == 0
        unemployment = tmp_path / "data" / "unemployment.csv"
        lines = unemployment.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1].startswith("R01,2011,")
        lines[1] = "R01,2011,5000000\n"  # every band of every synth region is smaller
        unemployment.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "features.csv"
        result = _invoke(_features_args(tmp_path, out))
        assert result.exit_code == 1
        line = _single_error_line(result, "SupplyExceedsOne")
        assert line.startswith("ERROR SupplyExceedsOne: region 'R01' year 2011: unemployed count (5000000) exceeds")
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["synth", "--years", f"2011:{'9' * 325}"], "--years"),
        (["features", "--employment", "e.csv", "--unemployment", "u.csv", "--population", "p.csv",
          "--working-age", f"0:{'9' * 400}"], "--working-age"),
        (["features", "--employment", "e.csv", "--unemployment", "u.csv", "--population", "p.csv",
          "--working-age", f"{'9' * 401}:{'9' * 400}"], "--working-age"),
    ], ids=["years", "working-age", "both-bounds"])
    def test_a_range_bound_past_324_digits_is_a_usage_error(self, tmp_path, args, flag):
        """Such a --working-age used to exit 0 and write a features.csv that `fit` then rejected."""
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, [*args, "--out", str(out)], env=ENV)
        assert result.exit_code == 2
        assert f"Invalid value for {flag}: a bound has more than 324 digits" in result.stderr
        assert not out.exists()

    def test_a_year_range_too_long_to_count_exits_one(self, tmp_path):
        """It used to end in an `OverflowError` traceback from `range`, before any year was generated."""
        out = tmp_path / "out"
        last = "9" * 30
        result = CliRunner().invoke(cli, ["synth", "--out", str(out), "--years", f"2011:{last}"], env=ENV)
        assert result.exit_code == 1
        assert _single_error_line(result, "InvalidConfig") == (
            f"ERROR InvalidConfig: 2 regions over 2011..{last} are more than 1,000,000 region-years"
        )
        assert not out.exists()

    @pytest.mark.parametrize("args, text", [
        (["--years", "0:9223372036854775806"], "2 regions over 0..9223372036854775806"),
        (["--regions", "1000000000"], "1000000000 regions over 2011..2018"),
        (["--regions", "333334", "--years", "2001:2003"], "333334 regions over 2001..2003"),
    ], ids=["countable-years", "regions", "just-past-the-cap"])
    def test_a_panel_past_a_million_region_years_exits_one(self, tmp_path, args, text):
        """The first two used to run out of memory (or time) generating, the first after passing a sys.maxsize check."""
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, ["synth", "--out", str(out), *args], env=ENV)
        assert result.exit_code == 1
        assert _single_error_line(result, "InvalidConfig") == (
            f"ERROR InvalidConfig: {text} are more than 1,000,000 region-years"
        )
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--demand-shift", "--supply-shift"])
    def test_shift_without_shock_year_exits_one(self, tmp_path, option):
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, ["synth", "--out", str(out), option, "-0.05"], env=ENV)
        assert result.exit_code == 1
        assert _single_error_line(result, "InvalidConfig") == (
            "ERROR InvalidConfig: demand_shift and supply_shift require a shock_year"
        )
        assert not out.exists()


class TestErrorMapping:
    @pytest.mark.parametrize("command", sorted(cli.commands))
    def test_every_command_maps_an_unusable_path_to_one_error_line(self, tmp_path, command):
        """Every required option names a file, and no path under a regular file can be read or written."""
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        args = [command]
        for param in cli.commands[command].params:
            if param.required:
                args += [param.opts[0], str(blocker / param.name)]
        result = CliRunner().invoke(cli, args, env=ENV)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert re.fullmatch(r"ERROR [A-Za-z]+: [^\n]*\n", result.stderr), result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("env, styled", [({"WF_NO_COLOR": None}, True), (ENV, False)],
                             ids=["default", "WF_NO_COLOR"])
    def test_the_error_line_is_red_unless_wf_no_color_is_set(self, tmp_path, env, styled):
        """On a terminal that takes colour; `WF_NO_COLOR` keeps the line plain there too."""
        records = tmp_path / "missing.csv"
        args = ["performance", "--records", str(records), "--out", str(tmp_path / "performance.csv")]
        result = CliRunner().invoke(cli, args, env=env, color=True)
        assert result.exit_code == 1
        line = f"ERROR FileNotFoundError: [Errno 2] No such file or directory: {str(records)!r}"
        assert result.stderr == (f"\x1b[31m{line}\x1b[0m\n" if styled else f"{line}\n")


class TestValidate:
    def test_reports_region_summaries(self, tmp_path):
        data = tmp_path / "data"
        assert _invoke(["synth", "--out", str(data), "--seed", "3"]).exit_code == 0
        result = _invoke([
            "validate",
            "--employment", str(data / "employment.csv"),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv"),
        ])
        assert result.exit_code == 0
        assert "OK R01: years 2011-2018 (8)" in result.stderr
        assert "OK R02" in result.stderr


class TestFigures:
    def test_emits_four_files(self, tmp_path):
        assert _run_pipeline(tmp_path, seed=9) == [0, 0, 0, 0, 0]
        names = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
        assert names == [
            "fig1_demand.csv",
            "fig2_unemployment.csv",
            "fig3_population.csv",
            "fig4_eval.csv",
        ]


class TestPerformanceCommand:
    def test_records_to_rates(self, tmp_path):
        (tmp_path / "records.csv").write_text(
            "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n"
            "P1,R1,2015-01-01,2015-01-01,2015-08-01,20\n"
            "P2,R1,2015-02-01,2015-02-01,2015-04-01,20\n"
            "P3,R1,2015-03-01,,,\n",
            encoding="utf-8",
        )
        result = _invoke([
            "performance",
            "--records", str(tmp_path / "records.csv"),
            "--out", str(tmp_path / "performance.csv"),
        ])
        assert result.exit_code == 0
        lines = (tmp_path / "performance.csv").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "region,entry_year,n_entrants,n_success,performance",
            "R1,2015,3,1,0.333333",
        ]

    @pytest.mark.parametrize("entry, window", [("9999-10-01", "6"), ("2015-01-01", "100000"),
                                               ("2015-01-01", str(10**30))])
    def test_window_ending_after_the_last_date_exits_one(self, tmp_path, entry, window):
        """With one spell or none: a person with no spells still has a window, which must end by 9999-12-31."""
        for row in (f"P1,R1,{entry},{entry},9999-12-31,20", f"P1,R1,{entry},,,"):
            (tmp_path / "records.csv").write_text(
                f"person_id,region,entry_date,spell_start,spell_end,hours_per_week\n{row}\n",
                encoding="utf-8",
            )
            result = _invoke([
                "performance",
                "--records", str(tmp_path / "records.csv"),
                "--window-months", window,
                "--out", str(tmp_path / "performance.csv"),
            ])
            assert result.exit_code == 1
            assert f"{window}-month window from entry date {entry}" in _single_error_line(result, "InvalidConfig")
            assert not (tmp_path / "performance.csv").exists()

    def test_per_region_fit_writes_model_map(self, tmp_path):
        data = tmp_path / "data"
        assert _invoke(["synth", "--out", str(data), "--seed", "2", "--years", "2009:2018"]).exit_code == 0
        assert _invoke([
            "features",
            "--employment", str(data / "employment.csv"),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv"),
            "--out", str(tmp_path / "features.csv"),
        ]).exit_code == 0
        result = _invoke([
            "fit", "--per-region",
            "--features", str(tmp_path / "features.csv"),
            "--performance", str(data / "performance.csv"),
            "--model", str(tmp_path / "model.json"),
        ])
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert payload["scope"] == "per-region"
        assert set(payload["models"]) == {"R01", "R02"}


def _single_error_line(result, code):
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(f"ERROR {code}: ")
    return lines[0]


def _figures_args(root: Path, report: Path, *extra):
    data = root / "data"
    return [
        "figures",
        "--employment", str(data / "employment.csv"),
        "--unemployment", str(data / "unemployment.csv"),
        "--population", str(data / "population.csv"),
        "--features", str(root / "features.csv"),
        "--performance", str(data / "performance.csv"),
        "--report", str(report),
        "--out", str(root / "figs"),
        *extra,
    ]


class TestMalformedInputs:
    def test_deeply_nested_report_exits_one(self, quickstart, tmp_path):
        """It used to end in a `RecursionError` traceback from json's decoder."""
        args = _copy_quickstart(quickstart, tmp_path, "figures")
        report = tmp_path / "report.json"
        report.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "MalformedJson") == (
            f"ERROR MalformedJson: {report}: not a valid EvalReport file: "
            "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        )
        assert not (tmp_path / "out_figs").exists()

    def test_a_number_too_large_for_a_float_exits_one(self, quickstart, tmp_path):
        """A 400-digit integer used to end in an `OverflowError` traceback from the codec's float conversion."""
        args = _copy_quickstart(quickstart, tmp_path, "figures")
        report = tmp_path / "report.json"
        text = report.read_text(encoding="utf-8")
        report.write_text(re.sub(r'"actual": [^,]+', f'"actual": {"9" * 400}', text, count=1), encoding="utf-8")
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "MalformedJson") == (
            f"ERROR MalformedJson: {report}: not a valid EvalReport file: int too large to convert to float"
        )
        assert not (tmp_path / "out_figs").exists()

    def test_truncated_report_exits_one(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        report = tmp_path / "report.json"
        report.write_bytes(report.read_bytes()[:300])
        result = _invoke(_figures_args(tmp_path, report))
        assert result.exit_code == 1
        assert str(report) in _single_error_line(result, "MalformedJson")

    def test_model_json_passed_as_report_exits_one(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        result = _invoke(_figures_args(tmp_path, tmp_path / "model.json"))
        assert result.exit_code == 1
        assert "model.json" in _single_error_line(result, "MalformedJson")

    def test_per_region_model_is_not_a_single_model(self, tmp_path):
        assert _run_pipeline(tmp_path, extra_synth=["--years", "2009:2018"]) == [0, 0, 0, 0, 0]
        model = tmp_path / "model_per_region.json"
        assert _invoke([
            "fit", "--per-region",
            "--features", str(tmp_path / "features.csv"),
            "--performance", str(tmp_path / "data" / "performance.csv"),
            "--model", str(model),
        ]).exit_code == 0
        with pytest.raises(MalformedJson, match="intercept"):
            jsonio.load(model, ModelFit)

    def test_non_utf8_csv_exits_one(self, tmp_path):
        data = tmp_path / "data"
        assert _invoke(["synth", "--out", str(data), "--seed", "3"]).exit_code == 0
        (data / "employment.csv").write_bytes(b"region,year,employed\nR01,2011,\xff\n")
        result = _invoke([
            "validate",
            "--employment", str(data / "employment.csv"),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv"),
        ])
        assert result.exit_code == 1
        assert "employment.csv" in _single_error_line(result, "MalformedRow")

    def test_a_path_with_a_line_break_is_quoted_on_one_line(self, tmp_path):
        data = tmp_path / "a\nb"
        assert _invoke(["synth", "--out", str(data), "--seed", "3"]).exit_code == 0
        employment = data / "employment.csv"
        employment.write_bytes(employment.read_bytes().replace(b"region,year,employed", b"region,year,emp", 1))
        result = _invoke([
            "validate",
            "--employment", str(employment),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv"),
        ])
        assert result.exit_code == 1
        line = _single_error_line(result, "MalformedRow")
        assert line.startswith(f"ERROR MalformedRow: {str(employment)!r}:1: expected header")

    @pytest.mark.parametrize("header", [b'region,year,"employed', b"region,year,emp\x0bloyed"])
    def test_a_header_with_a_line_break_is_quoted_on_one_line(self, tmp_path, header):
        """An open quote makes the header field run over the next rows; \\x0b breaks lines too."""
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        employment = tmp_path / "data" / "employment.csv"
        employment.write_bytes(employment.read_bytes().replace(b"region,year,employed", header, 1))
        result = _invoke(_features_args(tmp_path, tmp_path / "features_bad.csv"))
        assert result.exit_code == 1
        assert "expected header region,year,employed, got 'region,year," in _single_error_line(result, "MalformedRow")

    def test_a_stamp_with_a_line_break_is_quoted_on_one_line(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "features.csv"
        *head, last = features.read_bytes().splitlines(keepends=True)
        features.write_bytes(b"".join(head) + last.replace(b",16,64", b",1\x0b6,64"))
        result = _invoke(_fit_args(tmp_path, tmp_path / "model_bad.json"))
        assert result.exit_code == 1
        line = _single_error_line(result, "FeatureConfigMismatch")
        assert line.endswith("is '1,0,1\\x0b6,64' here but '1,0,16,64' on line 2")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exits_one_without_a_model(self, tmp_path, value):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        region, year, _, supply, *stamp = lines[3].split(",")
        lines[3] = ",".join([region, year, value, supply, *stamp])
        features.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "model_bad.json"
        result = _invoke([
            "fit",
            "--features", str(features),
            "--performance", str(tmp_path / "data" / "performance.csv"),
            "--model", str(model),
        ])
        assert result.exit_code == 1
        assert "features.csv:4:" in _single_error_line(result, "MalformedRow")
        assert not model.exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_invalid_min_hours_exits_one(self, tmp_path, value):
        (tmp_path / "records.csv").write_text(
            "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n"
            "P1,R1,2015-01-01,2015-01-01,2015-08-01,1\n",
            encoding="utf-8",
        )
        result = _invoke([
            "performance",
            "--records", str(tmp_path / "records.csv"),
            f"--min-hours={value}",
            "--out", str(tmp_path / "performance.csv"),
        ])
        assert result.exit_code == 1
        _single_error_line(result, "InvalidConfig")
        assert not (tmp_path / "performance.csv").exists()


class TestOversizedCounts:
    """A 400-digit head-count used to end in `OverflowError: int too large to convert to float`."""

    @staticmethod
    def _oversize(path: Path, band_lo: str | None = None) -> int:
        """Make the count of the first data row (in a band from `band_lo`, if given) 400 digits; return its line."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        index = 1 if band_lo is None else next(i for i, line in enumerate(lines) if line.split(",")[2] == band_lo)
        lines[index] = lines[index].rsplit(",", 1)[0] + "," + "9" * 400 + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return index + 1

    @pytest.mark.parametrize("file, column, band_lo", [
        ("employment.csv", "employed", None),
        ("unemployment.csv", "unemployed_6m", None),
        ("population.csv", "persons", "16"),
    ])
    def test_features_exits_one_naming_the_count(self, tmp_path, file, column, band_lo):
        assert _invoke(["synth", "--out", str(tmp_path / "data"), "--seed", "3"]).exit_code == 0
        line = self._oversize(tmp_path / "data" / file, band_lo)
        result = _invoke(_features_args(tmp_path, tmp_path / "features_big.csv"))
        assert result.exit_code == 1
        prefix = f"ERROR MalformedRow: {tmp_path / 'data' / file}:{line}: column {column!r}"
        assert _single_error_line(result, "MalformedRow").startswith(f"{prefix} must be at most 2**53, got '999")
        assert not (tmp_path / "features_big.csv").exists()

    def test_figures_exits_one_on_a_count_outside_working_age(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        line = self._oversize(tmp_path / "data" / "population.csv", "0")
        result = _invoke(_figures_args(tmp_path, tmp_path / "report.json"))
        assert result.exit_code == 1
        error = _single_error_line(result, "MalformedRow")
        assert f"population.csv:{line}: column 'persons' must be at most 2**53, got '999" in error


class TestFigureHeaders:
    @pytest.mark.parametrize("mode", ["ratio", "difference"])
    def test_population_header_names_its_baseline_mode(self, tmp_path, mode):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        result = _invoke(_figures_args(tmp_path, tmp_path / "report.json", "--population-baseline", mode))
        assert result.exit_code == 0
        header = (tmp_path / "figs" / "fig3_population.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == f"region,year,{mode}"


def _features_args(root: Path, out: Path, *extra):
    data = root / "data"
    return [
        "features",
        "--employment", str(data / "employment.csv"),
        "--unemployment", str(data / "unemployment.csv"),
        "--population", str(data / "population.csv"),
        "--out", str(out),
        *extra,
    ]


def _fit_args(root: Path, model: Path, features: Path | None = None):
    return [
        "fit",
        "--features", str(features or root / "features.csv"),
        "--performance", str(root / "data" / "performance.csv"),
        "--model", str(model),
    ]


def _evaluate_args(root: Path, report: Path, features: Path | None = None):
    return [
        "evaluate",
        "--features", str(features or root / "features.csv"),
        "--performance", str(root / "data" / "performance.csv"),
        "--out", str(report),
    ]


class TestFeatureConfigFromFile:
    def test_fit_and_evaluate_stamp_the_configuration_of_the_file(self, tmp_path):
        assert _invoke(["synth", "--out", str(tmp_path / "data"), "--seed", "7"]).exit_code == 0
        features_args = _features_args(tmp_path, tmp_path / "features.csv", "--lag", "1", "--working-age", "18:66")
        assert _invoke(features_args).exit_code == 0
        assert _invoke(_fit_args(tmp_path, tmp_path / "model.json")).exit_code == 0
        assert _invoke(_evaluate_args(tmp_path, tmp_path / "report.json")).exit_code == 0
        expected = {"normalize": True, "lag": 1, "working_age": [18, 66]}
        model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert "feature_config" not in model
        assert model["run_config"]["feature_config"] == expected
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["feature_config"] == expected
        assert report["run_config"]["feature_config"] == expected

    @pytest.mark.parametrize("command", ["fit", "evaluate", "figures"])
    @pytest.mark.parametrize("flag", [["--normalize"], ["--no-normalize"], ["--lag", "1"], ["--working-age", "18:66"]],
                             ids=lambda flag: flag[0])
    def test_feature_flags_belong_to_features_only(self, tmp_path, command, flag):
        args = {
            "fit": _fit_args(tmp_path, tmp_path / "model_flag.json"),
            "evaluate": _evaluate_args(tmp_path, tmp_path / "report_flag.json"),
            "figures": _figures_args(tmp_path, tmp_path / "report.json"),
        }[command]
        result = CliRunner().invoke(cli, [*args, *flag], env=ENV)
        assert result.exit_code == 2
        assert "No such option" in result.stderr

    def test_header_only_features_file_exits_one(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "empty_features.csv"
        features.write_text("region,year,demand,supply,normalized,lag,age_lo,age_hi\n", encoding="utf-8")
        model = tmp_path / "model_empty.json"
        result = _invoke(_fit_args(tmp_path, model, features))
        assert result.exit_code == 1
        assert "empty_features.csv: no data rows" in _single_error_line(result, "MalformedRow")
        assert not model.exists()

    def test_figures_rejects_a_report_built_on_other_features(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        lagged = tmp_path / "features_lag1.csv"
        assert _invoke(_features_args(tmp_path, lagged, "--lag", "1")).exit_code == 0
        report = tmp_path / "report_lag1.json"
        assert _invoke(_evaluate_args(tmp_path, report, lagged)).exit_code == 0
        result = _invoke(_figures_args(tmp_path, report))
        assert result.exit_code == 1
        line = _single_error_line(result, "FeatureConfigMismatch")
        assert str(report) in line and str(tmp_path / "features.csv") in line


class TestModelJsonFromTheCli:
    """`fit` records the feature configuration once, in `run_config`, beside models that read back exactly."""

    @pytest.fixture
    def models(self, tmp_path):
        assert _invoke(["synth", "--out", str(tmp_path / "data"), "--seed", "7", "--regions", "3"]).exit_code == 0
        assert _invoke(_features_args(tmp_path, tmp_path / "features.csv", "--lag", "1")).exit_code == 0
        pooled, per_region = tmp_path / "model.json", tmp_path / "model_per_region.json"
        assert _invoke(_fit_args(tmp_path, pooled)).exit_code == 0
        assert _invoke([*_fit_args(tmp_path, per_region), "--per-region"]).exit_code == 0
        feature_rows, _ = read_features_csv(tmp_path / "features.csv")
        dataset = build_dataset(feature_rows, read_performance_csv(tmp_path / "data" / "performance.csv"))
        return pooled, per_region, dataset

    def test_the_feature_configuration_is_recorded_once_under_run_config(self, models):
        pooled, per_region, _ = models
        for path in (pooled, per_region):
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            assert "feature_config" not in payload
            assert text.count('"normalize"') == 1
            assert payload["run_config"]["feature_config"] == {"normalize": True, "lag": 1, "working_age": [16, 64]}
        field_names = [field.name for field in fields(ModelFit)]
        models_by_region = json.loads(per_region.read_text(encoding="utf-8"))["models"]
        assert len(models_by_region) == 3
        assert all(list(entry) == field_names for entry in models_by_region.values())

    def test_models_read_back_equal_to_an_in_process_fit(self, models):
        pooled, per_region, dataset = models
        assert jsonio.load(pooled, ModelFit) == fit(*design(dataset))
        models_by_region = json.loads(per_region.read_text(encoding="utf-8"))["models"]
        assert sorted(models_by_region) == sorted({row.region_id for row, _ in dataset})
        for region, entry in models_by_region.items():
            rows = [(row, target) for row, target in dataset if row.region_id == region]
            assert jsonio._codec(ModelFit)(entry) == fit(*design(rows))


class TestOverflowingFeatures:
    """A demand of 1e200 overflows the QR factorization of every fit that includes it."""

    def _overflowing_features(self, root: Path) -> Path:
        assert _run_pipeline(root) == [0, 0, 0, 0, 0]
        features = root / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        region, year, _, *rest = lines[2].split(",")
        lines[2] = ",".join([region, year, "1e200", *rest])
        features.write_text("".join(lines), encoding="utf-8")
        return features

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_exits_one_without_a_model(self, tmp_path):
        self._overflowing_features(tmp_path)
        model = tmp_path / "model_overflow.json"
        result = _invoke(_fit_args(tmp_path, model))
        assert result.exit_code == 1
        _single_error_line(result, "RankDeficientDesign")
        assert not model.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_per_region_fit_names_the_overflowing_region(self, tmp_path):
        features = self._overflowing_features(tmp_path)
        region = features.read_text(encoding="utf-8").splitlines()[2].split(",")[0]
        model = tmp_path / "model_overflow.json"
        result = _invoke([*_fit_args(tmp_path, model), "--per-region"])
        assert result.exit_code == 1
        line = _single_error_line(result, "RankDeficientDesign")
        assert line.startswith(f"ERROR RankDeficientDesign: region {region!r}: design matrix is rank deficient")
        assert not model.exists()

    def test_per_region_fit_names_a_region_with_too_few_rows(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        last = lines[-1].split(",")[0]
        dropped = [line for line in lines if line.startswith(f"{last},")][2:]
        features.write_text("".join(line for line in lines if line not in dropped), encoding="utf-8")
        model = tmp_path / "model_small.json"
        result = _invoke([*_fit_args(tmp_path, model), "--per-region"])
        assert result.exit_code == 1
        line = _single_error_line(result, "TooFewObservations")
        assert line.startswith(f"ERROR TooFewObservations: region {last!r}: need at least 3 observations")
        assert not model.exists()

    def test_per_region_evaluate_names_a_region_with_too_few_rows(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        last = lines[-1].split(",")[0]
        dropped = [line for line in lines if line.startswith(f"{last},")][3:]
        features.write_text("".join(line for line in lines if line not in dropped), encoding="utf-8")
        report = tmp_path / "report_small.json"
        result = _invoke([*_evaluate_args(tmp_path, report), "--per-region"])
        assert result.exit_code == 1
        line = _single_error_line(result, "TooFewObservations")
        assert line == f"ERROR TooFewObservations: region {last!r}: leave-one-out needs at least 4 data points, got 3"
        assert not report.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluate_exits_one_without_a_report(self, tmp_path):
        self._overflowing_features(tmp_path)
        report = tmp_path / "report_overflow.json"
        result = _invoke(_evaluate_args(tmp_path, report))
        assert result.exit_code == 1
        _single_error_line(result, "RankDeficientFold")
        assert not report.exists()


class TestConditionEstimateOverflow:
    """QR diagonal entries of about 1e-300 and 1e10: their ratio, the condition estimate, overflows to inf."""

    @staticmethod
    def _inputs(root: Path) -> list[str]:
        values = [("1e-300", "1e10"), ("2e-300", "3e10"), ("3e-300", "2e10"), ("5e-300", "7e10")]
        (root / "features.csv").write_text("region,year,demand,supply,normalized,lag,age_lo,age_hi\n" + "".join(
            f"R1,{2012 + i},{demand},{supply},1,0,16,64\n" for i, (demand, supply) in enumerate(values)
        ), encoding="utf-8")
        (root / "performance.csv").write_text("region,entry_year,n_entrants,n_success,performance\n" + "".join(
            f"R1,{2012 + i},10,{success},0.{success}00000\n" for i, success in enumerate((5, 4, 6, 3))
        ), encoding="utf-8")
        return ["--features", str(root / "features.csv"), "--performance", str(root / "performance.csv")]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, output, line", [
        ("fit", "--model", "ERROR RankDeficientDesign: design matrix is rank deficient: column(s) demand are "
                           "collinear with the rest (condition estimate inf)"),
        ("evaluate", "--out", "ERROR RankDeficientFold: training fold for (R1, 2012) is rank deficient: design "
                              "matrix is rank deficient: column(s) demand are collinear with the rest "
                              "(condition estimate inf)"),
    ], ids=["fit", "evaluate"])
    def test_the_one_error_line_is_all_of_stderr(self, tmp_path, command, output, line):
        out = tmp_path / "out.json"
        result = _invoke([command, *self._inputs(tmp_path), output, str(out)])
        assert result.exit_code == 1
        assert result.stderr == line + "\n"
        assert not out.exists()


class TestSumOfSquaresOverflow:
    """A demand column alternating ±7e153: each square is finite, but the column's sum of squares overflows."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_exits_one_without_a_model(self, tmp_path):
        (tmp_path / "features.csv").write_text("region,year,demand,supply,normalized,lag,age_lo,age_hi\n" + "".join(
            f"R1,{2012 + i},{'-' * (i % 2)}7e153,0.0{i + 1},1,0,16,64\n" for i in range(6)
        ), encoding="utf-8")
        (tmp_path / "performance.csv").write_text("region,entry_year,n_entrants,n_success,performance\n" + "".join(
            f"R1,{2012 + i},10,{success},0.{success}00000\n" for i, success in enumerate((5, 4, 6, 3, 5, 7))
        ), encoding="utf-8")
        model = tmp_path / "model.json"
        result = _invoke(["fit", "--features", str(tmp_path / "features.csv"),
                          "--performance", str(tmp_path / "performance.csv"), "--model", str(model)])
        assert result.exit_code == 1
        assert result.stderr == ("ERROR RankDeficientDesign: design matrix is rank deficient: its QR factorization "
                                 "overflows (condition estimate inf)\n")
        assert not model.exists()


class TestEmptyJoin:
    """A lag past the last performance year leaves no (region, year) in both files."""

    @pytest.mark.parametrize("args", [_fit_args, _evaluate_args], ids=["fit", "evaluate"])
    def test_per_region_command_exits_one_without_output(self, tmp_path, args):
        assert _invoke(["synth", "--out", str(tmp_path / "data"), "--seed", "7"]).exit_code == 0
        features = tmp_path / "features_lag100.csv"
        assert _invoke(_features_args(tmp_path, features, "--lag", "100")).exit_code == 0
        out = tmp_path / "per_region.json"
        result = _invoke([*args(tmp_path, out, features), "--per-region"])
        assert result.exit_code == 1
        line = _single_error_line(result, "TooFewObservations")
        assert line == "ERROR TooFewObservations: per-region runs need at least 1 data point, got 0"
        assert not out.exists()


class TestVersion:
    def test_version_option_prints_the_package_version(self):
        result = _invoke(["--version"])
        assert result.exit_code == 0
        assert result.output.endswith(", version 0.1.0\n")

    def test_package_version_is_the_pyproject_version(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == __version__


def _stamp_cases(quickstart: Path, out: Path) -> dict:
    """Per command: non-default options in declaration order, the file holding the stamp, the expected stamp."""
    features, performance = str(quickstart / "features.csv"), str(quickstart / "performance.csv")
    feature_config = {"normalize": True, "lag": 0, "working_age": [16, 64]}
    synth = (("--out", str(out)), ("--seed", "5"), ("--regions", "3"), ("--years", "2010:2016"),
             ("--intercept", "0.4"), ("--coef-demand", "1.25"), ("--coef-supply", "-1.5"), ("--noise-sd", "0.01"),
             ("--shock-year", "2013"), ("--demand-shift", "0.02"), ("--supply-shift", "-0.01"))
    return {
        "fit": (
            (("--features", features), ("--performance", performance), ("--per-region",), ("--model", str(out))),
            out,
            {"subcommand": "fit", "features": features, "performance": performance, "per_region": True,
             "model": str(out), "feature_config": feature_config},
        ),
        "evaluate": (
            (("--features", features), ("--performance", performance), ("--benchmark", "prior-years-mean"),
             ("--per-region",), ("--out", str(out))),
            out,
            {"subcommand": "evaluate", "features": features, "performance": performance,
             "benchmark_mode": "prior-years-mean", "per_region": True, "out": str(out),
             "feature_config": feature_config},
        ),
        "synth": (
            synth,
            out / "truth.json",
            {"subcommand": "synth", "out": str(out), "seed": 5, "n_regions": 3, "years": [2010, 2016],
             "true_intercept": 0.4, "true_coef_demand": 1.25, "true_coef_supply": -1.5, "noise_sd": 0.01,
             "shock_year": 2013, "demand_shift": 0.02, "supply_shift": -0.01},
        ),
    }


class TestRunConfig:
    """The stamp is the parsed command line: `subcommand`, each option in declaration order, then `feature_config`."""

    def test_truth_config_has_the_keys_and_values_of_the_synth_stamp(self, quickstart, tmp_path):
        options, truth_file, _ = _stamp_cases(quickstart, tmp_path / "out")["synth"]
        assert _invoke(["synth", *(arg for option in options for arg in option)]).exit_code == 0
        truth = json.loads(truth_file.read_text(encoding="utf-8"))
        stamp = {key: value for key, value in truth["run_config"].items() if key not in ("subcommand", "out")}
        assert truth["config"] == stamp

    @pytest.mark.parametrize("command", ["fit", "evaluate", "synth"])
    def test_stamp_is_the_parsed_configuration(self, quickstart, tmp_path, command):
        options, stamped, expected = _stamp_cases(quickstart, tmp_path / "out")[command]
        assert _invoke([command, *(arg for option in options for arg in option)]).exit_code == 0
        stamp = json.loads(stamped.read_text(encoding="utf-8"))["run_config"]
        assert list(stamp.items()) == list(expected.items())
        declared = [param.name for param in cli.commands[command].params]
        assert list(stamp)[:len(declared) + 1] == ["subcommand", *declared]

    @pytest.mark.parametrize("command", ["fit", "evaluate", "synth"])
    def test_option_order_does_not_change_the_output(self, quickstart, tmp_path, command):
        options, stamped, _ = _stamp_cases(quickstart, tmp_path / "out")[command]
        assert _invoke([command, *(arg for option in options for arg in option)]).exit_code == 0
        forward = stamped.read_bytes()
        assert _invoke([command, *(arg for option in reversed(options) for arg in option)]).exit_code == 0
        assert stamped.read_bytes() == forward


def _copy_quickstart(quickstart: Path, root: Path, command: str) -> list[str]:
    """Copy the quick-start inputs of `command` into `root`; return its arguments there."""
    root.mkdir(exist_ok=True)
    for name in quickstart_inputs(command):
        shutil.copyfile(quickstart / name, root / name)
    return quickstart_args(command, root)


def _edit_lines(path: Path, edit) -> None:
    """Replace the text lines of `path` by `edit(lines)`, each line without its line break."""
    path.write_text("".join(f"{line}\n" for line in edit(path.read_text(encoding="utf-8").splitlines())),
                    encoding="utf-8")


def _snapshot(directory: Path) -> dict | None:
    return {path.name: path.read_bytes() for path in directory.iterdir()} if directory.exists() else None


class TestFiguresWriteNothingOnError:
    """Every baseline is checked before the first figure file is written."""

    @pytest.mark.parametrize("stale", [False, True], ids=["no-out-dir", "stale-out-dir"])
    @pytest.mark.parametrize("edit, extra, code, message", [
        (lambda lines: [line for line in lines if not line.startswith("R02,")], [],
         "MissingBaselineYear", "region 'R02' has no values to baseline against"),
        (lambda lines: [lines[0], "R01,2012,10,0,0.000000", *lines[2:]], ["--performance-baseline", "ratio"],
         "ZeroBaseline", "region 'R01': cannot baseline by ratio, its value in 2012 is zero"),
        (lambda lines: [lines[0], f"R01,2012,1{'0' * 320},1,0.000000", *lines[2:]],
         ["--performance-baseline", "ratio"], "ZeroBaseline",
         "region 'R01': cannot baseline by ratio against its value in 2012 (1e-320), a result overflows"),
    ], ids=["region-without-performance", "zero-first-performance", "subnormal-first-performance"])
    def test_a_baseline_error_leaves_the_out_dir_as_it_was(self, quickstart, tmp_path, stale, edit, extra, code,
                                                           message):
        args = _copy_quickstart(quickstart, tmp_path, "figures")
        out = tmp_path / "out_figs"
        if stale:  # an earlier run in the other population mode, so a partial rewrite would change fig3
            assert _invoke([*args, "--population-baseline", "difference"]).exit_code == 0
        before = _snapshot(out)
        _edit_lines(tmp_path / "performance.csv", edit)
        result = _invoke([*args, *extra])
        assert result.exit_code == 1
        assert _single_error_line(result, code) == f"ERROR {code}: {message}"
        assert _snapshot(out) == before


class TestUntestedErrorPaths:
    """Error paths that only a command line reaches, each ending in one `ERROR` line."""

    @pytest.mark.parametrize("command, file, edit, message", [
        ("validate", "employment.csv", lambda lines: [], "employment.csv:1: missing header row"),
        ("performance", "records.csv", lambda lines: [lines[0], "," + lines[1].split(",", 1)[1], *lines[2:]],
         "records.csv:2: empty person_id"),
        ("fit", "performance.csv", lambda lines: [lines[0], "R01,2012,0,0,0.000000", *lines[2:]],
         "performance.csv:2: n_entrants must be positive"),
    ], ids=["empty-file", "empty-person-id", "zero-entrants"])
    def test_malformed_row(self, quickstart, tmp_path, command, file, edit, message):
        args = _copy_quickstart(quickstart, tmp_path, command)
        _edit_lines(tmp_path / file, edit)
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "MalformedRow") == f"ERROR MalformedRow: {tmp_path / message}"
        assert not any(path.name.startswith("out_") for path in tmp_path.iterdir())

    def test_repeated_age_band_is_an_overlap(self, quickstart, tmp_path):
        args = _copy_quickstart(quickstart, tmp_path, "validate")
        _edit_lines(tmp_path / "population.csv", lambda lines: [*lines[:2], lines[1], *lines[2:]])
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "OverlappingAgeBands") == (
            f"ERROR OverlappingAgeBands: {tmp_path / 'population.csv'}:3: "
            "region 'R01' year 2011: band [0, 15] overlaps band [0, 15]"
        )
        assert not any(path.name.startswith("out_") for path in tmp_path.iterdir())

    def test_figures_without_a_year_shared_by_all_regions_needs_a_baseline_year(self, quickstart, tmp_path):
        args = _copy_quickstart(quickstart, tmp_path, "figures")
        _edit_lines(tmp_path / "employment.csv", lambda lines: [  # R01 keeps 2011-2014, R02 2015-2018
            line for line in lines if line[:3] not in ("R01", "R02") or (line[:3] == "R01") == (line[4:8] < "2015")
        ])
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "MissingBaselineYear") == (
            "ERROR MissingBaselineYear: no year is shared by all regions; pass an explicit baseline year"
        )
        assert not (tmp_path / "out_figs").exists()
        result = _invoke([*args, "--baseline-year", "2011"])
        assert result.exit_code == 1
        assert _single_error_line(result, "MissingBaselineYear") == (
            "ERROR MissingBaselineYear: region 'R02' has no value in baseline year 2011"
        )

    def test_a_working_age_whose_bounds_are_reversed_is_a_usage_error(self, quickstart, tmp_path):
        args = _copy_quickstart(quickstart, tmp_path, "features")
        result = CliRunner().invoke(cli, [*args, "--working-age", "5:3"], env=ENV)
        assert result.exit_code == 2
        assert "Invalid value for --working-age: lower bound 5 exceeds upper bound 3" in result.stderr
        assert not (tmp_path / "out_features.csv").exists()

    def test_validate_reads_good_records(self, quickstart, tmp_path):
        result = _invoke(_copy_quickstart(quickstart, tmp_path, "validate"))
        assert result.exit_code == 0
        assert result.stderr.splitlines()[-1] == "OK records: 4 people"


class TestOversizedIntegers:
    """An integer cell past 4,300 digits used to end in a `ValueError` traceback from `int()`."""

    @pytest.mark.parametrize("command, file, column, limit", [
        ("features", "employment.csv", 2, "2**53"),
        ("fit", "performance.csv", 2, "324 digits long"),
        ("fit", "features.csv", 5, "324 digits long"),
    ], ids=["employed", "n_entrants", "lag"])
    def test_exits_one_with_one_malformed_row_line(self, quickstart, tmp_path, command, file, column, limit):
        args = _copy_quickstart(quickstart, tmp_path, command)
        huge = "9" * 5000

        def oversize(lines):
            cells = lines[1].split(",")
            cells[column] = huge
            return [lines[0], ",".join(cells), *lines[2:]]

        _edit_lines(tmp_path / file, oversize)
        name = (tmp_path / file).read_text(encoding="utf-8").splitlines()[0].split(",")[column]
        result = _invoke(args)
        assert result.exit_code == 1
        line = _single_error_line(result, "MalformedRow")
        assert line == f"ERROR MalformedRow: {tmp_path / file}:2: column {name!r} must be at most {limit}, got {huge!r}"
        assert not any(path.name.startswith("out_") for path in tmp_path.iterdir())


class TestOversizedFields:
    """A field past `csv.field_size_limit()`, 131,072 characters, used to end in a `_csv.Error` traceback."""

    @pytest.mark.parametrize("command, file", [
        ("features", "employment.csv"), ("features", "unemployment.csv"), ("features", "population.csv"),
        ("performance", "records.csv"), ("validate", "records.csv"),
        ("fit", "features.csv"), ("fit", "performance.csv"),
    ])
    @pytest.mark.parametrize("row", [1, 3], ids=["header", "data-row"])
    def test_exits_one_with_one_malformed_row_line(self, quickstart, tmp_path, command, file, row):
        args = _copy_quickstart(quickstart, tmp_path, command)
        _edit_lines(tmp_path / file, lambda lines: [*lines[:row - 1], '"' + "x" * 131_073 + '"', *lines[row - 1:]])
        result = _invoke(args)
        assert result.exit_code == 1
        lines = result.stderr.splitlines()  # `validate` reports the statistical files OK before it reads records
        assert [line for line in lines if not line.startswith("OK ")] == [
            f"ERROR MalformedRow: {tmp_path / file}:{row}: "
            "not a readable CSV row (field larger than field limit (131072))"
        ]
        assert not any(path.name.startswith("out_") for path in tmp_path.iterdir())


class TestQuotedNamesStayOnOneLine:
    """A region or path with a line break is written as a string literal, so it cannot forge or split a line."""

    def test_validate_quotes_a_region_that_holds_a_line_break(self, tmp_path):
        region = '"R1\nERROR GapInYears: fake"'
        files = {
            "employment": ("region,year,employed", "100", "110"),
            "unemployment": ("region,year,unemployed_6m", "5", "6"),
            "population": ("region,year,age_lo,age_hi,persons", "16,64,1000", "16,64,1000"),
        }
        args = ["validate"]
        for name, (header, first, second) in files.items():
            path = tmp_path / f"{name}.csv"
            path.write_text(f"{header}\n{region},2011,{first}\n{region},2012,{second}\n", encoding="utf-8")
            args += [f"--{name}", str(path)]
        result = _invoke(args)
        assert result.exit_code == 0
        assert result.stderr == "OK 'R1\\nERROR GapInYears: fake': years 2011-2012 (2)\n"

    def test_a_features_path_that_holds_a_line_break_stays_on_the_error_line(self, tmp_path):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "nl\nf.csv"
        written = _invoke(_features_args(tmp_path, features, "--no-normalize"))
        assert written.exit_code == 0
        assert written.stderr == f"wrote 14 feature rows to {str(features)!r}\n"
        args = _figures_args(tmp_path, tmp_path / "report.json")
        args[args.index("--features") + 1] = str(features)
        result = _invoke(args)
        assert result.exit_code == 1
        assert f" but {str(features)!r} under " in _single_error_line(result, "FeatureConfigMismatch")


class TestLinesAfterAQuotedLineBreak:
    """A quoted line break makes lines 2-3 one row: an error in the row after it names line 4, not 3."""

    def test_a_later_rows_error_names_its_line(self, quickstart, tmp_path):
        args = _copy_quickstart(quickstart, tmp_path, "features")
        _edit_lines(tmp_path / "employment.csv", lambda lines: [lines[0], '"R\n1",2011,5', "R2,x,5", *lines[1:]])
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "MalformedRow") == (
            f"ERROR MalformedRow: {tmp_path / 'employment.csv'}:4: column 'year' must be a calendar year, got 'x'"
        )

    @pytest.mark.parametrize("rows, line", [
        (['"P0\nx",R01,2012-05-01,,,', "x" * 131_073], 4),
        (['"P0\n' + "x" * 131_073 + '",R01,2012-05-01,,,'], 3),
    ], ids=["after", "inside"])
    def test_an_oversized_field_names_the_line_it_fails_on(self, quickstart, tmp_path, rows, line):
        args = _copy_quickstart(quickstart, tmp_path, "performance")
        _edit_lines(tmp_path / "records.csv", lambda lines: [lines[0], *rows, *lines[1:]])
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "MalformedRow").startswith(
            f"ERROR MalformedRow: {tmp_path / 'records.csv'}:{line}: not a readable CSV row"
        )

    def test_an_overlap_names_the_later_spells_line(self, quickstart, tmp_path):
        args = _copy_quickstart(quickstart, tmp_path, "performance")
        _edit_lines(tmp_path / "records.csv", lambda lines: [
            lines[0], '"Q0\nx",R01,2012-05-01,,,',
            "Q1,R01,2012-05-01,2012-06-01,2012-07-31,20", "Q1,R01,2012-05-01,2012-05-01,2012-06-30,20", *lines[1:],
        ])
        result = _invoke(args)
        assert result.exit_code == 1
        assert _single_error_line(result, "OverlappingSpells") == (
            f"ERROR OverlappingSpells: {tmp_path / 'records.csv'}:4: person 'Q1' has overlapping spells "
            "(2012-05-01..2012-06-30 and 2012-06-01..2012-07-31)"
        )


class TestLagBound:
    def test_a_lag_past_324_digits_exits_one_and_writes_nothing(self, quickstart, tmp_path):
        """Such a lag used to exit 0 and write a features.csv that `fit` then rejected."""
        args = _copy_quickstart(quickstart, tmp_path, "features")
        lag = 10**330
        result = _invoke([*args, "--lag", str(lag)])
        assert result.exit_code == 1
        assert _single_error_line(result, "InvalidConfig") == (
            f"ERROR InvalidConfig: region 'R01': lag {lag} labels year 2018 with a year of more than 324 digits"
        )
        assert not (tmp_path / "out_features.csv").exists()
