import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from workforecast.cli import cli
from workforecast.errors import MalformedJson
from workforecast.model import load_model_json

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
            "region,year,demand,supply,normalized\nR1,2012,0.1,0.05,1\nR1,2013,0.2,0.06,1\n",
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

    def test_shift_without_shock_year_is_a_usage_error(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, [
            "synth", "--out", str(tmp_path), "--demand-shift", "-0.05",
        ], env=ENV)
        assert result.exit_code == 2


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
            load_model_json(model)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exits_one_without_a_model(self, tmp_path, value):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        features = tmp_path / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        region, year, _, supply, normalized = lines[3].split(",")
        lines[3] = ",".join([region, year, value, supply, normalized])
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


class TestFigureHeaders:
    @pytest.mark.parametrize("mode", ["ratio", "difference"])
    def test_population_header_names_its_baseline_mode(self, tmp_path, mode):
        assert _run_pipeline(tmp_path) == [0, 0, 0, 0, 0]
        result = _invoke(_figures_args(tmp_path, tmp_path / "report.json", "--population-baseline", mode))
        assert result.exit_code == 0
        header = (tmp_path / "figs" / "fig3_population.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == f"region,year,{mode}"
