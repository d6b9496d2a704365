import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from workforecast import __version__, jsonio
from workforecast.cli import cli
from workforecast.errors import MalformedJson
from workforecast.model import ModelFit

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

    @pytest.mark.parametrize("entry, window", [("9999-10-01", "6"), ("2015-01-01", "100000"),
                                               ("2015-01-01", str(10**30))])
    def test_window_ending_after_the_last_date_exits_one(self, tmp_path, entry, window):
        (tmp_path / "records.csv").write_text(
            "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n"
            f"P1,R1,{entry},{entry},9999-12-31,20\n",
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
        for name in ("model.json", "report.json"):
            payload = json.loads((tmp_path / name).read_text(encoding="utf-8"))
            assert payload["feature_config"] == expected
            assert payload["run_config"]["feature_config"] == expected

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluate_exits_one_without_a_report(self, tmp_path):
        self._overflowing_features(tmp_path)
        report = tmp_path / "report_overflow.json"
        result = _invoke(_evaluate_args(tmp_path, report))
        assert result.exit_code == 1
        _single_error_line(result, "RankDeficientFold")
        assert not report.exists()


class TestVersion:
    def test_version_option_prints_the_package_version(self):
        result = _invoke(["--version"])
        assert result.exit_code == 0
        assert result.output.endswith(", version 0.1.0\n")

    def test_package_version_is_the_pyproject_version(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == __version__
