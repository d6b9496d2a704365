from dataclasses import replace

import pytest

from helpers import unbaseline
from workforecast.errors import InvalidConfig, MissingBaselineYear, ZeroBaseline
from workforecast.evaluate import build_dataset, loocv
from workforecast.features import build_features
from workforecast.ingest import RegionalSeries
from workforecast.report import FIGURE_FILENAMES, _rebase, baseline, emit_figure_data
from workforecast.synth import LAW_FEATURE_CONFIG, SynthConfig, generate


def _pipeline_outputs(seed=3, years=(2011, 2018)):
    config = SynthConfig(seed=seed, years=years, noise_sd=0.01)
    result = generate(config)
    rows = build_features(result.series_by_region, LAW_FEATURE_CONFIG)
    report = loocv(build_dataset(rows, result.performance), LAW_FEATURE_CONFIG)
    return result, rows, report


def _emit(tmp_path, seed=3, years=(2011, 2018), **kwargs):
    result, rows, report = _pipeline_outputs(seed=seed, years=years)
    paths = emit_figure_data(
        result.series_by_region, rows, LAW_FEATURE_CONFIG, result.performance, report, tmp_path, **kwargs
    )
    return result, rows, report, paths


def _rebased(series, base, mode):
    return {year: _rebase(value, base, mode) for year, value in series.items()}


class TestBaseline:
    def test_ratio_mode(self):
        series = {2011: 100.0, 2012: 110.0}
        base = baseline(series, 2011, "ratio")
        assert base == 100.0
        assert _rebased(series, base, "ratio") == {2011: 1.0, 2012: 1.1}

    def test_difference_mode(self):
        series = {2011: 100.0, 2012: 110.0}
        base = baseline(series, 2011, "difference")
        assert base == 100.0
        assert _rebased(series, base, "difference") == {2011: 0.0, 2012: 10.0}

    def test_missing_baseline_year(self):
        with pytest.raises(MissingBaselineYear):
            baseline({2011: 100.0}, 2010, "difference")

    def test_zero_baseline_in_ratio_mode(self):
        with pytest.raises(ZeroBaseline):
            baseline({2011: 0.0, 2012: 5.0}, 2011, "ratio")

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfig):
            baseline({2011: 1.0}, 2011, "log")

    def test_unbaseline_difference_is_exact_on_counts(self):
        series = {year: float(v) for year, v in [(2011, 123456), (2012, 120300), (2013, 131111)]}
        base = baseline(series, 2011, "difference")
        assert unbaseline(_rebased(series, base, "difference"), base, "difference") == series

    def test_unbaseline_ratio_is_exact_on_commensurable_values(self):
        base = 250.0
        series = {2011: base, 2012: base * 3, 2013: base * 17}
        assert baseline(series, 2011, "ratio") == base
        assert unbaseline(_rebased(series, base, "ratio"), base, "ratio") == series


class TestEmitFigureData:
    def test_two_regions_eight_feature_years_gives_16_demand_rows(self, tmp_path):
        _, rows, _, paths = _emit(tmp_path, years=(2010, 2018))
        assert len(rows) == 16
        lines = paths["demand"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# normalized=1"
        assert lines[1] == "region,year,value"
        assert len(lines) == 2 + 16

    def test_eval_file_has_one_row_per_fold(self, tmp_path):
        _, _, report, paths = _emit(tmp_path)
        lines = paths["eval"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "region,year,actual_baselined,model_baselined,benchmark_baselined"
        assert len(lines) == 1 + len(report.folds) == 1 + 14

    def test_eval_rows_are_baselined_by_first_performance(self, tmp_path):
        result, _, report, paths = _emit(tmp_path)
        first = {}
        for row in result.performance:
            first.setdefault(row.region_id, row.performance)
        lines = paths["eval"].read_text(encoding="utf-8").splitlines()[1:]
        for fold, line in zip(report.folds, lines):
            region, _, actual_s, model_s, benchmark_s = line.split(",")
            assert region == fold.region_id
            assert float(actual_s) == fold.actual - first[region]
            assert float(model_s) == fold.pred_model - first[region]
            assert float(benchmark_s) == fold.pred_benchmark - first[region]

    def test_constant_population_gives_ratio_one(self, tmp_path):
        result, rows, report = _pipeline_outputs()
        flat = {
            region: RegionalSeries(
                region_id=region,
                years=series.years,
                employment=series.employment,
                unemployed_6m=series.unemployed_6m,
                population={year: {(16, 64): 100_000} for year in series.years},
            )
            for region, series in result.series_by_region.items()
        }
        paths = emit_figure_data(
            flat, rows, LAW_FEATURE_CONFIG, result.performance, report, tmp_path
        )
        lines = paths["population"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "region,year,ratio"
        assert all(line.endswith(",1.0") for line in lines[1:])

    def test_population_difference_mode_is_zero_at_baseline_year(self, tmp_path):
        result, _, _, paths = _emit(tmp_path, population_mode="difference")
        lines = paths["population"].read_text(encoding="utf-8").splitlines()[1:]
        first_year = min(series.years[0] for series in result.series_by_region.values())
        zero_rows = [line for line in lines if f",{first_year}," in line]
        assert zero_rows and all(line.endswith(",0.0") for line in zero_rows)

    def test_unemployment_file_covers_all_series_years(self, tmp_path):
        result, _, _, paths = _emit(tmp_path)
        lines = paths["unemployment"].read_text(encoding="utf-8").splitlines()
        n_years = sum(len(series.years) for series in result.series_by_region.values())
        assert lines[0] == "region,year,value"
        assert len(lines) == 1 + n_years

    def test_emission_is_byte_deterministic(self, tmp_path):
        _, _, _, paths_a = _emit(tmp_path / "a")
        _, _, _, paths_b = _emit(tmp_path / "b")
        for key in FIGURE_FILENAMES:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_missing_benchmark_predictions_leave_empty_cells(self, tmp_path):
        result, rows, _ = _pipeline_outputs()
        report = loocv(
            build_dataset(rows, result.performance), LAW_FEATURE_CONFIG,
            benchmark_mode="prior-years-mean",
        )
        paths = emit_figure_data(
            result.series_by_region, rows, LAW_FEATURE_CONFIG, result.performance, report, tmp_path
        )
        lines = paths["eval"].read_text(encoding="utf-8").splitlines()[1:]
        first_year = min(fold.year for fold in report.folds)
        flagged = [line for line in lines if f",{first_year}," in line]
        assert flagged and all(line.endswith(",") for line in flagged)

    def test_explicit_baseline_year_must_exist(self, tmp_path):
        result, rows, report = _pipeline_outputs()
        with pytest.raises(MissingBaselineYear):
            emit_figure_data(
                result.series_by_region, rows, LAW_FEATURE_CONFIG, result.performance, report,
                tmp_path, baseline_year=1999,
            )

    def test_unknown_performance_mode(self, tmp_path):
        result, rows, report = _pipeline_outputs()
        with pytest.raises(InvalidConfig):
            emit_figure_data(
                result.series_by_region, rows, LAW_FEATURE_CONFIG, result.performance, report,
                tmp_path, performance_mode="log",
            )

    @pytest.mark.parametrize("case, error, region, message", [
        ("no-performance", MissingBaselineYear, "R02", "region 'R02' has no values to baseline against"),
        ("zero-first-performance", ZeroBaseline, "R01",
         "region 'R01': cannot baseline by ratio, its value in 2012 is zero"),
        ("absent-population-year", MissingBaselineYear, "R01", "region 'R01' has no value in baseline year 1999"),
    ])
    def test_a_baseline_error_names_its_region_and_writes_nothing(self, tmp_path, case, error, region, message):
        result, rows, report = _pipeline_outputs()
        performance, kwargs = result.performance, {}
        if case == "no-performance":
            performance = [row for row in performance if row.region_id != "R02"]
        elif case == "zero-first-performance":
            assert (performance[0].region_id, performance[0].entry_year) == ("R01", 2012)
            performance = [replace(performance[0], n_success=0, performance=0.0), *performance[1:]]
            kwargs = {"performance_mode": "ratio"}
        else:
            kwargs = {"baseline_year": 1999}
        out = tmp_path / "figs"
        with pytest.raises(error) as excinfo:
            emit_figure_data(result.series_by_region, rows, LAW_FEATURE_CONFIG, performance, report, out, **kwargs)
        assert str(excinfo.value) == message
        assert excinfo.value.region == region
        assert not out.exists()
