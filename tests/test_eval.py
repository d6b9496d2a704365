import math
import random
import statistics

import pytest

from workforecast.errors import InvalidConfig, RankDeficientFold, TooFewObservations
from workforecast.evaluate import (
    FoldResult,
    build_dataset,
    load_report_json,
    loocv,
    _mae_std,
    loocv_per_region,
    save_report_json,
    summarize,
)
from workforecast.features import FeatureConfig, build_features
from workforecast.synth import LAW_FEATURE_CONFIG, SynthConfig, generate

from helpers import feature_rows

CONFIG = FeatureConfig()


def _fold(err_model, err_benchmark, region="R1", year=2012, actual=0.4):
    return FoldResult(
        region_id=region,
        year=year,
        actual=actual,
        pred_model=actual + err_model,
        pred_benchmark=None if err_benchmark is None else actual + err_benchmark,
        abs_err_model=abs(err_model),
        abs_err_benchmark=None if err_benchmark is None else abs(err_benchmark),
    )


def _synth_dataset(seed=3, noise_sd=0.01, **kwargs):
    config = SynthConfig(seed=seed, noise_sd=noise_sd, **kwargs)
    result = generate(config)
    rows = build_features(result.series_by_region, LAW_FEATURE_CONFIG)
    return build_dataset(rows, result.performance)


class TestLoocv:
    def test_fourteen_points_give_fourteen_folds(self):
        dataset = _synth_dataset()
        assert len(dataset) == 14
        report = loocv(dataset, LAW_FEATURE_CONFIG)
        assert len(report.folds) == 14
        tested = [(fold.region_id, fold.year) for fold in report.folds]
        assert sorted(tested) == sorted((row.region_id, row.year) for row, _ in dataset)
        assert len(set(tested)) == 14  # every point tested exactly once

    def test_benchmark_matches_closed_form_leave_one_out_mean(self):
        dataset = _synth_dataset(seed=9)
        report = loocv(dataset, LAW_FEATURE_CONFIG)
        n = len(dataset)
        targets = {(row.region_id, row.year): target for row, target in dataset}
        mean = statistics.fmean(targets.values())
        for fold in report.folds:
            held_out = targets[(fold.region_id, fold.year)]
            closed_form = (n * mean - held_out) / (n - 1)
            assert abs(fold.pred_benchmark - closed_form) <= 1e-12

    def test_trainfold_mean_is_the_exact_sum_of_the_other_targets(self):
        """Targets spanning 30 orders of magnitude, where a running total loses the small ones."""
        values = [(0.3 + 0.1 * i, 0.2 - 0.07 * i + 0.01 * i * i) for i in range(12)]
        targets = [1e15, 0.1, -1e15, 1e-15, 0.3, 7.0, 1e-9, 2.5, 0.7, 1e15, 1e-3, 3.3]
        dataset = list(zip(feature_rows(values), targets))
        report = loocv(dataset, FeatureConfig())
        for i, fold in enumerate(report.folds):
            assert fold.pred_benchmark == math.fsum(targets[:i] + targets[i + 1:]) / 11

    def test_constant_target_gives_zero_errors(self):
        values = [
            (0.10, 0.05), (0.02, 0.07), (-0.04, 0.03), (0.06, 0.11),
            (-0.08, 0.09), (0.12, 0.02), (0.00, 0.06), (0.05, 0.08),
        ]
        dataset = [(row, 0.4) for row in feature_rows(values)]
        report = loocv(dataset, CONFIG)
        for fold in report.folds:
            assert fold.abs_err_model <= 1e-9
            assert fold.abs_err_benchmark <= 1e-9

    def test_prior_years_mode_flags_earliest_folds(self):
        dataset = _synth_dataset(seed=21)
        report = loocv(dataset, LAW_FEATURE_CONFIG, benchmark_mode="prior-years-mean")
        targets = [(row.year, target) for row, target in dataset]
        first_year = min(year for year, _ in targets)
        for fold in report.folds:
            if fold.year == first_year:
                assert fold.pred_benchmark is None
                assert fold.abs_err_benchmark is None
            else:
                earlier = [t for year, t in targets if year < fold.year]
                assert fold.pred_benchmark == pytest.approx(statistics.fmean(earlier), abs=1e-12)
        # flagged folds are excluded from the benchmark metrics
        included = [f.abs_err_benchmark for f in report.folds if f.abs_err_benchmark is not None]
        assert report.mae_benchmark_pct == pytest.approx(statistics.fmean(included) * 100, abs=1e-12)

    def test_too_few_observations(self):
        dataset = [(row, 0.4) for row in feature_rows([(0.1, 0.2), (0.2, 0.1), (0.3, 0.3)])]
        with pytest.raises(TooFewObservations):
            loocv(dataset, CONFIG)

    def test_unknown_benchmark_mode(self):
        dataset = _synth_dataset()
        with pytest.raises(InvalidConfig):
            loocv(dataset, LAW_FEATURE_CONFIG, benchmark_mode="last-year")

    def test_rank_deficient_training_fold_is_identified(self):
        values = [(0.1, 0.1), (0.1, 0.2), (0.1, 0.3), (0.2, 0.4)]
        dataset = [(row, 0.3 + 0.1 * i) for i, row in enumerate(feature_rows(values))]
        with pytest.raises(RankDeficientFold) as excinfo:
            loocv(dataset, CONFIG)
        assert excinfo.value.year == 2014  # the fold holding out the only varying demand

    def test_determinism_byte_identical_reports(self, tmp_path):
        dataset = _synth_dataset(seed=5)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        save_report_json(loocv(dataset, LAW_FEATURE_CONFIG), path_a)
        save_report_json(loocv(dataset, LAW_FEATURE_CONFIG), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_report_round_trip(self, tmp_path):
        report = loocv(_synth_dataset(seed=13), LAW_FEATURE_CONFIG)
        path = tmp_path / "report.json"
        save_report_json(report, path)
        assert load_report_json(path) == report


class TestLoocvPerRegion:
    def test_folds_merge_across_regions(self):
        dataset = _synth_dataset(seed=2, years=(2010, 2018))  # 8 points per region
        report = loocv_per_region(dataset, LAW_FEATURE_CONFIG)
        assert report.scope == "per-region"
        assert len(report.folds) == len(dataset)
        # each region's benchmark uses only that region's other points
        targets = {(row.region_id, row.year): t for row, t in dataset}
        for fold in report.folds:
            own = [t for (region, year), t in targets.items()
                   if region == fold.region_id and year != fold.year]
            assert fold.pred_benchmark == pytest.approx(statistics.fmean(own), abs=1e-12)

    def test_small_region_is_rejected(self):
        rows = feature_rows([(0.1, 0.2), (0.2, 0.1), (0.3, 0.3)], region_id="tiny")
        dataset = _synth_dataset() + [(row, 0.5) for row in rows]
        with pytest.raises(TooFewObservations) as excinfo:
            loocv_per_region(dataset, LAW_FEATURE_CONFIG)
        assert str(excinfo.value) == "region 'tiny': leave-one-out needs at least 4 data points, got 3"
        assert excinfo.value.region == "tiny"

    @pytest.mark.parametrize("run, message", [
        (loocv, "leave-one-out needs at least 4 data points, got 0"),
        (loocv_per_region, "per-region runs need at least 1 data point, got 0"),
    ], ids=["pooled", "per-region"])
    def test_an_empty_dataset_is_too_few_observations_before_any_summary(self, run, message):
        with pytest.raises(TooFewObservations) as excinfo:
            run([], LAW_FEATURE_CONFIG)
        assert str(excinfo.value) == message


class TestMetrics:
    @staticmethod
    def _summary(folds):
        return summarize(folds, CONFIG, "trainfold-mean", "pooled")

    def test_reproduces_headline_relative_inaccuracy(self):
        folds = [_fold(0.039, 0.06), _fold(0.039, 0.06, year=2013)]
        report = self._summary(folds)
        assert report.mae_model_pct == pytest.approx(3.9, abs=1e-12)
        assert report.mae_benchmark_pct == pytest.approx(6.0, abs=1e-12)
        assert round(report.relative_inaccuracy_pct, 1) == 53.8
        assert round(report.relative_inaccuracy_pct) == 54

    def test_mean_of_absolute_errors(self):
        folds = [_fold(0.01, 0.02), _fold(-0.03, 0.04, year=2013)]
        report = self._summary(folds)
        assert report.mae_model_pct == pytest.approx(2.0, abs=1e-12)
        assert report.mae_benchmark_pct == pytest.approx(3.0, abs=1e-12)
        assert report.std_model_pct == pytest.approx(statistics.stdev([0.01, 0.03]) * 100, abs=1e-12)

    def test_all_zero_errors(self):
        folds = [_fold(0.0, 0.0), _fold(0.0, 0.0, year=2013)]
        report = self._summary(folds)
        spreads = (report.mae_model_pct, report.mae_benchmark_pct, report.std_model_pct, report.std_benchmark_pct)
        assert spreads == (0.0, 0.0, 0.0, 0.0)
        assert report.relative_inaccuracy_pct is None

    def test_single_fold_has_zero_spread(self):
        report = self._summary([_fold(0.02, 0.03)])
        assert report.mae_model_pct == pytest.approx(2.0, abs=1e-12)
        assert report.std_model_pct == 0.0
        assert report.std_benchmark_pct == 0.0

    def test_relative_inaccuracy_helper(self):
        """Defined from the two MAEs; None when the model's MAE is 0 or no fold has a benchmark prediction."""
        assert self._summary([_fold(0.039, 0.06)]).relative_inaccuracy_pct == pytest.approx(53.846153846153854)
        assert self._summary([_fold(0.0, 0.06)]).relative_inaccuracy_pct is None
        no_benchmark = self._summary([_fold(0.039, None), _fold(0.02, None, year=2013)])
        assert no_benchmark.mae_benchmark_pct is None and no_benchmark.std_benchmark_pct is None
        assert no_benchmark.relative_inaccuracy_pct is None

    def test_a_model_mae_within_rounding_of_zero_has_no_relative_inaccuracy(self):
        """Up to n * eps * max |actual| (here 2 * 2**-52 * 0.8) the model's MAE is rounding, and a ratio to it is noise."""
        bound = 2 * 2.0**-52 * 0.8
        at_bound = [_fold(bound, 0.06, actual=0.8), _fold(-bound, 0.06, year=2013, actual=-0.3)]
        assert self._summary(at_bound).mae_model_pct == bound * 100.0
        assert self._summary(at_bound).relative_inaccuracy_pct is None
        above = [_fold(2 * bound, 0.06, actual=0.8), _fold(-2 * bound, 0.06, year=2013, actual=-0.3)]
        assert self._summary(above).relative_inaccuracy_pct == pytest.approx((0.06 / (2 * bound) - 1.0) * 100.0)

    def test_the_noiseless_quick_start_has_no_relative_inaccuracy(self):
        """`synth --seed 7` has no noise: every fold's error is rounding, and used to give a ratio near 1e16 %."""
        report = loocv(_synth_dataset(seed=7, noise_sd=0.0), LAW_FEATURE_CONFIG)
        assert 0.0 < report.mae_model_pct <= 14 * 2.0**-52 * max(fold.actual for fold in report.folds) * 100.0
        assert report.mae_benchmark_pct > 1.0
        assert report.relative_inaccuracy_pct is None

    def test_the_report_carries_the_folds_and_the_run_settings(self):
        folds = [_fold(0.01, 0.02), _fold(-0.03, None, year=2013)]
        report = summarize(folds, LAW_FEATURE_CONFIG, "prior-years-mean", "per-region")
        assert report.folds == tuple(folds)
        assert (report.feature_config, report.benchmark_mode, report.scope) == (
            LAW_FEATURE_CONFIG, "prior-years-mean", "per-region")
        assert report.mae_benchmark_pct == pytest.approx(2.0, abs=1e-12)


def _statistics_mae_std(errors):
    """The oracle: the same summary from the standard library's `statistics.fmean` and `statistics.stdev`."""
    return statistics.fmean(errors) * 100.0, statistics.stdev(errors) * 100.0 if len(errors) > 1 else 0.0


def _seeded_errors(rng: random.Random) -> list[float]:
    """Absolute errors of a random length and kind: ordinary, spread over many exponents, tied, subnormal."""
    n = rng.choice([2, 3, 4, 13, rng.randint(2, 60), rng.randint(2, 1520) if rng.random() < 0.01 else 5])
    kind = rng.randrange(6)
    if kind == 0:
        return [abs(rng.gauss(0.0, 0.05)) for _ in range(n)]
    if kind == 1:
        return [abs(rng.gauss(0.0, 1.0)) * 10.0 ** rng.randint(-320, 300) for _ in range(n)]
    if kind == 2:
        return [rng.choice([0.1, 0.2, 0.3]) for _ in range(n)]
    if kind == 3:
        return [rng.randint(0, 2**20) * 5e-324 for _ in range(n)]
    if kind == 4:
        return [rng.random()] * n
    return [rng.random() * 2.0 ** rng.randint(-1074, 1000) for _ in range(n)]


class TestMaeStd:
    """`_mae_std` returns the bits of `statistics.fmean` and 3.11's `statistics.stdev`, without loading them."""

    def test_seeded_lists_give_the_bits_of_statistics(self):
        rng = random.Random(20260)
        mismatches = []
        for _ in range(10_000):
            errors = _seeded_errors(rng)
            got, expected = _mae_std(errors), _statistics_mae_std(errors)
            if [value.hex() for value in got] != [value.hex() for value in expected]:
                mismatches.append(errors)
        assert mismatches == []

    @pytest.mark.parametrize("errors", [
        [0.02],
        [5e-324],
        [0.0, 0.0],
        [0.1, 0.1, 0.1],
        [0.1, 0.2, 0.2, 0.3],
        [5e-324, 1e-323],
        [2.0**-1074] * 3 + [2.0**-1073],
        [2.2250738585072014e-308, 2.225073858507201e-308, 1e-310],
        [1e300, 1e-300, 3.0],
        [1e-300, 2e-300, 3e-300],
        [1.7e308, 0.0],
        [1e300] * 1520,
        [0.0] * 1519 + [1.0],
    ], ids=lambda errors: f"{len(errors)}x{errors[0]!r}")
    def test_edge_cases_give_the_bits_of_statistics(self, errors):
        """A single error, ties, constants, subnormals, values near 1e+-300 and near the largest float."""
        assert [value.hex() for value in _mae_std(errors)] == [value.hex() for value in _statistics_mae_std(errors)]
