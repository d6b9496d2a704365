"""Acceptance suite: one check per release criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import statistics
import time

import numpy as np
from click.testing import CliRunner

from workforecast.cli import cli
from workforecast.evaluate import FoldResult, build_dataset, loocv, summarize
from workforecast.features import FeatureConfig, FeatureRow, build_features
from workforecast.model import design, fit
from workforecast.synth import LAW_FEATURE_CONFIG, SynthConfig, generate

from helpers import (
    coordinate_descent,
    per_age_supply_oracle,
    random_programme_record,
    random_regional_series,
    reintegrated,
    reintegration_oracle,
)
from test_perf import _record


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_relative_inaccuracy_arithmetic():
    started = time.perf_counter()
    folds = [
        FoldResult("R1", 2012, 0.4, 0.439, 0.46, 0.039, 0.06),
        FoldResult("R1", 2013, 0.4, 0.439, 0.46, 0.039, 0.06),
    ]
    report = summarize(folds, FeatureConfig(), "trainfold-mean", "pooled")
    relative = report.relative_inaccuracy_pct
    # The same MAEs from unequal errors: the ratio of the MAEs, not a mean of per-fold ratios (57.6%).
    spread = [
        FoldResult("R1", 2012, 0.4, 0.429, 0.45, 0.029, 0.05),
        FoldResult("R1", 2013, 0.4, 0.449, 0.47, 0.049, 0.07),
    ]
    spread_relative = summarize(spread, FeatureConfig(), "trainfold-mean", "pooled").relative_inaccuracy_pct
    elapsed = time.perf_counter() - started
    ok = (
        abs(report.mae_model_pct - 3.9) <= 1e-9
        and abs(report.mae_benchmark_pct - 6.0) <= 1e-9
        and round(relative, 1) == 53.8
        and round(relative) == 54
        and round(spread_relative, 1) == 53.8
        and round(spread_relative) == 54
        and elapsed < 1.0
    )
    _report(1, "MAEs 3.9 vs 6.0 give 53.8% (1 d.p.) and 54% (0 d.p.) relative inaccuracy",
            ok, f"relative={relative:.6f}, {elapsed:.3f}s")


def test_criterion_2_ols_matches_coordinate_descent_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20_240)
    config = FeatureConfig()
    worst_coef_gap = 0.0
    worst_orthogonality = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 21))
        demand = rng.normal(0.0, 1.0, size=n)
        supply = rng.normal(0.0, 1.0, size=n)
        targets = 0.4 + 1.2 * demand - 0.8 * supply + rng.normal(0.0, 0.05, size=n)
        pairs = [
            (FeatureRow("R1", 2011 + i, float(demand[i]), float(supply[i])), float(targets[i]))
            for i in range(n)
        ]
        model = fit(*design(pairs), config)
        x = np.array(design(pairs)[0])
        y = np.array([target for _, target in pairs])
        oracle = coordinate_descent(x, y, tol=1e-12)
        beta = np.array([model.intercept, model.coef_demand, model.coef_supply])
        worst_coef_gap = max(worst_coef_gap, float(np.max(np.abs(beta - oracle))))
        residual = y - x @ beta
        worst_orthogonality = max(
            worst_orthogonality,
            float(np.max(np.abs(x.T @ residual)) / (np.max(np.abs(x)) * np.max(np.abs(y)) + 1e-30)),
        )
    elapsed = time.perf_counter() - started
    ok = worst_coef_gap <= 1e-6 and worst_orthogonality <= 1e-8 and elapsed < 10.0
    _report(2, "fit matches the coordinate-descent oracle on 200 random instances",
            ok, f"max coef gap {worst_coef_gap:.2e}, max orthogonality {worst_orthogonality:.2e}, {elapsed:.2f}s")


def test_criterion_3_noiseless_exact_recovery():
    worst_coefficient = 0.0
    worst_mae = 0.0
    for seed in range(20):
        config = SynthConfig(seed=seed, noise_sd=0.0)
        result = generate(config)
        assert result.n_clipped == 0
        dataset = build_dataset(build_features(result.series_by_region, LAW_FEATURE_CONFIG), result.performance)
        model = fit(*design(dataset), LAW_FEATURE_CONFIG)
        worst_coefficient = max(
            worst_coefficient,
            abs(model.intercept - config.true_intercept),
            abs(model.coef_demand - config.true_coef_demand),
            abs(model.coef_supply - config.true_coef_supply),
        )
        worst_mae = max(worst_mae, loocv(dataset, LAW_FEATURE_CONFIG).mae_model_pct)
    ok = worst_coefficient <= 1e-9 and worst_mae <= 1e-7
    _report(3, "noiseless panels recover the true coefficients (20 seeds)",
            ok, f"max coef error {worst_coefficient:.2e}, max LOOCV MAE {worst_mae:.2e}%")


def test_criterion_4_loocv_structure_on_14_points():
    config = SynthConfig(seed=11, noise_sd=0.01)
    result = generate(config)
    dataset = build_dataset(build_features(result.series_by_region, LAW_FEATURE_CONFIG), result.performance)
    report = loocv(dataset, LAW_FEATURE_CONFIG)

    n = len(dataset)
    tested = [(fold.region_id, fold.year) for fold in report.folds]
    each_once = sorted(tested) == sorted((row.region_id, row.year) for row, _ in dataset) and len(set(tested)) == n

    targets = {(row.region_id, row.year): target for row, target in dataset}
    mean = statistics.fmean(targets.values())
    worst_benchmark_gap = max(
        abs(fold.pred_benchmark - (n * mean - targets[(fold.region_id, fold.year)]) / (n - 1))
        for fold in report.folds
    )
    ok = n == 14 and len(report.folds) == 14 and each_once and worst_benchmark_gap <= 1e-12
    _report(4, "14-point LOOCV: 14 folds, each point tested once, benchmark = leave-one-out mean",
            ok, f"max benchmark gap {worst_benchmark_gap:.2e}")


def test_criterion_5_reintegration_rule_matches_day_enumeration_oracle():
    rng = np.random.default_rng(555)
    disagreements = 0
    for i in range(10_000):
        record = random_programme_record(rng, person_id=f"P{i}")
        if reintegrated(record) != reintegration_oracle(record):
            disagreements += 1

    exactly_16_hours = _record(
        "2015-01-01", [("2015-01-01", "2015-03-31", 16.0), ("2015-04-01", "2015-07-01", 16.0)]
    )
    one_day_gap = _record(
        "2015-01-01", [("2015-01-01", "2015-03-31", 20.0), ("2015-04-02", "2015-08-01", 20.0)]
    )
    boundaries_ok = (
        reintegrated(exactly_16_hours) is True
        and reintegration_oracle(exactly_16_hours) is True
        and reintegrated(one_day_gap) is False
        and reintegration_oracle(one_day_gap) is False
    )
    ok = disagreements == 0 and boundaries_ok
    _report(5, "reintegration rule agrees with the day-enumeration oracle on 10000 records",
            ok, f"{disagreements} disagreements")


def test_criterion_6_demand_shock_favours_the_model():
    started = time.perf_counter()
    wins = 0
    for seed in range(100):
        config = SynthConfig(
            seed=seed,
            years=(2009, 2018),
            noise_sd=0.005,
            shock_year=2017,
            demand_shift=-0.05,
        )
        result = generate(config)
        dataset = build_dataset(build_features(result.series_by_region, LAW_FEATURE_CONFIG), result.performance)
        report = loocv(dataset, LAW_FEATURE_CONFIG)
        if report.mae_model_pct < report.mae_benchmark_pct:
            wins += 1
    elapsed = time.perf_counter() - started
    ok = wins >= 95 and elapsed < 30.0
    _report(6, "with a late demand shock the model beats the mean benchmark in >= 95/100 seeds",
            ok, f"{wins}/100 wins, {elapsed:.2f}s")


def test_criterion_7_pipeline_closure_and_determinism(tmp_path):
    runner = CliRunner()
    env = {"WF_NO_COLOR": "1"}
    data = tmp_path / "data"

    def run_all():
        steps = [
            ["synth", "--out", str(data), "--seed", "17"],
            ["features",
             "--employment", str(data / "employment.csv"),
             "--unemployment", str(data / "unemployment.csv"),
             "--population", str(data / "population.csv"),
             "--out", str(tmp_path / "features.csv")],
            ["fit",
             "--features", str(tmp_path / "features.csv"),
             "--performance", str(data / "performance.csv"),
             "--model", str(tmp_path / "model.json")],
            ["evaluate",
             "--features", str(tmp_path / "features.csv"),
             "--performance", str(data / "performance.csv"),
             "--out", str(tmp_path / "report.json")],
            ["figures",
             "--employment", str(data / "employment.csv"),
             "--unemployment", str(data / "unemployment.csv"),
             "--population", str(data / "population.csv"),
             "--features", str(tmp_path / "features.csv"),
             "--performance", str(data / "performance.csv"),
             "--report", str(tmp_path / "report.json"),
             "--out", str(tmp_path / "figs")],
        ]
        return [runner.invoke(cli, step, env=env).exit_code for step in steps]

    first_codes = run_all()
    outputs = sorted(
        [*data.glob("*"), tmp_path / "features.csv", tmp_path / "model.json",
         tmp_path / "report.json", *(tmp_path / "figs").glob("*")]
    )
    snapshot = {path: path.read_bytes() for path in outputs}
    second_codes = run_all()
    identical = all(path.read_bytes() == blob for path, blob in snapshot.items())
    ok = first_codes == [0] * 5 and second_codes == [0] * 5 and identical
    _report(7, "synth -> features -> fit -> evaluate -> figures exits 0 and reruns byte-identically",
            ok, f"exit codes {first_codes} then {second_codes}")


def test_criterion_8_feature_properties_on_1000_random_series():
    rng = np.random.default_rng(808)
    telescoping_failures = 0
    band_filter_failures = 0
    raw = FeatureConfig(normalize=False)
    for i in range(1_000):
        series = random_regional_series(rng, f"R{i}")
        rows = build_features({series.region_id: series}, raw)
        total = sum(row.demand for row in rows)
        if total != float(series.employment[series.years[-1]] - series.employment[series.years[0]]):
            telescoping_failures += 1
        for row, year in zip(rows, series.years[1:]):
            oracle = per_age_supply_oracle(series, year, (16, 64))
            if abs(row.supply - oracle) > 1e-9 * max(1.0, abs(oracle)):
                band_filter_failures += 1
                break
    ok = telescoping_failures == 0 and band_filter_failures == 0
    _report(8, "telescoping and band-filter properties hold on 1000 random series",
            ok, f"{telescoping_failures} telescoping / {band_filter_failures} band-filter failures")
