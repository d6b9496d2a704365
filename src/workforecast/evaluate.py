"""Leave-one-out cross-validation against the historical-mean benchmark.

Each fold refits the model on the other n-1 points and predicts the held-out
point. The design arrays are built once per dataset; fold i drops row i from
them and makes exactly one `fit` call on the rest.

The benchmark predicts the held-out point as the arithmetic mean of the
training fold's performance values ("trainfold-mean", the default) or of
performances from strictly earlier years across all regions
("prior-years-mean"); folds with no earlier year have no benchmark prediction
and are excluded from the benchmark metrics. Both means are a `math.fsum`
total divided by the count, the same float `statistics.fmean` returns. The
trainfold total is `fsum` of the exact partial sums of all targets, built
once, plus the negated held-out target, so each fold costs O(1); the
prior-years mean is computed once per distinct year.

Errors are summarized as mean absolute error and the sample (n-1) standard
deviation of the absolute errors, both in percentage points. The relative
inaccuracy of the benchmark is computed from the unrounded MAEs and only
rounded for display. numpy is imported inside `loocv`, its one user here, so
that commands which only read reports (`figures`) do not load it.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from workforecast import jsonio
from workforecast.errors import (
    EmptyFolds,
    InvalidConfig,
    RankDeficientDesign,
    RankDeficientFold,
    TooFewObservations,
)
from workforecast.features import FeatureConfig, FeatureRow
from workforecast.model import design, fit, predict
from workforecast.perf import PerformanceRow

BENCHMARK_MODES = ("trainfold-mean", "prior-years-mean")

STD_DEFINITION = "sample (n-1) standard deviation of the absolute errors"


@dataclass(frozen=True)
class FoldResult:
    """One held-out point: its actual value, both predictions, both errors."""

    region_id: str = field(metadata={"json": "region"})
    year: int
    actual: float
    pred_model: float
    pred_benchmark: float | None
    abs_err_model: float
    abs_err_benchmark: float | None


@dataclass(frozen=True, kw_only=True)
class EvalReport:
    """Fields are declared in the order report.json lists them."""

    benchmark_mode: str
    scope: str = "pooled"
    feature_config: FeatureConfig
    std_definition: str = field(default=STD_DEFINITION, init=False)
    folds: tuple[FoldResult, ...]
    mae_model_pct: float
    mae_benchmark_pct: float | None
    std_model_pct: float
    std_benchmark_pct: float | None
    relative_inaccuracy_pct: float | None


def build_dataset(
    feature_rows: list[FeatureRow],
    performance_rows: list[PerformanceRow],
) -> list[tuple[FeatureRow, float]]:
    """Inner-join features with performance on (region, year), sorted."""
    targets = {(row.region_id, row.entry_year): row.performance for row in performance_rows}
    pairs = [
        (row, targets[(row.region_id, row.year)])
        for row in feature_rows
        if (row.region_id, row.year) in targets
    ]
    pairs.sort(key=lambda pair: (pair[0].region_id, pair[0].year))
    return pairs


def group_by_region(dataset: list[tuple[FeatureRow, float]]) -> dict[str, list[tuple[FeatureRow, float]]]:
    """Split a dataset into one dataset per region, keyed in sorted region order."""
    regions: dict[str, list[tuple[FeatureRow, float]]] = {}
    for row, target in dataset:
        regions.setdefault(row.region_id, []).append((row, target))
    return dict(sorted(regions.items()))


def relative_inaccuracy(mae_model: float | None, mae_benchmark: float | None) -> float | None:
    """(mae_benchmark / mae_model - 1) * 100; undefined when mae_model is 0."""
    if mae_model is None or mae_benchmark is None or mae_model == 0.0:
        return None
    return (mae_benchmark / mae_model - 1.0) * 100.0


def metrics(
    folds: list[FoldResult] | tuple[FoldResult, ...],
) -> tuple[float, float | None, float, float | None, float | None]:
    """(mae_model_pct, mae_benchmark_pct, std_model_pct, std_benchmark_pct, relative_inaccuracy_pct).

    Benchmark metrics cover only folds that have a benchmark prediction and
    are None when no fold does. A single fold has no sample spread, so its
    std is reported as 0.
    """
    if not folds:
        raise EmptyFolds("no folds to summarize")
    model_errors = [fold.abs_err_model for fold in folds]
    benchmark_errors = [fold.abs_err_benchmark for fold in folds if fold.abs_err_benchmark is not None]

    mae_model = statistics.fmean(model_errors) * 100.0
    std_model = statistics.stdev(model_errors) * 100.0 if len(model_errors) > 1 else 0.0
    if benchmark_errors:
        mae_benchmark = statistics.fmean(benchmark_errors) * 100.0
        std_benchmark = statistics.stdev(benchmark_errors) * 100.0 if len(benchmark_errors) > 1 else 0.0
    else:
        mae_benchmark = None
        std_benchmark = None
    return mae_model, mae_benchmark, std_model, std_benchmark, relative_inaccuracy(mae_model, mae_benchmark)


def _exact_partials(values: list[float]) -> list[float]:
    """Non-overlapping floats whose exact sum is the exact sum of `values` (Shewchuk's msum)."""
    partials: list[float] = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


def _prior_years_means(data: list[tuple[FeatureRow, float]]) -> dict[int, float | None]:
    """Mean performance of strictly earlier years, per distinct year; None when there are none."""
    means: dict[int, float | None] = {}
    for year in sorted({row.year for row, _ in data}):
        earlier = [target for row, target in data if row.year < year]
        means[year] = math.fsum(earlier) / len(earlier) if earlier else None
    return means


def _report(folds: list[FoldResult], config: FeatureConfig, benchmark_mode: str, scope: str) -> EvalReport:
    mae_model, mae_benchmark, std_model, std_benchmark, relative = metrics(folds)
    return EvalReport(
        benchmark_mode=benchmark_mode,
        scope=scope,
        feature_config=config,
        folds=tuple(folds),
        mae_model_pct=mae_model,
        mae_benchmark_pct=mae_benchmark,
        std_model_pct=std_model,
        std_benchmark_pct=std_benchmark,
        relative_inaccuracy_pct=relative,
    )


def loocv(
    dataset: list[tuple[FeatureRow, float]],
    config: FeatureConfig,
    benchmark_mode: str = "trainfold-mean",
) -> EvalReport:
    """Run one fold per data point; fold i trains on the other n-1 points."""
    import numpy as np
    if benchmark_mode not in BENCHMARK_MODES:
        raise InvalidConfig(
            f"unknown benchmark mode {benchmark_mode!r}; expected one of {', '.join(BENCHMARK_MODES)}"
        )
    n = len(dataset)
    if n < 4:
        raise TooFewObservations(f"leave-one-out needs at least 4 data points, got {n}")
    data = sorted(dataset, key=lambda pair: (pair[0].region_id, pair[0].year))
    x, y = design(data)
    total = _exact_partials([target for _, target in data])
    prior_means = _prior_years_means(data) if benchmark_mode == "prior-years-mean" else {}

    folds = []
    for i, (row, actual) in enumerate(data):
        try:
            model = fit(np.delete(x, i, 0), np.delete(y, i), config)
        except RankDeficientDesign as err:
            raise RankDeficientFold(
                f"training fold for ({row.region_id}, {row.year}) is rank deficient: {err}",
                region=row.region_id,
                year=row.year,
            ) from err
        pred_model = predict(model, row, config)
        if benchmark_mode == "trainfold-mean":
            pred_benchmark = math.fsum(total + [-actual]) / (n - 1)
        else:
            pred_benchmark = prior_means[row.year]
        folds.append(
            FoldResult(
                region_id=row.region_id,
                year=row.year,
                actual=actual,
                pred_model=pred_model,
                pred_benchmark=pred_benchmark,
                abs_err_model=abs(pred_model - actual),
                abs_err_benchmark=abs(pred_benchmark - actual) if pred_benchmark is not None else None,
            )
        )
    return _report(folds, config, benchmark_mode, "pooled")


def loocv_per_region(
    dataset: list[tuple[FeatureRow, float]],
    config: FeatureConfig,
    benchmark_mode: str = "trainfold-mean",
) -> EvalReport:
    """Leave-one-out within each region separately, folds merged for the summary."""
    folds: list[FoldResult] = []
    for region, subset in group_by_region(dataset).items():
        if len(subset) < 4:
            raise TooFewObservations(
                f"region {region!r} has only {len(subset)} data points; "
                f"per-region leave-one-out needs at least 4"
            )
        folds.extend(loocv(subset, config, benchmark_mode).folds)
    folds.sort(key=lambda fold: (fold.region_id, fold.year))
    return _report(folds, config, benchmark_mode, "per-region")


# Kept as named functions: perfbench/replay.py traces them, and takes `evaluate.folds` from this save.
def save_report_json(report: EvalReport, path: str | Path, run_config: dict | None = None) -> None:
    jsonio.save(path, report, run_config)


def load_report_json(path: str | Path) -> EvalReport:
    return jsonio.load(path, EvalReport)
