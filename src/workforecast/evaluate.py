"""Leave-one-out cross-validation against the historical-mean benchmark.

Each fold refits the model on the other n-1 points and predicts the held-out
point. One training set of n-1 design rows is built per dataset, as lists that
`fit` solves in pure Python or, above `NUMPY_ROWS` rows, where the n refits cost
more than importing numpy, as arrays; fold i puts row i-1 back where row i was.

The benchmark predicts the held-out point as the arithmetic mean of the
training fold's performance values ("trainfold-mean", the default) or of
performances from strictly earlier years across all regions
("prior-years-mean"); folds with no earlier year have no benchmark prediction
and are excluded from the benchmark metrics. Both means are a `math.fsum`
total divided by the count, the same float `statistics.fmean` returns. The
trainfold total is `fsum` of a few floats that sum exactly to all targets,
each the rounded remainder of those before, plus the negated held-out target,
so each fold costs O(1); the prior-years mean is computed once per year.

Errors are summarized as mean absolute error and the sample (n-1) standard
deviation of the absolute errors, both in percentage points: the floats that
`statistics.fmean` and 3.11's `statistics.stdev` return, computed with `math`
and integers so that `statistics` is never loaded. The relative inaccuracy of
the benchmark is computed from the unrounded MAEs and only rounded for display.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from workforecast import jsonio
from workforecast.errors import (
    InvalidConfig,
    RankDeficientDesign,
    RankDeficientFold,
    TooFewObservations,
    shown,
)
from workforecast.features import FeatureConfig, FeatureRow
from workforecast.model import design, fit, predict
from workforecast.perf import PerformanceRow

BENCHMARK_MODES = ("trainfold-mean", "prior-years-mean")

# Rows above which `loocv` refits numpy arrays. Medians of 21 fresh processes (2-CPU Xeon, Python 3.11.7,
# numpy 2.4.6, one BLAS thread) at 200, 220 and 240 rows: lists 141, 155, 167 ms; arrays (importing numpy) 149, 149, 154.
NUMPY_ROWS = 230

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
    """Inner-join features with performance on (region, year), in the order of `feature_rows`."""
    targets = {(row.region_id, row.entry_year): row.performance for row in performance_rows}
    return [
        (row, targets[(row.region_id, row.year)])
        for row in feature_rows
        if (row.region_id, row.year) in targets
    ]


def by_region(dataset: list[tuple[FeatureRow, float]], run: Callable[[list], object]) -> dict[str, object]:
    """Map each region, in sorted order, to `run` of its rows; the one split of a dataset by region.

    `run`'s `TooFewObservations` and `RankDeficientDesign` are raised again prefixed
    `region 'R': `, with `region` context. An empty dataset is a `TooFewObservations`.
    """
    if not dataset:
        raise TooFewObservations("per-region runs need at least 1 data point, got 0")
    regions: dict[str, list[tuple[FeatureRow, float]]] = {}
    for row, target in dataset:
        regions.setdefault(row.region_id, []).append((row, target))
    results = {}
    for region, rows in sorted(regions.items()):
        try:
            results[region] = run(rows)
        except (TooFewObservations, RankDeficientDesign) as err:
            raise type(err)(f"region {region!r}: {err}", **err.context, region=region) from err
    return results


def summarize(folds: list[FoldResult], config: FeatureConfig, benchmark_mode: str, scope: str) -> EvalReport:
    """The report on `folds`: each side's MAE and std, in percentage points, and the relative inaccuracy.

    Callers give it at least one fold: `loocv` and `by_region` raise `TooFewObservations` first.
    Benchmark metrics cover only folds that have a benchmark prediction and are None when no
    fold does. A single fold has no sample spread, so its std is reported as 0. The relative
    inaccuracy is 100 * (mae_benchmark / mae_model - 1), None when there is no benchmark MAE or
    mae_model is only rounding: at most n * eps * max |actual| in percentage points (n folds, eps = 2**-52).
    """
    mae_model, std_model = _mae_std([fold.abs_err_model for fold in folds])
    benchmark_errors = [fold.abs_err_benchmark for fold in folds if fold.abs_err_benchmark is not None]
    mae_benchmark, std_benchmark = _mae_std(benchmark_errors) if benchmark_errors else (None, None)
    rounding = len(folds) * math.ulp(1.0) * max(abs(fold.actual) for fold in folds) * 100.0
    relative = None if mae_benchmark is None or mae_model <= rounding else (mae_benchmark / mae_model - 1.0) * 100.0
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


def _mae_std(errors: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for one error) of absolute errors, in percentage points.

    The mean is `math.fsum(errors) / n`, as `statistics.fmean` computes it. The std is the float 3.11's
    `statistics.stdev` returns: the exact variance is a ratio of integers, the integer root of it, scaled
    to 55 bits or more, is rounded to odd, and one division of integers rounds that correctly to a float.
    """
    n = len(errors)
    ratios = [error.as_integer_ratio() for error in errors]
    scale = max(denominator for _, denominator in ratios)  # powers of two: each denominator divides the largest
    ints = [numerator * (scale // denominator) for numerator, denominator in ratios]  # each error times `scale`
    top = n * sum(i * i for i in ints) - sum(ints) ** 2  # the variance is top / bottom; top is 0 for one error
    bottom = max(n * (n - 1), 1) * scale * scale
    shift = max(0, (bottom.bit_length() - top.bit_length() + 110) // 2)  # top * 4**shift / bottom >= 2**108
    root = math.isqrt((top << 2 * shift) // bottom)
    root |= root * root * bottom != top << 2 * shift  # round to odd, so that rounding to 53 bits is correct
    return math.fsum(errors) / n * 100.0, root / (1 << shift) * 100.0


def loocv(
    dataset: list[tuple[FeatureRow, float]],
    config: FeatureConfig,
    benchmark_mode: str = "trainfold-mean",
) -> EvalReport:
    """Run one fold per data point; fold i trains on the other n-1 points."""
    if benchmark_mode not in BENCHMARK_MODES:
        raise InvalidConfig(f"unknown benchmark mode {benchmark_mode!r}; expected one of {', '.join(BENCHMARK_MODES)}")
    n = len(dataset)
    if n < 4:
        raise TooFewObservations(f"leave-one-out needs at least 4 data points, got {n}")
    data = sorted(dataset, key=lambda pair: (pair[0].region_id, pair[0].year))
    x, y = design(data)
    train_x, train_y = x[1:], y[1:]  # one training set for every fold
    if n > NUMPY_ROWS:
        import numpy as np
        x, y, train_x, train_y = np.array(x), np.array(y), np.array(train_x), np.array(train_y)
    total: list[float] = []  # each pass appends the rounded remainder, so the list sums exactly to the targets
    while rest := math.fsum([*(target for _, target in data), *(-p for p in total)]):
        total.append(rest)
    prior_means: dict[int, float | None] = {}  # per year, the mean of strictly earlier years' targets, or None
    if benchmark_mode == "prior-years-mean":
        for year in {row.year for row, _ in data}:
            earlier = [target for row, target in data if row.year < year]
            prior_means[year] = math.fsum(earlier) / len(earlier) if earlier else None

    folds = []
    for i, (row, actual) in enumerate(data):
        train_x[i - 1], train_y[i - 1] = x[i - 1], y[i - 1]  # slot i - 1 held row i; fold 0 rewrites the last row
        try:
            model = fit(train_x, train_y)
        except RankDeficientDesign as err:
            raise RankDeficientFold(
                f"training fold for ({shown(row.region_id)}, {row.year}) is rank deficient: {err}",
                region=row.region_id,
                year=row.year,
            ) from err
        pred_model = predict(model, row)
        if benchmark_mode == "trainfold-mean":
            pred_benchmark = math.fsum(total + [-actual]) / (n - 1)
        else:
            pred_benchmark = prior_means[row.year]
        abs_err_benchmark = abs(pred_benchmark - actual) if pred_benchmark is not None else None
        folds.append(FoldResult(row.region_id, row.year, actual, pred_model, pred_benchmark,
                                abs(pred_model - actual), abs_err_benchmark))
    return summarize(folds, config, benchmark_mode, "pooled")


def loocv_per_region(
    dataset: list[tuple[FeatureRow, float]],
    config: FeatureConfig,
    benchmark_mode: str = "trainfold-mean",
) -> EvalReport:
    """Leave-one-out within each region separately, folds merged for the summary."""
    reports = by_region(dataset, lambda rows: loocv(rows, config, benchmark_mode))
    folds = [fold for report in reports.values() for fold in report.folds]  # regions sorted, folds by year
    return summarize(folds, config, benchmark_mode, "per-region")


# Kept as named functions: perfbench/replay.py traces them, and takes `evaluate.folds` from this save.
def save_report_json(report: EvalReport, path: str | Path, run_config: dict | None = None) -> None:
    jsonio.save(path, report, run_config)


def load_report_json(path: str | Path) -> EvalReport:
    return jsonio.load(path, EvalReport)
