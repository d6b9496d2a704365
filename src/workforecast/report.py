"""Baselining transforms and plot-data emission.

The tool emits plot DATA as CSV, never rendered images. Four files are
produced, one per headline chart: demand by region, unemployment by region,
baselined population growth, and per-point actual vs model vs benchmark
predictions baselined by each region's first observed performance.

Baselining expresses a series relative to a reference year, either by
subtracting the baseline value (differences, natural for errors in
percentage points) or dividing by it (ratios, natural for growth).
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

from workforecast import BASELINE_MODES
from workforecast.errors import InvalidConfig, MissingBaselineYear, ZeroBaseline
from workforecast.evaluate import EvalReport
from workforecast.features import FeatureRow
from workforecast.ingest import RegionalSeries, _write_rows
from workforecast.perf import PerformanceRow

FIGURE_FILENAMES = {
    "demand": "fig1_demand.csv",
    "unemployment": "fig2_unemployment.csv",
    "population": "fig3_population.csv",
    "eval": "fig4_eval.csv",
}


def baseline(
    series: Mapping[int, float],
    baseline_year: int | None,
    mode: str,
    label: str = "",
) -> float:
    """Return the base that `_rebase` subtracts (difference mode) or divides by (ratio mode).

    The base is the series' value at `baseline_year`. This is the one check of
    every figure baseline, and `_rebase` the one check of every rebased value:
    `label` is the region their errors name and carry as context. An empty
    series has no baseline year (None).
    """
    if mode not in BASELINE_MODES:
        raise InvalidConfig(f"unknown baseline mode {mode!r}; expected one of {', '.join(BASELINE_MODES)}")
    if baseline_year not in series:
        missing = f"no value in baseline year {baseline_year}" if series else "no values to baseline against"
        raise MissingBaselineYear(f"region {label!r} has {missing}", region=label, year=baseline_year)
    base = float(series[baseline_year])
    if mode == "ratio" and base == 0.0:
        raise ZeroBaseline(f"region {label!r}: cannot baseline by ratio, its value in {baseline_year} is zero",
                           region=label, year=baseline_year)
    return base


def _rebase(value: float, base: float, mode: str, label: str, base_year: int | None) -> float:
    rebased = value - base if mode == "difference" else value / base
    if not math.isfinite(rebased):  # a ratio against a subnormal base can overflow
        raise ZeroBaseline(f"region {label!r}: cannot baseline by {mode} against its value in {base_year} ({base!r}), "
                           "a result overflows", region=label, year=base_year)
    return rebased


def emit_figure_data(
    series_by_region: dict[str, RegionalSeries],
    feature_rows: list[FeatureRow],
    performance_rows: list[PerformanceRow],
    eval_report: EvalReport,
    out_dir: str | Path,
    baseline_year: int | None = None,
    population_mode: str = "ratio",
    performance_mode: str = "difference",
) -> dict[str, Path]:
    """Write the four plot-data CSVs into out_dir and return their paths.

    Population is baselined at `baseline_year` (default: the earliest year shared by all regions).
    The evaluation chart is baselined per region by the performance of the region's first entry
    year. Both go through `baseline`, and every figure's rows are built before the first file is
    written, so a call that raises leaves out_dir as it was. Rows follow the order of the inputs,
    which their parsers and `evaluate` give sorted. The demand chart's `# normalized=` line reads
    `eval_report.feature_config`, which the caller has checked is the one `feature_rows` were built under.
    """
    demand_rows = [[row.region_id, row.year, repr(row.demand)] for row in feature_rows]
    unemployment_rows = [
        [region, year, series.unemployed_6m[year]]
        for region, series in series_by_region.items()
        for year in series.years
    ]

    if baseline_year is None:
        years = [set(series.years) for series in series_by_region.values()]
        common = set.intersection(*years) if years else set()
        if not common:
            raise MissingBaselineYear("no year is shared by all regions; pass an explicit baseline year")
        baseline_year = min(common)
    population_rows = []
    for region, series in series_by_region.items():
        totals = {year: float(sum(series.population[year].values())) for year in series.years}
        base = baseline(totals, baseline_year, population_mode, label=region)
        population_rows.extend([region, year, repr(_rebase(total, base, population_mode, region, baseline_year))]
                               for year, total in totals.items())

    performance: dict[str, dict[int, float]] = {}
    for row in performance_rows:
        performance.setdefault(row.region_id, {})[row.entry_year] = row.performance
    bases: dict[str, tuple[float, int | None]] = {}
    for region in dict.fromkeys(fold.region_id for fold in eval_report.folds):
        series = performance.get(region, {})
        first = min(series, default=None)
        bases[region] = baseline(series, first, performance_mode, label=region), first
    eval_rows = []
    for fold in eval_report.folds:
        base, first = bases[fold.region_id]
        rebased = ("" if value is None else repr(_rebase(value, base, performance_mode, fold.region_id, first))
                   for value in (fold.actual, fold.pred_model, fold.pred_benchmark))
        eval_rows.append([fold.region_id, fold.year, *rebased])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in FIGURE_FILENAMES.items()}
    _write_rows(paths["demand"], ("region", "year", "value"), demand_rows,
                comment=f"normalized={int(eval_report.feature_config.normalize)}")
    _write_rows(paths["unemployment"], ("region", "year", "value"), unemployment_rows)
    _write_rows(paths["population"], ("region", "year", population_mode), population_rows)
    _write_rows(paths["eval"], ("region", "year", "actual_baselined", "model_baselined", "benchmark_baselined"),
                eval_rows)
    return paths
