"""Shared test utilities: independent oracles and random input generators.

The oracles deliberately avoid the code paths they check: the reintegration
oracle enumerates every calendar day and walks months with its own clamping
logic, and the least-squares oracle minimizes the quadratic loss by
coordinate descent instead of any matrix factorization. The leave-one-out
oracle is the plain refit loop that `evaluate.loocv` replaced: it rebuilds
every training fold as a list, sums benchmarks with `statistics.fmean`, and
scans the whole dataset for earlier years in every fold.
"""
from __future__ import annotations

import statistics
from datetime import date, timedelta

import numpy as np

from workforecast.errors import RankDeficientDesign, RankDeficientFold
from workforecast.evaluate import EvalReport, FoldResult, metrics
from workforecast.features import FeatureConfig, FeatureRow
from workforecast.ingest import ProgrammeRecord, RegionalSeries, Spell
from workforecast.model import design, fit, predict


# ---------------------------------------------------------------------------
# reintegration oracle (day enumeration)
# ---------------------------------------------------------------------------

def month_add_oracle(day: date, months: int) -> date:
    year, month, dom = day.year, day.month, day.day
    for _ in range(months):
        month += 1
        if month == 13:
            month = 1
            year += 1
    while True:
        try:
            return date(year, month, dom)
        except ValueError:
            dom -= 1


def reintegration_oracle(record: ProgrammeRecord, min_hours: float = 16.0, window_months: int = 6) -> bool:
    """True iff every day of the window lies inside a qualifying spell."""
    end = month_add_oracle(record.entry_date, window_months)
    day = record.entry_date
    while day <= end:
        covered = any(
            spell.start_date <= day <= spell.end_date and spell.hours_per_week >= min_hours
            for spell in record.spells
        )
        if not covered:
            return False
        day += timedelta(days=1)
    return True


def random_programme_record(rng: np.random.Generator, person_id: str = "P1", region_id: str = "R1") -> ProgrammeRecord:
    """Valid random record mixing pre-entry spells, hour levels, and gap sizes.

    A fifth of the records get a single spell ending within a few days of the
    six-month mark, so the window boundary is exercised heavily.
    """
    entry = date(2011, 1, 1) + timedelta(days=int(rng.integers(0, 2500)))
    spells = []
    if rng.random() < 0.2:
        start = entry - timedelta(days=int(rng.integers(0, 30)))
        end = month_add_oracle(entry, 6) + timedelta(days=int(rng.integers(-3, 4)))
        hours = float(rng.choice([15.9, 16.0, 16.1, 20.0]))
        spells.append(Spell(start, end, hours))
    else:
        cursor = entry + timedelta(days=int(rng.integers(-40, 15)))
        for _ in range(int(rng.integers(0, 6))):
            gap = int(rng.choice([0, 0, 0, 0, 0, 0, 1, 2, 7, 30]))
            start = cursor + timedelta(days=gap)
            length = int(rng.integers(20, 200))
            end = start + timedelta(days=length - 1)
            hours = float(rng.choice([8.0, 15.0, 15.9, 16.0, 16.0, 16.1, 20.0, 37.5]))
            spells.append(Spell(start, end, hours))
            cursor = end + timedelta(days=1)
    return ProgrammeRecord(person_id=person_id, region_id=region_id, entry_date=entry, spells=tuple(spells))


# ---------------------------------------------------------------------------
# least-squares oracle (coordinate descent on the quadratic loss)
# ---------------------------------------------------------------------------

def coordinate_descent(x: np.ndarray, y: np.ndarray, tol: float = 1e-12, max_iter: int = 500_000) -> np.ndarray:
    n, p = x.shape
    beta = np.zeros(p)
    column_sq = (x * x).sum(axis=0)
    for _ in range(max_iter):
        largest_update = 0.0
        for j in range(p):
            partial_residual = y - x @ beta + x[:, j] * beta[j]
            new = float(x[:, j] @ partial_residual) / column_sq[j]
            largest_update = max(largest_update, abs(new - beta[j]))
            beta[j] = new
        if largest_update < tol:
            break
    return beta


def per_age_supply_oracle(series: RegionalSeries, year: int, working_age: tuple[int, int]) -> float:
    """Supply proxy computed by spreading each band uniformly over integer ages."""
    lo, hi = working_age
    total = 0.0
    for (band_lo, band_hi), persons in series.population[year].items():
        width = band_hi - band_lo + 1
        for age in range(band_lo, band_hi + 1):
            if lo <= age <= hi:
                total += persons / width
    return series.unemployed_6m[year] / total


# ---------------------------------------------------------------------------
# leave-one-out oracle (one list-built refit per fold)
# ---------------------------------------------------------------------------

def _refit_folds(
    dataset: list[tuple[FeatureRow, float]], config: FeatureConfig, benchmark_mode: str
) -> list[FoldResult]:
    data = sorted(dataset, key=lambda pair: (pair[0].region_id, pair[0].year))

    folds = []
    for i, (row, actual) in enumerate(data):
        train = data[:i] + data[i + 1:]
        try:
            model = fit(*design(train), config)
        except RankDeficientDesign as err:
            raise RankDeficientFold(
                f"training fold for ({row.region_id}, {row.year}) is rank deficient: {err}",
                region=row.region_id,
                year=row.year,
            ) from err
        pred_model = predict(model, row, config)
        if benchmark_mode == "trainfold-mean":
            pred_benchmark = statistics.fmean(target for _, target in train)
        else:
            earlier = [target for other, target in data if other.year < row.year]
            pred_benchmark = statistics.fmean(earlier) if earlier else None
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
    return folds


def loocv_refit_oracle(
    dataset: list[tuple[FeatureRow, float]],
    config: FeatureConfig,
    benchmark_mode: str = "trainfold-mean",
    scope: str = "pooled",
) -> EvalReport:
    """The report `loocv` (scope "pooled") or `loocv_per_region` ("per-region") should return."""
    if scope == "pooled":
        folds = _refit_folds(dataset, config, benchmark_mode)
    else:
        folds = []
        for region in sorted({row.region_id for row, _ in dataset}):
            subset = [(row, target) for row, target in dataset if row.region_id == region]
            folds.extend(_refit_folds(subset, config, benchmark_mode))
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


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_regional_series(rng: np.random.Generator, region_id: str = "R1") -> RegionalSeries:
    """Random valid series with disjoint bands partitioning ages 0..89.

    Keeps the working-age population positive and the unemployed count below
    half of it so that the supply proxy is always well defined.
    """
    start = int(rng.integers(1995, 2015))
    n_years = int(rng.integers(2, 12))
    years = tuple(range(start, start + n_years))

    n_cuts = int(rng.integers(1, 6))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, 90), size=n_cuts, replace=False))
    edges = [0, *cuts, 90]
    bands = [(edges[i], edges[i + 1] - 1) for i in range(len(edges) - 1)]

    employment: dict[int, int] = {}
    unemployed: dict[int, int] = {}
    population: dict[int, dict[tuple[int, int], int]] = {}
    for year in years:
        cells = {band: int(rng.integers(0, 200_000)) for band in bands}
        # guarantee somebody of working age
        anchor = next(band for band in bands if band[0] <= 40 <= band[1])
        cells[anchor] = max(cells[anchor], 10_000)
        population[year] = cells
        working_age_heads = sum(
            persons * (min(64, b_hi) - max(16, b_lo) + 1) / (b_hi - b_lo + 1)
            for (b_lo, b_hi), persons in cells.items()
            if min(64, b_hi) >= max(16, b_lo)
        )
        employment[year] = int(rng.integers(0, 500_000))
        unemployed[year] = int(rng.integers(0, max(2, int(working_age_heads * 0.5))))

    return RegionalSeries(
        region_id=region_id,
        years=years,
        employment=employment,
        unemployed_6m=unemployed,
        population=population,
    )


def feature_rows(values: list[tuple[float, float]], region_id: str = "R1", start_year: int = 2011) -> list[FeatureRow]:
    return [
        FeatureRow(region_id=region_id, year=start_year + i, demand=demand, supply=supply)
        for i, (demand, supply) in enumerate(values)
    ]
