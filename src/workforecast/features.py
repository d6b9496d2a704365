"""Demand and supply proxies per region-year.

Demand is the year-on-year change in employment, optionally normalized by the
working-age population so that regions of different size pool onto comparable
scales. Supply is the long-term unemployed count as a fraction of the
working-age population. Age bands that only partially overlap the working-age
interval contribute pro-rata by the share of their integer ages inside it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from workforecast.errors import (
    FeatureConfigMismatch,
    MalformedRow,
    MissingYear,
    SupplyExceedsOne,
    ZeroWorkingAgePopulation,
)
from workforecast.ingest import RegionalSeries, _parse_age, _parse_year, _read_rows

DEFAULT_WORKING_AGE = (16, 64)

FEATURES_HEADER = ("region", "year", "demand", "supply", "normalized", "lag", "age_lo", "age_hi")


@dataclass(frozen=True)
class FeatureConfig:
    """How feature rows were built; stamped into every features.csv row, model and report."""

    normalize: bool = True
    lag: int = 0
    working_age: tuple[int, int] = DEFAULT_WORKING_AGE


@dataclass(frozen=True)
class FeatureRow:
    region_id: str
    year: int
    demand: float
    supply: float


def working_age_population(
    series: RegionalSeries,
    year: int,
    working_age: tuple[int, int] = DEFAULT_WORKING_AGE,
) -> float:
    """Population inside the working-age interval, pro-rating partial bands."""
    bands = series.population.get(year)
    if bands is None:
        raise MissingYear(
            f"region {series.region_id!r}: no population data for year {year}",
            region=series.region_id,
            year=year,
        )
    lo, hi = working_age
    total = 0.0
    for (band_lo, band_hi), persons in sorted(bands.items()):
        overlap = min(hi, band_hi) - max(lo, band_lo) + 1
        if overlap <= 0:
            continue
        width = band_hi - band_lo + 1
        total += persons * (overlap / width)
    return total


def demand_proxy(
    series: RegionalSeries,
    year: int,
    normalize: bool = False,
    working_age: tuple[int, int] = DEFAULT_WORKING_AGE,
) -> float:
    """employment(year) - employment(year - 1), optionally per working-age head."""
    for needed in (year - 1, year):
        if needed not in series.employment:
            raise MissingYear(
                f"region {series.region_id!r}: no employment data for year {needed} "
                f"(needed for demand at {year})",
                region=series.region_id,
                year=needed,
            )
    change = float(series.employment[year] - series.employment[year - 1])
    if not normalize:
        return change
    denominator = working_age_population(series, year, working_age)
    if denominator <= 0.0:
        raise ZeroWorkingAgePopulation(
            f"region {series.region_id!r} year {year}: working-age population is zero",
            region=series.region_id,
            year=year,
        )
    return change / denominator


def supply_proxy(
    series: RegionalSeries,
    year: int,
    working_age: tuple[int, int] = DEFAULT_WORKING_AGE,
) -> float:
    """Long-term unemployed as a fraction of the working-age population."""
    if year not in series.unemployed_6m:
        raise MissingYear(
            f"region {series.region_id!r}: no unemployment data for year {year}",
            region=series.region_id,
            year=year,
        )
    denominator = working_age_population(series, year, working_age)
    if denominator <= 0.0:
        raise ZeroWorkingAgePopulation(
            f"region {series.region_id!r} year {year}: working-age population is zero",
            region=series.region_id,
            year=year,
        )
    ratio = series.unemployed_6m[year] / denominator
    if ratio > 1.0:
        raise SupplyExceedsOne(
            f"region {series.region_id!r} year {year}: unemployed count "
            f"({series.unemployed_6m[year]}) exceeds working-age population ({denominator:.1f})",
            region=series.region_id,
            year=year,
            ratio=ratio,
        )
    return ratio


def build_features(
    series_by_region: dict[str, RegionalSeries],
    config: FeatureConfig = FeatureConfig(),
) -> list[FeatureRow]:
    """Build feature rows for every (region, year) where both proxies exist.

    The first covered year of each region has no predecessor, so it yields no
    row. A row is labelled with the programme-entry year it predicts: with a
    lag of L, the row for entry year t carries the proxies of year t - L.
    """
    rows = []
    for region in sorted(series_by_region):
        series = series_by_region[region]
        for base_year in series.years[1:]:
            rows.append(
                FeatureRow(
                    region_id=region,
                    year=base_year + config.lag,
                    demand=demand_proxy(
                        series, base_year, normalize=config.normalize, working_age=config.working_age
                    ),
                    supply=supply_proxy(series, base_year, working_age=config.working_age),
                )
            )
    rows.sort(key=lambda row: (row.region_id, row.year))
    return rows


def write_features_csv(rows: list[FeatureRow], config: FeatureConfig, path: str | Path) -> None:
    """Write feature rows, each stamped with `config`; floats use repr so a read round-trips bit-exactly."""
    stamp = [int(config.normalize), config.lag, *config.working_age]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FEATURES_HEADER)
        for row in sorted(rows, key=lambda r: (r.region_id, r.year)):
            writer.writerow([row.region_id, row.year, repr(row.demand), repr(row.supply), *stamp])


def _parse_config(stamp: list[str], name: str, lineno: int) -> FeatureConfig:
    normalized_s, lag_s, lo_s, hi_s = stamp
    if normalized_s not in ("0", "1"):
        raise MalformedRow(f"column 'normalized' must be 0 or 1, got {normalized_s!r}", file=name, line=lineno)
    if not lag_s.isdecimal():
        raise MalformedRow(f"column 'lag' must be a non-negative integer, got {lag_s!r}", file=name, line=lineno)
    lo = _parse_age(lo_s, "age_lo", name, lineno)
    hi = _parse_age(hi_s, "age_hi", name, lineno)
    if lo > hi:
        raise MalformedRow(f"working age [{lo}, {hi}] has age_lo > age_hi", file=name, line=lineno)
    return FeatureConfig(normalize=normalized_s == "1", lag=int(lag_s), working_age=(lo, hi))


def read_features_csv(path: str | Path) -> tuple[list[FeatureRow], FeatureConfig]:
    """Read feature rows and the configuration they were built under.

    The configuration is parsed from the first data row; every later row must
    repeat it. A file without data rows carries no configuration and is rejected.
    """
    name = str(path)
    rows = []
    config = first_stamp = first_line = None
    for lineno, (region, year_s, demand_s, supply_s, *stamp) in _read_rows(path, FEATURES_HEADER):
        year = _parse_year(year_s, name, lineno)
        if config is None:
            config, first_stamp, first_line = _parse_config(stamp, name, lineno), stamp, lineno
        elif stamp != first_stamp:
            raise FeatureConfigMismatch(
                f"configuration {','.join(FEATURES_HEADER[4:])} is {','.join(stamp)} here "
                f"but {','.join(first_stamp)} on line {first_line}",
                file=name,
                line=lineno,
            )
        try:
            demand = float(demand_s)
            supply = float(supply_s)
        except ValueError:
            demand = supply = math.nan
        if not (math.isfinite(demand) and math.isfinite(supply)):
            raise MalformedRow(
                f"demand and supply must be finite numbers, got {demand_s!r} and {supply_s!r}", file=name, line=lineno
            )
        rows.append(FeatureRow(region_id=region, year=year, demand=demand, supply=supply))
    if config is None:
        raise MalformedRow("no data rows, so no feature configuration", file=name)
    rows.sort(key=lambda row: (row.region_id, row.year))
    return rows, config
