"""Demand and supply proxies per region-year.

Demand is the year-on-year change in employment, optionally normalized by the
working-age population so that regions of different size pool onto comparable
scales. Supply is the long-term unemployed count as a fraction of the same
population, which is computed once per region-year. Age bands that only
partially overlap the working-age interval contribute pro-rata by the share
of their integer ages inside it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from workforecast.errors import (
    FeatureConfigMismatch,
    InvalidConfig,
    MalformedRow,
    SupplyExceedsOne,
    ZeroWorkingAgePopulation,
)
from workforecast.ingest import (
    _MAX_DIGITS, RegionalSeries, _claim_entry, _parse_natural, _parse_number, _read_rows, _write_rows,
)

FEATURES_HEADER = ("region", "year", "demand", "supply", "normalized", "lag", "age_lo", "age_hi")


@dataclass(frozen=True)
class FeatureConfig:
    """How feature rows were built; stamped into every features.csv row, model and report."""

    normalize: bool = True
    lag: int = 0
    working_age: tuple[int, int] = (16, 64)


class FeatureRow(NamedTuple):
    region_id: str
    year: int
    demand: float
    supply: float


def working_age_population(series: RegionalSeries, year: int, working_age: tuple[int, int]) -> float:
    """Population inside the working-age interval, pro-rating partial bands; it must be positive."""
    lo, hi = working_age
    total = 0.0
    for (band_lo, band_hi), persons in series.population[year].items():
        overlap = min(hi, band_hi) - max(lo, band_lo) + 1
        if overlap <= 0:
            continue
        width = band_hi - band_lo + 1
        total += persons * (overlap / width)
    if total <= 0.0:
        raise ZeroWorkingAgePopulation(
            f"region {series.region_id!r} year {year}: working-age population is zero",
            region=series.region_id,
            year=year,
        )
    return total


def build_features(
    series_by_region: dict[str, RegionalSeries],
    config: FeatureConfig = FeatureConfig(),
) -> list[FeatureRow]:
    """Build feature rows for every (region, year) where both proxies exist, in (region, year) order.

    Demand is employment(year) - employment(year - 1), per working-age head
    when `config.normalize` is set; supply is the long-term unemployed count
    over that population, and a `SupplyExceedsOne` above 1. Each year's
    working-age population is computed once, so its `ZeroWorkingAgePopulation`
    comes first. `ingest.parse_regional_series` gives each region dense,
    ascending years, so every year after the first has its predecessor. The
    first covered year has none, so it yields no row, but a nonzero unemployed
    count there must still fit its working-age population. A row is labelled
    with the programme-entry year it predicts: with a lag of L, the row for
    entry year t carries the proxies of year t - L. Regions are walked sorted,
    years ascend and L is the same for every row, so the rows come out sorted.
    A labelled year may have at most 324 digits, so that it reads back.
    """
    rows = []
    for region, series in sorted(series_by_region.items()):
        if series.years[-1] + config.lag >= 10**_MAX_DIGITS:
            raise InvalidConfig(f"region {region!r}: lag {config.lag} labels year {series.years[-1]} "
                                f"with a year of more than {_MAX_DIGITS} digits", region=region)
        first = series.years[0]
        for year in series.years:
            if year == first and not series.unemployed_6m[year]:
                continue
            population = working_age_population(series, year, config.working_age)
            supply = series.unemployed_6m[year] / population
            if supply > 1.0:
                raise SupplyExceedsOne(
                    f"region {series.region_id!r} year {year}: unemployed count "
                    f"({series.unemployed_6m[year]}) exceeds working-age population ({population:.1f})",
                    region=series.region_id,
                    year=year,
                    ratio=supply,
                )
            if year != first:
                demand = float(series.employment[year] - series.employment[year - 1])
                if config.normalize:
                    demand /= population
                rows.append(FeatureRow(region, year + config.lag, demand, supply))
    return rows


def write_features_csv(rows: list[FeatureRow], config: FeatureConfig, path: str | Path) -> None:
    """Write feature rows in the order given, each stamped with `config`; floats use repr to round-trip bit-exactly."""
    stamp = [int(config.normalize), config.lag, *config.working_age]
    _write_rows(path, FEATURES_HEADER, (
        [row.region_id, row.year, repr(row.demand), repr(row.supply), *stamp]
        for row in rows
    ))


def read_features_csv(path: str | Path) -> tuple[list[FeatureRow], FeatureConfig]:
    """Read feature rows and the configuration they were built under.

    The configuration is parsed from the first data row; every later row must
    repeat it. A file without data rows carries no configuration and is rejected.
    """
    name = str(path)
    table: dict[tuple[str, int], FeatureRow] = {}
    config = first_stamp = first_line = None
    for lineno, (region, year_s, demand_s, supply_s, *stamp) in _read_rows(path, FEATURES_HEADER):
        year = _parse_natural(year_s, "year", name, lineno)
        if config is None:
            normalized_s, lag_s, lo_s, hi_s = first_stamp = stamp
            if normalized_s not in ("0", "1"):
                raise MalformedRow(f"column 'normalized' must be 0 or 1, got {normalized_s!r}", file=name, line=lineno)
            lag = _parse_natural(lag_s, "lag", name, lineno)
            lo = _parse_natural(lo_s, "age_lo", name, lineno)
            hi = _parse_natural(hi_s, "age_hi", name, lineno)
            if lo > hi:
                raise MalformedRow(f"working age [{lo}, {hi}] has age_lo > age_hi", file=name, line=lineno)
            config, first_line = FeatureConfig(normalize=normalized_s == "1", lag=lag, working_age=(lo, hi)), lineno
        elif stamp != first_stamp:
            raise FeatureConfigMismatch(
                f"configuration {','.join(FEATURES_HEADER[4:])} is {','.join(stamp)!r} here "
                f"but {','.join(first_stamp)!r} on line {first_line}",
                file=name,
                line=lineno,
            )
        demand = _parse_number(demand_s, "demand", name, lineno)
        supply = _parse_number(supply_s, "supply", name, lineno)
        _claim_entry(table, region, year, FeatureRow(region, year, demand, supply), name, lineno)
    if config is None:
        raise MalformedRow("no data rows, so no feature configuration", file=name)
    return sorted(table.values()), config  # by (region, year), unique by `_claim_entry`
