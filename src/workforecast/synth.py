"""Seeded generator for synthetic multi-region panels with a known linear law.

The generator draws plausible employment / unemployment / population series
per region, derives the demand and supply proxies through the regular feature
pipeline, and produces performance values from a configured linear law plus
optional Gaussian noise, clipped to [0, 1]. Because the law is applied to the
proxies actually derived from the emitted series, the feature pipeline is
exercised end to end and a fit on the generated data recovers the true
coefficients exactly when noise is zero.

Randomness comes from standard-library `random.Random` streams, one per
(seed, region index, stream): the series and the noise each have their own.
Each is seeded with the string "seed:region:stream", which `random` hashes with
SHA-512, so output is reproducible bit-for-bit, does not depend on
PYTHONHASHSEED, and a region's draws do not depend on generation order or on
how many regions there are. An optional shock (`shock_year` with
`demand_shift`/`supply_shift`) applies persistent level shifts to the
underlying employment and unemployment series from the shock year onward.

Entrant counts are the exact integer ratio of each performance value
(float.as_integer_ratio), so the rate survives the 6-decimal CSV display
column bit-exactly via n_success / n_entrants.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from workforecast import jsonio
from workforecast.errors import InvalidConfig
from workforecast.features import FeatureConfig, build_features
from workforecast.ingest import RegionalSeries, write_regional_series
from workforecast.perf import PerformanceRow, write_performance_csv

# configuration under which the linear law links proxies to performance
LAW_FEATURE_CONFIG = FeatureConfig(normalize=True, lag=0, working_age=(16, 64))


@dataclass(frozen=True)
class SynthConfig:
    n_regions: int = 2
    years: tuple[int, int] = (2011, 2018)
    seed: int = 0
    true_intercept: float = 0.5
    true_coef_demand: float = 1.5
    true_coef_supply: float = -2.0
    noise_sd: float = 0.0
    shock_year: int | None = None  # the shifts below apply from this year on; without it they must be zero
    demand_shift: float = 0.0  # employment level shift, a fraction of the working-age population
    supply_shift: float = 0.0  # unemployment level shift, likewise


class SynthResult(NamedTuple):
    series_by_region: dict[str, RegionalSeries]
    performance: list[PerformanceRow]
    n_clipped: int


def _validate(config: SynthConfig) -> None:
    if config.n_regions < 1:
        raise InvalidConfig(f"n_regions must be positive, got {config.n_regions}")
    first, last = config.years
    if last - first < 1:
        raise InvalidConfig(f"year range {first}..{last} has fewer than the two years needed to difference employment")
    if config.n_regions * (last - first + 1) > 10**6:  # stated in README: 10**5 region-years take 2.3 s and 100 MB
        raise InvalidConfig(f"{config.n_regions} regions over {first}..{last} are more than 1,000,000 region-years")
    if not 0 <= config.seed < 2**64:
        raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    if config.noise_sd < 0:
        raise InvalidConfig(f"noise_sd must be non-negative, got {config.noise_sd}")
    for name in ("true_intercept", "true_coef_demand", "true_coef_supply", "noise_sd", "demand_shift", "supply_shift"):
        if not math.isfinite(getattr(config, name)):
            raise InvalidConfig(f"{name} must be finite")
        if name.endswith("_shift") and not -1.0 <= getattr(config, name) <= 1.0:
            raise InvalidConfig(f"{name} must be within [-1, 1], a fraction of the working-age population")
    if config.shock_year is None and (config.demand_shift != 0.0 or config.supply_shift != 0.0):
        raise InvalidConfig("demand_shift and supply_shift require a shock_year")
    if config.shock_year is not None and not first <= config.shock_year <= last:
        raise InvalidConfig(f"shock year {config.shock_year} is outside the year range {first}..{last}")


def _region_series(region_id: str, rng: random.Random, config: SynthConfig) -> RegionalSeries:
    years = range(config.years[0], config.years[1] + 1)
    n = len(years)
    working_age0 = rng.randrange(600_000, 1_400_000)
    young = [round(working_age0 * rng.uniform(0.15, 0.25))]
    working_age = [working_age0]
    old = [round(working_age0 * rng.uniform(0.18, 0.28))]
    for _ in range(n - 1):
        for band in (young, working_age, old):
            band.append(max(1, band[-1] + round(band[-1] * rng.uniform(-0.003, 0.006))))

    employment = [round(rng.uniform(0.55, 0.70) * working_age[0])]
    for i in range(1, n):
        employment.append(max(0, employment[-1] + round(rng.uniform(-0.02, 0.025) * working_age[i])))

    unemployed_rate = [rng.uniform(0.03, 0.08)]
    for _ in range(n - 1):
        unemployed_rate.append(min(0.12, max(0.01, unemployed_rate[-1] + rng.uniform(-0.008, 0.008))))
    unemployed = [round(unemployed_rate[i] * working_age[i]) for i in range(n)]

    if config.shock_year is not None:
        for i, year in enumerate(years):
            if year >= config.shock_year:
                employment[i] = max(0, employment[i] + round(config.demand_shift * working_age[i]))
                shifted = unemployed[i] + round(config.supply_shift * working_age[i])
                unemployed[i] = min(working_age[i], max(0, shifted))

    return RegionalSeries(
        region_id=region_id,
        years=tuple(years),
        employment={year: employment[i] for i, year in enumerate(years)},
        unemployed_6m={year: unemployed[i] for i, year in enumerate(years)},
        population={
            year: {(0, 15): young[i], (16, 64): working_age[i], (65, 90): old[i]}
            for i, year in enumerate(years)
        },
    )


def generate(config: SynthConfig) -> SynthResult:
    """Generate series and performance rows; pure given the config."""
    _validate(config)
    width = max(2, len(str(config.n_regions)))

    series_by_region: dict[str, RegionalSeries] = {}
    performance: list[PerformanceRow] = []
    n_clipped = 0
    for k in range(config.n_regions):
        region_id = f"R{k + 1:0{width}d}"  # one width for all, so ids sort in generation order
        series = _region_series(region_id, random.Random(f"{config.seed}:{k}:0"), config)
        series_by_region[region_id] = series

        noise_rng = random.Random(f"{config.seed}:{k}:1")
        for row in build_features({region_id: series}, LAW_FEATURE_CONFIG):
            raw = config.true_intercept + config.true_coef_demand * row.demand + config.true_coef_supply * row.supply
            if config.noise_sd > 0:
                raw += noise_rng.gauss(0.0, config.noise_sd)
            value = min(1.0, max(0.0, raw))
            if value != raw:
                n_clipped += 1
            n_success, n_entrants = value.as_integer_ratio()
            performance.append(PerformanceRow(region_id, row.year, n_entrants, n_success, value))
    return SynthResult(series_by_region=series_by_region, performance=performance, n_clipped=n_clipped)


def write_outputs(
    result: SynthResult,
    config: SynthConfig,
    out_dir: str | Path,
    run_config: dict | None = None,
) -> dict[str, Path]:
    """Write the four ingestible CSVs plus truth.json into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("employment", "unemployment", "population", "performance")}
    paths["truth"] = out / "truth.json"
    write_regional_series(
        result.series_by_region, paths["employment"], paths["unemployment"], paths["population"]
    )
    write_performance_csv(result.performance, paths["performance"])
    truth = {
        "config": config,
        "feature_config": LAW_FEATURE_CONFIG,
        "regions": sorted(result.series_by_region),
        "n_clipped": result.n_clipped,
    }
    jsonio.save(paths["truth"], truth, run_config)
    return paths
