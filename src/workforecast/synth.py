"""Seeded generator for synthetic multi-region panels with a known linear law.

The generator draws plausible employment / unemployment / population series
per region, derives the demand and supply proxies through the regular feature
pipeline, and produces performance values from a configured linear law plus
optional Gaussian noise, clipped to [0, 1]. Because the law is applied to the
proxies actually derived from the emitted series, the feature pipeline is
exercised end to end and a fit on the generated data recovers the true
coefficients exactly when noise is zero.

Randomness comes from PCG64 streams keyed on (seed, region index), so output
is reproducible bit-for-bit and independent of generation order. An optional
shock applies persistent level shifts to the underlying employment and
unemployment series from the shock year onward.

Entrant counts are the exact integer ratio of each performance value
(float.as_integer_ratio), so the rate survives the 6-decimal CSV display
column bit-exactly via n_success / n_entrants. numpy is imported inside `_rng`,
the one place that needs it, so that importing the package does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from workforecast import jsonio
from workforecast.errors import InvalidConfig
from workforecast.features import FeatureConfig, build_features
from workforecast.ingest import RegionalSeries, write_regional_series
from workforecast.perf import PerformanceRow, write_performance_csv

# configuration under which the linear law links proxies to performance
LAW_FEATURE_CONFIG = FeatureConfig(normalize=True, lag=0, working_age=(16, 64))

TRUTH_FILENAME = "truth.json"


@dataclass(frozen=True)
class Shock:
    """Persistent level shift applied to the underlying series from `year` on."""

    year: int
    demand_shift: float = 0.0
    supply_shift: float = 0.0


@dataclass(frozen=True)
class SynthConfig:
    n_regions: int = 2
    years: tuple[int, int] = (2011, 2018)
    seed: int = 0
    true_intercept: float = 0.5
    true_coef_demand: float = 1.5
    true_coef_supply: float = -2.0
    noise_sd: float = 0.0
    shock: Shock | None = None


@dataclass(frozen=True)
class SynthResult:
    series_by_region: dict[str, RegionalSeries]
    performance: list[PerformanceRow]
    n_clipped: int


def _validate(config: SynthConfig) -> None:
    if config.n_regions < 1:
        raise InvalidConfig(f"n_regions must be positive, got {config.n_regions}")
    first, last = config.years
    if first > last:
        raise InvalidConfig(f"year range {first}..{last} is empty")
    if last - first + 1 < 2:
        raise InvalidConfig("need at least two years to difference employment")
    if not 0 <= config.seed < 2**64:
        raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    if config.noise_sd < 0:
        raise InvalidConfig(f"noise_sd must be non-negative, got {config.noise_sd}")
    floats = [(config, name) for name in ("true_intercept", "true_coef_demand", "true_coef_supply", "noise_sd")]
    floats += [(config.shock, name) for name in ("demand_shift", "supply_shift") if config.shock is not None]
    for owner, name in floats:
        if not math.isfinite(getattr(owner, name)):
            raise InvalidConfig(f"{name} must be finite")
        if owner is config.shock and not -1.0 <= getattr(owner, name) <= 1.0:
            raise InvalidConfig(f"{name} must be within [-1, 1], a fraction of the working-age population")
    if config.shock is not None and not first <= config.shock.year <= last:
        raise InvalidConfig(
            f"shock year {config.shock.year} is outside the year range {first}..{last}"
        )


def _rng(seed: int, region_index: int, stream: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(region_index, stream)))
    )


def _region_series(
    region_id: str,
    years: list[int],
    rng: np.random.Generator,
    shock: Shock | None,
) -> RegionalSeries:
    n = len(years)
    working_age0 = int(rng.integers(600_000, 1_400_000))
    young0 = int(round(working_age0 * float(rng.uniform(0.15, 0.25))))
    old0 = int(round(working_age0 * float(rng.uniform(0.18, 0.28))))
    band_growth = rng.uniform(-0.003, 0.006, size=(n - 1, 3))
    employment_rate0 = float(rng.uniform(0.55, 0.70))
    employment_steps = rng.uniform(-0.02, 0.025, size=n - 1)
    unemployed_rate0 = float(rng.uniform(0.03, 0.08))
    unemployed_steps = rng.uniform(-0.008, 0.008, size=n - 1)

    young = [young0]
    working_age = [working_age0]
    old = [old0]
    for i in range(n - 1):
        young.append(max(1, young[-1] + int(round(young[-1] * float(band_growth[i, 0])))))
        working_age.append(max(1, working_age[-1] + int(round(working_age[-1] * float(band_growth[i, 1])))))
        old.append(max(1, old[-1] + int(round(old[-1] * float(band_growth[i, 2])))))

    employment = [int(round(employment_rate0 * working_age[0]))]
    for i in range(n - 1):
        employment.append(max(0, employment[-1] + int(round(float(employment_steps[i]) * working_age[i + 1]))))

    unemployed_rate = [unemployed_rate0]
    for i in range(n - 1):
        unemployed_rate.append(min(0.12, max(0.01, unemployed_rate[-1] + float(unemployed_steps[i]))))
    unemployed = [int(round(unemployed_rate[i] * working_age[i])) for i in range(n)]

    if shock is not None:
        for i, year in enumerate(years):
            if year >= shock.year:
                employment[i] = max(0, employment[i] + int(round(shock.demand_shift * working_age[i])))
                shifted = unemployed[i] + int(round(shock.supply_shift * working_age[i]))
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
    years = list(range(config.years[0], config.years[1] + 1))
    width = max(2, len(str(config.n_regions)))

    series_by_region: dict[str, RegionalSeries] = {}
    performance: list[PerformanceRow] = []
    n_clipped = 0
    for k in range(config.n_regions):
        region_id = f"R{k + 1:0{width}d}"
        series = _region_series(region_id, years, _rng(config.seed, k, 0), config.shock)
        series_by_region[region_id] = series

        noise_rng = _rng(config.seed, k, 1)
        for row in build_features({region_id: series}, LAW_FEATURE_CONFIG):
            raw = (
                config.true_intercept
                + config.true_coef_demand * row.demand
                + config.true_coef_supply * row.supply
            )
            if config.noise_sd > 0:
                raw += float(noise_rng.normal(0.0, config.noise_sd))
            value = min(1.0, max(0.0, raw))
            if value != raw:
                n_clipped += 1
            n_success, n_entrants = value.as_integer_ratio()
            performance.append(
                PerformanceRow(
                    region_id=region_id,
                    entry_year=row.year,
                    n_entrants=n_entrants,
                    n_success=n_success,
                    performance=value,
                )
            )
    performance.sort(key=lambda row: (row.region_id, row.entry_year))
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
    paths = {
        "employment": out / "employment.csv",
        "unemployment": out / "unemployment.csv",
        "population": out / "population.csv",
        "performance": out / "performance.csv",
        "truth": out / TRUTH_FILENAME,
    }
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
