"""Workload definitions: sizes, seeded inputs and the CLI command sequence of each.

Inputs are built outside any timed region and cached per (workload, seed)
under the work directory. The program under test only ever receives files.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Why each workload exists is documented in README.md next to this file.
SIZES = {
    "quickstart": {"regions": 2, "years": (2011, 2018), "noise_sd": 0.0},
    "panel": {"regions": 80, "years": (2001, 2020), "noise_sd": 0.02},
    "records": {"regions": 20, "years": (2010, 2018), "noise_sd": 0.02,
                "people": 100_000, "entry_years": (2011, 2017)},
}

# Small enough that every path runs in a few seconds; used by the self-test.
SMOKE_SIZES = {
    "quickstart": SIZES["quickstart"],
    "panel": {"regions": 6, "years": (2001, 2010), "noise_sd": 0.02},
    "records": {"regions": 3, "years": (2010, 2018), "noise_sd": 0.02,
                "people": 2_000, "entry_years": (2011, 2017)},
}

RECORDS_HEADER = ("person_id", "region", "entry_date", "spell_start", "spell_end", "hours_per_week")
MIN_HOURS = 16.0
WINDOW_MONTHS = 6


def stat_files(data: Path) -> list[str]:
    return ["--employment", str(data / "employment.csv"),
            "--unemployment", str(data / "unemployment.csv"),
            "--population", str(data / "population.csv")]


def commands(workload: str, inputs: Path, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass, run in order from the pass directory.

    Output paths are relative to the pass directory, so every pass writes the
    same bytes; input paths point into the cached inputs directory.
    """
    if workload == "quickstart":  # the README quick-start, unchanged but for the seed
        data = Path("data")
        stats = stat_files(data)
        perf = ["--performance", str(data / "performance.csv")]
        return [
            ["synth", "--out", "data/", "--seed", str(seed)],
            ["features", *stats, "--out", "features.csv"],
            ["fit", "--features", "features.csv", *perf, "--model", "model.json"],
            ["evaluate", "--features", "features.csv", *perf, "--out", "report.json"],
            ["figures", *stats, "--features", "features.csv", *perf,
             "--report", "report.json", "--out", "figs/"],
        ]
    stats = stat_files(inputs)
    perf_file = "performance.csv" if workload == "records" else str(inputs / "performance.csv")
    perf = ["--performance", perf_file]
    features = ["features", *stats, "--out", "features.csv"]
    figures = ["figures", *stats, "--features", "features.csv", *perf,
               "--report", "report.json", "--out", "figs/"]
    if workload == "panel":
        return [
            features,
            ["fit", "--features", "features.csv", *perf, "--model", "model.json"],
            ["evaluate", "--features", "features.csv", *perf, "--out", "report.json"],
            ["evaluate", "--features", "features.csv", *perf, "--benchmark", "prior-years-mean",
             "--out", "report_prior.json"],
            figures,
        ]
    if workload == "records":
        return [
            ["performance", "--records", str(inputs / "records.csv"), "--out", "performance.csv"],
            features,
            ["fit", "--features", "features.csv", *perf, "--model", "model.json"],
            ["evaluate", "--features", "features.csv", *perf, "--out", "report.json"],
            figures,
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def prepare_inputs(workload: str, seed: int, sizes: dict) -> Path:
    """Build (or reuse) the seeded inputs of one workload and return their directory.

    Only the latest seed of each workload is kept, so the cache stays small.
    """
    size = sizes[workload]
    stamp = json.dumps(size)
    inputs = WORK / "inputs" / f"{workload}-{seed}"
    complete = inputs / "complete"
    if complete.exists() and complete.read_text() == stamp:
        return inputs
    for stale in (WORK / "inputs").glob(f"{workload}-*"):
        shutil.rmtree(stale)
    inputs.mkdir(parents=True)
    if workload != "quickstart":  # quickstart runs synth itself, timed
        _synth(inputs, seed, size)
    if workload == "records":
        expected = write_records(inputs / "records.csv", seed, size)
        (inputs / "expected_performance.json").write_text(json.dumps(expected) + "\n")
    complete.write_text(stamp)
    return inputs


def _synth(out: Path, seed: int, size: dict) -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workforecast import synth

    config = synth.SynthConfig(n_regions=size["regions"], years=size["years"], seed=seed,
                               noise_sd=size["noise_sd"])
    synth.write_outputs(synth.generate(config), config, out)


def region_ids(n_regions: int) -> list[str]:
    """The ids `synth` gives its regions, so every performance row joins a feature row."""
    width = max(2, len(str(n_regions)))
    return [f"R{k + 1:0{width}d}" for k in range(n_regions)]


def write_records(path: Path, seed: int, size: dict) -> list[list]:
    """Write a seeded records.csv and return the expected performance counts.

    The mix follows the tests' random record generator: a fifth of the people
    hold one spell ending within three days of the six-month mark; the rest
    have 0-5 spells that start up to 40 days before entry, mostly back to
    back, with hours on both sides of the 16-hour threshold. The expected
    counts come from `reintegrated` below, not from the program.
    """
    rng = np.random.default_rng([seed, 0x7EC0])
    n = size["people"]
    regions = region_ids(size["regions"])
    first = date(size["entry_years"][0], 1, 1).toordinal()
    last = date(size["entry_years"][1], 12, 31).toordinal()

    region_pick = rng.integers(0, len(regions), size=n)
    entry_days = rng.integers(first, last + 1, size=n)
    boundary = rng.random(n) < 0.2
    pre_entry = rng.integers(0, 30, size=n)
    boundary_shift = rng.integers(-3, 4, size=n)
    boundary_hours = rng.choice([15.9, 16.0, 16.1, 20.0], size=n)
    cursor_shift = rng.integers(-40, 15, size=n)
    n_spells = rng.integers(0, 6, size=n)
    gaps = rng.choice([0, 0, 0, 0, 0, 0, 1, 2, 7, 30], size=(n, 5))
    lengths = rng.integers(20, 200, size=(n, 5))
    hours = rng.choice([8.0, 15.0, 15.9, 16.0, 16.0, 16.1, 20.0, 37.5], size=(n, 5))

    counts: dict[tuple[str, int], list[int]] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDS_HEADER)
        for i in range(n):
            person = f"P{i:06d}"
            region = regions[int(region_pick[i])]
            entry = date.fromordinal(int(entry_days[i]))
            if boundary[i]:
                end = add_months(entry, WINDOW_MONTHS) + timedelta(days=int(boundary_shift[i]))
                spells = [(entry - timedelta(days=int(pre_entry[i])), end, float(boundary_hours[i]))]
            else:
                spells = []
                cursor = entry + timedelta(days=int(cursor_shift[i]))
                for k in range(int(n_spells[i])):
                    start = cursor + timedelta(days=int(gaps[i, k]))
                    end = start + timedelta(days=int(lengths[i, k]) - 1)
                    spells.append((start, end, float(hours[i, k])))
                    cursor = end + timedelta(days=1)
            if not spells:
                writer.writerow([person, region, entry.isoformat(), "", "", ""])
            for start, end, h in spells:
                writer.writerow([person, region, entry.isoformat(), start.isoformat(), end.isoformat(), h])
            cell = counts.setdefault((region, entry.year), [0, 0])
            cell[0] += 1
            cell[1] += reintegrated(entry, spells)
    return [[region, year, entrants, success] for (region, year), (entrants, success) in sorted(counts.items())]


def add_months(day: date, months: int) -> date:
    """Same day `months` calendar months later, clamped to the month's last day."""
    year, month0 = divmod(day.year * 12 + day.month - 1 + months, 12)
    next_month = date(year + (month0 == 11), (month0 + 1) % 12 + 1, 1)
    return date(year, month0 + 1, min(day.day, (next_month - timedelta(days=1)).day))


def reintegrated(entry: date, spells: list[tuple[date, date, float]]) -> bool:
    """Whether qualifying spells cover every day from entry to the window end.

    Merges qualifying spells into blocks of consecutive days and asks whether
    the block holding the entry day reaches the window end.
    """
    window_end = add_months(entry, WINDOW_MONTHS).toordinal()
    blocks: list[list[int]] = []
    for start, end, hours in sorted(spells):
        if hours < MIN_HOURS:
            continue
        if blocks and start.toordinal() <= blocks[-1][1] + 1:
            blocks[-1][1] = max(blocks[-1][1], end.toordinal())
        else:
            blocks.append([start.toordinal(), end.toordinal()])
    day = entry.toordinal()
    return any(lo <= day and hi >= window_end for lo, hi in blocks)
