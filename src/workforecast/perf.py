"""Per-person reintegration outcomes and per-region-per-year success rates.

A person counts as successfully reintegrated when every calendar day in the
closed window from the programme entry date to the same day N calendar months
later (default 6) is covered by an employment spell of at least the minimum
weekly hours (default 16). Back-to-back spells count as continuous, so
changing employer does not break the streak; a single uncovered day does.
`aggregate_performance` computes each distinct entry date's window end once per call.
"""
from __future__ import annotations

import math
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

from workforecast import DEFAULT_MIN_HOURS, DEFAULT_WINDOW_MONTHS
from workforecast.errors import InvalidConfig, MalformedRow
from workforecast.ingest import (ProgrammeRecord, Spell, _claim_entry, _parse_natural, _parse_number, _read_rows,
                                 _write_rows)

_ONE_DAY = timedelta(days=1)  # built once: the rule steps past every covering spell's end

PERFORMANCE_HEADER = ("region", "entry_year", "n_entrants", "n_success", "performance")


class PerformanceRow(NamedTuple):
    """Success rate of one region's entrants for one entry year."""

    region_id: str
    entry_year: int
    n_entrants: int
    n_success: int
    performance: float


def add_months(day: date, months: int) -> date:
    """Shift a date by whole calendar months, clamping to the target month's last day."""
    import calendar  # on first use, so the CLI start-up does not load it
    year, month = divmod(day.year * 12 + day.month - 1 + months, 12)  # month counts from 0
    last_day = calendar.monthrange(year, month + 1)[1]
    return date(year, month + 1, min(day.day, last_day))


def _covers_window(day: date, window_end: date, spells: tuple[Spell, ...], min_hours: float) -> bool:
    """Return True when qualifying spells cover every day from entry `day` to `window_end`, both inclusive.

    A spell of exactly ``min_hours`` qualifies ("at least" semantics); pre-entry
    spell days count only from the entry date onwards. `aggregate_performance`,
    the one caller, checks the options once per call.
    """
    for start, end, per_week in spells:  # sorted, non-overlapping by construction
        if per_week < min_hours or end < day:
            continue  # days covered only by a low-hours spell stay uncovered; a spell ended before `day` adds none
        if start > day:
            return False
        if end >= window_end:  # tested before the day after end, which may not exist
            return True
        day = end + _ONE_DAY
    return False


def aggregate_performance(
    records: list[ProgrammeRecord],
    min_hours: float = DEFAULT_MIN_HOURS,
    window_months: int = DEFAULT_WINDOW_MONTHS,
) -> list[PerformanceRow]:
    """Aggregate records into one row per (region, entry year) with >= 1 entrant; options checked first."""
    if not (math.isfinite(min_hours) and min_hours >= 0.0):
        raise InvalidConfig(f"min_hours must be a finite non-negative number, got {min_hours}")
    if window_months < 0:
        raise InvalidConfig(f"window_months must be non-negative, got {window_months}")
    counts: dict[tuple[str, int], list[int]] = {}
    window_ends: dict[date, date] = {}  # one per distinct entry date, kept for this call as the parse keeps its dates
    for record in records:
        entry = record.entry_date
        if entry not in window_ends:  # a record with no spells too: its window may end after date.max
            try:
                window_ends[entry] = add_months(entry, window_months)
            except (ValueError, OverflowError):  # the window ends after date.max
                raise InvalidConfig(
                    f"person {record.person_id!r}: a {window_months}-month window from entry date "
                    f"{entry} ends after {date.max}"
                ) from None
        cell = counts.setdefault((record.region_id, entry.year), [0, 0])
        cell[0] += 1
        cell[1] += _covers_window(entry, window_ends[entry], record.spells, min_hours)  # a bool: True adds one
    return [PerformanceRow(region, year, entrants, successes, successes / entrants)
            for (region, year), (entrants, successes) in sorted(counts.items())]


def write_performance_csv(rows: list[PerformanceRow], path: str | Path) -> None:
    """Write performance rows in the order given; the rate column is display-only at 6 decimals."""
    _write_rows(path, PERFORMANCE_HEADER, (
        [row.region_id, row.entry_year, row.n_entrants, row.n_success, f"{row.performance:.6f}"]
        for row in rows
    ))


def read_performance_csv(path: str | Path) -> list[PerformanceRow]:
    """Read performance rows back, recomputing the exact rate from the counts.

    The printed rate is rounded to 6 decimals, so it is only cross-checked
    against n_success / n_entrants; the exact ratio is what downstream code
    gets. This keeps rates bit-identical across a write/read cycle.
    """
    name = str(path)
    rows = []
    seen: set[tuple[str, int]] = set()
    for lineno, (region, year_s, entrants_s, success_s, printed_s) in _read_rows(path, PERFORMANCE_HEADER):
        year = _parse_natural(year_s, "entry_year", name, lineno)
        # Unbounded: synth writes exact ratios whose denominators pass 2**53.
        entrants = _parse_natural(entrants_s, "n_entrants", name, lineno, count=True, bounded=False)
        successes = _parse_natural(success_s, "n_success", name, lineno, count=True, bounded=False)
        if entrants < 1:
            raise MalformedRow("n_entrants must be positive", file=name, line=lineno)
        if successes > entrants:
            raise MalformedRow(f"n_success ({successes}) exceeds n_entrants ({entrants})", file=name, line=lineno)
        performance = successes / entrants
        printed = _parse_number(printed_s, "performance", name, lineno)
        if abs(printed - performance) > 1e-6:
            raise MalformedRow(
                f"performance column ({printed_s}) disagrees with n_success/n_entrants ({performance:.6f})",
                file=name, line=lineno,
            )
        _claim_entry(seen, region, year, name, lineno)
        rows.append(PerformanceRow(region, year, entrants, successes, performance))
    rows.sort()  # by (region, entry year), unique by `_claim_entry`
    return rows
