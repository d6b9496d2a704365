"""Per-person reintegration outcomes and per-region-per-year success rates.

A person counts as successfully reintegrated when every calendar day in the
closed window from the programme entry date to the same day N calendar months
later (default 6) is covered by an employment spell of at least the minimum
weekly hours (default 16). Back-to-back spells count as continuous, so
changing employer does not break the streak; a single uncovered day does.
"""
from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from workforecast.errors import InvalidConfig, MalformedRow
from workforecast.ingest import ProgrammeRecord, _parse_count, _parse_year, _read_rows, _write_rows

DEFAULT_MIN_HOURS = 16.0
DEFAULT_WINDOW_MONTHS = 6

PERFORMANCE_HEADER = ("region", "entry_year", "n_entrants", "n_success", "performance")


@dataclass(frozen=True)
class PerformanceRow:
    """Success rate of one region's entrants for one entry year."""

    region_id: str
    entry_year: int
    n_entrants: int
    n_success: int
    performance: float


def add_months(day: date, months: int) -> date:
    """Shift a date by whole calendar months, clamping to the target month's last day."""
    month_index = day.month - 1 + months
    year = day.year + month_index // 12
    month = month_index % 12 + 1
    last_day = calendar.monthrange(year, month)[1]
    return date(year, month, min(day.day, last_day))


def is_reintegrated(
    record: ProgrammeRecord,
    min_hours: float = DEFAULT_MIN_HOURS,
    window_months: int = DEFAULT_WINDOW_MONTHS,
) -> bool:
    """Return True when the whole post-entry window is covered by qualifying spells.

    Both boundaries are inclusive ("at least" semantics): a spell at exactly
    ``min_hours`` qualifies, and the window closes on the day exactly
    ``window_months`` calendar months after entry. Pre-entry spell days count
    only from the entry date onwards.
    """
    try:
        window_end = add_months(record.entry_date, window_months)
    except (ValueError, OverflowError):  # the window ends after date.max
        raise InvalidConfig(
            f"person {record.person_id!r}: a {window_months}-month window from entry date "
            f"{record.entry_date} ends after {date.max}"
        ) from None
    day = record.entry_date
    for spell in record.spells:  # sorted, non-overlapping by construction
        if spell.hours_per_week < min_hours:
            continue  # days covered only by a low-hours spell stay uncovered
        if spell.end_date < day:
            continue
        if spell.start_date > day:
            return False
        if spell.end_date >= window_end:  # tested before the day after end_date, which may not exist
            return True
        day = spell.end_date + timedelta(days=1)
    return False


def aggregate_performance(
    records: list[ProgrammeRecord],
    min_hours: float = DEFAULT_MIN_HOURS,
    window_months: int = DEFAULT_WINDOW_MONTHS,
) -> list[PerformanceRow]:
    """Aggregate records into one row per (region, entry year) with >= 1 entrant."""
    if not (math.isfinite(min_hours) and min_hours >= 0.0):
        raise InvalidConfig(f"min_hours must be a finite non-negative number, got {min_hours}")
    counts: dict[tuple[str, int], list[int]] = {}
    for record in records:
        key = (record.region_id, record.entry_date.year)
        cell = counts.setdefault(key, [0, 0])
        cell[0] += 1
        if is_reintegrated(record, min_hours=min_hours, window_months=window_months):
            cell[1] += 1
    return [
        PerformanceRow(
            region_id=region,
            entry_year=year,
            n_entrants=entrants,
            n_success=successes,
            performance=successes / entrants,
        )
        for (region, year), (entrants, successes) in sorted(counts.items())
    ]


def write_performance_csv(rows: list[PerformanceRow], path: str | Path) -> None:
    """Write performance rows; the rate column is display-only at 6 decimals."""
    _write_rows(path, PERFORMANCE_HEADER, (
        [row.region_id, row.entry_year, row.n_entrants, row.n_success, f"{row.performance:.6f}"]
        for row in sorted(rows, key=lambda r: (r.region_id, r.entry_year))
    ))


def read_performance_csv(path: str | Path) -> list[PerformanceRow]:
    """Read performance rows back, recomputing the exact rate from the counts.

    The printed rate is rounded to 6 decimals, so it is only cross-checked
    against n_success / n_entrants; the exact ratio is what downstream code
    gets. This keeps rates bit-identical across a write/read cycle.
    """
    name = str(path)
    rows = []
    for lineno, (region, year_s, entrants_s, success_s, printed_s) in _read_rows(path, PERFORMANCE_HEADER):
        year = _parse_year(year_s, name, lineno)
        entrants = _parse_count(entrants_s, "n_entrants", name, lineno)
        successes = _parse_count(success_s, "n_success", name, lineno)
        if entrants < 1:
            raise MalformedRow("n_entrants must be positive", file=name, line=lineno)
        if successes > entrants:
            raise MalformedRow(f"n_success ({successes}) exceeds n_entrants ({entrants})", file=name, line=lineno)
        performance = successes / entrants
        try:
            printed = float(printed_s)
        except ValueError:
            raise MalformedRow(
                f"column 'performance' must be a number, got {printed_s!r}", file=name, line=lineno
            ) from None
        if not abs(printed - performance) <= 1e-6:  # also rejects nan
            raise MalformedRow(
                f"performance column ({printed_s}) disagrees with n_success/n_entrants ({performance:.6f})",
                file=name,
                line=lineno,
            )
        rows.append(
            PerformanceRow(
                region_id=region,
                entry_year=year,
                n_entrants=entrants,
                n_success=successes,
                performance=performance,
            )
        )
    rows.sort(key=lambda r: (r.region_id, r.entry_year))
    return rows
