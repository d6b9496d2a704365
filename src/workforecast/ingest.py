"""Parse and validate the statistical CSV inputs and programme records.

All four inputs are UTF-8 CSV with a mandatory header row, comma separator,
`.` decimal point and ISO-8601 dates:

    employment.csv    region,year,employed
    unemployment.csv  region,year,unemployed_6m
    population.csv    region,year,age_lo,age_hi,persons     (band inclusive)
    records.csv       person_id,region,entry_date,spell_start,spell_end,hours_per_week

Counts are head-counts and must be non-negative integers; fractional values
are rejected. For each region the three statistical files are restricted to
the intersection of the years they cover, and that intersection must be
consecutive: gaps are rejected rather than interpolated, because the demand
proxy differences adjacent years.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from workforecast.errors import (
    EmptyIntersection,
    GapInYears,
    MalformedRow,
    NegativeCount,
    OverlappingAgeBands,
    OverlappingSpells,
)

EMPLOYMENT_HEADER = ("region", "year", "employed")
UNEMPLOYMENT_HEADER = ("region", "year", "unemployed_6m")
POPULATION_HEADER = ("region", "year", "age_lo", "age_hi", "persons")
RECORDS_HEADER = ("person_id", "region", "entry_date", "spell_start", "spell_end", "hours_per_week")

AgeBand = tuple[int, int]

_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass
class RegionalSeries:
    """Dense per-region panel of labour statistics over consecutive years."""

    region_id: str
    years: tuple[int, ...]
    employment: dict[int, int]
    unemployed_6m: dict[int, int]
    population: dict[int, dict[AgeBand, int]]


@dataclass(frozen=True)
class Spell:
    """One employment spell; both end dates are inclusive."""

    start_date: date
    end_date: date
    hours_per_week: float


@dataclass(frozen=True)
class ProgrammeRecord:
    person_id: str
    region_id: str
    entry_date: date
    spells: tuple[Spell, ...]


# ---------------------------------------------------------------------------
# low-level row handling
# ---------------------------------------------------------------------------

def _read_rows(path: str | Path, header: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    """Read a CSV file, check its header, and return (line_number, fields) rows."""
    name = str(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(enumerate(csv.reader(fh), start=1))
        except UnicodeDecodeError as err:
            raise MalformedRow(f"not valid UTF-8 text ({err.reason})", file=name) from None
    if not rows:
        raise MalformedRow("missing header row", file=name, line=1)
    first_line, first = rows[0]
    got = tuple(field.strip() for field in first)
    if got != header:
        raise MalformedRow(f"expected header {','.join(header)}, got {','.join(got)}", file=name, line=first_line)
    data = []
    for lineno, row in rows[1:]:
        if not row or all(not field.strip() for field in row):
            continue  # tolerate trailing blank lines
        if len(row) != len(header):
            raise MalformedRow(f"expected {len(header)} columns, got {len(row)}", file=name, line=lineno)
        data.append((lineno, [field.strip() for field in row]))
    return data


def _parse_count(text: str, column: str, file: str, line: int) -> int:
    if not _INT_RE.match(text):
        raise MalformedRow(f"column {column!r} must be an integer head-count, got {text!r}", file=file, line=line)
    value = int(text)
    if value < 0:
        raise NegativeCount(f"column {column!r} is negative ({value})", file=file, line=line)
    return value


def _parse_year(text: str, file: str, line: int) -> int:
    if not _INT_RE.match(text) or int(text) < 0:
        raise MalformedRow(f"column 'year' must be a calendar year, got {text!r}", file=file, line=line)
    return int(text)


def _parse_age(text: str, column: str, file: str, line: int) -> int:
    if not _INT_RE.match(text) or int(text) < 0:
        raise MalformedRow(f"column {column!r} must be a non-negative integer age, got {text!r}", file=file, line=line)
    return int(text)


def _parse_date(text: str, column: str, file: str, line: int) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise MalformedRow(
            f"column {column!r} must be an ISO date (YYYY-MM-DD), got {text!r}", file=file, line=line
        ) from None


def _parse_hours(text: str, file: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise MalformedRow(
            f"column 'hours_per_week' must be a non-negative number, got {text!r}", file=file, line=line
        )
    return value


# ---------------------------------------------------------------------------
# statistical files
# ---------------------------------------------------------------------------

def _collect_year_counts(path: str | Path, header: tuple[str, ...]) -> dict[str, dict[int, int]]:
    """Collect region -> year -> count for employment.csv / unemployment.csv."""
    name = str(path)
    column = header[2]
    out: dict[str, dict[int, int]] = {}
    for lineno, (region, year_s, count_s) in _read_rows(path, header):
        year = _parse_year(year_s, name, lineno)
        count = _parse_count(count_s, column, name, lineno)
        cells = out.setdefault(region, {})
        if year in cells:
            raise MalformedRow(f"duplicate entry for region {region!r}, year {year}", file=name, line=lineno)
        cells[year] = count
    return out


def _collect_population(path: str | Path) -> dict[str, dict[int, dict[AgeBand, tuple[int, int]]]]:
    """Collect region -> year -> band -> (persons, line) from population.csv."""
    name = str(path)
    out: dict[str, dict[int, dict[AgeBand, tuple[int, int]]]] = {}
    for lineno, (region, year_s, lo_s, hi_s, persons_s) in _read_rows(path, POPULATION_HEADER):
        year = _parse_year(year_s, name, lineno)
        lo = _parse_age(lo_s, "age_lo", name, lineno)
        hi = _parse_age(hi_s, "age_hi", name, lineno)
        if lo > hi:
            raise MalformedRow(f"age band [{lo}, {hi}] has age_lo > age_hi", file=name, line=lineno)
        persons = _parse_count(persons_s, "persons", name, lineno)
        bands = out.setdefault(region, {}).setdefault(year, {})
        if (lo, hi) in bands:
            raise MalformedRow(
                f"duplicate age band [{lo}, {hi}] for region {region!r}, year {year}", file=name, line=lineno
            )
        bands[(lo, hi)] = (persons, lineno)
    return out


def parse_regional_series(
    employment_file: str | Path,
    unemployment_file: str | Path,
    population_file: str | Path,
) -> dict[str, RegionalSeries]:
    """Parse the three statistical files into one validated series per region.

    Years are restricted per region to the intersection of the years present
    in all three files; the intersection must be non-empty and consecutive.
    Age bands within a kept year must be pairwise disjoint.
    """
    employment = _collect_year_counts(employment_file, EMPLOYMENT_HEADER)
    unemployed = _collect_year_counts(unemployment_file, UNEMPLOYMENT_HEADER)
    population = _collect_population(population_file)
    pop_name = str(population_file)

    out: dict[str, RegionalSeries] = {}
    for region in sorted(set(employment) | set(unemployed) | set(population)):
        emp_years = set(employment.get(region, ()))
        unemp_years = set(unemployed.get(region, ()))
        pop_years = set(population.get(region, ()))
        common = sorted(emp_years & unemp_years & pop_years)
        if not common:
            raise EmptyIntersection(
                f"region {region!r}: no year is covered by all three statistical files",
                region=region,
            )
        for prev, nxt in zip(common, common[1:]):
            if nxt != prev + 1:
                raise GapInYears(
                    f"region {region!r}: missing year {prev + 1} in the common coverage "
                    f"({common[0]}-{common[-1]})",
                    region=region,
                    year=prev + 1,
                )
        pop_by_year: dict[int, dict[AgeBand, int]] = {}
        for year in common:
            bands = population[region][year]
            ordered = sorted(bands)
            for a, b in zip(ordered, ordered[1:]):
                if b[0] <= a[1]:
                    line = bands[b][1]
                    raise OverlappingAgeBands(
                        f"region {region!r} year {year}: band [{b[0]}, {b[1]}] overlaps band [{a[0]}, {a[1]}]",
                        file=pop_name,
                        line=line,
                        region=region,
                        year=year,
                    )
            pop_by_year[year] = {band: persons for band, (persons, _) in sorted(bands.items())}
        out[region] = RegionalSeries(
            region_id=region,
            years=tuple(common),
            employment={year: employment[region][year] for year in common},
            unemployed_6m={year: unemployed[region][year] for year in common},
            population=pop_by_year,
        )
    return out


def write_regional_series(
    series_by_region: dict[str, RegionalSeries],
    employment_file: str | Path,
    unemployment_file: str | Path,
    population_file: str | Path,
) -> None:
    """Write series back to the three canonical CSV schemas.

    Rows are emitted in (region, year, age_lo) order so output is
    deterministic and re-parses to an identical value.
    """
    regions = sorted(series_by_region)

    with open(employment_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EMPLOYMENT_HEADER)
        for region in regions:
            series = series_by_region[region]
            for year in series.years:
                writer.writerow([region, year, series.employment[year]])

    with open(unemployment_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(UNEMPLOYMENT_HEADER)
        for region in regions:
            series = series_by_region[region]
            for year in series.years:
                writer.writerow([region, year, series.unemployed_6m[year]])

    with open(population_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POPULATION_HEADER)
        for region in regions:
            series = series_by_region[region]
            for year in series.years:
                for (lo, hi), persons in sorted(series.population[year].items()):
                    writer.writerow([region, year, lo, hi, persons])


# ---------------------------------------------------------------------------
# programme records
# ---------------------------------------------------------------------------

def parse_programme_records(records_file: str | Path) -> list[ProgrammeRecord]:
    """Parse records.csv into one record per person.

    One row per spell; a person with no spells appears once with the three
    spell fields empty. Spells are sorted by start date and must not overlap.
    Spells that start before the entry date are allowed (their pre-entry
    portion is simply ignored downstream).
    """
    name = str(records_file)
    people: dict[str, dict] = {}
    for lineno, fields in _read_rows(records_file, RECORDS_HEADER):
        person, region, entry_s, start_s, end_s, hours_s = fields
        if not person:
            raise MalformedRow("empty person_id", file=name, line=lineno)
        entry = _parse_date(entry_s, "entry_date", name, lineno)
        info = people.setdefault(person, {"region": region, "entry": entry, "spells": []})
        if info["region"] != region:
            raise MalformedRow(
                f"person {person!r} has conflicting regions ({info['region']!r} vs {region!r})", file=name, line=lineno
            )
        if info["entry"] != entry:
            raise MalformedRow(
                f"person {person!r} has conflicting entry dates ({info['entry'].isoformat()} vs {entry.isoformat()})",
                file=name,
                line=lineno,
            )
        spell_fields = (start_s, end_s, hours_s)
        if all(not field for field in spell_fields):
            continue
        if any(not field for field in spell_fields):
            raise MalformedRow("spell fields must be all present or all empty", file=name, line=lineno)
        start = _parse_date(start_s, "spell_start", name, lineno)
        end = _parse_date(end_s, "spell_end", name, lineno)
        if start > end:
            raise MalformedRow(
                f"spell starts after it ends ({start.isoformat()} > {end.isoformat()})", file=name, line=lineno
            )
        hours = _parse_hours(hours_s, name, lineno)
        info["spells"].append((start, end, hours, lineno))

    records = []
    for person in sorted(people):
        info = people[person]
        spells = sorted(info["spells"], key=lambda item: (item[0], item[1]))
        for a, b in zip(spells, spells[1:]):
            if b[0] <= a[1]:  # inclusive end dates: sharing a day is an overlap
                raise OverlappingSpells(
                    f"person {person!r} has overlapping spells "
                    f"({a[0].isoformat()}..{a[1].isoformat()} and {b[0].isoformat()}..{b[1].isoformat()})",
                    file=name,
                    line=b[3],
                    person_id=person,
                )
        records.append(
            ProgrammeRecord(
                person_id=person,
                region_id=info["region"],
                entry_date=info["entry"],
                spells=tuple(Spell(start, end, hours) for start, end, hours, _ in spells),
            )
        )
    return records
