"""Parse and validate the statistical CSV inputs and programme records.

All four inputs are UTF-8 CSV with a mandatory header row, comma separator,
`.` decimal point and ISO-8601 dates written YYYY-MM-DD:

    employment.csv    region,year,employed
    unemployment.csv  region,year,unemployed_6m
    population.csv    region,year,age_lo,age_hi,persons     (band inclusive)
    records.csv       person_id,region,entry_date,spell_start,spell_end,hours_per_week

Each kind of cell has one parser, taking ASCII digits only: `_parse_natural`
(every integer: years, ages, the lag and head-counts, at most 324 digits, so
`int()` never meets an oversized text), `_parse_date` and `_parse_number`
(every float column of every CSV). Statistical counts must be at most 2**53,
so that each is a float exactly. For each region the three
statistical files are restricted to the intersection of the years they cover,
and that intersection must be consecutive: gaps are rejected rather than
interpolated, because the demand proxy differences adjacent years.

Rows are streamed and checked as they are read, so of several faulty rows the
first in file order is reported, be it a wrong column count or a bad field.
`_read_rows` splits plain lines on commas and gives a file's first other line,
and every line after it, to `csv.reader`; the rows, errors and line numbers are
those that `csv.reader` alone gives.
Whole-file checks (years, overlapping age bands or spells) come after;
`parse_programme_records` says what a records parse holds per row and per person.
Every output file of the pipeline, CSV or JSON, is written through `open_output`.
"""
from __future__ import annotations

import csv
import math
import os
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, TextIO

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

_INT_RE = re.compile(r"([+-]?)([0-9]+)")
_MAX_DIGITS = 324
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class RegionalSeries(NamedTuple):
    """Dense per-region panel of labour statistics over consecutive years; each year's bands ascend."""

    region_id: str
    years: tuple[int, ...]
    employment: dict[int, int]
    unemployed_6m: dict[int, int]
    population: dict[int, dict[AgeBand, int]]


class Spell(NamedTuple):
    """One employment spell; both end dates are inclusive. `perf._covers_window` unpacks it by field order."""

    start_date: date
    end_date: date
    hours_per_week: float


@dataclass(slots=True)  # not frozen: the parse sets `spells` late; a frozen `__init__` uses `object.__setattr__`
class ProgrammeRecord:
    person_id: str
    region_id: str
    entry_date: date
    spells: tuple[Spell, ...]


# ---------------------------------------------------------------------------
# low-level file handling
# ---------------------------------------------------------------------------

def _read_rows(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Check the header, then yield (line_number, stripped fields) per data row as it is read.

    A data line is plain when it has the header's width and a field that is not empty, holds no `"`
    and no space, is `isprintable()` and fits `csv.field_size_limit()`. Plain lines are split on
    commas, which gives what `csv.reader` and `strip` give, as `isprintable()` is False for NUL and
    for all that `strip` removes but the space; one `csv.reader` reads from the first other line to
    the end. Blank lines are skipped. A row with the wrong number of columns raises only when
    reached, after the caller has checked every earlier row.
    """
    name = str(path)
    width, limit = len(header), csv.field_size_limit()
    line_num = 0  # the lines before `reader`'s first: none before the header's
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise MalformedRow("missing header row", file=name, line=1)
            got = tuple(field.strip() for field in first)
            if got != header:
                raise MalformedRow(f"expected header {','.join(header)}, got {','.join(got)!r}", file=name, line=1)
            for line_num, line in enumerate(fh, reader.line_num + 1):  # plain lines, up to the first that is not
                text = line.rstrip("\r\n")
                fields = text.split(",")
                if len(fields) != width or not any(fields) or '"' in text or " " in text or len(text) > limit \
                        or not text.isprintable():
                    line_num, reader = line_num - 1, csv.reader(chain([line], fh))
                    break
                yield line_num, fields
            for row in reader:  # if no line needed `csv`, this is the header's reader, at the end of the file
                fields = list(map(str.strip, row))
                if not any(fields):
                    continue  # tolerate blank lines
                if len(fields) != width:
                    raise MalformedRow(f"expected {width} columns, got {len(fields)}",
                                       file=name, line=line_num + reader.line_num)
                yield line_num + reader.line_num, fields  # the line the row ends on, past any quoted line break
        except UnicodeDecodeError as err:
            raise MalformedRow(f"not valid UTF-8 text ({err.reason})", file=name) from None
        except csv.Error as err:  # a field longer than csv.field_size_limit(), named by the line it fails on
            raise MalformedRow(f"not a readable CSV row ({err})", file=name, line=line_num + reader.line_num) from None


@contextmanager
def open_output(path: str | Path) -> Iterator[TextIO]:
    """Yield a new sibling `<path>.<pid>.tmp`, then move it onto `path`: the one way an output is written.

    Mode "x" gives it the permission bits `open(path, "w")` would and never follows a planted symlink.
    If the block raises (`BaseException` included), it is removed and `path` keeps its old bytes; an
    `OSError` from opening or moving it names `path`, never the temp file.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    fh = None
    try:
        with open(temp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as err:
        if fh is not None:
            os.remove(temp)
        if isinstance(err, OSError) and err.filename == temp:
            raise OSError(err.errno, err.strerror, os.fspath(path)) from None
        raise


def _write_rows(path: str | Path, header: tuple[str, ...], rows: Iterable[list], comment: str | None = None) -> None:
    """Write a CSV file through `open_output`: an optional `# comment` line, the header, then `rows`."""
    with open_output(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_natural(text: str, column: str, file: str, line: int, count: bool = False, bounded: bool = True) -> int:
    """A non-negative integer of at most 324 digits: a year, an age, the lag or (`count`) a head-count.

    The digits are counted before `int()` reads them; 324 hold 2**1074, the largest denominator of a
    float's `as_integer_ratio`. A negative head-count is a `NegativeCount`; a `bounded` one must be at
    most 2**53, up to which every integer is exactly a float. At most 15 ASCII digits skip the regex.
    """
    if len(text) <= 15 and text.isascii() and text.isdigit():  # 0-9 only, below 10**15: no check below can fire
        return int(text)
    match = _INT_RE.fullmatch(text)
    negative = match is not None and match[1] == "-" and match[2].strip("0") != ""
    if match is None or (negative and not count):
        kind = ("an integer head-count" if count else
                "a calendar year" if column.endswith("year") else "a non-negative integer")
        raise MalformedRow(f"column {column!r} must be {kind}, got {text!r}", file=file, line=line)
    if negative:
        raise NegativeCount(f"column {column!r} is negative ({text})", file=file, line=line)
    bounded = count and bounded
    if len(match[2]) > _MAX_DIGITS or (bounded and int(text) > 2**53):
        limit = "2**53" if bounded else f"{_MAX_DIGITS} digits long"
        raise MalformedRow(f"column {column!r} must be at most {limit}, got {text!r}", file=file, line=line)
    return int(text)


def _parse_date(text: str, column: str, file: str, line: int) -> date:
    if _DATE_RE.fullmatch(text):  # fromisoformat alone also takes 20150518 and 2015-W21-1 on 3.11+
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    raise MalformedRow(f"column {column!r} must be an ISO date (YYYY-MM-DD), got {text!r}", file=file, line=line)


def _parse_number(text: str, column: str, file: str, line: int, non_negative: bool = False) -> float:
    """A finite number in ASCII: optional sign, digits with an optional point (or a point then digits), exponent."""
    value = float(text) if _NUMBER_RE.fullmatch(text) else math.inf  # float() also takes '٢', '1_0' and 'nan'
    if not math.isfinite(value) or (non_negative and value < 0):
        kind = "a non-negative number" if non_negative else "a finite number"
        raise MalformedRow(f"column {column!r} must be {kind}, got {text!r}", file=file, line=line)
    return value


# ---------------------------------------------------------------------------
# statistical files
# ---------------------------------------------------------------------------

def _claim_entry(seen: set[tuple[str, int]], region: str, year: int, file: str, line: int) -> None:
    """Add (region, year) to `seen`; a second row for the same pair is a `MalformedRow`."""
    if (region, year) in seen:
        raise MalformedRow(f"duplicate entry for region {region!r}, year {year}", file=file, line=line)
    seen.add((region, year))


def _collect_year_counts(path: str | Path, header: tuple[str, ...]) -> dict[str, dict[int, int]]:
    """Collect region -> year -> count for employment.csv / unemployment.csv."""
    name = str(path)
    out: dict[str, dict[int, int]] = {}
    seen: set[tuple[str, int]] = set()
    for lineno, (region, year_s, count_s) in _read_rows(path, header):
        year = _parse_natural(year_s, "year", name, lineno)
        count = _parse_natural(count_s, header[2], name, lineno, count=True)
        _claim_entry(seen, region, year, name, lineno)
        out.setdefault(region, {})[year] = count
    return out


def parse_regional_series(
    employment_file: str | Path,
    unemployment_file: str | Path,
    population_file: str | Path,
) -> dict[str, RegionalSeries]:
    """Parse the three statistical files into one validated series per region, in sorted region order.

    Years are restricted per region to the intersection of the years present
    in all three files; the intersection must be non-empty and consecutive.
    """
    employment = _collect_year_counts(employment_file, EMPLOYMENT_HEADER)
    unemployed = _collect_year_counts(unemployment_file, UNEMPLOYMENT_HEADER)
    name = str(population_file)
    band_rows: dict[tuple[str, int], list[tuple[int, int, int, int]]] = {}  # (lo, hi, line, persons) per row
    for lineno, (region, year_s, lo_s, hi_s, persons_s) in _read_rows(population_file, POPULATION_HEADER):
        year = _parse_natural(year_s, "year", name, lineno)
        lo = _parse_natural(lo_s, "age_lo", name, lineno)
        hi = _parse_natural(hi_s, "age_hi", name, lineno)
        if lo > hi:
            raise MalformedRow(f"age band [{lo}, {hi}] has age_lo > age_hi", file=name, line=lineno)
        persons = _parse_natural(persons_s, "persons", name, lineno, count=True)
        band_rows.setdefault((region, year), []).append((lo, hi, lineno, persons))
    population: dict[str, dict[int, dict[AgeBand, int]]] = {}
    for region, year in sorted(band_rows):  # after the last row, so a row error wins; every year, not only common ones
        bands = sorted(band_rows[region, year])  # a repeated band sorts by line, so the later row comes second
        for (a_lo, a_hi, _, _), (b_lo, b_hi, line, _) in zip(bands, bands[1:]):
            if b_lo <= a_hi:
                raise OverlappingAgeBands(
                    f"region {region!r} year {year}: band [{b_lo}, {b_hi}] overlaps band [{a_lo}, {a_hi}]",
                    file=name, line=line, region=region, year=year,
                )
        population.setdefault(region, {})[year] = {(lo, hi): persons for lo, hi, _, persons in bands}

    out: dict[str, RegionalSeries] = {}
    for region in sorted(set(employment) | set(unemployed) | set(population)):
        covered = [set(counts.get(region, ())) for counts in (employment, unemployed, population)]
        common = sorted(set.intersection(*covered))
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
                    region=region, year=prev + 1,
                )
        out[region] = RegionalSeries(
            region_id=region,
            years=tuple(common),
            employment={year: employment[region][year] for year in common},
            unemployed_6m={year: unemployed[region][year] for year in common},
            population={year: population[region][year] for year in common},
        )
    return out


def write_regional_series(
    series_by_region: dict[str, RegionalSeries],
    employment_file: str | Path,
    unemployment_file: str | Path,
    population_file: str | Path,
) -> None:
    """Write series back to the three canonical CSV schemas, rows in the order given.

    `parse_regional_series` and `synth.generate` hold regions, years and bands
    ascending, so their series are written sorted and re-parse to an identical value.
    """
    items = series_by_region.items()
    _write_rows(employment_file, EMPLOYMENT_HEADER,
                ([region, year, series.employment[year]] for region, series in items for year in series.years))
    _write_rows(unemployment_file, UNEMPLOYMENT_HEADER,
                ([region, year, series.unemployed_6m[year]] for region, series in items for year in series.years))
    _write_rows(population_file, POPULATION_HEADER, (
        [region, year, lo, hi, persons]
        for region, series in items
        for year in series.years
        for (lo, hi), persons in series.population[year].items()
    ))


# ---------------------------------------------------------------------------
# programme records
# ---------------------------------------------------------------------------

def parse_programme_records(records_file: str | Path) -> list[ProgrammeRecord]:
    """Parse records.csv into one record per person, in one pass over its rows.

    One row per spell; a person with no spells appears once with the three
    spell fields empty. Rows are checked as they are read, so the first
    faulty row in file order is the one reported. A run is a stretch of rows
    with the same person, region and entry-date strings: its first row checks
    the person, and its spells join the record's when it ends. Spells are
    sorted by start date and must not overlap; only a person whose spells come
    out of order or touching, or in more than one run, is sorted and scanned,
    after the last row. Spells that start before the entry date are allowed
    (their pre-entry portion is simply ignored downstream). Each distinct date,
    hours or region string is kept once per call. Each row's `Spell` is built
    once; no line number is held per spell, so an overlap's line is found by
    reading the file again (a pipe's is not). The cyclic collector is left as
    found: the CLI pauses it around each command, this parse included.
    """
    name = str(records_file)
    people: dict[str, ProgrammeRecord] = {}  # a record's spells: a tuple, or a list while they await sorting
    dates: dict[str, date] = {}
    hours: dict[str, float] = {}
    regions: dict[str, str] = {}
    run: list[Spell] = []  # the current run's spells, in file order
    record = run_person = run_region = run_entry = None
    for lineno, (person, region, entry_s, start_s, end_s, hours_s) in _read_rows(records_file, RECORDS_HEADER):
        if person != run_person or entry_s != run_entry or region != run_region:  # a run's first row
            if run:  # the run before has ended: a tuple's `+=` builds a new one, a list's extends it
                record.spells += tuple(run)
                run.clear()
            if not person:
                raise MalformedRow("empty person_id", file=name, line=lineno)
            entry = dates.get(entry_s)
            if entry is None:
                entry = dates[entry_s] = _parse_date(entry_s, "entry_date", name, lineno)
            record = people.get(person)
            if record is None:
                record = people[person] = ProgrammeRecord(person, regions.setdefault(region, region), entry, ())
            elif record.region_id != region:
                raise MalformedRow(f"person {person!r} has conflicting regions ({record.region_id!r} vs "
                                   f"{region!r})", file=name, line=lineno)
            elif record.entry_date != entry:
                raise MalformedRow(f"person {person!r} has conflicting entry dates ({record.entry_date.isoformat()}"
                                   f" vs {entry.isoformat()})", file=name, line=lineno)
            elif record.spells and type(record.spells) is tuple:  # spells in an earlier run
                record.spells = list(record.spells)
            run_person, run_region, run_entry = person, region, entry_s
        if not (start_s and end_s and hours_s):
            if start_s or end_s or hours_s:
                raise MalformedRow("spell fields must be all present or all empty", file=name, line=lineno)
            continue
        start = dates.get(start_s)
        if start is None:
            start = dates[start_s] = _parse_date(start_s, "spell_start", name, lineno)
        end = dates.get(end_s)
        if end is None:
            end = dates[end_s] = _parse_date(end_s, "spell_end", name, lineno)
        if start > end:
            raise MalformedRow(
                f"spell starts after it ends ({start.isoformat()} > {end.isoformat()})", file=name, line=lineno
            )
        per_week = hours.get(hours_s)
        if per_week is None:
            per_week = hours[hours_s] = _parse_number(hours_s, "hours_per_week", name, lineno, non_negative=True)
        if run and start <= run[-1][1] and type(record.spells) is tuple:  # out of order, or sharing a day
            record.spells = list(record.spells)
        run.append(tuple.__new__(Spell, (start, end, per_week)))  # as `Spell._make`, minus a Python frame
    if run:
        record.spells += tuple(run)
    records = sorted(people.values(), key=attrgetter("person_id"))
    for record in records:
        if type(record.spells) is list:  # out of order, touching or in more than one run
            spells = sorted(record.spells, key=itemgetter(0, 1))  # equal (start, end) keep their file order
            for a, b in zip(spells, spells[1:]):
                if b[0] <= a[1]:  # inclusive end dates: sharing a day is an overlap
                    index = [spell is b for spell in record.spells].index(True)  # b's place among the spells
                    rows = _read_rows(records_file, RECORDS_HEADER) if os.path.isfile(records_file) else ()
                    lines = [n for n, row in rows if row[0] == record.person_id and row[3]]
                    raise OverlappingSpells(
                        f"person {record.person_id!r} has overlapping spells "
                        f"({a[0].isoformat()}..{a[1].isoformat()} and {b[0].isoformat()}..{b[1].isoformat()})",
                        file=name,
                        line=lines[index] if index < len(lines) else None,  # None for a pipe or a changed file
                        person_id=record.person_id,
                    )
            record.spells = tuple(spells)
    return records
