"""Shared test utilities: independent oracles, random input generators and quick-start inputs.

The oracles deliberately avoid the code paths they check: the reintegration
oracle enumerates every calendar day and walks months with its own clamping
logic, and the least-squares oracle minimizes the quadratic loss by
coordinate descent instead of any matrix factorization. The leave-one-out
oracle is the plain refit loop that `evaluate.loocv` replaced: it rebuilds
every training fold as a list, sums benchmarks with `statistics.fmean`, and
scans the whole dataset for earlier years in every fold. The Householder
oracle is the solver `model.fit` replaced, copied verbatim under new names:
it triangularizes a row-major [x | y] with one `np.outer` update per
reflection. The records oracle is the two-pass parser that
`ingest.parse_programme_records` replaced: it reads and checks the structure
of the whole file before any row check. The row reader reference is the
`ingest._read_rows` that passed every line through `csv.reader`, copied
verbatim under a new name. `fit_arrays_reference` is `model.fit`'s numpy
branch as it was before a refit read its scalars as Python floats, frozen
under a new name, and `parse_natural_reference` is `ingest._parse_natural`
before its plain-digit fast path: the regex rule alone. `unbaseline` is the
inverse of `report._rebase`, computed from the base `report.baseline` returns.
`reintegrated` is not an oracle: it asks `perf.aggregate_performance`, the
rule's one caller, for its verdict on a single record.
"""
from __future__ import annotations

import csv
import math
import re
import statistics
from collections.abc import Iterator
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from workforecast.cli import cli
from workforecast.errors import (
    MalformedRow, NegativeCount, OverlappingSpells, RankDeficientDesign, RankDeficientFold, TooFewObservations,
)
from workforecast.evaluate import EvalReport, FoldResult, summarize
from workforecast.features import FeatureConfig, FeatureRow
from workforecast.ingest import RECORDS_HEADER, ProgrammeRecord, RegionalSeries, Spell, _parse_date, _parse_number
from workforecast.model import ModelFit, design, fit, predict
from workforecast.perf import aggregate_performance


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


def reintegrated(record: ProgrammeRecord, **options) -> bool:
    """The program's verdict on one record: the rule as `perf.aggregate_performance` applies it."""
    return aggregate_performance([record], **options)[0].n_success == 1


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

def coordinate_descent(x, y, tol: float = 1e-12, max_iter: int = 500_000) -> np.ndarray:
    """Coefficients of y on the columns of x (arrays, or the lists `design` returns)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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


def per_age_population_oracle(series: RegionalSeries, year: int, working_age: tuple[int, int]) -> float:
    """Working-age population computed by spreading each band uniformly over integer ages."""
    lo, hi = working_age
    total = 0.0
    for (band_lo, band_hi), persons in series.population[year].items():
        width = band_hi - band_lo + 1
        for age in range(band_lo, band_hi + 1):
            if lo <= age <= hi:
                total += persons / width
    return total


def per_age_supply_oracle(series: RegionalSeries, year: int, working_age: tuple[int, int]) -> float:
    """Supply proxy over the per-age working-age population."""
    return series.unemployed_6m[year] / per_age_population_oracle(series, year, working_age)


def unbaseline(rebased: dict[int, float], base: float, mode: str) -> dict[int, float]:
    """Invert `report._rebase` of each value against `base`."""
    if mode == "difference":
        return {year: value + base for year, value in rebased.items()}
    return {year: value * base for year, value in rebased.items()}


# ---------------------------------------------------------------------------
# Householder oracle (the row-major solver `model.fit` replaced)
# ---------------------------------------------------------------------------

_FIT_COLUMNS = ("intercept", "demand", "supply")


def _householder_triangularize_oracle(a: np.ndarray, n_cols: int) -> None:
    """Reduce the leading n_cols columns of `a` to upper-triangular form in place."""
    import numpy as np
    m = a.shape[0]
    for j in range(min(n_cols, m)):
        col = a[j:, j]
        norm = float(np.sqrt(np.dot(col, col)))
        if norm == 0.0:
            continue
        v = col.copy()
        # sign keeps v away from cancellation
        v[0] += norm if v[0] >= 0.0 else -norm
        vtv = float(np.dot(v, v))
        if vtv == 0.0:
            continue
        a[j:, j:] -= np.outer(v, (2.0 / vtv) * (v @ a[j:, j:]))


def _back_substitute_oracle(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    import numpy as np
    n = z.shape[0]
    beta = np.zeros(n)
    for i in range(n - 1, -1, -1):
        beta[i] = (z[i] - float(np.dot(r[i, i + 1:], beta[i + 1:]))) / r[i, i]
    return beta


def householder_fit_oracle(x, y) -> ModelFit:
    """Least-squares fit of y on the columns of x, as built by `design` (arrays, or the lists it returns).

    Requires at least 3 observations (one per parameter) and a full-rank
    design. Near-collinear columns are reported by name together with a
    condition estimate taken from the QR diagonal. With a constant target,
    r_squared is reported as 1.0 (the intercept explains it perfectly).
    """
    import numpy as np
    x, y = np.asarray(x, dtype=float).reshape(-1, 3), np.asarray(y, dtype=float)
    n = x.shape[0]
    if n < 3:
        raise TooFewObservations(f"need at least 3 observations to fit 3 parameters, got {n}")

    augmented = np.hstack([x, y[:, None]])
    with np.errstate(over="ignore", invalid="ignore"):
        _householder_triangularize_oracle(augmented, 3)
    if not np.isfinite(augmented).all():
        # Values too large to square in floating point: no column is resolvable.
        raise RankDeficientDesign(
            "design matrix is rank deficient: its QR factorization overflows (condition estimate inf)",
            columns=_FIT_COLUMNS,
            condition_estimate=float("inf"),
        )
    diag = np.abs(np.diag(augmented[:3, :3]))
    tolerance = max(n, 3) * np.finfo(float).eps * float(diag.max())
    collinear = tuple(name for name, d in zip(_FIT_COLUMNS, diag) if d <= tolerance)
    condition = float("inf") if float(diag.min()) == 0.0 else float(diag.max() / diag.min())
    if collinear:
        raise RankDeficientDesign(
            f"design matrix is rank deficient: column(s) {', '.join(collinear)} are "
            f"collinear with the rest (condition estimate {condition:.3g})",
            columns=collinear,
            condition_estimate=condition,
        )
    beta = _back_substitute_oracle(augmented[:3, :3], augmented[:3, 3])

    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    centered = y - y.mean()
    tss = float(centered @ centered)
    r_squared = 1.0 - rss / tss if tss > 0.0 else 1.0
    return ModelFit(
        intercept=float(beta[0]),
        coef_demand=float(beta[1]),
        coef_supply=float(beta[2]),
        n_obs=n,
        rss=rss,
        r_squared=r_squared,
    )


# ---------------------------------------------------------------------------
# array solver reference (`model.fit` on numpy arrays, frozen)
# ---------------------------------------------------------------------------

def _triangularize_arrays_reference(a: np.ndarray) -> None:
    """The numpy branch of `model._householder_triangularize`, as it was: `a` is a C-contiguous (4, n) array."""
    for j in range(3):
        col = a[j][j:]
        norm = math.sqrt(col.dot(col))
        if norm == 0.0:
            continue
        # sign keeps the pivot col[0] ± norm away from cancellation
        pivot = col[0] + (norm if col[0] >= 0.0 else -norm)
        v = col / pivot
        v[0] = 1.0
        rest = a[j + 1:, j:]
        rest -= ((2.0 / v.dot(v)) * (rest @ v))[:, None] * v
        a[j][j] = -norm if col[0] >= 0.0 else norm


def fit_arrays_reference(x: np.ndarray, y: np.ndarray) -> ModelFit:
    """`model.fit` given numpy arrays, as it was; every field and error text should be bit-equal to its."""
    n = len(y)
    if n < 3:
        raise TooFewObservations(f"need at least 3 observations to fit 3 parameters, got {n}")

    work = np.array([*x.T, y], dtype=float)  # [x | y] column-major and C-contiguous: row k is column k
    with np.errstate(over="ignore", invalid="ignore"):
        _triangularize_arrays_reference(work)
        tail, centered = work[3, 3:], y - y.mean()  # tail: the part of Q^T y that the columns do not reach
        rss, tss = float(tail @ tail), float(centered @ centered)
    r = [list(map(float, column[:3])) for column in work]  # R is r[:3] transposed; r[3] is the top of Q^T y
    finite = all(map(math.isfinite, [*r[0], *r[1], *r[2], *r[3], rss]))
    diag = [abs(r[i][i]) if finite else 0.0 for i in range(3)]  # values too large to square: no column is resolvable
    tolerance = max(n, 3) * math.ulp(1.0) * max(diag)
    collinear = tuple(name for name, d in zip(("intercept", "demand", "supply"), diag) if d <= tolerance)
    condition = max(diag) / min(diag) if min(diag) > 0.0 else float("inf")
    if collinear:
        reason = f"column(s) {', '.join(collinear)} are collinear with the rest" if finite else "its QR factorization overflows"
        raise RankDeficientDesign(f"design matrix is rank deficient: {reason} (condition estimate {condition:.3g})",
                                  columns=collinear, condition_estimate=condition)
    beta = [0.0, 0.0, 0.0]  # back substitution
    for i in (2, 1, 0):
        beta[i] = (r[3][i] - sum(r[k][i] * beta[k] for k in range(i + 1, 3))) / r[i][i]
    r_squared = 1.0 - rss / tss if tss > 0.0 else 1.0
    return ModelFit(*beta, n, rss, r_squared)


# ---------------------------------------------------------------------------
# natural-number reference (the regex rule of `ingest._parse_natural`)
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"([+-]?)([0-9]+)")
_MAX_DIGITS = 324


def parse_natural_reference(text: str, column: str, file: str, line: int, count: bool = False,
                            bounded: bool = True) -> int:
    """`ingest._parse_natural` without its plain-digit fast path: every text goes through the regex."""
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


# ---------------------------------------------------------------------------
# leave-one-out oracle (one list-built refit per fold)
# ---------------------------------------------------------------------------

def _refit_folds(
    dataset: list[tuple[FeatureRow, float]], benchmark_mode: str, solver
) -> list[FoldResult]:
    data = sorted(dataset, key=lambda pair: (pair[0].region_id, pair[0].year))

    folds = []
    for i, (row, actual) in enumerate(data):
        train = data[:i] + data[i + 1:]
        try:
            model = solver(*design(train))
        except RankDeficientDesign as err:
            raise RankDeficientFold(
                f"training fold for ({row.region_id}, {row.year}) is rank deficient: {err}",
                region=row.region_id,
                year=row.year,
            ) from err
        pred_model = predict(model, row)
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
    solver=fit,
) -> EvalReport:
    """The report `loocv` (scope "pooled") or `loocv_per_region` ("per-region") should return.

    `solver` fits each training fold; it defaults to `model.fit`.
    """
    if scope == "pooled":
        folds = _refit_folds(dataset, benchmark_mode, solver)
    else:
        folds = []
        for region in sorted({row.region_id for row, _ in dataset}):
            subset = [(row, target) for row, target in dataset if row.region_id == region]
            folds.extend(_refit_folds(subset, benchmark_mode, solver))
    return summarize(folds, config, benchmark_mode, scope)


# ---------------------------------------------------------------------------
# row reader reference (every line through csv.reader)
# ---------------------------------------------------------------------------

def read_rows_reference(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Check the header, then yield (line_number, stripped fields) per data row as it is read.

    Blank lines are skipped. A row with the wrong number of columns raises
    only when reached, after the caller has checked every earlier row.
    """
    name = str(path)
    width = len(header)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise MalformedRow("missing header row", file=name, line=1)
            got = tuple(field.strip() for field in first)
            if got != header:
                raise MalformedRow(f"expected header {','.join(header)}, got {','.join(got)!r}", file=name, line=1)
            for row in reader:
                fields = list(map(str.strip, row))
                if not any(fields):
                    continue  # tolerate blank lines
                if len(fields) != width:
                    raise MalformedRow(f"expected {width} columns, got {len(fields)}", file=name, line=reader.line_num)
                yield reader.line_num, fields  # the line the row ends on, past any quoted line break
        except UnicodeDecodeError as err:
            raise MalformedRow(f"not valid UTF-8 text ({err.reason})", file=name) from None
        except csv.Error as err:  # a field longer than csv.field_size_limit(), named by the line it fails on
            raise MalformedRow(f"not a readable CSV row ({err})", file=name, line=reader.line_num) from None


# ---------------------------------------------------------------------------
# records oracle (whole-file row list, then per-row checks)
# ---------------------------------------------------------------------------

def _read_rows_oracle(path: str | Path, header: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    """Read a CSV file, check its header, and return (line_number, fields) rows, each row's line the one it ends on."""
    name = str(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except UnicodeDecodeError as err:
            raise MalformedRow(f"not valid UTF-8 text ({err.reason})", file=name) from None
    if not rows:
        raise MalformedRow("missing header row", file=name, line=1)
    got = tuple(field.strip() for field in rows[0][1])
    if got != header:
        raise MalformedRow(f"expected header {','.join(header)}, got {','.join(got)!r}", file=name, line=1)
    data = []
    for lineno, row in rows[1:]:
        if not row or all(not field.strip() for field in row):
            continue  # tolerate trailing blank lines
        if len(row) != len(header):
            raise MalformedRow(f"expected {len(header)} columns, got {len(row)}", file=name, line=lineno)
        data.append((lineno, [field.strip() for field in row]))
    return data


def parse_records_oracle(records_file: str | Path) -> list[ProgrammeRecord]:
    """The records `parse_programme_records` should return; with one faulty row, the error it should raise."""
    name = str(records_file)
    people: dict[str, dict] = {}
    for lineno, fields in _read_rows_oracle(records_file, RECORDS_HEADER):
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
        hours = _parse_number(hours_s, "hours_per_week", name, lineno, non_negative=True)
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


# ---------------------------------------------------------------------------
# README quick-start inputs, one flat directory
# ---------------------------------------------------------------------------

QUICKSTART_RECORDS = (
    "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n"
    "P1,R01,2012-03-01,2012-04-01,2012-12-31,20\n"
    "P2,R01,2012-05-01,,,\n"
    "P3,R02,2013-01-15,2013-02-01,2013-05-01,30\n"
    "P3,R02,2013-01-15,2013-05-02,2013-09-01,30\n"
    "P4,R02,2014-06-01,2014-06-01,2015-01-01,10\n"
)

_STATS = (("--employment", "employment.csv"), ("--unemployment", "unemployment.csv"),
          ("--population", "population.csv"))

# Every option of these commands names a file; outputs are the names that start with "out_".
QUICKSTART_OPTIONS = {
    "synth": (("--out", "out_synth"),),
    "validate": (*_STATS, ("--records", "records.csv")),
    "features": (*_STATS, ("--out", "out_features.csv")),
    "performance": (("--records", "records.csv"), ("--out", "out_performance.csv")),
    "fit": (("--features", "features.csv"), ("--performance", "performance.csv"), ("--model", "out_model.json")),
    "evaluate": (("--features", "features.csv"), ("--performance", "performance.csv"), ("--out", "out_report.json")),
    "figures": (*_STATS, ("--features", "features.csv"), ("--performance", "performance.csv"),
                ("--report", "report.json"), ("--out", "out_figs")),
}


def quickstart_args(command: str, root: Path) -> list[str]:
    """`command` and its options, with every file in `root`."""
    return [command, *(arg for option, name in QUICKSTART_OPTIONS[command] for arg in (option, str(root / name)))]


def quickstart_inputs(command: str) -> list[str]:
    return [name for _, name in QUICKSTART_OPTIONS[command] if not name.startswith("out_")]


def write_quickstart(root: Path) -> None:
    """The inputs of every command in QUICKSTART_OPTIONS: `synth --seed 7`, its features and report, records.csv."""

    def run(args: list[str]) -> None:
        result = CliRunner().invoke(cli, args, env={"WF_NO_COLOR": "1"}, catch_exceptions=False)
        assert result.exit_code == 0, result.output

    run(["synth", "--out", str(root), "--seed", "7"])
    run(quickstart_args("features", root))
    (root / "out_features.csv").rename(root / "features.csv")
    run(quickstart_args("evaluate", root))
    (root / "out_report.json").rename(root / "report.json")
    (root / "records.csv").write_text(QUICKSTART_RECORDS, encoding="utf-8")
