"""Deterministic guards for the speed and memory of `parse_programme_records`, and for the collector policy
of the commands that run it.

The parse keeps caches local to the call, so each distinct date or hours
string is converted once and each region id is stored once. It leaves the
cyclic garbage collector as it finds it; the CLI runs each command, this parse
included, with the collector paused, since its collections would rescan the
large, acyclic heap the command builds and free nothing. However a command
ends, it freezes what it leaves alive (`gc.freeze()`) before it restores the
caller's collector state, so the first collections after it do not walk that
heap either. The parse builds each spell once, as the `Spell` its record keeps, and
holds no line number per spell, so it never holds the whole file twice nor a
second copy of any spell. Each spell is compared with the one before it in its
run of rows, so a person whose spells come in one ascending run is never
sorted. All of this is checked here by what it does, not by timing, on seeded
files of a few thousand rows. `conftest.py` unfreezes after every test, so no
test's `gc.collect()` misses what an earlier command froze.
"""
import csv
import gc
import tracemalloc
from collections import Counter
from operator import itemgetter

import numpy as np
import pytest

from workforecast import ingest
from workforecast.cli import cli
from workforecast.errors import MalformedRow, OverlappingSpells
from workforecast.ingest import RECORDS_HEADER, parse_programme_records

from helpers import QUICKSTART_OPTIONS, quickstart_args, random_programme_record

PEOPLE = 2_000
MORE_PEOPLE = 5_000  # enough spells that what is held per spell outweighs the fixed costs


def _write_records(path, people):
    rng = np.random.default_rng(8)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDS_HEADER)
        for k in range(people):
            record = random_programme_record(rng, person_id=f"P{k:05d}", region_id=f"R{k % 7}")
            entry = record.entry_date.isoformat()
            if not record.spells:
                writer.writerow([record.person_id, record.region_id, entry, "", "", ""])
            for spell in record.spells:
                writer.writerow([record.person_id, record.region_id, entry, spell.start_date.isoformat(),
                                 spell.end_date.isoformat(), spell.hours_per_week])
    return path


@pytest.fixture(scope="module")
def records_csv(tmp_path_factory):
    return _write_records(tmp_path_factory.mktemp("records") / "records.csv", PEOPLE)


@pytest.fixture(scope="module")
def more_records_csv(tmp_path_factory):
    return _write_records(tmp_path_factory.mktemp("records") / "records.csv", MORE_PEOPLE)


def _traced_parse(path):
    """Parse `path` under tracemalloc: the records, the bytes still held after the parse, and the peak."""
    gc.collect()
    tracemalloc.start()
    try:
        records = parse_programme_records(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return records, retained, peak


@pytest.fixture
def gc_state():
    """Put the collector back as the test found it, whatever the test set."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _bad_file(tmp_path, error):
    rows = {
        "ok": ["P1,R1,2015-03-01,2015-03-01,2015-05-31,20"],
        MalformedRow: ["P1,R1,2015-03-01,2015-03-01,2015-05-31,20", "P2,R1,2015-13-01,,,"],
        OverlappingSpells: ["P1,R1,2015-03-01,2015-03-01,2015-05-31,20", "P1,R1,2015-03-01,2015-05-31,2015-06-30,20"],
    }[error]
    path = tmp_path / "records.csv"
    path.write_text("\n".join([",".join(RECORDS_HEADER), *rows]) + "\n", encoding="utf-8")
    return path


def _run(*args):
    """Run one CLI command in this process, as the `workforecast` executable would, minus the process exit."""
    cli.main([str(arg) for arg in args], standalone_mode=False)


def _commands(records_csv, quickstart, tmp_path):
    """`performance` on the seeded records file, then every quick-start command."""
    yield ["performance", "--records", records_csv, "--out", tmp_path / "performance.csv"]
    for command in QUICKSTART_OPTIONS:
        yield quickstart_args(command, quickstart)


def test_no_collection_runs_during_a_command(records_csv, quickstart, tmp_path, gc_state):
    phases = []

    def record_phase(phase, info):
        phases.append(phase)

    gc.enable()
    gc.callbacks.append(record_phase)
    try:
        for args in _commands(records_csv, quickstart, tmp_path):
            gc.collect()  # start from empty generation counts, so no collection is due at the call
            phases.clear()
            _run(*args)
            assert "start" not in phases, args[0]
        gc.collect()  # positive control: the callback does see a collection
    finally:
        gc.callbacks.remove(record_phase)
    assert "start" in phases


def _performance_keeping_records(records_csv, tmp_path, monkeypatch):
    """Run `performance` with the collector on: the records its parse returned, kept alive, and the collections run."""
    kept = []
    parse = ingest.parse_programme_records
    monkeypatch.setattr(ingest, "parse_programme_records", lambda path: kept.append(parse(path)) or kept[-1])
    gc.enable()
    gc.collect()
    before = sum(stats["collections"] for stats in gc.get_stats())
    _run("performance", "--records", records_csv, "--out", tmp_path / "performance.csv")
    collections = sum(stats["collections"] for stats in gc.get_stats()) - before
    [records] = kept
    assert len(records) == PEOPLE
    return records, collections


def test_a_successful_parse_freezes_its_records(records_csv, tmp_path, monkeypatch, gc_state):
    """The parse itself freezes nothing; the command that ran it freezes its records before it returns."""
    before = gc.get_freeze_count()
    records, _ = _performance_keeping_records(records_csv, tmp_path, monkeypatch)
    assert gc.get_freeze_count() - before >= len(records)
    collected = {id(obj) for obj in gc.get_objects()}  # generations 0-2: frozen objects are not among them
    assert id(records) not in collected
    assert not any(id(record) in collected for record in records)


def test_the_parse_leaves_generation_0_nearly_empty(records_csv, tmp_path, monkeypatch, gc_state):
    """Unfrozen, every object the paused command left alive would sit in generation 0 for the next collection."""
    records, collections = _performance_keeping_records(records_csv, tmp_path, monkeypatch)
    young = gc.get_count()[0]
    assert young < gc.get_threshold()[0] < len(records)
    assert collections == 0  # nor did one run over it as the command re-enabled the collector


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("error", ["ok", MalformedRow, OverlappingSpells], ids=["ok", "malformed", "overlap"])
def test_the_callers_gc_state_is_restored(tmp_path, gc_state, enabled, error):
    """The parse leaves the collector alone: a library call neither pauses it nor freezes anything."""
    path = _bad_file(tmp_path, error)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    before = gc.get_freeze_count()
    if error == "ok":
        assert len(parse_programme_records(path)) == 1
    else:
        with pytest.raises(error):
            parse_programme_records(path)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("error", ["ok", MalformedRow, OverlappingSpells], ids=["ok", "malformed", "overlap"])
def test_a_command_restores_the_callers_gc_state(tmp_path, gc_state, enabled, error):
    path = _bad_file(tmp_path, error)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    args = ("performance", "--records", path, "--out", tmp_path / "performance.csv")
    before = gc.get_freeze_count()
    if error == "ok":
        _run(*args)
    else:
        with pytest.raises(SystemExit) as exit_info:
            _run(*args)
        assert exit_info.value.code == 1
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() > before  # however the command ends, it freezes before it restores


def test_each_distinct_string_is_parsed_once(records_csv, monkeypatch):
    expected = parse_programme_records(records_csv)
    date_calls, hours_calls = Counter(), Counter()
    parse_date, parse_number = ingest._parse_date, ingest._parse_number

    def counting_date(text, column, file, line):
        date_calls[text] += 1
        return parse_date(text, column, file, line)

    def counting_hours(text, column, file, line, **kwargs):
        hours_calls[text] += 1
        return parse_number(text, column, file, line, **kwargs)

    monkeypatch.setattr(ingest, "_parse_date", counting_date)
    monkeypatch.setattr(ingest, "_parse_number", counting_hours)
    assert parse_programme_records(records_csv) == expected

    with open(records_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    date_fields = [field for row in rows for field in row[2:5] if field]
    assert len(rows) > 4_000 and len(set(date_fields)) < len(date_fields) / 2
    assert set(date_calls) == set(date_fields)
    assert set(hours_calls) == {row[5] for row in rows if row[5]}
    assert set(date_calls.values()) == {1}
    assert set(hours_calls.values()) == {1}


def test_a_second_call_parses_again(records_csv, monkeypatch):
    """The caches live for one call; nothing is kept between calls."""
    calls = Counter()
    parse_number = ingest._parse_number

    def counting_hours(text, column, file, line, **kwargs):
        calls[text] += 1
        return parse_number(text, column, file, line, **kwargs)

    monkeypatch.setattr(ingest, "_parse_number", counting_hours)
    parse_programme_records(records_csv)
    parse_programme_records(records_csv)
    assert set(calls.values()) == {2}


def test_the_parse_never_holds_the_file_twice(records_csv):
    records, retained, peak = _traced_parse(records_csv)
    assert len(records) == PEOPLE
    assert peak / retained <= 1.6  # 1.41 with the hand-over; 1.74 when all spell tuples outlive the parse


def test_the_parse_holds_each_spell_once(more_records_csv):
    """1.23 when each row's `Spell` is the one its record keeps; 1.45 when every row is first held as a
    (start, end, hours, line) tuple and rebuilt after the last row (1.13 against 1.49 at 20,000 people)."""
    records, retained, peak = _traced_parse(more_records_csv)
    assert len(records) == MORE_PEOPLE
    assert peak / retained <= 1.3


def test_the_records_retain_few_bytes_per_person(more_records_csv):
    """364.9 B per person with `ProgrammeRecord` a slots dataclass; 380.9 B were it a `NamedTuple`, whose
    tuple header and per-field properties cost 16 B more per record (Python 3.11). The bound guards the
    `performance` command's peak memory, which holds every record at once."""
    records, retained, _ = _traced_parse(more_records_csv)
    assert len(records) == MORE_PEOPLE
    assert retained / len(records) <= 372


def test_records_of_one_region_share_one_region_string(records_csv):
    records = parse_programme_records(records_csv)
    assert len({record.region_id for record in records}) == 7
    assert len({id(record.region_id) for record in records}) == 7


def _counting_sort_key(monkeypatch):
    """Make the parse's `itemgetter` sort key record each spell it is called on; return that list."""
    keyed = []

    def sort_key(*items):
        key = itemgetter(*items)

        def counted(spell):
            keyed.append(spell)
            return key(spell)

        return counted

    monkeypatch.setattr(ingest, "itemgetter", sort_key)
    return keyed


def test_people_with_one_ascending_run_are_never_sorted(records_csv, monkeypatch):
    keyed = _counting_sort_key(monkeypatch)
    records = parse_programme_records(records_csv)
    assert len(records) == PEOPLE
    assert sum(len(record.spells) > 1 for record in records) > PEOPLE / 3
    assert keyed == []


def test_only_people_out_of_order_touching_or_in_two_runs_are_sorted(tmp_path, monkeypatch):
    rows = [  # each person's hours tell their spells apart
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,11",  # ascending, one run: never sorted
        "P1,R1,2015-03-01,2015-06-01,2015-06-30,11",
        "P2,R1,2015-03-01,2015-06-01,2015-06-30,22",  # out of order
        "P2,R1,2015-03-01,2015-03-01,2015-05-31,22",
        "P3,R1,2015-03-01,2015-03-01,2015-05-31,33",  # in two runs, ascending
        "P4,R1,2015-03-01,2015-03-01,2015-05-31,44",  # touching: end and start share a day, an overlap
        "P4,R1,2015-03-01,2015-05-31,2015-06-30,44",
        "P3,R1,2015-03-01,2015-06-01,2015-06-30,33",
    ]
    path = tmp_path / "records.csv"
    path.write_text("\n".join([",".join(RECORDS_HEADER), *rows]) + "\n", encoding="utf-8")
    keyed = _counting_sort_key(monkeypatch)
    with pytest.raises(OverlappingSpells, match="person 'P4'"):
        parse_programme_records(path)
    assert sorted(spell.hours_per_week for spell in keyed) == [22.0, 22.0, 33.0, 33.0, 44.0, 44.0]


def test_a_shuffled_file_parses_as_its_grouped_copy(more_records_csv, tmp_path):
    """The parse is fastest when each person's rows come together; any other order gives the same records."""
    with open(more_records_csv, encoding="utf-8", newline="") as fh:
        header, *rows = fh.readlines()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[i] for i in np.random.default_rng(9).permutation(len(rows))),
                        encoding="utf-8")
    grouped = parse_programme_records(more_records_csv)
    assert len(grouped) == MORE_PEOPLE
    assert parse_programme_records(shuffled) == grouped
