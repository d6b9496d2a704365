"""The one-pass `parse_programme_records` against the two-pass parser it replaced.

Valid files must give equal records. A file with one faulty byte must give
the same records or the same error type and message. The one declared
difference: the oracle checks every row's column count before any row's
fields, while the one-pass parser reports the first faulty row in file order.
"""
import csv
import io
import os
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from workforecast import ingest
from workforecast.errors import DataError, MalformedRow, OverlappingSpells
from workforecast.ingest import RECORDS_HEADER, ProgrammeRecord, Spell, parse_programme_records

from helpers import parse_records_oracle, random_programme_record

# Every byte but the three that can change the row structure of the file.
NOT_STRUCTURAL = bytes(b for b in range(256) if b not in b'\n\r"')
LIKELY = b"0123456789-,. Px"


def _records_csv(rng: np.random.Generator) -> bytes:
    """A valid records.csv of 1-8 people, rows shuffled, blank lines trailing."""
    rows = []
    for k in range(int(rng.integers(1, 9))):
        record = random_programme_record(rng, person_id=f"P{k}", region_id=f"R{int(rng.integers(1, 4))}")
        entry = record.entry_date.isoformat()
        if not record.spells:
            rows.append([record.person_id, record.region_id, entry, "", "", ""])
        for spell in record.spells:
            rows.append([record.person_id, record.region_id, entry, spell.start_date.isoformat(),
                         spell.end_date.isoformat(), spell.hours_per_week])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORDS_HEADER)
    writer.writerows(rows[i] for i in rng.permutation(len(rows)))
    out.write("\n" * int(rng.integers(0, 3)))
    return out.getvalue().encode()


def _outcome(parse, path):
    try:
        return parse(path)
    except Exception as err:  # noqa: BLE001 - the error itself is the result under test
        return type(err), str(err)


@pytest.mark.parametrize("seed", range(30))
def test_valid_files_give_the_oracle_records(tmp_path, seed):
    path = tmp_path / "records.csv"
    path.write_bytes(_records_csv(np.random.default_rng(seed)))
    assert parse_programme_records(path) == parse_records_oracle(path)


@pytest.mark.parametrize("seed", range(20))
def test_one_substituted_byte_gives_the_oracle_outcome(tmp_path, seed):
    """15 mutations per seed, 300 in all, each a single non-structural byte, one in ten in the header."""
    rng = np.random.default_rng([seed, 0xB17E])
    text = _records_csv(rng)
    path = tmp_path / "records.csv"
    for _ in range(15):
        mutated = bytearray(text)
        first = 0 if rng.random() < 0.1 else text.index(b"\n") + 1
        at = int(rng.integers(first, len(mutated)))
        while mutated[at] in b"\n\r":
            at = int(rng.integers(first, len(mutated)))
        pool = LIKELY if rng.random() < 0.7 else NOT_STRUCTURAL
        mutated[at] = pool[int(rng.integers(0, len(pool)))]
        path.write_bytes(bytes(mutated))
        assert _outcome(parse_programme_records, path) == _outcome(parse_records_oracle, path), bytes(mutated)


def test_first_faulty_row_in_file_order_is_reported(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n"
        "P1,R1,2015-01-01,2015-01-01,2015-12-31,20\n"
        "P2,R1,2015-13-01,,,\n"
        "P3,R1,2015-01-01,,,\n"
        "P4,R1,2015-01-01,,\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRow, match=r"records\.csv:3: column 'entry_date'") as excinfo:
        parse_programme_records(path)
    assert excinfo.value.line == 3
    with pytest.raises(MalformedRow, match=r"records\.csv:5: expected 6 columns, got 5"):
        parse_records_oracle(path)


def test_records_and_spells_have_no_instance_dict():
    spell = Spell(date(2015, 1, 1), date(2015, 6, 30), 20.0)
    record = ProgrammeRecord("P1", "R1", date(2015, 1, 1), (spell,))
    assert not hasattr(spell, "__dict__") and not hasattr(record, "__dict__")


# Files whose only fault is an overlap, with the line it is reported on: the parse keeps no
# line per spell and finds the later spell's row by reading the file again.
OVERLAPS = {
    "identical-rows": (3, [
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
    ]),
    "equal-dates-higher-hours-first": (3, [
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,30",
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
    ]),
    "out-of-date-order": (3, [  # sorted: 01-01, 02-28, 08-01; the later of the overlapping pair is the earlier row
        "P1,R1,2015-03-01,2015-08-01,2015-12-31,20",
        "P1,R1,2015-03-01,2015-02-28,2015-04-30,20",
        "P1,R1,2015-03-01,2015-01-01,2015-02-28,20",
    ]),
    "interleaved-with-other-people": (7, [
        "P2,R2,2015-01-01,2015-01-01,2015-06-30,20",
        "P1,R1,2015-03-01,,,",
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
        "P2,R2,2015-01-01,2015-07-01,2015-12-31,20",
        "",
        "P1,R1,2015-03-01,2015-06-30,2015-07-31,20",
        "P3,R1,2015-03-01,2015-06-30,2015-07-31,20",
        "P1,R1,2015-03-01,2015-06-01,2015-06-30,20",
    ]),
    "after-a-multi-line-field": (5, [  # the quoted line break makes lines 2-3 one row
        '"P0\nx",R1,2015-03-01,,,',
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
    ]),
}


def _rows_file(tmp_path, rows):
    path = tmp_path / "records.csv"
    path.write_text("\n".join([",".join(RECORDS_HEADER), *rows]) + "\n", encoding="utf-8")
    return path


def _raised(parse, path):
    with pytest.raises(DataError) as excinfo:
        parse(path)
    return type(excinfo.value), str(excinfo.value), excinfo.value.line


# Valid files in which one person's rows come in more than one run, other people's rows between them.
SPLIT_RUNS = {
    "ascending": [
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
        "P2,R2,2015-01-01,2015-01-01,2015-06-30,20",
        "P1,R1,2015-03-01,2015-06-01,2015-06-30,16",
    ],
    "later-run-starts-earlier": [
        "P1,R1,2015-03-01,2015-06-01,2015-06-30,16",
        "P1,R1,2015-03-01,2015-07-01,2015-12-31,30",
        "P2,R2,2015-01-01,,,",
        "",
        "P1,R1,2015-03-01,2015-01-01,2015-05-31,20",
    ],
    "spell-less-run-first": [
        "P1,R1,2015-03-01,,,",
        "P2,R2,2015-01-01,2015-01-01,2015-06-30,20",
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
        "P1,R1,2015-03-01,2015-06-01,2015-06-30,16",
    ],
    "three-runs": [
        "P1,R1,2015-03-01,2015-09-01,2015-09-30,20",
        "P2,R2,2015-01-01,2015-01-01,2015-06-30,20",
        "P1,R1,2015-03-01,2015-03-01,2015-05-31,20",
        "P3,R1,2015-01-01,2015-01-01,2015-06-30,20",
        "P1,R1,2015-03-01,2015-06-01,2015-06-30,16",
        "P1,R1,2015-03-01,2015-07-01,2015-08-31,8",
    ],
}


@pytest.mark.parametrize("rows", SPLIT_RUNS.values(), ids=SPLIT_RUNS.keys())
def test_a_person_split_over_runs_gives_the_oracle_record(tmp_path, rows):
    path = _rows_file(tmp_path, rows)
    records = parse_programme_records(path)
    assert records == parse_records_oracle(path)
    assert all(type(record.spells) is tuple for record in records)
    assert len(records[0].spells) >= 2


@pytest.mark.parametrize("line, rows", OVERLAPS.values(), ids=OVERLAPS.keys())
def test_an_overlap_names_the_oracles_line(tmp_path, line, rows):
    path = _rows_file(tmp_path, rows)
    raised = _raised(parse_programme_records, path)
    assert (raised[0], raised[2]) == (OverlappingSpells, line)
    assert raised == _raised(parse_records_oracle, path)


@pytest.mark.parametrize("second_read", [[], ["P1,R1,2015-03-01,2015-03-01,2015-05-31,20"], ["P1,R1"]],
                         ids=["person-gone", "row-gone", "malformed"])
def test_a_file_changed_before_the_second_read_still_gives_one_error(tmp_path, monkeypatch, second_read):
    path = _rows_file(tmp_path, OVERLAPS["identical-rows"][1])
    (tmp_path / "changed").mkdir()
    changed = _rows_file(tmp_path / "changed", second_read)
    read_rows = ingest._read_rows
    paths = []

    def reads(records_file, header):
        paths.append(records_file)
        return read_rows(records_file if len(paths) == 1 else changed, header)

    monkeypatch.setattr(ingest, "_read_rows", reads)
    kind, message, line = _raised(parse_programme_records, path)
    assert paths == [path, path]
    if second_read == ["P1,R1"]:
        assert (kind, line) == (MalformedRow, 2)
    else:
        assert (kind, message, line) == (OverlappingSpells, f"{path}: person 'P1' has overlapping spells "
                                         "(2015-03-01..2015-05-31 and 2015-03-01..2015-05-31)", None)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd to name a pipe")
def test_an_overlap_in_a_pipe_is_reported_without_a_line(tmp_path):
    """A pipe cannot be read a second time, so the overlap is named without its line, never as an empty file."""
    text = "\n".join([",".join(RECORDS_HEADER), *OVERLAPS["identical-rows"][1]]) + "\n"
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        with pytest.raises(OverlappingSpells) as excinfo:
            parse_programme_records(path)
    finally:
        os.close(read_end)
    assert excinfo.value.line is None
    assert str(excinfo.value) == (f"{path}: person 'P1' has overlapping spells "
                                  "(2015-03-01..2015-05-31 and 2015-03-01..2015-05-31)")
