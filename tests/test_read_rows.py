"""`ingest._read_rows` against the reader it replaced, and a guard on which lines reach `csv.reader`.

After the header, `_read_rows` splits each plain line (no `"`, no space,
printable, no longer than `csv.field_size_limit()`) on commas; from the
first other line on, one `csv.reader` reads the rest of the file.
`helpers.read_rows_reference` is the reader that passed every line through
`csv.reader` and stripped every field. Both are fed seeded byte mutations of
every CSV kind the pipeline reads and a list of hand cases; they must yield
the same (line, fields) rows and, on error, raise the same class with the
same message and line. The guard spies on the lines each `csv.reader` pulls:
the header alone of a plain file; the header, then the first special row
and every line after it, of a file that has one; and no more than two
readers for a file whose every row needs `csv`.
"""
import csv
import random

import pytest

from workforecast import ingest
from workforecast.errors import MalformedRow
from workforecast.features import FEATURES_HEADER
from workforecast.ingest import (
    EMPLOYMENT_HEADER,
    POPULATION_HEADER,
    RECORDS_HEADER,
    UNEMPLOYMENT_HEADER,
    _read_rows,
)
from workforecast.perf import PERFORMANCE_HEADER

from helpers import read_rows_reference

KINDS = {
    "employment": (EMPLOYMENT_HEADER, ["R01,2011,600000", "R01,2012,612345", "R02,2011,700001"]),
    "unemployment": (UNEMPLOYMENT_HEADER, ["R01,2011,30000", "R01,2012,31000", "R02,2011,29999"]),
    "population": (POPULATION_HEADER, ["R01,2011,0,15,200000", "R01,2011,16,64,900000", "R01,2011,65,90,180000"]),
    "records": (RECORDS_HEADER, ["P1,R1,2015-01-05,2015-01-05,2015-07-31,20", "P1,R1,2015-01-05,2015-08-01,2016-01-31,16.5",
                                 "P2,R1,2015-02-01,,,", "P3,R2,2016-03-01,2014-12-01,2016-09-30,38"]),
    "features": (FEATURES_HEADER, ["R01,2012,0.0123,0.045,1,0,16,64", "R01,2013,-0.002,0.047,1,0,16,64"]),
    "performance": (PERFORMANCE_HEADER, ["R01,2012,7,3,0.428571", "R01,2013,10,5,0.500000"]),
}

# What a mutation inserts or writes over: quotes, separators, padding, every line ending, NUL, a BOM,
# characters that `strip` removes but a space test misses, and bytes that are not UTF-8.
TOKENS = [b'"', b'""', b",", b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\xff",
          b"\xc3", "\xa0".encode(), "\x85".encode(), "\u3000".encode(), "\u2028".encode(), "\ufeff".encode(),
          "\u200b".encode(), "\u00e9".encode(), b"a", b"1", b"-"]
MUTATIONS_PER_KIND = 500


def _outcome(reader, path, header) -> tuple[list, tuple | None]:
    """Every row `reader` yields, then the class, message and line of the `MalformedRow` that ended it, if one did."""
    rows = []
    try:
        for row in reader(path, header):
            rows.append(row)
    except MalformedRow as err:
        return rows, (type(err), str(err), err.context.get("line"))
    return rows, None


def _assert_same(path, data: bytes, header) -> None:
    path.write_bytes(data)
    assert _outcome(_read_rows, path, header) == _outcome(read_rows_reference, path, header), data


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One to four random inserts, overwrites or deletions; sometimes every line ending becomes \\r\\n or \\r."""
    if rng.random() < 0.25:
        data = data.replace(b"\n", rng.choice([b"\r\n", b"\r"]))
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        op = rng.randrange(3)
        if op == 0:
            data = data[:at] + rng.choice(TOKENS) + data[at:]
        elif op == 1:
            data = data[:at] + rng.choice(TOKENS) + data[at + 1:]
        else:
            data = data[:at] + data[at + rng.randint(1, 3):]
    return data


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_files_read_as_the_reference_reads_them(tmp_path, kind):
    header, rows = KINDS[kind]
    clean = "".join(f"{line}\n" for line in [",".join(header), *rows]).encode()
    rng = random.Random(f"read-rows:{kind}")
    path = tmp_path / f"{kind}.csv"
    _assert_same(path, clean, header)
    for _ in range(MUTATIONS_PER_KIND):
        _assert_same(path, _mutate(clean, rng), header)


HAND_CASES = {
    "quoted-comma": 'h,k\n"a,b",c\nd,e\n',
    "quoted-line-break": 'h,k\n"a\nb",c\nd,e\n',
    "quoted-crlf-break": 'h,k\r\n"a\r\nb",c\r\nd,e\r\n',
    "quoted-bare-cr-break": 'h,k\r"a\rb",c\rd,e\r',
    "quoted-header": '"h","k"\na,b\n',
    "header-over-two-lines": '"h\n",k\na,b\n',
    "doubled-quote": 'h,k\n"a""b",c\n',
    "quote-inside-a-field": 'h,k\na"b,c\n',
    "unclosed-quote": 'h,k\na,b\n"c,d\ne,f\n',
    "wrong-width-after-a-break": 'h,k\n"a\nb",c,d\ne,f\n',
    "padded": ' h , k \n a ,b\t\n\xa0c\u3000,d\x0b\n',
    "padded-blank": 'h,k\n , \n\t,\na,b\n',
    "bom": '\ufeffh,k\na,b\n',
    "bom-only": '\ufeff',
    "bom-then-quote": '\ufeff"h",k\na,b\n',
    "inner-bom": 'h,k\n\ufeffa,b\n',
    "blank-first-line": '\nh,k\na,b\n',
    "blank-crlf-first-line": '\r\nh,k\na,b\n',
    "empty": '',
    "header-only": 'h,k\n',
    "blank-lines": 'h,k\n\n,\na,b\n\r\n\r,,\nc,d',
    "no-final-line-ending": 'h,k\na,b',
    "bare-cr": 'h,k\ra,b\rc,d\r',
    "nul": 'h,k\na\x00,b\n',
    "nul-in-header": 'h\x00,k\na,b\n',
    "wrong-width": 'h,k\na,b,c\n',
    "trailing-comma": 'h,k\na,\n',
    "separator-only": 'h,k\n,,\n',
    "empty-fields-at-the-header-width": 'h,k\na,b\n,\nc,d\n',
    "non-ascii": 'h,k\n\u00e9,\u00fc\n',
    "line-separator": 'h,k\na\u2028,b\n',
}


@pytest.mark.parametrize("text", HAND_CASES.values(), ids=HAND_CASES)
def test_hand_cases_read_as_the_reference_reads_them(tmp_path, text):
    _assert_same(tmp_path / "hand.csv", text.encode(), ("h", "k"))


@pytest.fixture
def field_limit():
    """Lower `csv.field_size_limit()` to 8 for one test."""
    old = csv.field_size_limit(8)
    yield 8
    csv.field_size_limit(old)


@pytest.mark.parametrize("rows, header", [
    (["12345678"], ("h",)),                # a plain line at the limit
    (["123456789"], ("h",)),               # one field past it
    (["1234,5678"], ("h", "k")),           # a line past it, each field within it
    (["1234,56789"], ("h", "k")),
    (["a,b", "12345678", "c,d"], ("h", "k")),
    (['"1234567"', '"12345678"', '"123456789"'], ("h",)),
    (["12345678 "], ("h",)),
    (["1234567,12345678"], ("h", "k")),
    (['"123', '4567"', "a"], ("h",)),      # a quoted line break, the field at the limit
    (["a", '"1234', '5678"'], ("h",)),     # past it on the record's second line
], ids=["at", "past", "line-past", "line-and-field-past", "wrong-width-at", "quoted", "padded", "two-fields-at",
        "broken-at", "broken-past"])
def test_lines_at_and_past_a_lowered_field_limit_read_as_the_reference_reads_them(tmp_path, field_limit, rows, header):
    assert csv.field_size_limit() == field_limit
    _assert_same(tmp_path / "limit.csv", "".join(f"{line}\n" for line in [",".join(header), *rows]).encode(), header)


@pytest.fixture
def csv_lines(monkeypatch):
    """The lines that each `csv.reader` made by `ingest` pulls from its input, one list per reader."""
    seen = []
    reader = ingest.csv.reader

    def spy(lines, *args, **kwargs):
        pulled = []
        seen.append(pulled)

        def pull():
            for line in lines:
                pulled.append(line)
                yield line
        return reader(pull(), *args, **kwargs)

    monkeypatch.setattr(ingest.csv, "reader", spy)
    return seen


def _records_file(tmp_path, *special: str, ending: str = "\n"):
    header, rows = KINDS["records"]
    path = tmp_path / "records.csv"
    path.write_bytes("".join(f"{line}{ending}" for line in [",".join(header), rows[0], *special, rows[2]]).encode())
    return path


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_no_data_line_of_a_plain_file_reaches_csv_reader(tmp_path, csv_lines, ending):
    rows = list(_read_rows(_records_file(tmp_path, ending=ending), RECORDS_HEADER))
    assert [line for line, _ in rows] == [2, 3]
    assert csv_lines == [[",".join(RECORDS_HEADER) + ending]]  # the header's reader reads the header alone


LONG = "x" * 70_000  # two such fields make a line past the default limit of 131,072 characters
SPECIAL_ROWS = {
    "quoted": ['P9,"R1",2015-01-05,,,\n'],
    "quoted-line-break": ['"P\n', '9",R1,2015-01-05,,,\n'],
    "padded": ['P9, R1,2015-01-05,,,\n'],
    "tab": ['P9,R1\t,2015-01-05,,,\n'],
    "nul": ['P\x009,R1,2015-01-05,,,\n'],
    "over-limit": [f"{LONG},{LONG},2015-01-05,,,\n"],
}


@pytest.mark.parametrize("lines", SPECIAL_ROWS.values(), ids=SPECIAL_ROWS)
def test_csv_reader_reads_from_the_first_row_it_would_read_differently_to_the_end(tmp_path, csv_lines, lines):
    path = _records_file(tmp_path, "".join(lines).rstrip("\n"))
    rows = list(_read_rows(path, RECORDS_HEADER))
    assert [line for line, _ in rows] == [2, 2 + len(lines), 3 + len(lines)]
    assert csv_lines == [[",".join(RECORDS_HEADER) + "\n"], [*lines, KINDS["records"][1][2] + "\n"]]
    assert rows == list(read_rows_reference(path, RECORDS_HEADER))


def test_a_file_of_rows_that_all_need_csv_is_read_by_one_reader_after_the_header(tmp_path, csv_lines):
    """Region names with a space, or quoted strings as R's `write.csv` writes them, cost one reader, not one per row."""
    header, rows = KINDS["records"]
    lines = [",".join(header)] + [line.replace(",R", ",R ") for line in rows] + [f'"{line}"'.replace(",", '","')
                                                                                 for line in rows]
    path = tmp_path / "records.csv"
    path.write_text("".join(f"{line}\n" for line in lines))
    rows = list(_read_rows(path, header))
    assert len(csv_lines) == 2 and csv_lines[1] == [f"{line}\n" for line in lines[1:]]
    assert rows == list(read_rows_reference(path, header))
