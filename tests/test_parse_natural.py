"""`ingest._parse_natural` against the regex rule it short-cuts.

A text of at most 15 ASCII digits is read by `int()` at once; every other text
takes the regex rule, kept as `helpers.parse_natural_reference`. For every text
below, under every combination of options, both must return the same value or
raise the same exception class with the same message and context.
"""
from itertools import product

import pytest

import workforecast.ingest as ingest_mod
from workforecast.errors import DataError
from workforecast.ingest import _parse_natural

from helpers import parse_natural_reference

ALPHABET = "09+- _٢x"  # digits, signs, a space, an underscore, a non-ASCII digit, a letter
SHORT_TEXTS = [""] + ["".join(chars) for size in (1, 2, 3) for chars in product(ALPHABET, repeat=size)]
BOUNDARY_TEXTS = [
    "9" * 15, "1" + "0" * 14, "9" * 16, "1" + "0" * 15,  # the fast path's last length, and the first past it
    str(2**53), str(2**53 + 1), "+" + str(2**53 + 1), "-" + str(2**53),
    "9" * 324, "1" + "0" * 324, "-" + "9" * 324, "0" * 325,  # the digit limit, and one past it
    "000", "0" * 15, "0" * 16, "007", "0" * 14 + "7", "0" * 20 + "7", "-0", "-000", "+0", "-007",
]
OPTIONS = [  # (column, count, bounded): a year, an age, a bounded and an unbounded head-count
    ("year", False, True), ("age_lo", False, True), ("persons", True, True), ("n_entrants", True, False),
]


def _outcome(parse, text: str, column: str, count: bool, bounded: bool):
    try:
        value = parse(text, column, "f.csv", 7, count=count, bounded=bounded)
    except DataError as err:
        return type(err), str(err), err.context
    return type(value), value


def test_every_short_text_matches_the_regex_rule():
    assert len(SHORT_TEXTS) == 1 + 8 + 8**2 + 8**3
    for text, options in product(SHORT_TEXTS, OPTIONS):
        expected = _outcome(parse_natural_reference, text, *options)
        assert _outcome(_parse_natural, text, *options) == expected, (text, options)


@pytest.mark.parametrize("text", BOUNDARY_TEXTS, ids=lambda text: f"{text[:18]}...{len(text)}")
@pytest.mark.parametrize("options", OPTIONS, ids=lambda options: options[0])
def test_boundary_texts_match_the_regex_rule(text, options):
    assert _outcome(_parse_natural, text, *options) == _outcome(parse_natural_reference, text, *options)


def test_the_fast_path_covers_fifteen_digits_and_no_more(monkeypatch):
    """Up to 15 ASCII digits never reach the regex; 16 digits, a sign or a non-ASCII digit do."""
    seen = []
    regex = ingest_mod._INT_RE

    class Spy:
        def fullmatch(self, text):
            seen.append(text)
            return regex.fullmatch(text)

    monkeypatch.setattr(ingest_mod, "_INT_RE", Spy())
    for text in ("0", "2015", "9" * 15, "9" * 16, "+1", "٢", "1٢"):
        try:
            _parse_natural(text, "year", "f.csv", 2)
        except DataError:
            pass
    assert seen == ["9" * 16, "+1", "٢", "1٢"]
