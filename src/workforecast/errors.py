"""Exception hierarchy for data validation and numerical failures.

Row-level errors carry the source file name and the 1-based line number of
the offending row as attributes; the message is prefixed with them as
``file:line: `` (``file: `` without a line; the name as `shown`).
"""
from __future__ import annotations


def shown(name: object) -> str:
    """`name` as text, written as a string literal unless printable, so that quoting it cannot split a line."""
    text = str(name)
    return text if text.isprintable() else repr(text)


class DataError(Exception):
    """Base class for all pipeline errors; keyword context lands as attributes."""

    def __init__(self, message: str, **context: object) -> None:
        if "file" in context:
            file = shown(context["file"])
            where = file if context.get("line") is None else f"{file}:{context['line']}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.context = dict(context)
        vars(self).update(context)


# --- ingestion ---------------------------------------------------------------

class MalformedRow(DataError):
    """A row that cannot be parsed under the declared CSV schema."""


class NegativeCount(DataError):
    """A head-count column holds a negative value."""


class GapInYears(DataError):
    """A region's common year coverage is not consecutive."""


class OverlappingAgeBands(DataError):
    """Two population age bands for the same region and year share an age."""


class OverlappingSpells(DataError):
    """Two employment spells for the same person share a calendar day."""


class EmptyIntersection(DataError):
    """No year is covered by all three statistical files for a region."""


# --- features ----------------------------------------------------------------

class ZeroWorkingAgePopulation(DataError):
    pass


class SupplyExceedsOne(DataError):
    """Unemployed count exceeds the working-age population: inconsistent inputs."""


# --- model -------------------------------------------------------------------

class TooFewObservations(DataError):
    pass


class RankDeficientDesign(DataError):
    """Design matrix columns are (near-)collinear; no unique least-squares fit."""


class FeatureConfigMismatch(DataError):
    """A row or file was produced under a different feature configuration."""


# --- evaluation --------------------------------------------------------------

class RankDeficientFold(DataError):
    """A cross-validation training fold has a rank-deficient design."""


# --- reporting / synthesis ---------------------------------------------------

class MissingBaselineYear(DataError):
    pass


class ZeroBaseline(DataError):
    """Ratio baselining against a zero baseline value, or one so near zero that a rebased value overflows."""


class InvalidConfig(DataError):
    pass


class MalformedJson(DataError):
    """A JSON file that cannot be read back as the pipeline output it should be."""
