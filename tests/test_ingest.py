import random
from textwrap import dedent

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from workforecast.errors import (
    EmptyIntersection,
    GapInYears,
    MalformedRow,
    NegativeCount,
    OverlappingAgeBands,
    OverlappingSpells,
)
from workforecast.features import FeatureConfig, build_features, read_features_csv, write_features_csv
from workforecast.ingest import (
    _parse_natural,
    _parse_number,
    parse_programme_records,
    parse_regional_series,
    write_regional_series,
)
from workforecast.perf import read_performance_csv, write_performance_csv
from workforecast.synth import SynthConfig, generate

from helpers import random_regional_series


def _write(path, text):
    path.write_text(dedent(text).lstrip("\n"), encoding="utf-8")
    return path


def _stat_files(tmp_path, employment, unemployment, population):
    return (
        _write(tmp_path / "employment.csv", employment),
        _write(tmp_path / "unemployment.csv", unemployment),
        _write(tmp_path / "population.csv", population),
    )


def _full_period_files(tmp_path, years=range(2000, 2021), region="R1"):
    employment = "region,year,employed\n" + "".join(f"{region},{y},{100000 + 100 * y}\n" for y in years)
    unemployment = "region,year,unemployed_6m\n" + "".join(f"{region},{y},{5000 + y}\n" for y in years)
    population = "region,year,age_lo,age_hi,persons\n" + "".join(
        f"{region},{y},0,15,20000\n{region},{y},16,64,90000\n{region},{y},65,90,18000\n" for y in years
    )
    return _stat_files(tmp_path, employment, unemployment, population)


class TestParseRegionalSeries:
    def test_well_formed_full_period(self, tmp_path):
        series = parse_regional_series(*_full_period_files(tmp_path))
        assert set(series) == {"R1"}
        assert series["R1"].years == tuple(range(2000, 2021))
        assert len(series["R1"].years) == 21
        assert series["R1"].employment[2005] == 100000 + 100 * 2005
        assert series["R1"].population[2010][(16, 64)] == 90000

    def test_years_restricted_to_intersection(self, tmp_path):
        employment = "region,year,employed\n" + "".join(f"R1,{y},100000\n" for y in range(2000, 2021))
        unemployment = "region,year,unemployed_6m\n" + "".join(f"R1,{y},5000\n" for y in range(2000, 2021))
        population = "region,year,age_lo,age_hi,persons\n" + "".join(
            f"R1,{y},16,64,90000\n" for y in range(2011, 2021)
        )
        series = parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert series["R1"].years == tuple(range(2011, 2021))
        assert set(series["R1"].employment) == set(range(2011, 2021))

    def test_negative_count_names_the_row(self, tmp_path):
        employment = """
        region,year,employed
        R1,2000,100
        R1,2001,-5
        """
        unemployment = "region,year,unemployed_6m\nR1,2000,5\nR1,2001,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,2000,16,64,90\nR1,2001,16,64,90\n"
        files = _stat_files(tmp_path, employment, unemployment, population)
        with pytest.raises(NegativeCount) as excinfo:
            parse_regional_series(*files)
        assert excinfo.value.file.endswith("employment.csv")
        assert excinfo.value.line == 3
        assert "-5" in str(excinfo.value)

    def test_gap_in_common_years(self, tmp_path):
        years = [2010, 2011, 2012, 2014, 2015]  # no 2013
        employment = "region,year,employed\n" + "".join(f"R1,{y},100\n" for y in years)
        unemployment = "region,year,unemployed_6m\n" + "".join(f"R1,{y},5\n" for y in range(2010, 2016))
        population = "region,year,age_lo,age_hi,persons\n" + "".join(
            f"R1,{y},16,64,90\n" for y in range(2010, 2016)
        )
        with pytest.raises(GapInYears) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.region == "R1"
        assert excinfo.value.year == 2013

    def test_empty_intersection(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,1990,16,64,90\n"
        with pytest.raises(EmptyIntersection) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.region == "R1"

    def test_fractional_count_rejected(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100.5\nR1,2001,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\nR1,2001,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,2000,16,64,90\nR1,2001,16,64,90\n"
        with pytest.raises(MalformedRow) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.line == 2

    def test_duplicate_cell_rejected(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100\nR1,2000,101\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,2000,16,64,90\n"
        with pytest.raises(MalformedRow, match="duplicate"):
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))

    @pytest.mark.parametrize("file, column, row", [
        ("employment.csv", "year", "R1,{},100"),
        ("employment.csv", "employed", "R1,2001,{}"),
        ("population.csv", "age_lo", "R1,2001,{},64,90"),
    ], ids=["year", "count", "age"])
    def test_non_ascii_digits_are_rejected(self, tmp_path, file, column, row):
        """int() and the regex \\d read any Unicode digit: Arabic-Indic 2001 would pass as a year."""
        text = "\u0662\u0660\u0660\u0661"
        texts = {
            "employment.csv": "region,year,employed\nR1,2000,100\n",
            "unemployment.csv": "region,year,unemployed_6m\nR1,2000,5\nR1,2001,5\n",
            "population.csv": "region,year,age_lo,age_hi,persons\nR1,2000,16,64,90\n",
        }
        texts[file] += row.format(text) + "\n"
        with pytest.raises(MalformedRow) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, *texts.values()))
        assert excinfo.value.line == 3
        assert str(excinfo.value).startswith(f"{tmp_path / file}:3: column {column!r} must be ")
        assert str(excinfo.value).endswith(f", got {text!r}")

    def test_overlapping_age_bands(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = """
        region,year,age_lo,age_hi,persons
        R1,2000,16,64,90
        R1,2000,60,70,10
        """
        with pytest.raises(OverlappingAgeBands) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.file.endswith("population.csv")
        assert excinfo.value.line == 3
        assert excinfo.value.year == 2000

    def test_overlapping_age_bands_outside_the_common_years(self, tmp_path):
        """The bands of a year that only population.csv covers must be disjoint too."""
        employment = "region,year,employed\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = """
        region,year,age_lo,age_hi,persons
        R1,2000,16,64,90
        R1,1999,16,64,90
        R1,1999,60,70,10
        """
        with pytest.raises(OverlappingAgeBands) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert str(excinfo.value) == (
            f"{tmp_path / 'population.csv'}:4: region 'R1' year 1999: band [60, 70] overlaps band [16, 64]"
        )
        assert (excinfo.value.region, excinfo.value.year) == ("R1", 1999)

    def test_repeated_age_band_names_the_later_line(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = """
        region,year,age_lo,age_hi,persons
        R1,2000,16,64,90
        R1,2000,0,15,20
        R1,2000,16,64,91
        """
        with pytest.raises(OverlappingAgeBands) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert str(excinfo.value) == (
            f"{tmp_path / 'population.csv'}:4: region 'R1' year 2000: band [16, 64] overlaps band [16, 64]"
        )
        assert (excinfo.value.line, excinfo.value.region, excinfo.value.year) == (4, "R1", 2000)

    def test_a_malformed_row_after_a_repeated_band_is_reported(self, tmp_path):
        """Bands are checked once every row is read, so a later row error comes first."""
        employment = "region,year,employed\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = """
        region,year,age_lo,age_hi,persons
        R1,2000,16,64,90
        R1,2000,16,64,90
        R1,2000,65,x,10
        """
        with pytest.raises(MalformedRow) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.line == 4
        assert "column 'age_hi'" in str(excinfo.value)

    def test_a_band_overlap_comes_before_the_coverage_rules(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100\nR2,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\nR2,2000,5\n"
        population = """
        region,year,age_lo,age_hi,persons
        R1,1990,16,64,90
        R2,2000,16,64,90
        R2,2000,30,40,90
        """
        with pytest.raises(OverlappingAgeBands) as excinfo:  # R1, first in order, has no common year
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.region == "R2"

    def test_bad_header_rejected(self, tmp_path):
        employment = "region,year,jobs\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,2000,16,64,90\n"
        with pytest.raises(MalformedRow) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))
        assert excinfo.value.line == 1

    def test_wrong_column_count_rejected(self, tmp_path):
        employment = "region,year,employed\nR1,2000\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,2000,16,64,90\n"
        with pytest.raises(MalformedRow, match="columns"):
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))

    def test_age_band_reversed_rejected(self, tmp_path):
        employment = "region,year,employed\nR1,2000,100\n"
        unemployment = "region,year,unemployed_6m\nR1,2000,5\n"
        population = "region,year,age_lo,age_hi,persons\nR1,2000,64,16,90\n"
        with pytest.raises(MalformedRow, match="age_lo"):
            parse_regional_series(*_stat_files(tmp_path, employment, unemployment, population))

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        series = {f"R{i}": random_regional_series(rng, f"R{i}") for i in range(1, 4)}
        paths = (tmp_path / "e.csv", tmp_path / "u.csv", tmp_path / "p.csv")
        write_regional_series(series, *paths)
        reparsed = parse_regional_series(*paths)
        assert reparsed == series
        # and the serialization itself is stable
        write_regional_series(reparsed, tmp_path / "e2.csv", tmp_path / "u2.csv", tmp_path / "p2.csv")
        assert (tmp_path / "e2.csv").read_bytes() == paths[0].read_bytes()

    def test_row_order_does_not_matter(self, tmp_path):
        files = _full_period_files(tmp_path)
        baseline = parse_regional_series(*files)
        shuffler = random.Random(7)
        for path in files:
            lines = path.read_text(encoding="utf-8").splitlines()
            header, data = lines[0], lines[1:]
            shuffler.shuffle(data)
            path.write_text("\n".join([header, *data]) + "\n", encoding="utf-8")
        assert parse_regional_series(*files) == baseline


class TestParseProgrammeRecords:
    def test_two_disjoint_spells(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,2015-03-01,2015-05-31,20
        P1,R1,2015-03-01,2015-06-10,2015-09-30,25
        """)
        records = parse_programme_records(path)
        assert len(records) == 1
        assert len(records[0].spells) == 2
        assert records[0].spells[0].start_date.isoformat() == "2015-03-01"

    def test_overlapping_spells_rejected(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,2015-03-01,2015-05-31,20
        P1,R1,2015-03-01,2015-05-31,2015-09-30,25
        """)
        with pytest.raises(OverlappingSpells) as excinfo:
            parse_programme_records(path)
        assert excinfo.value.person_id == "P1"
        assert excinfo.value.line == 3

    def test_empty_file_with_header(self, tmp_path):
        path = _write(tmp_path / "records.csv", "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n")
        assert parse_programme_records(path) == []

    def test_person_with_no_spells(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,,,
        """)
        records = parse_programme_records(path)
        assert len(records) == 1
        assert records[0].spells == ()

    def test_pre_entry_spell_is_allowed(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,2014-01-01,2014-06-30,20
        """)
        records = parse_programme_records(path)
        assert len(records[0].spells) == 1

    def test_conflicting_entry_dates_rejected(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,,,
        P1,R1,2015-04-01,,,
        """)
        with pytest.raises(MalformedRow, match="conflicting entry dates"):
            parse_programme_records(path)

    def test_spell_start_after_end_rejected(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,2015-05-01,2015-04-01,20
        """)
        with pytest.raises(MalformedRow, match="starts after"):
            parse_programme_records(path)

    def test_partial_spell_fields_rejected(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,2015-05-01,,20
        """)
        with pytest.raises(MalformedRow, match="all present or all empty"):
            parse_programme_records(path)

    def test_bad_date_carries_file_and_line(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,01/03/2015,,,
        """)
        with pytest.raises(MalformedRow) as excinfo:
            parse_programme_records(path)
        assert excinfo.value.file.endswith("records.csv")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("text", ["20150518", "2015-W21-1", "2015W211"])
    @pytest.mark.parametrize("column", ["entry_date", "spell_start", "spell_end"])
    def test_only_yyyy_mm_dd_dates_are_accepted(self, tmp_path, column, text):
        """Python 3.11's date.fromisoformat also reads basic and week dates; the format is YYYY-MM-DD alone."""
        fields = {"entry_date": "2015-03-01", "spell_start": "2015-03-01", "spell_end": "2015-05-31"}
        fields[column] = text
        path = _write(tmp_path / "records.csv", f"""
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P0,R1,2014-01-01,,,
        P1,R1,{fields["entry_date"]},{fields["spell_start"]},{fields["spell_end"]},20
        """)
        with pytest.raises(MalformedRow) as excinfo:
            parse_programme_records(path)
        assert excinfo.value.line == 3
        assert str(excinfo.value).endswith(f"column {column!r} must be an ISO date (YYYY-MM-DD), got {text!r}")

    def test_negative_hours_rejected(self, tmp_path):
        path = _write(tmp_path / "records.csv", """
        person_id,region,entry_date,spell_start,spell_end,hours_per_week
        P1,R1,2015-03-01,2015-03-01,2015-03-31,-4
        """)
        with pytest.raises(MalformedRow, match="hours_per_week"):
            parse_programme_records(path)

    def test_output_is_sorted_and_order_insensitive(self, tmp_path):
        body = [
            "P2,R1,2015-03-01,2015-03-01,2015-05-31,20",
            "P1,R2,2014-02-01,,,",
            "P3,R1,2016-01-15,2016-02-01,2016-03-01,16",
        ]
        header = "person_id,region,entry_date,spell_start,spell_end,hours_per_week"
        path_a = _write(tmp_path / "a.csv", "\n".join([header, *body]) + "\n")
        path_b = _write(tmp_path / "b.csv", "\n".join([header, *reversed(body)]) + "\n")
        records_a = parse_programme_records(path_a)
        records_b = parse_programme_records(path_b)
        assert records_a == records_b
        assert [r.person_id for r in records_a] == ["P1", "P2", "P3"]


# One file per float column: its header and a good row 2, then a row 3 with `{}` in the column.
_NUMBER_COLUMNS = {
    "hours_per_week": (parse_programme_records, "records.csv",
                       "person_id,region,entry_date,spell_start,spell_end,hours_per_week\nP0,R1,2014-01-01,,,\n"
                       "P1,R1,2015-03-01,2015-03-01,2015-03-31,{}\n"),
    "demand": (read_features_csv, "features.csv",
               "region,year,demand,supply,normalized,lag,age_lo,age_hi\nR1,2012,0.01,0.05,1,0,16,64\n"
               "R1,2013,{},0.05,1,0,16,64\n"),
    "supply": (read_features_csv, "features.csv",
               "region,year,demand,supply,normalized,lag,age_lo,age_hi\nR1,2012,0.01,0.05,1,0,16,64\n"
               "R1,2013,0.01,{},1,0,16,64\n"),
    "performance": (read_performance_csv, "performance.csv",
                    "region,entry_year,n_entrants,n_success,performance\nR1,2014,4,1,0.25\nR1,2015,4,1,{}\n"),
}


class TestParseNumber:
    """Every float column goes through `_parse_number`, which takes only a finite number written in ASCII."""

    @pytest.mark.parametrize("column", sorted(_NUMBER_COLUMNS))
    @pytest.mark.parametrize("text", ["\u0662\u0660", "\u0660.25", "1_0", "nan", "inf", "1e999"])
    def test_a_bad_cell_names_its_column_and_line(self, tmp_path, column, text):
        """float() reads Arabic-Indic digits and `_` separators, and gives nan or inf for the last three."""
        read, file, template = _NUMBER_COLUMNS[column]
        path = _write(tmp_path / file, template.format(text))
        with pytest.raises(MalformedRow) as excinfo:
            read(path)
        kind = "a non-negative number" if column == "hours_per_week" else "a finite number"
        assert str(excinfo.value) == f"{path}:3: column {column!r} must be {kind}, got {text!r}"
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("text", ["0", "-0.0", "+1.5", "1.", ".5", "007", "1e5", "1E-5", "2.5e+3", "-.5e-0"])
    def test_ascii_numbers_are_read_as_float_reads_them(self, text):
        assert _parse_number(text, "c", "f.csv", 1).hex() == float(text).hex()

    @pytest.mark.parametrize("text", ["", ".", "-", "e5", "1e", "1.2.3", "1e+", "0x10", "1,5", "1 0", "infinity"])
    def test_other_ascii_text_is_rejected(self, text):
        with pytest.raises(MalformedRow, match="column 'c' must be a finite number"):
            _parse_number(text, "c", "f.csv", 1)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_the_written_forms_of_any_finite_float_parse_back(self, x):
        """features.csv writes repr(x) and performance.csv f"{x:.6f}"; both must read back to what they denote."""
        assert _parse_number(repr(x), "c", "f.csv", 1).hex() == x.hex()
        fixed = f"{x:.6f}"
        assert _parse_number(fixed, "c", "f.csv", 1).hex() == float(fixed).hex()


class TestCountBound:
    """A statistical count above 2**53 would overflow or lose exactness as a float in features and figures."""

    def test_two_to_the_53_is_the_largest_statistical_count(self):
        assert _parse_natural(str(2**53), "employed", "f.csv", 2, count=True) == 2**53
        with pytest.raises(MalformedRow) as excinfo:
            _parse_natural(str(2**53 + 1), "employed", "f.csv", 2, count=True)
        assert str(excinfo.value) == f"f.csv:2: column 'employed' must be at most 2**53, got '{2**53 + 1}'"

    @pytest.mark.parametrize("file, column", [
        ("employment.csv", "employed"), ("unemployment.csv", "unemployed_6m"), ("population.csv", "persons"),
    ])
    def test_each_statistical_count_column_is_bounded(self, tmp_path, file, column):
        huge = "9" * 400
        texts = {
            "employment.csv": "region,year,employed\nR1,2000,{}\n",
            "unemployment.csv": "region,year,unemployed_6m\nR1,2000,{}\n",
            "population.csv": "region,year,age_lo,age_hi,persons\nR1,2000,16,64,{}\n",
        }
        texts = {name: text.format(huge if name == file else 5) for name, text in texts.items()}
        with pytest.raises(MalformedRow) as excinfo:
            parse_regional_series(*_stat_files(tmp_path, *texts.values()))
        assert str(excinfo.value) == f"{tmp_path / file}:2: column {column!r} must be at most 2**53, got {huge!r}"

    def test_programme_counts_stay_unbounded(self, tmp_path):
        """synth writes each rate as an exact ratio, whose denominator can pass 2**53."""
        path = _write(tmp_path / "performance.csv",
                      f"region,entry_year,n_entrants,n_success,performance\nR1,2014,{2**60},{2**58},0.250000\n")
        [row] = read_performance_csv(path)
        assert (row.n_entrants, row.n_success, row.performance) == (2**60, 2**58, 0.25)


_REORDERINGS = {"reversed": lambda rows: rows[::-1], "shuffled": lambda rows: random.Random(5).sample(rows, len(rows))}


def _reorder(path, into, how):
    """Copy `path` to `into` with its data rows reordered; returns `into`."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    into.write_text("".join([header, *_REORDERINGS[how](rows)]), encoding="utf-8")
    return into


@pytest.mark.parametrize("how", sorted(_REORDERINGS))
class TestReadersSortForTheWriters:
    """Each reader returns its table sorted, so the writers, which keep the order given, write sorted files."""

    def test_regional_series(self, tmp_path, how):
        rng = np.random.default_rng(11)
        series = {f"R{i}": random_regional_series(rng, f"R{i}") for i in range(1, 5)}
        names = ("employment.csv", "unemployment.csv", "population.csv")
        write_regional_series(series, *(tmp_path / name for name in names))
        assert any(len(series[region].population[series[region].years[0]]) > 2 for region in series)
        shuffled = [_reorder(tmp_path / name, tmp_path / f"{how}_{name}", how) for name in names]
        parsed = parse_regional_series(*shuffled)
        assert list(parsed) == sorted(parsed)
        for region in parsed.values():
            assert list(region.years) == sorted(region.years)
            assert [list(bands) for bands in region.population.values()] == [
                sorted(bands) for bands in region.population.values()
            ]
            assert list(region.population) == list(region.employment) == list(region.years)
        write_regional_series(parsed, *(tmp_path / f"again_{name}" for name in names))
        for name in names:
            assert (tmp_path / f"again_{name}").read_bytes() == (tmp_path / name).read_bytes()

    def test_features(self, tmp_path, how):
        rng = np.random.default_rng(12)
        config = FeatureConfig()
        rows = build_features({f"R{i}": random_regional_series(rng, f"R{i}") for i in range(1, 5)}, config)
        write_features_csv(rows, config, tmp_path / "features.csv")
        read, _ = read_features_csv(_reorder(tmp_path / "features.csv", tmp_path / "shuffled.csv", how))
        keys = [(row.region_id, row.year) for row in read]
        assert len(keys) > 4 and keys == sorted(keys)
        write_features_csv(read, config, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "features.csv").read_bytes()

    def test_performance(self, tmp_path, how):
        rows = generate(SynthConfig(n_regions=4, seed=12, noise_sd=0.05)).performance
        write_performance_csv(rows, tmp_path / "performance.csv")
        read = read_performance_csv(_reorder(tmp_path / "performance.csv", tmp_path / "shuffled.csv", how))
        keys = [(row.region_id, row.entry_year) for row in read]
        assert len(keys) > 4 and keys == sorted(keys)
        write_performance_csv(read, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "performance.csv").read_bytes()
