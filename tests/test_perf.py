from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workforecast.errors import InvalidConfig, MalformedRow
from workforecast.ingest import ProgrammeRecord, Spell
from workforecast.perf import (
    PerformanceRow,
    add_months,
    aggregate_performance,
    is_reintegrated,
    read_performance_csv,
    write_performance_csv,
)

from helpers import random_programme_record, reintegration_oracle


def _record(entry, spells, person="P1", region="R1"):
    return ProgrammeRecord(
        person_id=person,
        region_id=region,
        entry_date=date.fromisoformat(entry),
        spells=tuple(Spell(date.fromisoformat(s), date.fromisoformat(e), h) for s, e, h in spells),
    )


class TestAddMonths:
    def test_plain_shift(self):
        assert add_months(date(2015, 1, 1), 6) == date(2015, 7, 1)

    def test_end_of_month_stays_end_of_month(self):
        assert add_months(date(2015, 1, 31), 6) == date(2015, 7, 31)

    def test_clamps_to_short_month(self):
        assert add_months(date(2014, 8, 31), 6) == date(2015, 2, 28)
        assert add_months(date(2015, 8, 31), 6) == date(2016, 2, 29)  # leap year

    def test_year_rollover(self):
        assert add_months(date(2015, 11, 15), 3) == date(2016, 2, 15)


class TestIsReintegrated:
    def test_single_covering_spell(self):
        record = _record("2015-01-01", [("2015-01-01", "2015-08-01", 20.0)])
        assert is_reintegrated(record) is True

    def test_below_minimum_hours(self):
        record = _record("2015-01-01", [("2015-01-01", "2015-08-01", 15.0)])
        assert is_reintegrated(record) is False

    def test_one_day_gap_breaks_continuity(self):
        record = _record(
            "2015-01-01",
            [("2015-01-01", "2015-03-31", 20.0), ("2015-04-02", "2015-08-01", 20.0)],
        )
        assert is_reintegrated(record) is False

    def test_adjacent_spells_at_exactly_16_hours(self):
        record = _record(
            "2015-01-01",
            [("2015-01-01", "2015-03-31", 16.0), ("2015-04-01", "2015-07-01", 16.0)],
        )
        assert is_reintegrated(record) is True
        assert reintegration_oracle(record) is True

    def test_pre_entry_spell_counts_from_entry(self):
        record = _record("2015-03-01", [("2014-06-01", "2015-09-10", 20.0)])
        assert is_reintegrated(record) is True

    def test_window_end_is_inclusive(self):
        # spell stops one day short of the six-month mark
        record = _record("2015-01-01", [("2015-01-01", "2015-06-30", 20.0)])
        assert is_reintegrated(record) is False

    def test_spell_ending_on_the_last_date_covers_the_window(self):
        # the day after 9999-12-31 does not exist
        assert is_reintegrated(_record("2015-01-01", [("2014-01-01", "9999-12-31", 20.0)])) is True
        assert is_reintegrated(_record("9999-06-01", [("9999-06-01", "9999-12-31", 20.0)])) is True

    def test_window_ending_after_the_last_date_is_rejected(self):
        with pytest.raises(InvalidConfig, match="6-month window from entry date 9999-07-01"):
            is_reintegrated(_record("9999-07-01", [("9999-07-01", "9999-12-31", 20.0)]))

    def test_no_spells(self):
        record = _record("2015-01-01", [])
        assert is_reintegrated(record) is False

    def test_low_hour_spell_between_good_ones_leaves_gap(self):
        record = _record(
            "2015-01-01",
            [
                ("2015-01-01", "2015-03-31", 20.0),
                ("2015-04-01", "2015-04-30", 10.0),
                ("2015-05-01", "2015-08-01", 20.0),
            ],
        )
        assert is_reintegrated(record) is False

    def test_agrees_with_day_enumeration_oracle(self):
        rng = np.random.default_rng(123)
        outcomes = set()
        for i in range(500):
            record = random_programme_record(rng, person_id=f"P{i}")
            expected = reintegration_oracle(record)
            assert is_reintegrated(record) == expected, record
            outcomes.add(expected)
        assert outcomes == {True, False}  # the sample exercises both branches


class TestAggregatePerformance:
    def test_fourteen_region_year_cells(self):
        records = []
        for region in ("R1", "R2"):
            for year in range(2011, 2018):
                records.append(
                    _record(f"{year}-02-01", [(f"{year}-02-01", f"{year}-10-01", 20.0)],
                            person=f"{region}-{year}", region=region)
                )
        rows = aggregate_performance(records)
        assert len(rows) == 14
        assert all(row.performance == 1.0 for row in rows)

    def test_two_of_three_successes(self):
        records = [
            _record("2015-01-01", [("2015-01-01", "2015-08-01", 20.0)], person="A"),
            _record("2015-02-01", [("2015-02-01", "2015-09-01", 18.0)], person="B"),
            _record("2015-03-01", [("2015-03-01", "2015-05-01", 20.0)], person="C"),
        ]
        rows = aggregate_performance(records)
        assert rows == [
            PerformanceRow(region_id="R1", entry_year=2015, n_entrants=3, n_success=2, performance=2 / 3)
        ]

    def test_empty_input(self):
        assert aggregate_performance([]) == []

    @pytest.mark.parametrize("min_hours", [float("nan"), float("inf"), -1.0])
    def test_invalid_min_hours_is_rejected(self, min_hours):
        one_hour_spell = _record("2015-01-01", [("2015-01-01", "2015-08-01", 1.0)])
        with pytest.raises(InvalidConfig, match="min_hours"):
            aggregate_performance([one_hour_spell], min_hours=min_hours)

    def test_zero_min_hours_counts_every_covered_spell(self):
        one_hour_spell = _record("2015-01-01", [("2015-01-01", "2015-08-01", 1.0)])
        assert aggregate_performance([one_hour_spell], min_hours=0.0)[0].n_success == 1

    def test_performance_is_exactly_the_ratio(self):
        rng = np.random.default_rng(5)
        records = [random_programme_record(rng, person_id=f"P{i}") for i in range(200)]
        for row in aggregate_performance(records):
            assert row.performance == row.n_success / row.n_entrants
            assert 0 <= row.n_success <= row.n_entrants
            assert 0.0 <= row.performance <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        records = [
            random_programme_record(rng, person_id=f"P{i}", region_id=f"R{i % 3}") for i in range(40)
        ]
        shuffled = list(records)
        np.random.default_rng(seed + 1).shuffle(shuffled)
        assert aggregate_performance(records) == aggregate_performance(shuffled)

    @given(st.integers(0, 10_000), st.floats(min_value=1.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scaling_hours_up_never_lowers_performance(self, seed, factor):
        rng = np.random.default_rng(seed)
        records = [
            random_programme_record(rng, person_id=f"P{i}", region_id=f"R{i % 2}") for i in range(30)
        ]
        scaled = [
            replace(record, spells=tuple(replace(s, hours_per_week=s.hours_per_week * factor) for s in record.spells))
            for record in records
        ]
        base = {(r.region_id, r.entry_year): r.performance for r in aggregate_performance(records)}
        boosted = {(r.region_id, r.entry_year): r.performance for r in aggregate_performance(scaled)}
        assert set(base) == set(boosted)
        for key, value in base.items():
            assert boosted[key] >= value


class TestPerformanceCsv:
    def test_round_trip_keeps_exact_ratios(self, tmp_path):
        value = 0.4123456789
        n_success, n_entrants = value.as_integer_ratio()
        rows = [
            PerformanceRow("R1", 2015, 3, 1, 1 / 3),
            PerformanceRow("R2", 2015, n_entrants, n_success, value),
        ]
        path = tmp_path / "performance.csv"
        write_performance_csv(rows, path)
        read_back = read_performance_csv(path)
        assert read_back == rows
        assert read_back[0].performance == 1 / 3
        assert read_back[1].performance == value

    def test_printed_rate_has_six_decimals(self, tmp_path):
        path = tmp_path / "performance.csv"
        write_performance_csv([PerformanceRow("R1", 2015, 3, 1, 1 / 3)], path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "R1,2015,3,1,0.333333"

    def test_success_above_entrants_rejected(self, tmp_path):
        path = tmp_path / "performance.csv"
        path.write_text(
            "region,entry_year,n_entrants,n_success,performance\nR1,2015,3,4,1.333333\n",
            encoding="utf-8",
        )
        with pytest.raises(Exception, match="exceeds"):
            read_performance_csv(path)

    def test_inconsistent_rate_column_rejected(self, tmp_path):
        path = tmp_path / "performance.csv"
        path.write_text(
            "region,entry_year,n_entrants,n_success,performance\nR1,2015,4,1,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(Exception, match="disagrees"):
            read_performance_csv(path)

    @pytest.mark.parametrize("value", ["nan", "NaN"])
    def test_nan_rate_column_rejected(self, tmp_path, value):
        """nan compares false with everything, so `abs(nan - rate) > tol` alone would let it through."""
        path = tmp_path / "performance.csv"
        path.write_text(
            f"region,entry_year,n_entrants,n_success,performance\nR1,2014,4,1,0.25\nR1,2015,4,1,{value}\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match=f"performance.csv:3: performance column \\({value}\\) disagrees"):
            read_performance_csv(path)
