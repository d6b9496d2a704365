import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workforecast import features
from workforecast.errors import (
    FeatureConfigMismatch,
    InvalidConfig,
    MalformedRow,
    SupplyExceedsOne,
    ZeroWorkingAgePopulation,
)
from workforecast.features import (
    FeatureConfig,
    FeatureRow,
    build_features,
    read_features_csv,
    working_age_population,
    write_features_csv,
)
from workforecast.ingest import RegionalSeries, parse_regional_series

from helpers import per_age_population_oracle, per_age_supply_oracle, random_regional_series


def _series(employment, unemployed, population, region="R1"):
    years = tuple(sorted(employment))
    return RegionalSeries(
        region_id=region,
        years=years,
        employment=employment,
        unemployed_6m=unemployed,
        population=population,
    )


def _flat_series(years, employed=100_000, unemployed=5_000, working_age=100_000, region="R1"):
    return _series(
        {y: employed for y in years},
        {y: unemployed for y in years},
        {y: {(16, 64): working_age} for y in years},
        region=region,
    )


def _only_row(series, config=FeatureConfig()):
    """The one feature row of a two-year series."""
    (row,) = build_features({series.region_id: series}, config)
    return row


class TestDemandProxy:
    def test_year_on_year_difference(self):
        series = _series(
            {2014: 100_000, 2015: 110_000},
            {2014: 0, 2015: 0},
            {y: {(16, 64): 100_000} for y in (2014, 2015)},
        )
        assert _only_row(series, FeatureConfig(normalize=False)).demand == 10_000.0

    def test_constant_series_gives_zero(self):
        series = _flat_series(range(2010, 2015))
        rows = build_features({"R1": series}, FeatureConfig(normalize=False))
        assert [(row.year, row.demand) for row in rows] == [(year, 0.0) for year in range(2011, 2015)]

    def test_sign_convention(self):
        series = _series(
            {2014: 110_000, 2015: 100_000},
            {2014: 0, 2015: 0},
            {y: {(16, 64): 100_000} for y in (2014, 2015)},
        )
        assert _only_row(series, FeatureConfig(normalize=False)).demand == -10_000.0

    def test_normalized_by_working_age_population(self):
        series = _series(
            {2014: 100_000, 2015: 110_000},
            {2014: 0, 2015: 0},
            {y: {(16, 64): 100_000} for y in (2014, 2015)},
        )
        assert _only_row(series, FeatureConfig(normalize=True)).demand == 0.1


class TestSupplyProxy:
    def test_definition(self):
        series = _flat_series([2014, 2015], unemployed=5_000, working_age=100_000)
        assert _only_row(series).supply == 0.05

    def test_zero_unemployed(self):
        series = _flat_series([2014, 2015], unemployed=0)
        assert _only_row(series).supply == 0.0

    def test_band_outside_working_age_is_excluded(self):
        series = _series(
            {2014: 0, 2015: 0},
            {2014: 4_000, 2015: 4_000},
            {y: {(16, 64): 80_000, (65, 90): 20_000} for y in (2014, 2015)},
        )
        assert _only_row(series).supply == 0.05

    def test_partial_band_contributes_pro_rata(self):
        # ages 60..69: 5 of the 10 ages are inside [16, 64]
        series = _series(
            {2014: 0, 2015: 0},
            {2014: 9_500, 2015: 9_500},
            {y: {(16, 59): 90_000, (60, 69): 10_000} for y in (2014, 2015)},
        )
        assert working_age_population(series, 2015, (16, 64)) == 95_000.0
        assert _only_row(series).supply == pytest.approx(0.1, abs=1e-15)

    def test_zero_working_age_population(self):
        series = _series({2015: 0}, {2015: 10}, {2015: {(65, 90): 20_000}})
        with pytest.raises(ZeroWorkingAgePopulation) as excinfo:
            build_features({"R1": series})
        assert (excinfo.value.region, excinfo.value.year) == ("R1", 2015)

    def test_supply_above_one_rejected(self):
        series = _flat_series([2015], unemployed=200_000, working_age=100_000)
        with pytest.raises(SupplyExceedsOne) as excinfo:
            build_features({"R1": series})
        assert (excinfo.value.region, excinfo.value.year) == ("R1", 2015)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("years", [[2015], [2014, 2015]], ids=["first-year", "later-year"])
    def test_zero_working_age_population_comes_before_supply_above_one(self, normalize, years):
        """A year without working-age population fails on that, not on its unemployed count."""
        series = _flat_series(years, unemployed=10)
        series.population[2015] = {(65, 90): 20_000}
        with pytest.raises(ZeroWorkingAgePopulation) as excinfo:
            build_features({"R1": series}, FeatureConfig(normalize=normalize))
        assert (excinfo.value.region, excinfo.value.year) == ("R1", 2015)

    def test_matches_per_age_expansion_oracle(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            series = random_regional_series(rng, f"R{i}")
            rows = build_features({series.region_id: series}, FeatureConfig(normalize=True))
            assert [row.year for row in rows] == list(series.years[1:])
            for row in rows:
                population = per_age_population_oracle(series, row.year, (16, 64))
                change = series.employment[row.year] - series.employment[row.year - 1]
                assert row.supply == pytest.approx(per_age_supply_oracle(series, row.year, (16, 64)), rel=1e-9)
                assert row.demand == pytest.approx(change / population, rel=1e-9, abs=1e-15)

    @given(st.integers(0, 5_000), st.integers(2, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, seed, factor):
        rng = np.random.default_rng(seed)
        series = random_regional_series(rng)
        scaled_series = RegionalSeries(
            region_id=series.region_id,
            years=series.years,
            employment=series.employment,
            unemployed_6m={y: v * factor for y, v in series.unemployed_6m.items()},
            population={y: {b: v * factor for b, v in bands.items()} for y, bands in series.population.items()},
        )
        base = build_features({series.region_id: series}, FeatureConfig(normalize=False))
        scaled = build_features({series.region_id: scaled_series}, FeatureConfig(normalize=False))
        assert [(row.year, row.demand) for row in scaled] == [(row.year, row.demand) for row in base]
        for row, scaled_row in zip(base, scaled):
            if all(lo >= 16 and hi <= 64 or hi < 16 or lo > 64 for (lo, hi) in series.population[row.year]):
                # bands aligned with the working-age boundary: integer sums, exact
                assert scaled_row.supply == row.supply
            else:
                assert math.isclose(scaled_row.supply, row.supply, rel_tol=1e-12)


class TestBuildFeatures:
    def test_differencing_loses_the_first_year(self):
        series = {"R1": _flat_series(range(2010, 2019))}
        rows = build_features(series, FeatureConfig(normalize=False))
        assert len(rows) == 8
        assert [row.year for row in rows] == list(range(2011, 2019))

    def test_two_regions(self):
        series = {
            "R1": _flat_series(range(2010, 2019), region="R1"),
            "R2": _flat_series(range(2010, 2019), region="R2"),
        }
        rows = build_features(series, FeatureConfig(normalize=False))
        assert len(rows) == 16

    def test_normalized_demand(self):
        series = {
            "R1": _series(
                {2014: 100_000, 2015: 110_000},
                {2014: 5_000, 2015: 5_000},
                {y: {(16, 64): 100_000} for y in (2014, 2015)},
            )
        }
        rows = build_features(series, FeatureConfig(normalize=True))
        assert rows == [FeatureRow(region_id="R1", year=2015, demand=0.1, supply=0.05)]

    def test_lag_shifts_the_label_year(self):
        series = {"R1": _flat_series(range(2010, 2013))}
        lagged = build_features(series, FeatureConfig(normalize=False, lag=1))
        assert [row.year for row in lagged] == [2012, 2013]
        unlagged = build_features(series, FeatureConfig(normalize=False, lag=0))
        assert [(l.demand, l.supply) for l in lagged] == [(u.demand, u.supply) for u in unlagged]

    def test_the_largest_lag_labels_a_year_that_reads_back(self, tmp_path):
        """A labelled year of 324 digits is written and read back; one more digit is an `InvalidConfig`."""
        series = {"R1": _flat_series(range(2010, 2013)), "R2": _flat_series(range(2010, 2014), region="R2")}
        largest = FeatureConfig(normalize=False, lag=10**324 - 1 - 2013)
        rows = build_features(series, largest)
        assert rows[-1].year == 10**324 - 1
        path = tmp_path / "features.csv"
        write_features_csv(rows, largest, path)
        assert read_features_csv(path) == (rows, largest)
        with pytest.raises(InvalidConfig, match=r"^region 'R2': lag \d{324} labels year 2013 with a year of more "
                                                r"than 324 digits$") as excinfo:
            build_features(series, FeatureConfig(normalize=False, lag=largest.lag + 1))
        assert excinfo.value.region == "R2"

    def test_telescoping_sum(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            series = random_regional_series(rng, f"R{i}")
            rows = build_features({series.region_id: series}, FeatureConfig(normalize=False))
            total = sum(row.demand for row in rows)
            expected = series.employment[series.years[-1]] - series.employment[series.years[0]]
            assert total == float(expected)

    def test_the_first_year_yields_no_row_but_its_supply_is_checked(self):
        series = _flat_series(range(2010, 2013))
        series.unemployed_6m[2010] = 100_001
        with pytest.raises(SupplyExceedsOne) as excinfo:
            build_features({"R1": series}, FeatureConfig(normalize=False))
        assert excinfo.value.year == 2010

    def test_a_first_year_without_unemployed_needs_no_working_age_population(self):
        series = _flat_series(range(2010, 2013))
        series.unemployed_6m[2010] = 0
        series.population[2010] = {(65, 90): 20_000}
        assert [row.year for row in build_features({"R1": series}, FeatureConfig())] == [2011, 2012]

    @pytest.mark.parametrize("lag", [0, 2])
    def test_rows_use_only_the_years_all_three_files_cover(self, tmp_path, lag):
        """The proxies need no year check of their own: ingest keeps each region to the years every file covers."""
        coverage = {  # region -> (employment, unemployment, population) years; the intersections are 2010-2015, 2011-2016
            "R1": (range(2007, 2017), range(2009, 2018), range(2010, 2016)),
            "R2": (range(2011, 2019), range(2008, 2017), range(2009, 2018)),
        }
        rng = random.Random(5)
        employed, unemployed, working_age = {}, {}, {}
        for region, years in coverage.items():
            for year in range(2007, 2019):
                employed[region, year] = rng.randrange(50_000, 150_000)
                unemployed[region, year] = rng.randrange(0, 20_000)
                working_age[region, year] = rng.randrange(80_000, 120_000)
        files = {name: tmp_path / name for name in ("employment.csv", "unemployment.csv", "population.csv")}
        files["employment.csv"].write_text("region,year,employed\n" + "".join(
            f"{region},{year},{employed[region, year]}\n" for region, years in coverage.items() for year in years[0]
        ), encoding="utf-8")
        files["unemployment.csv"].write_text("region,year,unemployed_6m\n" + "".join(
            f"{region},{year},{unemployed[region, year]}\n" for region, years in coverage.items() for year in years[1]
        ), encoding="utf-8")
        files["population.csv"].write_text("region,year,age_lo,age_hi,persons\n" + "".join(
            f"{region},{year},0,15,7\n{region},{year},16,64,{working_age[region, year]}\n{region},{year},65,90,9\n"
            for region, years in coverage.items() for year in years[2]
        ), encoding="utf-8")

        rows = build_features(parse_regional_series(*files.values()), FeatureConfig(lag=lag))

        expected = []
        for region, years in sorted(coverage.items()):
            common = sorted(set(years[0]) & set(years[1]) & set(years[2]))
            expected.extend(
                FeatureRow(
                    region_id=region,
                    year=year + lag,
                    demand=(employed[region, year] - employed[region, year - 1]) / working_age[region, year],
                    supply=unemployed[region, year] / working_age[region, year],
                )
                for year in common[1:]
            )
        assert [(row.region_id, row.year - lag) for row in rows] == (  # no row for the first common year
            [("R1", year) for year in range(2011, 2016)] + [("R2", year) for year in range(2012, 2017)]
        )
        assert rows == expected

    @pytest.mark.parametrize("normalize", [False, True])
    def test_each_checked_year_computes_its_working_age_population_once(self, monkeypatch, normalize):
        """Every year but a first year without unemployed is checked, and each computes its population once."""
        calls = []

        def counted(series, year, working_age):
            calls.append((series.region_id, year))
            return working_age_population(series, year, working_age)

        monkeypatch.setattr(features, "working_age_population", counted)
        a = _flat_series(range(2010, 2015), region="A")
        b = _flat_series(range(2010, 2015), region="B")
        b.unemployed_6m[2010] = 0
        rows = build_features({"A": a, "B": b}, FeatureConfig(normalize=normalize))
        assert len(rows) == 8
        assert calls == [("A", year) for year in range(2010, 2015)] + [("B", year) for year in range(2011, 2015)]

    def test_input_map_order_does_not_matter(self):
        a = _flat_series(range(2010, 2015), region="A")
        b = _flat_series(range(2010, 2015), region="B")
        config = FeatureConfig()
        assert build_features({"A": a, "B": b}, config) == build_features({"B": b, "A": a}, config)


class TestFeaturesCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        series = {"R1": random_regional_series(rng, "R1")}
        config = FeatureConfig()
        rows = build_features(series, config)
        path = tmp_path / "features.csv"
        write_features_csv(rows, config, path)
        assert read_features_csv(path) == (rows, config)

    def test_normalize_flag_mismatch(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(
            "region,year,demand,supply,normalized,lag,age_lo,age_hi\n"
            "R1,2012,0.01,0.05,1,0,16,64\nR1,2013,0.02,0.05,0,0,16,64\n",
            encoding="utf-8",
        )
        with pytest.raises(FeatureConfigMismatch, match="features.csv:3:"):
            read_features_csv(path)

    @pytest.mark.parametrize("stamp", ["1,1,16,64", "1,0,18,64", "1,0,16,66"])
    def test_rows_with_another_lag_or_working_age_are_rejected(self, tmp_path, stamp):
        path = tmp_path / "features.csv"
        path.write_text(
            "region,year,demand,supply,normalized,lag,age_lo,age_hi\n"
            f"R1,2012,0.01,0.05,1,0,16,64\nR1,2013,0.02,0.05,1,0,16,64\nR1,2014,0.03,0.05,{stamp}\n",
            encoding="utf-8",
        )
        with pytest.raises(FeatureConfigMismatch, match="features.csv:4: .* on line 2") as info:
            read_features_csv(path)
        assert info.value.line == 4

    def test_config_is_read_from_the_file(self, tmp_path):
        config = FeatureConfig(normalize=False, lag=2, working_age=(18, 66))
        rows = build_features({"R1": _flat_series(range(2010, 2014))}, config)
        path = tmp_path / "features.csv"
        write_features_csv(rows, config, path)
        assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",0,2,18,66")
        assert read_features_csv(path) == (rows, config)

    @pytest.mark.parametrize("stamp, column", [
        ("2,0,16,64", "'normalized'"), ("1,-1,16,64", "'lag'"), ("1,x,16,64", "'lag'"),
        ("1,0,a,64", "'age_lo'"), ("1,0,16,", "'age_hi'"), ("1,0,65,64", "age_lo > age_hi"),
        ("1,\u0661,16,64", "'lag'"),  # Arabic-Indic 1: str.isdecimal alone takes any Unicode digit
    ])
    def test_malformed_config_is_rejected_with_its_line(self, tmp_path, stamp, column):
        path = tmp_path / "features.csv"
        path.write_text(
            f"region,year,demand,supply,normalized,lag,age_lo,age_hi\nR1,2012,0.01,0.05,{stamp}\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match=f"features.csv:2: .*{column}"):
            read_features_csv(path)

    def test_header_only_file_is_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("region,year,demand,supply,normalized,lag,age_lo,age_hi\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match="features.csv: no data rows") as info:
            read_features_csv(path)
        assert info.value.file == str(path)

    def test_five_column_file_is_rejected_by_its_header(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("region,year,demand,supply,normalized\nR1,2012,0.01,0.05,1\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match="features.csv:1: expected header "
                                               "region,year,demand,supply,normalized,lag,age_lo,age_hi, got"):
            read_features_csv(path)

    @pytest.mark.parametrize("year", ["2012", "+2012"])
    def test_repeated_region_year_is_rejected(self, tmp_path, year):
        path = tmp_path / "features.csv"
        path.write_text(
            "region,year,demand,supply,normalized,lag,age_lo,age_hi\n"
            f"R1,2012,0.01,0.05,1,0,16,64\nR1,2013,0.02,0.05,1,0,16,64\nR1,{year},0.03,0.05,1,0,16,64\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow) as info:
            read_features_csv(path)
        assert str(info.value) == f"{path}:4: duplicate entry for region 'R1', year 2012"

    @pytest.mark.parametrize("demand, supply", [("nan", "0.05"), ("0.01", "inf"), ("-Infinity", "0.05")])
    def test_non_finite_values_are_rejected_with_their_line(self, tmp_path, demand, supply):
        path = tmp_path / "features.csv"
        path.write_text(
            f"region,year,demand,supply,normalized,lag,age_lo,age_hi\n"
            f"R1,2012,0.01,0.05,1,0,16,64\nR1,2013,{demand},{supply},1,0,16,64\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="features.csv:3:") as info:
            read_features_csv(path)
        assert info.value.line == 3
