import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workforecast.errors import (
    FeatureConfigMismatch,
    MalformedRow,
    MissingYear,
    SupplyExceedsOne,
    ZeroWorkingAgePopulation,
)
from workforecast.features import (
    FeatureConfig,
    FeatureRow,
    build_features,
    demand_proxy,
    read_features_csv,
    supply_proxy,
    working_age_population,
    write_features_csv,
)
from workforecast.ingest import RegionalSeries

from helpers import per_age_supply_oracle, random_regional_series


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


class TestDemandProxy:
    def test_year_on_year_difference(self):
        series = _series(
            {2014: 100_000, 2015: 110_000},
            {2014: 0, 2015: 0},
            {y: {(16, 64): 100_000} for y in (2014, 2015)},
        )
        assert demand_proxy(series, 2015) == 10_000.0

    def test_constant_series_gives_zero(self):
        series = _flat_series(range(2010, 2015))
        for year in range(2011, 2015):
            assert demand_proxy(series, year) == 0.0

    def test_sign_convention(self):
        series = _series(
            {2014: 110_000, 2015: 100_000},
            {2014: 0, 2015: 0},
            {y: {(16, 64): 100_000} for y in (2014, 2015)},
        )
        assert demand_proxy(series, 2015) == -10_000.0

    def test_normalized_by_working_age_population(self):
        series = _series(
            {2014: 100_000, 2015: 110_000},
            {2014: 0, 2015: 0},
            {y: {(16, 64): 100_000} for y in (2014, 2015)},
        )
        assert demand_proxy(series, 2015, normalize=True) == 0.1

    def test_missing_predecessor_year(self):
        series = _flat_series([2014, 2015])
        with pytest.raises(MissingYear):
            demand_proxy(series, 2014)


class TestSupplyProxy:
    def test_definition(self):
        series = _flat_series([2015], unemployed=5_000, working_age=100_000)
        assert supply_proxy(series, 2015) == 0.05

    def test_zero_unemployed(self):
        series = _flat_series([2015], unemployed=0)
        assert supply_proxy(series, 2015) == 0.0

    def test_band_outside_working_age_is_excluded(self):
        series = _series(
            {2015: 0},
            {2015: 4_000},
            {2015: {(16, 64): 80_000, (65, 90): 20_000}},
        )
        assert supply_proxy(series, 2015) == 0.05

    def test_partial_band_contributes_pro_rata(self):
        # ages 60..69: 5 of the 10 ages are inside [16, 64]
        series = _series(
            {2015: 0},
            {2015: 9_500},
            {2015: {(16, 59): 90_000, (60, 69): 10_000}},
        )
        assert working_age_population(series, 2015) == 95_000.0
        assert supply_proxy(series, 2015) == pytest.approx(0.1, abs=1e-15)

    def test_zero_working_age_population(self):
        series = _series({2015: 0}, {2015: 10}, {2015: {(65, 90): 20_000}})
        with pytest.raises(ZeroWorkingAgePopulation) as excinfo:
            supply_proxy(series, 2015)
        assert excinfo.value.region == "R1"

    def test_supply_above_one_rejected(self):
        series = _flat_series([2015], unemployed=200_000, working_age=100_000)
        with pytest.raises(SupplyExceedsOne) as excinfo:
            supply_proxy(series, 2015)
        assert excinfo.value.year == 2015

    def test_matches_per_age_expansion_oracle(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            series = random_regional_series(rng, f"R{i}")
            year = series.years[0]
            assert supply_proxy(series, year) == pytest.approx(
                per_age_supply_oracle(series, year, (16, 64)), rel=1e-9
            )

    @given(st.integers(0, 5_000), st.integers(2, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, seed, factor):
        rng = np.random.default_rng(seed)
        series = random_regional_series(rng)
        year = series.years[0]
        scaled = RegionalSeries(
            region_id=series.region_id,
            years=series.years,
            employment=series.employment,
            unemployed_6m={y: v * factor for y, v in series.unemployed_6m.items()},
            population={y: {b: v * factor for b, v in bands.items()} for y, bands in series.population.items()},
        )
        base = supply_proxy(series, year)
        if all(lo >= 16 and hi <= 64 or hi < 16 or lo > 64 for (lo, hi) in series.population[year]):
            # bands aligned with the working-age boundary: integer sums, exact
            assert supply_proxy(scaled, year) == base
        else:
            assert math.isclose(supply_proxy(scaled, year), base, rel_tol=1e-12)


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

    def test_telescoping_sum(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            series = random_regional_series(rng, f"R{i}")
            rows = build_features({series.region_id: series}, FeatureConfig(normalize=False))
            total = sum(row.demand for row in rows)
            expected = series.employment[series.years[-1]] - series.employment[series.years[0]]
            assert total == float(expected)

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
