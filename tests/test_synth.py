import json
import math

import pytest

from workforecast.errors import InvalidConfig
from workforecast.evaluate import build_dataset, loocv
from workforecast.features import build_features
from workforecast.ingest import parse_regional_series
from workforecast.model import design, fit
from workforecast.perf import read_performance_csv
from workforecast.synth import LAW_FEATURE_CONFIG, Shock, SynthConfig, SynthResult, generate, write_outputs


def _recover(result: SynthResult):
    rows = build_features(result.series_by_region, LAW_FEATURE_CONFIG)
    return fit(*design(build_dataset(rows, result.performance)), LAW_FEATURE_CONFIG)


class TestGenerate:
    def test_same_seed_same_output(self):
        config = SynthConfig(seed=123, noise_sd=0.01)
        assert generate(config) == generate(config)

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=1))
        b = generate(SynthConfig(seed=2))
        assert a.series_by_region != b.series_by_region

    def test_noiseless_fit_recovers_true_coefficients(self):
        for seed in (0, 7, 99):
            config = SynthConfig(seed=seed, noise_sd=0.0)
            result = generate(config)
            assert result.n_clipped == 0
            model = _recover(result)
            assert abs(model.intercept - config.true_intercept) <= 1e-9
            assert abs(model.coef_demand - config.true_coef_demand) <= 1e-9
            assert abs(model.coef_supply - config.true_coef_supply) <= 1e-9

    def test_default_shape_matches_two_regions_seven_entry_years(self):
        result = generate(SynthConfig(seed=4))
        assert len(result.series_by_region) == 2
        assert len(result.performance) == 14
        years = {row.entry_year for row in result.performance}
        assert years == set(range(2012, 2019))

    def test_performance_rows_encode_exact_ratios(self):
        result = generate(SynthConfig(seed=31, noise_sd=0.02))
        for row in result.performance:
            assert row.performance == row.n_success / row.n_entrants
            assert 0.0 <= row.performance <= 1.0

    def test_clipping_is_counted_and_only_when_law_leaves_unit_interval(self):
        config = SynthConfig(seed=11, true_intercept=1.05, true_coef_demand=0.0,
                             true_coef_supply=0.0, noise_sd=0.1)
        result = generate(config)
        assert result.n_clipped > 0
        assert all(0.0 <= row.performance <= 1.0 for row in result.performance)

        clean = generate(SynthConfig(seed=11, noise_sd=0.0))
        assert clean.n_clipped == 0

    def test_shock_shifts_the_underlying_series_from_shock_year(self):
        base = generate(SynthConfig(seed=8, years=(2009, 2018)))
        shocked = generate(SynthConfig(seed=8, years=(2009, 2018),
                                       shock=Shock(year=2017, demand_shift=-0.05, supply_shift=0.02)))
        for region, series in base.series_by_region.items():
            other = shocked.series_by_region[region]
            for year in series.years:
                working_age = series.population[year][(16, 64)]
                assert other.population[year] == series.population[year]
                if year < 2017:
                    assert other.employment[year] == series.employment[year]
                    assert other.unemployed_6m[year] == series.unemployed_6m[year]
                else:
                    assert other.employment[year] == series.employment[year] + round(-0.05 * working_age)
                    assert other.unemployed_6m[year] == series.unemployed_6m[year] + round(0.02 * working_age)

    def test_shocked_panel_still_follows_the_law_exactly(self):
        config = SynthConfig(seed=15, years=(2009, 2018), noise_sd=0.0,
                             shock=Shock(year=2017, demand_shift=-0.05))
        result = generate(config)
        assert result.n_clipped == 0
        model = _recover(result)
        assert abs(model.coef_demand - config.true_coef_demand) <= 1e-9

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(n_regions=0))
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(years=(2018, 2011)))
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(years=(2015, 2015)))
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(noise_sd=-0.1))
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(shock=Shock(year=2025, demand_shift=-0.1)))
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(seed=-1))
        for shift in (math.nan, math.inf):
            with pytest.raises(InvalidConfig, match="demand_shift must be finite"):
                generate(SynthConfig(shock=Shock(year=2012, demand_shift=shift)))
            with pytest.raises(InvalidConfig, match="supply_shift must be finite"):
                generate(SynthConfig(shock=Shock(year=2012, supply_shift=shift)))


class TestWriteOutputs:
    def test_generated_files_reingest_to_the_same_panel(self, tmp_path):
        config = SynthConfig(seed=42, noise_sd=0.01)
        result = generate(config)
        paths = write_outputs(result, config, tmp_path)
        parsed = parse_regional_series(paths["employment"], paths["unemployment"], paths["population"])
        assert parsed == result.series_by_region
        assert read_performance_csv(paths["performance"]) == result.performance

    def test_truth_file_records_the_config(self, tmp_path):
        config = SynthConfig(seed=6, noise_sd=0.005, shock=Shock(year=2017, demand_shift=-0.05))
        result = generate(config)
        paths = write_outputs(result, config, tmp_path, run_config={"subcommand": "synth"})
        truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
        assert truth["config"]["seed"] == 6
        assert truth["config"]["shock"] == {"year": 2017, "demand_shift": -0.05, "supply_shift": 0.0}
        assert truth["n_clipped"] == result.n_clipped
        assert truth["run_config"] == {"subcommand": "synth"}

    def test_outputs_are_byte_deterministic(self, tmp_path):
        config = SynthConfig(seed=3, noise_sd=0.02)
        paths_a = write_outputs(generate(config), config, tmp_path / "a")
        paths_b = write_outputs(generate(config), config, tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()


class TestLoocvOnSynthData:
    def test_shocked_panel_favours_the_model(self):
        wins = 0
        for seed in range(20):
            config = SynthConfig(seed=seed, years=(2009, 2018), noise_sd=0.005,
                                 shock=Shock(year=2017, demand_shift=-0.05))
            result = generate(config)
            rows = build_features(result.series_by_region, LAW_FEATURE_CONFIG)
            report = loocv(build_dataset(rows, result.performance), LAW_FEATURE_CONFIG)
            if report.mae_model_pct < report.mae_benchmark_pct:
                wins += 1
        assert wins >= 19
