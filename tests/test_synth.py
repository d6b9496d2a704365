import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from workforecast.cli import cli
from workforecast.errors import InvalidConfig
from workforecast.evaluate import build_dataset, loocv
from workforecast.features import build_features
from workforecast.ingest import parse_regional_series
from workforecast.model import design, fit
from workforecast.perf import read_performance_csv
from workforecast.synth import (
    LAW_FEATURE_CONFIG, SynthConfig, SynthResult, _validate, generate, write_outputs,
)


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
                                       shock_year=2017, demand_shift=-0.05, supply_shift=0.02))
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
                             shock_year=2017, demand_shift=-0.05)
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
            generate(SynthConfig(shock_year=2025, demand_shift=-0.1))
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(seed=-1))
        for shift in (math.nan, math.inf):
            with pytest.raises(InvalidConfig, match="demand_shift must be finite"):
                generate(SynthConfig(shock_year=2012, demand_shift=shift))
            with pytest.raises(InvalidConfig, match="supply_shift must be finite"):
                generate(SynthConfig(shock_year=2012, supply_shift=shift))

    @pytest.mark.parametrize("field", ["demand_shift", "supply_shift"])
    @pytest.mark.parametrize("shift", [0.05, -1.0, 5e-324])
    def test_a_shift_without_a_shock_year_is_invalid(self, field, shift):
        with pytest.raises(InvalidConfig, match=r"^demand_shift and supply_shift require a shock_year$"):
            generate(SynthConfig(**{field: shift}))

    def test_a_zero_shift_needs_no_shock_year(self):
        assert generate(SynthConfig(demand_shift=-0.0, supply_shift=0.0)) == generate(SynthConfig())

    @pytest.mark.parametrize("field", ["demand_shift", "supply_shift"])
    @pytest.mark.parametrize("shift", [1e308, -1e308, 1.5, -1.5, 1.0000000000000002])
    def test_shift_outside_the_unit_interval_is_invalid(self, field, shift):
        with pytest.raises(InvalidConfig, match=rf"^{field} must be within \[-1, 1\]"):
            generate(SynthConfig(shock_year=2012, **{field: shift}))

    @pytest.mark.parametrize("years", [(2018, 2011), (2015, 2015)])
    def test_a_year_range_needs_two_years(self, years):
        """One rule for an empty range and a single year; each had its own message."""
        with pytest.raises(InvalidConfig, match=rf"^year range {years[0]}..{years[1]} has fewer than the two years "
                                                r"needed to difference employment$"):
            _validate(SynthConfig(years=years))

    @pytest.mark.parametrize("n_regions, years, valid", [
        (500_000, (2011, 2012), True),
        (1, (1, 1_000_000), True),
        (1, (1, 1_000_001), False),
        (250_001, (2011, 2014), False),
    ])
    def test_a_panel_holds_at_most_a_million_region_years(self, n_regions, years, valid):
        """Checked before anything is generated, so the largest valid configurations are only validated here."""
        config = SynthConfig(n_regions=n_regions, years=years)
        if valid:
            _validate(config)
        else:
            with pytest.raises(InvalidConfig, match=r"are more than 1,000,000 region-years$"):
                _validate(config)

    @pytest.mark.parametrize("field", ["demand_shift", "supply_shift"])
    @pytest.mark.parametrize("shift", [1.0, -1.0])
    def test_shift_of_the_whole_working_age_population_is_valid(self, field, shift):
        _validate(SynthConfig(shock_year=2012, **{field: shift}))

    @pytest.mark.parametrize("seed", [0, 3, 5, 9])
    def test_supply_shift_of_one_makes_the_whole_working_age_population_unemployed(self, seed):
        result = generate(SynthConfig(seed=seed, shock_year=2013, supply_shift=1.0))
        for series in result.series_by_region.values():
            for year in series.years:
                working_age = series.population[year][(16, 64)]
                assert (series.unemployed_6m[year] == working_age) == (year >= 2013)
        rows = build_features(result.series_by_region, LAW_FEATURE_CONFIG)
        assert {row.supply for row in rows if row.year >= 2013} == {1.0}
        assert all(row.supply < 1.0 for row in rows if row.year < 2013)


class TestWriteOutputs:
    def test_generated_files_reingest_to_the_same_panel(self, tmp_path):
        config = SynthConfig(seed=42, noise_sd=0.01)
        result = generate(config)
        paths = write_outputs(result, config, tmp_path)
        parsed = parse_regional_series(paths["employment"], paths["unemployment"], paths["population"])
        assert parsed == result.series_by_region
        assert read_performance_csv(paths["performance"]) == result.performance

    def test_truth_file_records_the_config(self, tmp_path):
        config = SynthConfig(seed=6, noise_sd=0.005, shock_year=2017, demand_shift=-0.05)
        result = generate(config)
        paths = write_outputs(result, config, tmp_path, run_config={"subcommand": "synth"})
        truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
        assert truth["config"]["seed"] == 6
        assert list(truth["config"])[-3:] == ["shock_year", "demand_shift", "supply_shift"]
        assert truth["config"]["shock_year"] == 2017
        assert (truth["config"]["demand_shift"], truth["config"]["supply_shift"]) == (-0.05, 0.0)
        assert truth["n_clipped"] == result.n_clipped
        assert truth["run_config"] == {"subcommand": "synth"}

    def test_outputs_are_byte_deterministic(self, tmp_path):
        config = SynthConfig(seed=3, noise_sd=0.02)
        paths_a = write_outputs(generate(config), config, tmp_path / "a")
        paths_b = write_outputs(generate(config), config, tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()


class TestGeneratorStreams:
    """Each region draws from streams keyed on (seed, region index, stream) alone."""

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_first_regions_do_not_depend_on_the_region_count(self, seed):
        shock = {"shock_year": 2015, "demand_shift": -0.05}
        small = generate(SynthConfig(n_regions=3, seed=seed, noise_sd=0.02, **shock))
        large = generate(SynthConfig(n_regions=7, seed=seed, noise_sd=0.02, **shock))
        assert small.series_by_region == {k: large.series_by_region[k] for k in small.series_by_region}
        assert small.performance == [row for row in large.performance if row.region_id in small.series_by_region]

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        args = ["synth", "--out", "out", "--seed", "11", "--regions", "3", "--noise-sd", "0.02"]
        outputs = []
        for hash_seed in ("1", "2", "random"):
            cwd = tmp_path / hash_seed
            cwd.mkdir()
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed, "WF_NO_COLOR": "1"}
            subprocess.run([sys.executable, "-m", "workforecast.cli", *args], cwd=cwd, env=env, check=True, timeout=120)
            outputs.append({path.name: path.read_bytes() for path in sorted((cwd / "out").iterdir())})
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1] == outputs[2]


# SHA-256 of the four generated CSVs, as first written by `synth` before the shock
# settings became flat SynthConfig fields. The files hold integers and reprs of
# floats from `random` alone, never numpy, so the digests hold on every platform.
PINNED_DIGESTS = {
    ("--seed", "7"): {
        "employment.csv": "7f4a584aae9b0200777982c8dee3699e3c811a806ee99eefa49698d6a3ad582f",
        "unemployment.csv": "3e7781b8e71e631845dec3752e148557cadf30b5c9cd53b3b8426ee925b928b7",
        "population.csv": "fd0771a2b1f0b1a098e24ff58c6c4c02a9367be66d57b08eddaa890088d1f8bf",
        "performance.csv": "8d4755ca15770cea609d932d220a23de215d5c52bd1a94c9e86f1c00a96f9ac5",
    },
    ("--seed", "7", "--regions", "6", "--years", "2003:2016", "--noise-sd", "0.02",
     "--shock-year", "2010", "--demand-shift", "-0.03", "--supply-shift", "0.01"): {
        "employment.csv": "ff34348ea0f56cd47be9c9b355cb8c5e93e0ca0d9b1d9dbf9ac7175c3c18d881",
        "unemployment.csv": "6a163ec4ea339469014417cd180ed87e1d7880a63c8f2a5b7c437f312ce61979",
        "population.csv": "7768373a9805bcc7fd876a61ad70e2624dd1e43d5cf3901b6b978c9a39e72ae0",
        "performance.csv": "c614115d35e7685a07669560374e118330740ef17c709c0afe392f3d5a5c0767",
    },
}


@pytest.mark.parametrize("args", list(PINNED_DIGESTS), ids=["quickstart", "shocked-panel"])
def test_generated_csvs_match_their_pinned_digests(tmp_path, args):
    result = CliRunner().invoke(cli, ["synth", "--out", str(tmp_path), *args], env={"WF_NO_COLOR": "1"})
    assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_DIGESTS[args]}
    assert digests == PINNED_DIGESTS[args]


class TestLoocvOnSynthData:
    def test_shocked_panel_favours_the_model(self):
        wins = 0
        for seed in range(20):
            config = SynthConfig(seed=seed, years=(2009, 2018), noise_sd=0.005,
                                 shock_year=2017, demand_shift=-0.05)
            result = generate(config)
            rows = build_features(result.series_by_region, LAW_FEATURE_CONFIG)
            report = loocv(build_dataset(rows, result.performance), LAW_FEATURE_CONFIG)
            if report.mae_model_pct < report.mae_benchmark_pct:
                wins += 1
        assert wins >= 19
