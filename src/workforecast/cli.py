"""Pipeline command-line interface.

One executable, subcommand per pipeline stage, run in sequence by scripts:

    workforecast synth --out data/ --seed 7
    workforecast features --employment ... --out features.csv
    workforecast performance --records records.csv --out performance.csv
    workforecast fit --features ... --performance ... --model model.json
    workforecast evaluate --features ... --performance ... --out report.json
    workforecast figures --employment ... --report report.json --out figs/

The feature configuration (--normalize/--no-normalize, --lag, --working-age)
is chosen once, by `features`, and written into every row of features.csv;
fit, evaluate and figures read it from there.

Exit codes: 0 success, 1 validation error (bad data), 2 usage error.
Diagnostics go to stderr with a machine-parsable `ERROR <code>: <message>`
prefix; data goes to files only. Set WF_NO_COLOR to disable styling. Every
JSON report embeds the fully resolved run configuration.
"""
from __future__ import annotations

import functools
import os
import sys

import click

from workforecast import evaluate as evaluate_mod
from workforecast import features as features_mod
from workforecast import ingest as ingest_mod
from workforecast import __version__, jsonio
from workforecast import model as model_mod
from workforecast import perf as perf_mod
from workforecast import report as report_mod
from workforecast import synth as synth_mod
from workforecast.errors import DataError, FeatureConfigMismatch, RankDeficientDesign, TooFewObservations
from workforecast.features import FeatureConfig


def _echo_error(code: str, message: str) -> None:
    line = f"ERROR {code}: {message}"
    if os.environ.get("WF_NO_COLOR"):
        click.echo(line, err=True)
    else:
        click.secho(line, err=True, fg="red")


def _handles_data_errors(fn):
    """Map validation and I/O failures to exit code 1 with a one-line diagnostic."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DataError, OSError) as err:
            _echo_error(type(err).__name__, str(err))
            sys.exit(1)

    return wrapper


def _range_callback(ctx, param, value: str) -> tuple[int, int]:
    """Parse an inclusive, non-negative LO:HI option value; errors name the option's flag."""
    flag = param.opts[0]
    try:
        lo_s, hi_s = value.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise click.BadParameter(f"expected LO:HI, got {value!r}", param_hint=flag) from None
    if lo < 0:
        raise click.BadParameter(f"lower bound {lo} is negative", param_hint=flag)
    if lo > hi:
        raise click.BadParameter(f"lower bound {lo} exceeds upper bound {hi}", param_hint=flag)
    return lo, hi


def _stat_file_options(fn):
    fn = click.option("--population", "population_file", required=True, help="population.csv path.")(fn)
    fn = click.option("--unemployment", "unemployment_file", required=True, help="unemployment.csv path.")(fn)
    fn = click.option("--employment", "employment_file", required=True, help="employment.csv path.")(fn)
    return fn


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
def cli() -> None:
    """Forecast workforce-reintegration programme success rates."""


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@cli.command("validate")
@_stat_file_options
@click.option("--records", "records_file", default=None, help="records.csv path (optional).")
@_handles_data_errors
def validate_cmd(employment_file, unemployment_file, population_file, records_file) -> None:
    """Run ingestion checks only; no outputs."""
    series = ingest_mod.parse_regional_series(employment_file, unemployment_file, population_file)
    for region in sorted(series):
        years = series[region].years
        click.echo(f"OK {region}: years {years[0]}-{years[-1]} ({len(years)})", err=True)
    if records_file is not None:
        records = ingest_mod.parse_programme_records(records_file)
        click.echo(f"OK records: {len(records)} people", err=True)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

@cli.command("features")
@_stat_file_options
@click.option("--normalize/--no-normalize", "normalize", default=True, show_default=True,
              help="Divide demand by the working-age population.")
@click.option("--lag", type=click.IntRange(min=0), default=0, show_default=True,
              help="Shift the proxies this many whole years behind the entry year.")
@click.option("--working-age", "working_age", default="16:64", show_default=True,
              callback=_range_callback, help="Working-age interval as LO:HI (inclusive).")
@click.option("--out", "out_file", required=True, help="Output features.csv path.")
@_handles_data_errors
def features_cmd(employment_file, unemployment_file, population_file, normalize, lag, working_age, out_file) -> None:
    """Build demand/supply feature rows from the statistical files."""
    config = FeatureConfig(normalize=normalize, lag=lag, working_age=working_age)
    series = ingest_mod.parse_regional_series(employment_file, unemployment_file, population_file)
    rows = features_mod.build_features(series, config)
    features_mod.write_features_csv(rows, config, out_file)
    click.echo(f"wrote {len(rows)} feature rows to {out_file}", err=True)


# ---------------------------------------------------------------------------
# performance
# ---------------------------------------------------------------------------

@cli.command("performance")
@click.option("--records", "records_file", required=True, help="records.csv path.")
@click.option("--min-hours", type=float, default=perf_mod.DEFAULT_MIN_HOURS, show_default=True,
              help="Minimum weekly hours for a spell to qualify.")
@click.option("--window-months", type=click.IntRange(min=0), default=perf_mod.DEFAULT_WINDOW_MONTHS,
              show_default=True, help="Calendar months of continuous employment required.")
@click.option("--out", "out_file", required=True, help="Output performance.csv path.")
@_handles_data_errors
def performance_cmd(records_file, min_hours, window_months, out_file) -> None:
    """Aggregate programme records into per-region-per-year success rates."""
    records = ingest_mod.parse_programme_records(records_file)
    rows = perf_mod.aggregate_performance(records, min_hours=min_hours, window_months=window_months)
    perf_mod.write_performance_csv(rows, out_file)
    click.echo(f"wrote {len(rows)} performance rows to {out_file}", err=True)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@cli.command("fit")
@click.option("--features", "features_file", required=True, help="features.csv path.")
@click.option("--performance", "performance_file", required=True, help="performance.csv path.")
@click.option("--per-region", is_flag=True, default=False, help="Fit one model per region.")
@click.option("--model", "model_file", required=True, help="Output model.json path.")
@_handles_data_errors
def fit_cmd(features_file, performance_file, per_region, model_file) -> None:
    """Fit the linear model on the joined feature/performance rows."""
    feature_rows, config = features_mod.read_features_csv(features_file)
    performance_rows = perf_mod.read_performance_csv(performance_file)
    dataset = evaluate_mod.build_dataset(feature_rows, performance_rows)
    run_config = {
        "subcommand": "fit",
        "features": str(features_file),
        "performance": str(performance_file),
        "feature_config": config,
        "per_region": per_region,
        "model": str(model_file),
    }
    if per_region:
        models = {}
        for region, pairs in evaluate_mod.group_by_region(dataset).items():
            try:
                models[region] = model_mod.fit(*model_mod.design(pairs), config)
            except (TooFewObservations, RankDeficientDesign) as err:
                raise type(err)(f"region {region!r}: {err}", **err.context, region=region) from err
        payload = {"scope": "per-region", "feature_config": config, "models": models}
        summary = f"fitted {len(models)} per-region models on {len(dataset)} rows"
    else:
        payload = model_mod.fit(*model_mod.design(dataset), config)
        summary = (
            f"fitted on {payload.n_obs} rows: intercept={payload.intercept:.6g} "
            f"demand={payload.coef_demand:.6g} supply={payload.coef_supply:.6g} "
            f"r_squared={payload.r_squared:.4f}"
        )
    jsonio.save(model_file, payload, run_config)
    click.echo(summary, err=True)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@cli.command("evaluate")
@click.option("--features", "features_file", required=True, help="features.csv path.")
@click.option("--performance", "performance_file", required=True, help="performance.csv path.")
@click.option("--benchmark", "benchmark_mode", type=click.Choice(evaluate_mod.BENCHMARK_MODES),
              default="trainfold-mean", show_default=True, help="Benchmark prediction mode.")
@click.option("--per-region", is_flag=True, default=False, help="Cross-validate within each region.")
@click.option("--out", "out_file", required=True, help="Output report.json path.")
@_handles_data_errors
def evaluate_cmd(features_file, performance_file, benchmark_mode, per_region, out_file) -> None:
    """Leave-one-out cross-validation of the model against the benchmark."""
    feature_rows, config = features_mod.read_features_csv(features_file)
    performance_rows = perf_mod.read_performance_csv(performance_file)
    dataset = evaluate_mod.build_dataset(feature_rows, performance_rows)
    if per_region:
        result = evaluate_mod.loocv_per_region(dataset, config, benchmark_mode)
    else:
        result = evaluate_mod.loocv(dataset, config, benchmark_mode)
    run_config = {
        "subcommand": "evaluate",
        "features": str(features_file),
        "performance": str(performance_file),
        "feature_config": config,
        "benchmark_mode": benchmark_mode,
        "per_region": per_region,
        "out": str(out_file),
    }
    evaluate_mod.save_report_json(result, out_file, run_config=run_config)
    benchmark_text = (
        "n/a" if result.mae_benchmark_pct is None else f"{result.mae_benchmark_pct:.4g}%"
    )
    click.echo(
        f"{len(result.folds)} folds: MAE model {result.mae_model_pct:.4g}% "
        f"vs benchmark {benchmark_text}",
        err=True,
    )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@cli.command("synth")
@click.option("--out", "out_dir", required=True, help="Output directory for the generated files.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Generator seed.")
@click.option("--regions", "n_regions", type=click.IntRange(min=1), default=2, show_default=True,
              help="Number of regions to generate.")
@click.option("--years", default="2011:2018", show_default=True, callback=_range_callback,
              help="Inclusive year range as FIRST:LAST.")
@click.option("--intercept", type=float, default=0.5, show_default=True, help="True intercept.")
@click.option("--coef-demand", type=float, default=1.5, show_default=True, help="True demand coefficient.")
@click.option("--coef-supply", type=float, default=-2.0, show_default=True, help="True supply coefficient.")
@click.option("--noise-sd", type=float, default=0.0, show_default=True,
              help="Gaussian noise on the performance scale.")
@click.option("--shock-year", type=int, default=None, help="First year of the step shock.")
@click.option("--demand-shift", type=float, default=0.0, show_default=True,
              help="Employment level shift as a fraction of working-age population.")
@click.option("--supply-shift", type=float, default=0.0, show_default=True,
              help="Unemployment level shift as a fraction of working-age population.")
@_handles_data_errors
def synth_cmd(out_dir, seed, n_regions, years, intercept, coef_demand, coef_supply,
              noise_sd, shock_year, demand_shift, supply_shift) -> None:
    """Generate a synthetic panel with a known linear ground truth."""
    if shock_year is None and (demand_shift != 0.0 or supply_shift != 0.0):
        raise click.UsageError("--demand-shift/--supply-shift require --shock-year")
    shock = None
    if shock_year is not None:
        shock = synth_mod.Shock(year=shock_year, demand_shift=demand_shift, supply_shift=supply_shift)
    config = synth_mod.SynthConfig(
        n_regions=n_regions,
        years=years,
        seed=seed,
        true_intercept=intercept,
        true_coef_demand=coef_demand,
        true_coef_supply=coef_supply,
        noise_sd=noise_sd,
        shock=shock,
    )
    result = synth_mod.generate(config)
    run_config = {
        "subcommand": "synth",
        "out": str(out_dir),
        "config": config,
    }
    paths = synth_mod.write_outputs(result, config, out_dir, run_config=run_config)
    click.echo(
        f"generated {len(result.series_by_region)} regions, {len(result.performance)} "
        f"performance rows ({result.n_clipped} clipped) in {paths['truth'].parent}",
        err=True,
    )


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

@cli.command("figures")
@_stat_file_options
@click.option("--features", "features_file", required=True, help="features.csv path.")
@click.option("--performance", "performance_file", required=True, help="performance.csv path.")
@click.option("--report", "report_file", required=True, help="report.json path from `evaluate`.")
@click.option("--baseline-year", type=int, default=None,
              help="Population baseline year (default: earliest year shared by all regions).")
@click.option("--population-baseline", type=click.Choice(report_mod.BASELINE_MODES),
              default="ratio", show_default=True, help="Baseline mode for population growth.")
@click.option("--performance-baseline", type=click.Choice(report_mod.BASELINE_MODES),
              default="difference", show_default=True, help="Baseline mode for the evaluation chart.")
@click.option("--out", "out_dir", required=True, help="Output directory for the plot-data CSVs.")
@_handles_data_errors
def figures_cmd(employment_file, unemployment_file, population_file, features_file,
                performance_file, report_file, baseline_year, population_baseline,
                performance_baseline, out_dir) -> None:
    """Emit the four plot-data CSV files."""
    series = ingest_mod.parse_regional_series(employment_file, unemployment_file, population_file)
    feature_rows, config = features_mod.read_features_csv(features_file)
    performance_rows = perf_mod.read_performance_csv(performance_file)
    eval_report = evaluate_mod.load_report_json(report_file)
    if eval_report.feature_config != config:
        raise FeatureConfigMismatch(
            f"report was built under {eval_report.feature_config} but {features_file} under {config}",
            file=str(report_file),
        )
    paths = report_mod.emit_figure_data(
        series,
        feature_rows,
        config,
        performance_rows,
        eval_report,
        out_dir,
        baseline_year=baseline_year,
        population_mode=population_baseline,
        performance_mode=performance_baseline,
    )
    click.echo(f"wrote {len(paths)} figure files to {out_dir}", err=True)


if __name__ == "__main__":
    cli()
