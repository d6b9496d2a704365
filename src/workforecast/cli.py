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
fit, evaluate and figures read it from there. Each command executes only the
layers it uses: `_layer` binds each module unexecuted, to run at its first attribute access.

Exit codes: 0 success, 1 validation error (bad data), 2 usage error.
Diagnostics go to stderr with a machine-parsable `ERROR <code>: <message>`
prefix; data goes to files only. Set WF_NO_COLOR to disable styling. Every
JSON output embeds a `run_config` stamp: `subcommand`, then every option under
its parameter name in declaration order, then (fit and evaluate) the resolved
`feature_config` read from features.csv, which is model.json's one record of it.
"""
from __future__ import annotations

import atexit
import gc
import importlib.util
import os
import sys

import click

import workforecast


def _layer(name):
    """`workforecast.<name>` as imported already, or else a module that executes at its first attribute access."""
    qualified = f"workforecast.{name}"
    if qualified not in sys.modules:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[qualified] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(workforecast, name, module)
    return sys.modules[qualified]


errors_mod = _layer("errors")
evaluate_mod = _layer("evaluate")
features_mod = _layer("features")
ingest_mod = _layer("ingest")
jsonio = _layer("jsonio")
model_mod = _layer("model")
perf_mod = _layer("perf")
report_mod = _layer("report")
synth_mod = _layer("synth")
gc.freeze()  # click's and the standard library's heap lives until exit: no collection need walk it
atexit.register(gc.freeze)  # shutdown's collections then skip the heap, which reference counting frees anyway
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: threads would split, and change, fit's sums


class _PipelineGroup(click.Group):
    """Maps validation and I/O failures in any command to exit code 1 with a one-line diagnostic."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (errors_mod.DataError, OSError) as err:
            line = f"ERROR {type(err).__name__}: {err}"
            click.secho(line, err=True, fg="red", color=False if os.environ.get("WF_NO_COLOR") else None)
            sys.exit(1)


def _run_config(**resolved) -> dict:
    """The current command's stamp: its name, every parameter in declaration order, then `resolved`."""
    ctx = click.get_current_context()
    return {"subcommand": ctx.info_name, **{p.name: ctx.params[p.name] for p in ctx.command.params}, **resolved}


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
    if max(lo, hi) >= 10**ingest_mod._MAX_DIGITS:
        raise click.BadParameter(f"a bound has more than {ingest_mod._MAX_DIGITS} digits", param_hint=flag)
    if lo > hi:
        raise click.BadParameter(f"lower bound {lo} exceeds upper bound {hi}", param_hint=flag)
    return lo, hi


def _stat_file_options(fn):
    fn = click.option("--population", "population_file", required=True, help="population.csv path.")(fn)
    fn = click.option("--unemployment", "unemployment_file", required=True, help="unemployment.csv path.")(fn)
    fn = click.option("--employment", "employment_file", required=True, help="employment.csv path.")(fn)
    return fn


def _dataset_options(fn):
    fn = click.option("--performance", required=True, help="performance.csv path.")(fn)
    fn = click.option("--features", required=True, help="features.csv path.")(fn)
    return fn


@click.group(cls=_PipelineGroup, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(workforecast.__version__)
def cli() -> None:
    """Forecast workforce-reintegration programme success rates."""


@cli.command("validate")
@_stat_file_options
@click.option("--records", "records_file", default=None, help="records.csv path (optional).")
def validate_cmd(employment_file, unemployment_file, population_file, records_file) -> None:
    """Run ingestion checks only; no outputs."""
    series = ingest_mod.parse_regional_series(employment_file, unemployment_file, population_file)
    for region in series:
        years = series[region].years
        click.echo(f"OK {errors_mod.shown(region)}: years {years[0]}-{years[-1]} ({len(years)})", err=True)
    if records_file is not None:
        records = ingest_mod.parse_programme_records(records_file)
        click.echo(f"OK records: {len(records)} people", err=True)


@cli.command("features")
@_stat_file_options
@click.option("--normalize/--no-normalize", "normalize", default=True, show_default=True,
              help="Divide demand by the working-age population.")
@click.option("--lag", type=click.IntRange(min=0), default=0, show_default=True,
              help="Shift the proxies this many whole years behind the entry year.")
@click.option("--working-age", "working_age", default="16:64", show_default=True,
              callback=_range_callback, help="Working-age interval as LO:HI (inclusive).")
@click.option("--out", required=True, help="Output features.csv path.")
def features_cmd(employment_file, unemployment_file, population_file, normalize, lag, working_age, out) -> None:
    """Build demand/supply feature rows from the statistical files."""
    config = features_mod.FeatureConfig(normalize=normalize, lag=lag, working_age=working_age)
    series = ingest_mod.parse_regional_series(employment_file, unemployment_file, population_file)
    rows = features_mod.build_features(series, config)
    features_mod.write_features_csv(rows, config, out)
    click.echo(f"wrote {len(rows)} feature rows to {errors_mod.shown(out)}", err=True)


@cli.command("performance")
@click.option("--records", "records_file", required=True, help="records.csv path.")
@click.option("--min-hours", type=float, default=workforecast.DEFAULT_MIN_HOURS, show_default=True,
              help="Minimum weekly hours for a spell to qualify.")
@click.option("--window-months", type=click.IntRange(min=0), default=workforecast.DEFAULT_WINDOW_MONTHS,
              show_default=True, help="Calendar months of continuous employment required.")
@click.option("--out", required=True, help="Output performance.csv path.")
def performance_cmd(records_file, min_hours, window_months, out) -> None:
    """Aggregate programme records into per-region-per-year success rates."""
    records = ingest_mod.parse_programme_records(records_file)
    rows = perf_mod.aggregate_performance(records, min_hours=min_hours, window_months=window_months)
    perf_mod.write_performance_csv(rows, out)
    click.echo(f"wrote {len(rows)} performance rows to {errors_mod.shown(out)}", err=True)


@cli.command("fit")
@_dataset_options
@click.option("--per-region", is_flag=True, default=False, help="Fit one model per region.")
@click.option("--model", required=True, help="Output model.json path.")
def fit_cmd(features, performance, per_region, model) -> None:
    """Fit the linear model on the joined feature/performance rows."""
    feature_rows, config = features_mod.read_features_csv(features)
    performance_rows = perf_mod.read_performance_csv(performance)
    dataset = evaluate_mod.build_dataset(feature_rows, performance_rows)
    if per_region:
        models = evaluate_mod.by_region(dataset, lambda pairs: model_mod.fit(*model_mod.design(pairs)))
        payload = {"scope": "per-region", "models": models}
        summary = f"fitted {len(models)} per-region models on {len(dataset)} rows"
    else:
        payload = model_mod.fit(*model_mod.design(dataset))
        summary = (
            f"fitted on {payload.n_obs} rows: intercept={payload.intercept:.6g} "
            f"demand={payload.coef_demand:.6g} supply={payload.coef_supply:.6g} "
            f"r_squared={payload.r_squared:.4f}"
        )
    jsonio.save(model, payload, _run_config(feature_config=config))
    click.echo(summary, err=True)


@cli.command("evaluate")
@_dataset_options
@click.option("--benchmark", "benchmark_mode", type=click.Choice(workforecast.BENCHMARK_MODES),
              default="trainfold-mean", show_default=True, help="Benchmark prediction mode.")
@click.option("--per-region", is_flag=True, default=False, help="Cross-validate within each region.")
@click.option("--out", required=True, help="Output report.json path.")
def evaluate_cmd(features, performance, benchmark_mode, per_region, out) -> None:
    """Leave-one-out cross-validation of the model against the benchmark."""
    feature_rows, config = features_mod.read_features_csv(features)
    performance_rows = perf_mod.read_performance_csv(performance)
    dataset = evaluate_mod.build_dataset(feature_rows, performance_rows)
    run = evaluate_mod.loocv_per_region if per_region else evaluate_mod.loocv
    result = run(dataset, config, benchmark_mode)
    evaluate_mod.save_report_json(result, out, run_config=_run_config(feature_config=config))
    benchmark_text = "n/a" if result.mae_benchmark_pct is None else f"{result.mae_benchmark_pct:.4g}%"
    click.echo(f"{len(result.folds)} folds: MAE model {result.mae_model_pct:.4g}% vs benchmark {benchmark_text}",
               err=True)


@cli.command("synth")
@click.option("--out", required=True, help="Output directory for the generated files.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Generator seed.")
@click.option("--regions", "n_regions", type=click.IntRange(min=1), default=2, show_default=True,
              help="Number of regions to generate.")
@click.option("--years", default="2011:2018", show_default=True, callback=_range_callback,
              help="Inclusive year range as FIRST:LAST.")
@click.option("--intercept", "true_intercept", type=float, default=0.5, show_default=True, help="True intercept.")
@click.option("--coef-demand", "true_coef_demand", type=float, default=1.5, show_default=True, help="True demand coefficient.")
@click.option("--coef-supply", "true_coef_supply", type=float, default=-2.0, show_default=True, help="True supply coefficient.")
@click.option("--noise-sd", type=float, default=0.0, show_default=True,
              help="Gaussian noise on the performance scale.")
@click.option("--shock-year", type=int, default=None, help="First year of the step shock.")
@click.option("--demand-shift", type=float, default=0.0, show_default=True,
              help="Employment level shift as a fraction of working-age population.")
@click.option("--supply-shift", type=float, default=0.0, show_default=True,
              help="Unemployment level shift as a fraction of working-age population.")
def synth_cmd(out, **params) -> None:
    """Generate a synthetic panel with a known linear ground truth."""
    config = synth_mod.SynthConfig(**params)
    result = synth_mod.generate(config)
    paths = synth_mod.write_outputs(result, config, out, run_config=_run_config())
    click.echo(
        f"generated {len(result.series_by_region)} regions, {len(result.performance)} "
        f"performance rows ({result.n_clipped} clipped) in {errors_mod.shown(paths['truth'].parent)}",
        err=True,
    )


@cli.command("figures")
@_stat_file_options
@_dataset_options
@click.option("--report", "report_file", required=True, help="report.json path from `evaluate`.")
@click.option("--baseline-year", type=int, default=None,
              help="Population baseline year (default: earliest year shared by all regions).")
@click.option("--population-baseline", "population_mode", type=click.Choice(workforecast.BASELINE_MODES),
              default="ratio", show_default=True, help="Baseline mode for population growth.")
@click.option("--performance-baseline", "performance_mode", type=click.Choice(workforecast.BASELINE_MODES),
              default="difference", show_default=True, help="Baseline mode for the evaluation chart.")
@click.option("--out", required=True, help="Output directory for the plot-data CSVs.")
def figures_cmd(employment_file, unemployment_file, population_file, features, performance, report_file, out,
                **baselines) -> None:
    """Emit the four plot-data CSV files."""
    series = ingest_mod.parse_regional_series(employment_file, unemployment_file, population_file)
    feature_rows, config = features_mod.read_features_csv(features)
    performance_rows = perf_mod.read_performance_csv(performance)
    eval_report = evaluate_mod.load_report_json(report_file)
    if eval_report.feature_config != config:
        raise errors_mod.FeatureConfigMismatch(
            f"report was built under {eval_report.feature_config} but {errors_mod.shown(features)} under {config}",
            file=str(report_file),
        )
    paths = report_mod.emit_figure_data(series, feature_rows, performance_rows, eval_report, out, **baselines)
    click.echo(f"wrote {len(paths)} figure files to {errors_mod.shown(out)}", err=True)


if __name__ == "__main__":
    cli()
