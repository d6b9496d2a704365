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
Each command runs with the cyclic collector paused and freezes what it leaves alive; the import leaves it alone.

`main` parses the command line with one argparse subparser per entry of `COMMANDS`. Exit codes: 0 success, 1
validation error (bad data), 2 usage error. Diagnostics go to stderr with a machine-parsable `ERROR <code>: <message>`
prefix, red on a terminal unless WF_NO_COLOR is set; data goes to files only. Every JSON output embeds a `run_config`
stamp, the parsed command line: `subcommand`, then every option under its Python name in declaration order, then
(fit and evaluate) the resolved `feature_config` read from features.csv, which is model.json's one record of it.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import os
import sys

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
atexit.register(gc.freeze)  # shutdown's collections then skip the heap, which reference counting frees anyway
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: threads would split, and change, fit's sums


COMMANDS: dict[str, tuple] = {}  # name: (function, options as (flag, `add_argument` keywords) in declaration order)


def _command(name: str, *options: tuple[str, dict]):
    """Register the decorated function as command `name`; `main` calls it with its stamp, then each option by name."""
    return lambda fn: COMMANDS.setdefault(name, (fn, options))[0]


def _csv(*names: str) -> tuple:
    return tuple((f"--{name}", dict(required=True, help=f"{name}.csv path.")) for name in names)


def _at_least(least: int):
    """The type of a whole-number option no smaller than `least`."""
    def integer(text: str) -> int:
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={least}")
        return value
    return integer


def interval(text: str) -> tuple[int, int]:
    """The type of an inclusive LO:HI option of whole numbers; argparse reports text it cannot split as invalid."""
    lo, hi = map(_at_least(0), text.split(":"))
    if max(lo, hi) >= 10**ingest_mod._MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"a bound has more than {ingest_mod._MAX_DIGITS} digits")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"lower bound {lo} exceeds upper bound {hi}")
    return lo, hi


def main(args: list[str] | None = None, prog_name: str = "workforecast", standalone_mode: bool = True) -> None:
    """Run the command that `args` (by default `sys.argv[1:]`) names. `standalone_mode` does nothing: only
    `perfbench/replay.py` passes it, as click's `main` took it, until a benchmark change drops it there."""
    parser = argparse.ArgumentParser(prog_name, description=workforecast.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {workforecast.__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True)
    for name, (fn, options) in COMMANDS.items():
        command = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        for flag, keywords in options:
            action = command.add_argument(flag, **keywords)
            if action.default is not None and action.default is not False:  # None: required or unset; False: a flag
                action.help += " (default: %(default)s)"
    # `--flag value` as `--flag=value`, so that argparse reads a value that begins with `-` as one, not as an option
    takes_value = {flag for _, options in COMMANDS.values() for flag, keywords in options if "action" not in keywords}
    joined, rest = [], iter(sys.argv[1:] if args is None else args)
    for arg in rest:
        value = next(rest, None) if arg in takes_value else None
        joined.append(arg if value is None else f"{arg}={value}")
    run_config = vars(parser.parse_args(joined))
    options = {name: value for name, value in run_config.items() if name != "subcommand"}
    enabled = gc.isenabled()
    gc.disable()  # the pipeline builds no reference cycles: a collection would walk its heap and free nothing
    try:
        COMMANDS[run_config["subcommand"]][0](run_config, **options)
    except (errors_mod.DataError, OSError) as err:
        line = f"ERROR {type(err).__name__}: {err}"
        print(f"\x1b[31m{line}\x1b[0m" if sys.stderr.isatty() and not os.environ.get("WF_NO_COLOR") else line,
              file=sys.stderr)
        sys.exit(1)
    finally:
        gc.freeze()  # else re-enabling would start one collection over everything the command allocated
        if enabled:
            gc.enable()


cli = main.main = main  # the console-script entry point, and `cli.main(args=...)` as `perfbench/replay.py` calls it


@_command("validate", *_csv("employment", "unemployment", "population"),
          ("--records", dict(dest="records_file", help="records.csv path (optional).")))
def validate_cmd(run_config, employment, unemployment, population, records_file) -> None:
    """Run ingestion checks only; no outputs."""
    series = ingest_mod.parse_regional_series(employment, unemployment, population)
    for region in series:
        years = series[region].years
        print(f"OK {errors_mod.shown(region)}: years {years[0]}-{years[-1]} ({len(years)})", file=sys.stderr)
    if records_file is not None:
        records = ingest_mod.parse_programme_records(records_file)
        print(f"OK records: {len(records)} people", file=sys.stderr)


@_command("features", *_csv("employment", "unemployment", "population"),
          ("--normalize", dict(action=argparse.BooleanOptionalAction, default=True,
                               help="Divide demand by the working-age population.")),
          ("--lag", dict(type=_at_least(0), default=0,
                         help="Shift the proxies this many whole years behind the entry year.")),
          ("--working-age", dict(type=interval, default="16:64", help="Working-age interval as LO:HI (inclusive).")),
          ("--out", dict(required=True, help="Output features.csv path.")))
def features_cmd(run_config, employment, unemployment, population, normalize, lag, working_age, out) -> None:
    """Build demand/supply feature rows from the statistical files."""
    config = features_mod.FeatureConfig(normalize=normalize, lag=lag, working_age=working_age)
    series = ingest_mod.parse_regional_series(employment, unemployment, population)
    rows = features_mod.build_features(series, config)
    features_mod.write_features_csv(rows, config, out)
    print(f"wrote {len(rows)} feature rows to {errors_mod.shown(out)}", file=sys.stderr)


@_command("performance", ("--records", dict(dest="records_file", required=True, help="records.csv path.")),
          ("--min-hours", dict(type=float, default=workforecast.DEFAULT_MIN_HOURS,
                               help="Minimum weekly hours for a spell to qualify.")),
          ("--window-months", dict(type=_at_least(0), default=workforecast.DEFAULT_WINDOW_MONTHS,
                                   help="Calendar months of continuous employment required.")),
          ("--out", dict(required=True, help="Output performance.csv path.")))
def performance_cmd(run_config, records_file, min_hours, window_months, out) -> None:
    """Aggregate programme records into per-region-per-year success rates."""
    records = ingest_mod.parse_programme_records(records_file)
    rows = perf_mod.aggregate_performance(records, min_hours=min_hours, window_months=window_months)
    perf_mod.write_performance_csv(rows, out)
    print(f"wrote {len(rows)} performance rows to {errors_mod.shown(out)}", file=sys.stderr)


@_command("fit", *_csv("features", "performance"),
          ("--per-region", dict(action="store_true", help="Fit one model per region.")),
          ("--model", dict(required=True, help="Output model.json path.")))
def fit_cmd(run_config, features, performance, per_region, model) -> None:
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
    jsonio.save(model, payload, {**run_config, "feature_config": config})
    print(summary, file=sys.stderr)


@_command("evaluate", *_csv("features", "performance"),
          ("--benchmark", dict(dest="benchmark_mode", choices=workforecast.BENCHMARK_MODES, default="trainfold-mean",
                               help="Benchmark prediction mode.")),
          ("--per-region", dict(action="store_true", help="Cross-validate within each region.")),
          ("--out", dict(required=True, help="Output report.json path.")))
def evaluate_cmd(run_config, features, performance, benchmark_mode, per_region, out) -> None:
    """Leave-one-out cross-validation of the model against the benchmark."""
    feature_rows, config = features_mod.read_features_csv(features)
    performance_rows = perf_mod.read_performance_csv(performance)
    dataset = evaluate_mod.build_dataset(feature_rows, performance_rows)
    run = evaluate_mod.loocv_per_region if per_region else evaluate_mod.loocv
    result = run(dataset, config, benchmark_mode)
    evaluate_mod.save_report_json(result, out, run_config={**run_config, "feature_config": config})
    benchmark_text = "n/a" if result.mae_benchmark_pct is None else f"{result.mae_benchmark_pct:.4g}%"
    print(f"{len(result.folds)} folds: MAE model {result.mae_model_pct:.4g}% vs benchmark {benchmark_text}",
          file=sys.stderr)


@_command("synth", ("--out", dict(required=True, help="Output directory for the generated files.")),
          ("--seed", dict(type=_at_least(0), default=0, help="Generator seed.")),
          ("--regions", dict(dest="n_regions", type=_at_least(1), default=2, help="Number of regions to generate.")),
          ("--years", dict(type=interval, default="2011:2018", help="Inclusive year range as FIRST:LAST.")),
          ("--intercept", dict(dest="true_intercept", type=float, default=0.5, help="True intercept.")),
          ("--coef-demand", dict(dest="true_coef_demand", type=float, default=1.5, help="True demand coefficient.")),
          ("--coef-supply", dict(dest="true_coef_supply", type=float, default=-2.0, help="True supply coefficient.")),
          ("--noise-sd", dict(type=float, default=0.0, help="Gaussian noise on the performance scale.")),
          ("--shock-year", dict(type=int, help="First year of the step shock.")),
          ("--demand-shift", dict(type=float, default=0.0,
                                  help="Employment level shift as a fraction of working-age population.")),
          ("--supply-shift", dict(type=float, default=0.0,
                                  help="Unemployment level shift as a fraction of working-age population.")))
def synth_cmd(run_config, out, **params) -> None:
    """Generate a synthetic panel with a known linear ground truth."""
    config = synth_mod.SynthConfig(**params)
    result = synth_mod.generate(config)
    paths = synth_mod.write_outputs(result, config, out, run_config=run_config)
    print(f"generated {len(result.series_by_region)} regions, {len(result.performance)} performance rows "
          f"({result.n_clipped} clipped) in {errors_mod.shown(paths['truth'].parent)}", file=sys.stderr)


@_command("figures", *_csv("employment", "unemployment", "population", "features", "performance"),
          ("--report", dict(dest="report_file", required=True, help="report.json path from `evaluate`.")),
          ("--baseline-year", dict(type=int,
                                   help="Population baseline year (default: earliest year shared by all regions).")),
          ("--population-baseline", dict(dest="population_mode", choices=workforecast.BASELINE_MODES,
                                         default="ratio", help="Baseline mode for population growth.")),
          ("--performance-baseline", dict(dest="performance_mode", choices=workforecast.BASELINE_MODES,
                                          default="difference", help="Baseline mode for the evaluation chart.")),
          ("--out", dict(required=True, help="Output directory for the plot-data CSVs.")))
def figures_cmd(run_config, employment, unemployment, population, features, performance, report_file, out,
                **baselines) -> None:
    """Emit the four plot-data CSV files."""
    series = ingest_mod.parse_regional_series(employment, unemployment, population)
    feature_rows, config = features_mod.read_features_csv(features)
    performance_rows = perf_mod.read_performance_csv(performance)
    eval_report = evaluate_mod.load_report_json(report_file)
    if eval_report.feature_config != config:
        raise errors_mod.FeatureConfigMismatch(
            f"report was built under {eval_report.feature_config} but {errors_mod.shown(features)} under {config}",
            file=str(report_file),
        )
    paths = report_mod.emit_figure_data(series, feature_rows, performance_rows, eval_report, out, **baselines)
    print(f"wrote {len(paths)} figure files to {errors_mod.shown(out)}", file=sys.stderr)


if __name__ == "__main__":
    cli()
