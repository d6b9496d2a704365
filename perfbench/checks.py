"""Output checks against oracles that share no code with the program.

Every check returns None when the output is right and a one-line reason
when it is not. Leave-one-out predictions are checked against the hat-matrix
identity: for least squares, the prediction for held-out row i equals
y_i - e_i / (1 - h_ii), with e the full-fit residuals and h_ii the squared
norm of row i of the thin Q factor of one QR of the design.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
FIGURE_FILES = ("fig1_demand.csv", "fig2_unemployment.csv", "fig3_population.csv", "fig4_eval.csv")


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def dataset(features_csv: Path, performance_csv: Path) -> list[tuple[str, int, float, float, float]]:
    """(region, year, demand, supply, performance) joined on (region, year), sorted."""
    targets = {
        (row["region"], int(row["entry_year"])): int(row["n_success"]) / int(row["n_entrants"])
        for row in _rows(performance_csv)
    }
    joined = [
        (row["region"], int(row["year"]), float(row["demand"]), float(row["supply"]),
         targets[(row["region"], int(row["year"]))])
        for row in _rows(features_csv)
        if (row["region"], int(row["year"])) in targets
    ]
    return sorted(joined)


def _least_squares(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, beta, leverage) from one QR of the design [1, demand, supply]."""
    x = np.array([[1.0, demand, supply] for _, _, demand, supply, _ in rows])
    y = np.array([target for *_, target in rows])
    q, r = np.linalg.qr(x)
    beta = np.linalg.solve(r, q.T @ y)
    return x, y, beta, (q * q).sum(axis=1)


def loo_predictions(rows, benchmark_mode: str) -> tuple[np.ndarray, list[float | None]]:
    """Held-out model predictions and benchmark predictions of a pooled LOOCV."""
    x, y, beta, leverage = _least_squares(rows)
    residuals = y - x @ beta
    model = y - residuals / (1.0 - leverage)
    if benchmark_mode == "trainfold-mean":
        bench = list((y.sum() - y) / (len(y) - 1))
    else:
        years = np.array([year for _, year, *_ in rows])
        bench = [float(y[years < year].mean()) if (years < year).any() else None for year in years]
    return model, bench


def check_report(report_json: Path, rows) -> str | None:
    """Every fold's key, actual value and both predictions against the oracle."""
    report = json.loads(report_json.read_text())
    folds = report["folds"]
    if [(f["region"], f["year"]) for f in folds] != [(r[0], r[1]) for r in rows]:
        return f"{report_json.name}: fold keys differ from the joined dataset"
    expected_model, expected_bench = loo_predictions(rows, report["benchmark_mode"])
    for fold, row, model, bench in zip(folds, rows, expected_model, expected_bench):
        where = f"{report_json.name} fold ({fold['region']}, {fold['year']})"
        if abs(fold["actual"] - row[4]) > TOLERANCE:
            return f"{where}: actual {fold['actual']!r} != {row[4]!r}"
        if abs(fold["pred_model"] - model) > TOLERANCE:
            return f"{where}: pred_model {fold['pred_model']!r} != oracle {model!r}"
        if (fold["pred_benchmark"] is None) != (bench is None) or (
            bench is not None and abs(fold["pred_benchmark"] - bench) > TOLERANCE
        ):
            return f"{where}: pred_benchmark {fold['pred_benchmark']!r} != {bench!r}"
    return None


def check_model(model_json: Path, rows) -> str | None:
    """Fitted coefficients against the QR oracle."""
    model = json.loads(model_json.read_text())
    beta = _least_squares(rows)[2]
    got = np.array([model["intercept"], model["coef_demand"], model["coef_supply"]])
    if np.max(np.abs(got - beta) / np.maximum(1.0, np.abs(beta))) > TOLERANCE:
        return f"{model_json.name}: coefficients {got.tolist()} != oracle {beta.tolist()}"
    return None


def check_truth(model_json: Path, truth_json: Path) -> str | None:
    """Noiseless synth data: the pooled fit recovers the true coefficients."""
    model = json.loads(model_json.read_text())
    truth = json.loads(truth_json.read_text())["config"]
    for got_key, true_key in (("intercept", "true_intercept"), ("coef_demand", "true_coef_demand"),
                              ("coef_supply", "true_coef_supply")):
        if abs(model[got_key] - truth[true_key]) > TOLERANCE:
            return f"{got_key} {model[got_key]!r} != true {truth[true_key]!r}"
    return None


def check_performance(performance_csv: Path, expected: list[list]) -> str | None:
    """Per-(region, year) entrant and success counts against the generator's own count."""
    got = [[row["region"], int(row["entry_year"]), int(row["n_entrants"]), int(row["n_success"])]
           for row in _rows(performance_csv)]
    for got_row, expected_row in itertools.zip_longest(got, expected):
        if got_row != expected_row:
            return f"performance counts differ: got {got_row}, expected {expected_row}"
    return None


def check_figures(figs: Path, n_folds: int) -> str | None:
    for name in FIGURE_FILES:
        if not (figs / name).is_file():
            return f"missing {name}"
    rows = len(_rows(figs / "fig4_eval.csv"))
    return None if rows == n_folds else f"fig4_eval.csv has {rows} rows, expected {n_folds}"


def run_checks(workload: str, out: Path, inputs: Path) -> list[tuple[str, str | None]]:
    """All output checks of one pass directory, as (name, failure or None)."""
    data = out / "data" if workload == "quickstart" else inputs
    performance = out / "performance.csv" if workload == "records" else data / "performance.csv"
    results: list[tuple[str, str | None]] = []

    def check(name, fn, *args):
        try:
            results.append((name, fn(*args)))
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError, np.linalg.LinAlgError) as err:
            results.append((name, f"{type(err).__name__}: {err}"))

    if workload == "records":
        expected = json.loads((inputs / "expected_performance.json").read_text())
        check("performance_counts", check_performance, performance, expected)
    try:
        rows = dataset(out / "features.csv", performance)
    except (OSError, ValueError, KeyError) as err:
        return results + [("dataset", f"{type(err).__name__}: {err}")]
    if workload == "quickstart":
        check("truth_coefficients", check_truth, out / "model.json", data / "truth.json")
    check("model_coefficients", check_model, out / "model.json", rows)
    reports = ["report.json", "report_prior.json"] if workload == "panel" else ["report.json"]
    for report in reports:
        check(f"loocv_{report}", check_report, out / report, rows)
    check("figures", check_figures, out / "figs", len(rows))
    return results


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under a pass directory, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
