"""`loocv` on prebuilt design arrays against the list-built refit loop it replaced.

Reports are compared with dataclass equality, so every fold's predictions,
errors and the summary metrics must be bit-equal to the oracle's. That oracle
refits through `model.fit` itself, so it cannot see a change in the solver;
a second check refits through `householder_fit_oracle`, the solver `fit`
replaced, and allows 1e-13 on every fold's prediction.
"""
from collections import Counter

import numpy as np
import pytest

import workforecast.evaluate as evaluate_mod
from workforecast.errors import RankDeficientFold
from workforecast.evaluate import loocv, loocv_per_region
from workforecast.features import FeatureConfig, FeatureRow

from helpers import feature_rows, householder_fit_oracle, loocv_refit_oracle

CONFIG = FeatureConfig()
MODES = ("trainfold-mean", "prior-years-mean")


def _random_panel(rng: np.random.Generator) -> list[tuple[FeatureRow, float]]:
    """Random regions of 4-12 rows each, years drawn with repeats, rows shuffled."""
    panel = []
    for r in range(int(rng.integers(1, 7))):
        n = int(rng.integers(4, 13))
        years = rng.integers(2001, 2001 + int(rng.integers(2, 15)), size=n)
        for year in years:
            demand, supply = (float(v) for v in rng.normal(0.0, 0.3, size=2))
            target = 0.4 + 1.2 * demand - 0.8 * supply + float(rng.normal(0.0, 0.05))
            panel.append((FeatureRow(f"R{r:02d}", int(year), demand, supply), target))
    return [panel[i] for i in rng.permutation(len(panel))]


PANELS = [_random_panel(np.random.default_rng(seed)) for seed in range(24)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_pooled_report_is_bit_equal_to_the_refit_oracle(seed, mode):
    panel = PANELS[seed]
    assert loocv(panel, CONFIG, mode) == loocv_refit_oracle(panel, CONFIG, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_per_region_report_is_bit_equal_to_the_refit_oracle(seed, mode):
    panel = PANELS[seed]
    expected = loocv_refit_oracle(panel, CONFIG, mode, scope="per-region")
    assert loocv_per_region(panel, CONFIG, mode) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_pooled_report_is_close_to_the_row_major_solver(seed, mode):
    panel = PANELS[seed]
    got = loocv(panel, CONFIG, mode)
    expected = loocv_refit_oracle(panel, CONFIG, mode, solver=householder_fit_oracle)
    assert len(got.folds) == len(expected.folds) == len(panel)
    for fold, oracle in zip(got.folds, expected.folds):
        assert (fold.region_id, fold.year, fold.actual) == (oracle.region_id, oracle.year, oracle.actual)
        assert fold.pred_benchmark == oracle.pred_benchmark
        assert abs(fold.pred_model - oracle.pred_model) <= 1e-13
        assert abs(fold.abs_err_model - oracle.abs_err_model) <= 1e-13
    assert abs(got.mae_model_pct - expected.mae_model_pct) <= 1e-11  # percentage points


def _raised(run) -> RankDeficientFold:
    with pytest.raises(RankDeficientFold) as excinfo:
        run()
    return excinfo.value


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "values",
    [
        [(0.1, 0.1), (0.1, 0.2), (0.1, 0.3), (0.2, 0.4)],  # one fold loses all demand variation
        [(1e200, 0.05), (0.02, 0.07), (-0.04, 0.03), (0.06, 0.11), (-0.08, 0.09)],  # QR overflows
    ],
)
def test_rank_deficient_fold_matches_the_refit_oracle(values, mode):
    dataset = [(row, 0.3 + 0.1 * i) for i, row in enumerate(feature_rows(values))]
    err = _raised(lambda: loocv(dataset, CONFIG, mode))
    expected = _raised(lambda: loocv_refit_oracle(dataset, CONFIG, mode))
    assert (str(err), err.region, err.year) == (str(expected), expected.region, expected.year)
    assert type(err.__cause__) is type(expected.__cause__)


@pytest.fixture
def fit_calls(monkeypatch):
    calls = []
    fit = evaluate_mod.fit

    def counting_fit(*args, **kwargs):
        calls.append(len(args[0]))
        return fit(*args, **kwargs)

    monkeypatch.setattr(evaluate_mod, "fit", counting_fit)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_loocv_fits_once_per_fold(fit_calls, mode):
    panel = PANELS[5]
    loocv(panel, CONFIG, mode)
    assert fit_calls == [len(panel) - 1] * len(panel)


@pytest.mark.parametrize("mode", MODES)
def test_loocv_per_region_fits_once_per_row(fit_calls, mode):
    panel = PANELS[5]
    loocv_per_region(panel, CONFIG, mode)
    sizes = Counter(row.region_id for row, _ in panel)
    assert fit_calls == [n - 1 for _, n in sorted(sizes.items()) for _ in range(n)]
