"""`loocv` on prebuilt design rows against the refit loop it replaced.

Reports are compared with dataclass equality, so every fold's predictions,
errors and the summary metrics must be bit-equal to the oracle's. That oracle
refits through `model.fit` itself, so it cannot see a change in the solver
(`tests/test_fit_reference.py` can, bit for bit, on arrays); a second check
refits through `householder_fit_oracle`, the solver `fit` replaced, and
allows 1e-13 on every fold's prediction.

These panels are small, so `loocv` refits lists, which `fit` solves in pure
Python. The checks run again with the `arrays` fixture, which sets
`evaluate.NUMPY_ROWS` to 0 so that `loocv` refits numpy arrays, as it does
for larger datasets; the refit oracle then fits arrays too. A spy on `fit`
checks that every fold refits the same training buffer, holding the data
without the fold's row.
"""
from collections import Counter

import numpy as np
import pytest

import workforecast.evaluate as evaluate_mod
from workforecast.errors import RankDeficientFold
from workforecast.evaluate import loocv, loocv_per_region
from workforecast.features import FeatureConfig, FeatureRow
from workforecast.model import design, fit

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


def _fit_arrays(x, y):
    return fit(np.array(x).reshape(-1, 3), np.array(y))


@pytest.fixture
def arrays(monkeypatch):
    """`loocv` refits numpy arrays at every size, as it does above `evaluate.NUMPY_ROWS` rows."""
    monkeypatch.setattr(evaluate_mod, "NUMPY_ROWS", 0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_pooled_report_is_bit_equal_to_the_refit_oracle(seed, mode):
    panel = PANELS[seed]
    assert loocv(panel, CONFIG, mode) == loocv_refit_oracle(panel, CONFIG, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_pooled_report_on_arrays_is_bit_equal_to_the_refit_oracle(arrays, seed, mode):
    panel = PANELS[seed]
    assert loocv(panel, CONFIG, mode) == loocv_refit_oracle(panel, CONFIG, mode, solver=_fit_arrays)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_per_region_report_is_bit_equal_to_the_refit_oracle(seed, mode):
    panel = PANELS[seed]
    expected = loocv_refit_oracle(panel, CONFIG, mode, scope="per-region")
    assert loocv_per_region(panel, CONFIG, mode) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_per_region_report_on_arrays_is_bit_equal_to_the_refit_oracle(arrays, seed, mode):
    panel = PANELS[seed]
    expected = loocv_refit_oracle(panel, CONFIG, mode, scope="per-region", solver=_fit_arrays)
    assert loocv_per_region(panel, CONFIG, mode) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_pooled_report_is_close_to_the_row_major_solver(seed, mode):
    _assert_close_to_the_row_major_solver(PANELS[seed], mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_pooled_report_on_arrays_is_close_to_the_row_major_solver(arrays, seed, mode):
    _assert_close_to_the_row_major_solver(PANELS[seed], mode)


def _assert_close_to_the_row_major_solver(panel, mode):
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


RANK_DEFICIENT_VALUES = [
    [(0.1, 0.1), (0.1, 0.2), (0.1, 0.3), (0.2, 0.4)],  # one fold loses all demand variation
    [(1e200, 0.05), (0.02, 0.07), (-0.04, 0.03), (0.06, 0.11), (-0.08, 0.09)],  # QR overflows
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("values", RANK_DEFICIENT_VALUES)
def test_rank_deficient_fold_matches_the_refit_oracle(values, mode):
    _assert_rank_deficient_fold_matches(values, mode, fit)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("values", RANK_DEFICIENT_VALUES)
def test_rank_deficient_fold_on_arrays_matches_the_refit_oracle(arrays, values, mode):
    _assert_rank_deficient_fold_matches(values, mode, _fit_arrays)


def _assert_rank_deficient_fold_matches(values, mode, solver):
    dataset = [(row, 0.3 + 0.1 * i) for i, row in enumerate(feature_rows(values))]
    err = _raised(lambda: loocv(dataset, CONFIG, mode))
    expected = _raised(lambda: loocv_refit_oracle(dataset, CONFIG, mode, solver=solver))
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
def test_loocv_on_arrays_fits_once_per_fold(arrays, fit_calls, mode):
    panel = PANELS[5]
    loocv(panel, CONFIG, mode)
    assert fit_calls == [len(panel) - 1] * len(panel)


@pytest.mark.parametrize("mode", MODES)
def test_loocv_per_region_fits_once_per_row(fit_calls, mode):
    panel = PANELS[5]
    loocv_per_region(panel, CONFIG, mode)
    sizes = Counter(row.region_id for row, _ in panel)
    assert fit_calls == [n - 1 for _, n in sorted(sizes.items()) for _ in range(n)]


@pytest.mark.parametrize("extra, kind", [(0, list), (1, np.ndarray)])
def test_loocv_refits_arrays_only_above_the_crossover(monkeypatch, extra, kind):
    rng = np.random.default_rng(7)
    n = evaluate_mod.NUMPY_ROWS + extra
    values = [(float(d), float(s)) for d, s in rng.normal(0.0, 0.3, size=(n, 2))]
    dataset = [(row, 0.4 + 1.2 * row.demand - 0.8 * row.supply) for row in feature_rows(values)]
    kinds = set()
    real_fit = evaluate_mod.fit

    def spy(x, y):
        kinds.add((type(x), type(y)))
        return real_fit(x, y)

    monkeypatch.setattr(evaluate_mod, "fit", spy)
    loocv(dataset, CONFIG)
    assert kinds == {(kind, kind)}


@pytest.mark.parametrize("numpy_rows", [evaluate_mod.NUMPY_ROWS, 0], ids=["lists", "arrays"])
def test_every_fold_refits_one_buffer_holding_the_data_minus_its_row(monkeypatch, numpy_rows):
    """`loocv` builds one (n-1)-row training set and writes one row back into it per fold, copying none."""
    monkeypatch.setattr(evaluate_mod, "NUMPY_ROWS", numpy_rows)
    panel = PANELS[5]
    x, y = design(sorted(panel, key=lambda pair: (pair[0].region_id, pair[0].year)))
    seen = []
    real_fit = evaluate_mod.fit

    def spy(train_x, train_y):
        seen.append((train_x, train_y, [list(map(float, row)) for row in train_x], list(map(float, train_y))))
        return real_fit(train_x, train_y)

    monkeypatch.setattr(evaluate_mod, "fit", spy)
    loocv(panel, CONFIG)
    assert all(train_x is seen[0][0] and train_y is seen[0][1] for train_x, train_y, _, _ in seen)
    assert [(rows, targets) for _, _, rows, targets in seen] == [
        (x[:i] + x[i + 1:], y[:i] + y[i + 1:]) for i in range(len(panel))
    ]
