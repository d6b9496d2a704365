"""Deterministic guards for the speed of `model.fit`.

`fit` copies [x | y] into one C-contiguous (4, n) array, row k holding
column k, so that every Householder reflection reads and updates contiguous
rows. That layout is checked here by spying on the triangularization, not by
timing. Whatever the memory layout of the caller's `x`, the working copy is
the same, so coefficients are bit-equal (rss and r_squared are left out:
they come from `x @ beta`, whose summation order BLAS may pick by layout);
and the caller's arrays are never written.
"""
import numpy as np
import pytest

from workforecast import model
from workforecast.features import FeatureConfig
from workforecast.model import fit

CONFIG = FeatureConfig()
N = 1_519


def _design(n: int, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.ones((n, 3))
    x[:, 1:] = rng.normal(0.0, 0.3, size=(n, 2))
    y = 0.4 + 1.2 * x[:, 1] - 0.8 * x[:, 2] + rng.normal(0.0, 0.02, size=n)
    return x, y


def _coefficients(x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    fitted = fit(x, y, CONFIG)
    return fitted.intercept, fitted.coef_demand, fitted.coef_supply


def test_fit_triangularizes_a_contiguous_column_major_copy(monkeypatch):
    x, y = _design(N)
    seen = []
    triangularize = model._householder_triangularize

    def spy(a, n_cols):
        seen.append((a.shape, a.flags.c_contiguous, a.dtype, n_cols, a[:3].T.tolist() == x.tolist(),
                     a[3].tolist() == y.tolist()))
        triangularize(a, n_cols)

    monkeypatch.setattr(model, "_householder_triangularize", spy)
    fit(x, y, CONFIG)
    assert seen == [((4, N), True, np.float64, 3, True, True)]


def test_memory_layout_of_x_does_not_change_the_fit():
    x, y = _design(N + 1)
    rows = np.delete(x, 7, 0)
    expected = _coefficients(rows.copy(order="C"), np.delete(y, 7))
    wide = np.zeros((N, 7))
    wide[:, ::2][:, :3] = rows
    layouts = {
        "fortran": np.asfortranarray(rows),
        "strided": wide[:, 0:6:2],
        "delete": rows,
    }
    assert not layouts["strided"].flags.c_contiguous and not layouts["strided"].flags.f_contiguous
    assert layouts["fortran"].flags.f_contiguous and not layouts["fortran"].flags.c_contiguous
    for name, x_layout in layouts.items():
        assert np.array_equal(x_layout, rows), name
        assert _coefficients(x_layout, np.delete(y, 7)) == expected, name


@pytest.mark.parametrize("n", [3, 4, N])
def test_fit_leaves_its_inputs_unchanged(n):
    x, y = _design(n)
    x_before, y_before = x.copy(), y.copy()
    fit(x, y, CONFIG)
    assert np.array_equal(x, x_before) and np.array_equal(y, y_before)
