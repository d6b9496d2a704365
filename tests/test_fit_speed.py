"""Deterministic guards for the speed and the inputs of `model.fit`.

Given numpy arrays, `fit` copies [x | y] into one C-contiguous (4, n) array,
row k holding column k, so that every Householder reflection reads and
updates contiguous rows. That layout is checked here by spying on the
triangularization, not by timing. Whatever the memory layout of the caller's
`x`, the working copy is the same, so coefficients are bit-equal (rss and
r_squared are left out: they come from BLAS dot products, whose summation
order may depend on layout). Given lists or tuples, `fit` reduces four column
lists in pure Python, so rows given as lists or as tuples give bit-equal
results. Neither path writes the caller's inputs.
"""
import numpy as np
import pytest

from workforecast import model
from workforecast.model import fit

N = 1_519


def _design(n: int, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.ones((n, 3))
    x[:, 1:] = rng.normal(0.0, 0.3, size=(n, 2))
    y = 0.4 + 1.2 * x[:, 1] - 0.8 * x[:, 2] + rng.normal(0.0, 0.02, size=n)
    return x, y


def _coefficients(x, y) -> tuple[float, ...]:
    fitted = fit(x, y)
    return fitted.intercept, fitted.coef_demand, fitted.coef_supply


def test_fit_triangularizes_a_contiguous_column_major_copy(monkeypatch):
    x, y = _design(N)
    seen = []
    triangularize = model._householder_triangularize

    def spy(a):
        seen.append((a.shape, a.flags.c_contiguous, a.dtype, a[:3].T.tolist() == x.tolist(), a[3].tolist() == y.tolist()))
        triangularize(a)

    monkeypatch.setattr(model, "_householder_triangularize", spy)
    fit(x, y)
    assert seen == [((4, N), True, np.float64, True, True)]


def test_lists_are_triangularized_as_four_column_lists(monkeypatch):
    x, y = _design(40)
    seen = []
    triangularize = model._householder_triangularize

    def spy(a):
        seen.append(([type(column) for column in a], a[:3] == x.T.tolist(), a[3] == y.tolist()))
        triangularize(a)

    monkeypatch.setattr(model, "_householder_triangularize", spy)
    fit(x.tolist(), y.tolist())
    assert seen == [([list] * 4, True, True)]


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


@pytest.mark.parametrize("n", [3, 4, 300])
def test_list_and_tuple_rows_give_bit_equal_fits(n):
    x, y = _design(n)
    as_lists = fit(x.tolist(), y.tolist())
    as_tuples = fit(tuple(map(tuple, x.tolist())), tuple(y.tolist()))
    assert as_tuples == as_lists


@pytest.mark.parametrize("n", [3, 4, N])
def test_fit_leaves_its_inputs_unchanged(n):
    x, y = _design(n)
    x_before, y_before = x.copy(), y.copy()
    fit(x, y)
    assert np.array_equal(x, x_before) and np.array_equal(y, y_before)


@pytest.mark.parametrize("n", [3, 4, 300])
def test_fit_leaves_its_list_inputs_unchanged(n):
    x, y = _design(n)
    rows, targets = x.tolist(), y.tolist()
    inner = [id(row) for row in rows]
    fit(rows, targets)
    assert rows == x.tolist() and targets == y.tolist()
    assert [id(row) for row in rows] == inner
