"""`model.fit` on numpy arrays against `helpers.fit_arrays_reference`, its frozen earlier self.

`tests/test_loocv_oracle.py` refits through `model.fit` itself, so it cannot
see a change in the solver. Here every `ModelFit` field must have the same
type and the same bits (compared by `float.hex`, so NaN and -0.0 count too),
and every error the same class, message and context, over: every design the
array-refit checks of that file hand to `fit` (each panel, pooled and per
region, in full and minus each row), 1,519-row designs in C, Fortran and
strided layouts, collinear designs, designs whose QR overflows, a constant
target and a NaN target.
"""
from dataclasses import fields

import numpy as np
import pytest

from workforecast.errors import DataError
from workforecast.model import design, fit

from helpers import fit_arrays_reference
from test_loocv_oracle import PANELS

N = 1_519


def _outcome(solver, x, y):
    try:
        fitted = solver(x, y)
    except DataError as err:
        return type(err), str(err), err.context
    values = [getattr(fitted, field.name) for field in fields(fitted)]
    return [(type(value), value.hex() if isinstance(value, float) else value) for value in values]


def _assert_bit_equal(x, y):
    x_before, y_before = x.copy(), y.copy()
    expected = _outcome(fit_arrays_reference, x_before.copy(), y_before.copy())
    assert _outcome(fit, x, y) == expected
    assert np.array_equal(x, x_before, equal_nan=True) and np.array_equal(y, y_before, equal_nan=True)


def _law(n: int, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.ones((n, 3))
    x[:, 1:] = rng.normal(0.0, 0.3, size=(n, 2))
    return x, 0.4 + 1.2 * x[:, 1] - 0.8 * x[:, 2] + rng.normal(0.0, 0.02, size=n)


@pytest.mark.parametrize("scope", ["pooled", "per-region"])
@pytest.mark.parametrize("seed", range(len(PANELS)))
def test_every_leave_one_out_design_of_the_random_panels(seed, scope):
    data = sorted(PANELS[seed], key=lambda pair: (pair[0].region_id, pair[0].year))
    groups = [data] if scope == "pooled" else [
        [pair for pair in data if pair[0].region_id == region] for region in sorted({row.region_id for row, _ in data})
    ]
    for group in groups:
        x, y = (np.array(values) for values in design(group))
        _assert_bit_equal(x, y)
        for i in range(len(group)):
            _assert_bit_equal(np.delete(x, i, 0), np.delete(y, i))


def test_long_designs_in_every_memory_layout():
    x, y = _law(N)
    wide = np.zeros((N, 7))
    wide[:, ::2][:, :3] = x
    layouts = {"c": x, "fortran": np.asfortranarray(x), "strided": wide[:, 0:6:2]}
    assert not layouts["strided"].flags.c_contiguous and not layouts["strided"].flags.f_contiguous
    for name, x_layout in layouts.items():
        _assert_bit_equal(x_layout, y[::-1].copy()[::-1])  # the same target, read through a negative stride
        _assert_bit_equal(x_layout, y)


def _columns(n: int, demand, supply) -> np.ndarray:
    return np.column_stack([np.ones(n), demand, supply])


@pytest.mark.parametrize("case", [
    "constant demand", "constant supply", "supply twice demand", "zero columns", "demand equals the intercept",
    "three rows", "two rows",
])
def test_collinear_and_small_designs(case):
    x, y = _law(40, seed=11)
    demand, supply, n = x[:, 1], x[:, 2], 40
    x = {
        "constant demand": _columns(n, np.full(n, 0.1), supply),
        "constant supply": _columns(n, demand, np.full(n, -0.3)),
        "supply twice demand": _columns(n, demand, 2.0 * demand),
        "zero columns": _columns(n, np.zeros(n), np.zeros(n)),
        "demand equals the intercept": _columns(n, np.ones(n), supply),
        "three rows": x,
        "two rows": x,
    }[case]
    rows = {"three rows": 3, "two rows": 2}.get(case, n)
    _assert_bit_equal(x[:rows].copy(), y[:rows].copy())


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("column", [1, 2])
def test_designs_whose_factorization_overflows(sign, column):
    x, y = _law(5, seed=13)
    x[0, column] = sign * 1e200
    _assert_bit_equal(x, y)
    x[1, column] = -sign * 1e200
    _assert_bit_equal(x, y)


def test_a_target_past_the_float_range_when_squared():
    x, y = _law(30, seed=17)
    _assert_bit_equal(x, y * 1e200)


def test_a_constant_target():
    x, _ = _law(60, seed=19)
    _assert_bit_equal(x, np.full(60, 0.35))


def test_a_nan_target():
    x, y = _law(60, seed=23)
    y[4] = np.nan
    _assert_bit_equal(x, y)
