"""`model.fit` against the row-major Householder solver it replaced.

Both solvers apply the same three reflections, but in another order of
floating-point operations, so results agree to rounding, not bit for bit.
The bound is set on the equilibrated problem, where every column of x and
the target have unit norm: there a backward-stable solver's coefficients
move by at most a small multiple of eps * kappa * (1 + max |coefficient|),
with kappa the condition number of the equilibrated design. Householder
reflections commute with column scaling, so this bound holds whatever the
scale of the features and of the target. The tests allow
BOUND = 1e-13 * kappa * (1 + max |coefficient|), about 450 eps per unit of
kappa; the largest ratio seen over these designs is below one eps. rss is
held to BOUND * |y|^2 and r_squared to BOUND * |y|^2 / tss.

Where the old solver raises, the new one must raise the same exception type
naming the same columns.

Every check runs twice: on numpy arrays, which `fit` reduces with numpy, and
on the same values as lists of floats, which it reduces in pure Python with
correctly rounded sums. The bounds are the same for both.
"""
import numpy as np
import pytest

from workforecast.errors import RankDeficientDesign, TooFewObservations
from workforecast.features import FeatureConfig
from workforecast.model import design, fit

from helpers import feature_rows, householder_fit_oracle

CONFIG = FeatureConfig()
KINDS = ("plain", "near-collinear", "constant-target", "square", "extreme-features")
SEEDS = range(250)
REPRESENTATIONS = {"array": lambda x, y: (x, y), "list": lambda x, y: (x.tolist(), y.tolist())}


def _random_design(seed: int) -> tuple[str, np.ndarray, np.ndarray]:
    """A seeded design of one of KINDS, with n from 3 to 2,000.

    Targets range over scales 1e-100..1e100. Features do too in
    "extreme-features"; there the intercept column dwarfs them or they dwarf
    it, so most of those designs are rank deficient by the collinearity
    tolerance. Elsewhere features stay within 1e-6..1e6, where fits succeed.
    """
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % len(KINDS)]
    n = 3 if kind == "square" else int(np.exp(rng.uniform(np.log(3), np.log(2_000))))
    span = 100 if kind == "extreme-features" else 6
    scale_d, scale_s = 10.0 ** rng.uniform(-span, span, size=2)
    scale_y = 10.0 ** rng.uniform(-100, 100)
    demand, supply = rng.normal(size=(2, n))
    if kind == "near-collinear":
        # full rank, with supply an affine function of demand up to a relative 1e-9..1e-3
        supply = 0.7 * demand + 0.3 + 10.0 ** rng.uniform(-9, -3) * rng.normal(size=n)
    x = np.column_stack([np.ones(n), scale_d * demand, scale_s * supply])
    if kind == "constant-target":
        y = np.full(n, scale_y * rng.normal())
    else:
        y = scale_y * (0.4 + 1.2 * demand - 0.8 * supply + 0.05 * rng.normal(size=n))
    return kind, x, y


def _assert_same_error(x, y, representation: str = "array") -> None:
    with pytest.raises((RankDeficientDesign, TooFewObservations)) as expected:
        householder_fit_oracle(x, y, CONFIG)
    with pytest.raises(type(expected.value)) as got:
        fit(*REPRESENTATIONS[representation](x, y), CONFIG)
    assert getattr(got.value, "columns", None) == getattr(expected.value, "columns", None)


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_agrees_with_the_row_major_solver(seed):
    _assert_agrees(seed, "array")


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_on_lists_agrees_with_the_row_major_solver(seed):
    _assert_agrees(seed, "list")


def _assert_agrees(seed: int, representation: str) -> None:
    kind, x, y = _random_design(seed)
    try:
        expected = householder_fit_oracle(x, y, CONFIG)
    except RankDeficientDesign:
        _assert_same_error(x, y, representation)
        return
    got = fit(*REPRESENTATIONS[representation](x, y), CONFIG)

    col_norms, y_norm = np.linalg.norm(x, axis=0), float(np.linalg.norm(y))
    kappa = np.linalg.cond(x / col_norms)
    old = np.array([expected.intercept, expected.coef_demand, expected.coef_supply]) * col_norms / y_norm
    new = np.array([got.intercept, got.coef_demand, got.coef_supply]) * col_norms / y_norm
    bound = 1e-13 * kappa * (1.0 + np.abs(old).max())
    assert np.abs(new - old).max() <= bound
    assert abs(got.rss - expected.rss) <= bound * y_norm**2
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss > 0.0:
        assert abs(got.r_squared - expected.r_squared) <= bound * y_norm**2 / tss
    else:
        assert got.r_squared == expected.r_squared == 1.0
    assert got.n_obs == expected.n_obs


def test_the_designs_cover_every_kind():
    """Most designs fit; a few of each kind but extreme-features, and most of those, raise."""
    fitted = {kind: 0 for kind in KINDS}
    sizes = []
    for seed in SEEDS:
        kind, x, y = _random_design(seed)
        sizes.append(len(y))
        try:
            householder_fit_oracle(x, y, CONFIG)
            fitted[kind] += 1
        except RankDeficientDesign:
            pass
    per_kind = len(SEEDS) // len(KINDS)
    assert all(fitted[kind] > 0.8 * per_kind for kind in KINDS if kind != "extreme-features")
    assert 0 < fitted["extreme-features"] < 0.5 * per_kind
    assert min(sizes) == 3 and max(sizes) > 1_000


# The collinear, overflowing and too-small inputs of tests/test_model.py and
# tests/test_loocv_oracle.py, as (demand, supply) rows.
BASE_VALUES = [(0.10, 0.05), (0.02, 0.07), (-0.04, 0.03), (0.06, 0.11), (-0.08, 0.09)]
FAILING_VALUES = {
    "constant-demand": [(0.5, s) for s in (0.01, 0.05, 0.09, 0.12)],
    "duplicate-columns": [(v, v) for v in (0.01, 0.05, 0.09, 0.12)],
    "overflow": [(1e200, 0.05), *BASE_VALUES[1:4]],
    "too-few": BASE_VALUES[:2],
}
LOOCV_VALUES = {
    "fold-loses-demand": [(0.1, 0.1), (0.1, 0.2), (0.1, 0.3), (0.2, 0.4)],
    "fold-overflows": [(1e200, 0.05), *BASE_VALUES[1:]],
}


@pytest.mark.parametrize("name", FAILING_VALUES)
def test_failing_inputs_raise_what_the_row_major_solver_raises(name):
    x, y = design([(row, 0.3 + 0.1 * i) for i, row in enumerate(feature_rows(FAILING_VALUES[name]))])
    _assert_same_error(np.array(x).reshape(-1, 3), np.array(y))


@pytest.mark.parametrize("name", FAILING_VALUES)
def test_failing_lists_raise_what_the_row_major_solver_raises(name):
    x, y = design([(row, 0.3 + 0.1 * i) for i, row in enumerate(feature_rows(FAILING_VALUES[name]))])
    _assert_same_error(np.array(x).reshape(-1, 3), np.array(y), "list")


@pytest.mark.parametrize("name", LOOCV_VALUES)
def test_every_fold_of_the_failing_loocv_inputs_agrees(name):
    _assert_every_fold_agrees(name, "array")


@pytest.mark.parametrize("name", LOOCV_VALUES)
def test_every_fold_of_the_failing_loocv_lists_agrees(name):
    _assert_every_fold_agrees(name, "list")


def _assert_every_fold_agrees(name: str, representation: str) -> None:
    x, y = design([(row, 0.3 + 0.1 * i) for i, row in enumerate(feature_rows(LOOCV_VALUES[name]))])
    x, y = np.array(x), np.array(y)
    raised = 0
    for i in range(len(y)):
        fold_x, fold_y = np.delete(x, i, 0), np.delete(y, i)
        try:
            expected = householder_fit_oracle(fold_x, fold_y, CONFIG)
        except RankDeficientDesign:
            _assert_same_error(fold_x, fold_y, representation)
            raised += 1
            continue
        got = fit(*REPRESENTATIONS[representation](fold_x, fold_y), CONFIG)
        assert got.intercept == pytest.approx(expected.intercept, rel=1e-12, abs=1e-12)
        assert got.coef_demand == pytest.approx(expected.coef_demand, rel=1e-12, abs=1e-12)
        assert got.coef_supply == pytest.approx(expected.coef_supply, rel=1e-12, abs=1e-12)
    assert raised > 0
