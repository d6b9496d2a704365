"""Unregularized two-predictor linear model with a hand-rolled QR solver.

`design` turns (feature row, target) pairs into the rows [1, demand, supply]
and the targets once, as lists of floats; leave-one-out copies them once into a
training set and writes one row back into it per fold, rebuilding none. Coefficients
minimize the plain sum of squared residuals; there is no penalty term and
predictions are never clamped (clamping is a presentation concern, applied
downstream if at all). The solve goes through a Householder QR factorization of
one column-major copy of [x | y], which is numerically stabler than the normal
equations. Rank deficiency is a hard error: with folds this small, a silent
minimum-norm fallback would make cross-validation results depend on
implementation details. `fit` reduces lists in pure Python, as a fit of a few
hundred rows takes less time than importing numpy, and numpy arrays with numpy,
imported then: only `evaluate.loocv` passes arrays, above a crossover in rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from workforecast.errors import RankDeficientDesign, TooFewObservations
from workforecast.features import FeatureConfig, FeatureRow


@dataclass(frozen=True)
class ModelFit:
    intercept: float
    coef_demand: float
    coef_supply: float
    n_obs: int
    rss: float
    r_squared: float
    feature_config: FeatureConfig


def _householder_triangularize(a: np.ndarray | list[list[float]]) -> None:
    """Reduce the first three columns of [x | y], n >= 3 rows, to upper-triangular form in place.

    `a` holds the matrix column-major (row k of `a` is column k), so every
    reflection reads and updates contiguous rows of a numpy array, or whole
    lists of floats, whose inner products are `math.fsum`s (which raise past
    the float range). As LAPACK's dlarfg does, each reflector is scaled to
    v[0] = 1, so every |v[k]| <= 1 and v.v lies in [1, n] whatever the
    column's scale, and column j's diagonal entry is set from the column's
    norm; the entries below it keep their old values and are not part of the result.
    """
    lists = isinstance(a, list)
    for j in range(3):
        col = a[j][j:]
        norm = math.sqrt(math.fsum(map(mul, col, col)) if lists else col.dot(col))
        if norm == 0.0:
            continue
        # sign keeps the pivot col[0] ± norm away from cancellation
        pivot = col[0] + (norm if col[0] >= 0.0 else -norm)
        v = [value / pivot for value in col] if lists else col / pivot
        v[0] = 1.0
        if lists:
            scale = 2.0 / math.fsum(map(mul, v, v))
            for rest in a[j + 1:]:
                c = scale * math.fsum(map(mul, rest[j:], v))
                rest[j:] = [value - c * w for value, w in zip(rest[j:], v)]
        else:
            rest = a[j + 1:, j:]
            rest -= ((2.0 / v.dot(v)) * (rest @ v))[:, None] * v
        a[j][j] = -norm if col[0] >= 0.0 else norm


def design(pairs: list[tuple[FeatureRow, float]]) -> tuple[list[list[float]], list[float]]:
    """Rows [1, demand, supply] of the design matrix and the target list, one entry per pair."""
    return [[1.0, row.demand, row.supply] for row, _ in pairs], [target for _, target in pairs]


def fit(x: list | tuple | np.ndarray, y: list | tuple | np.ndarray, config: FeatureConfig) -> ModelFit:
    """Least-squares fit of y on the columns of x, as built by `design` (lists or tuples) or as numpy arrays.

    Requires at least 3 observations (one per parameter) and a full-rank
    design. Near-collinear columns are reported by name together with a
    condition estimate taken from the QR diagonal. With a constant target,
    r_squared is reported as 1.0 (the intercept explains it perfectly).
    """
    n = len(y)
    if n < 3:
        raise TooFewObservations(f"need at least 3 observations to fit 3 parameters, got {n}")

    if isinstance(x, (list, tuple)):
        work = [*map(list, zip(*x)), list(y)]  # [x | y] column-major: work[k] is column k
        try:
            _householder_triangularize(work)
            mean = math.fsum(y) / n
            rss, tss = math.fsum(map(mul, work[3][3:], work[3][3:])), math.fsum((t - mean) ** 2 for t in y)
        except (OverflowError, ValueError):  # a sum, or a square, past the float range
            rss = math.inf
    else:
        import numpy as np
        work = np.array([*x.T, y], dtype=float)  # [x | y] column-major and C-contiguous: row k is column k
        with np.errstate(over="ignore", invalid="ignore"):
            _householder_triangularize(work)
            tail, centered = work[3, 3:], y - y.mean()  # tail: the part of Q^T y that the columns do not reach
            rss, tss = float(tail @ tail), float(centered @ centered)
    r = [list(map(float, column[:3])) for column in work]  # R is r[:3] transposed; r[3] is the top of Q^T y
    finite = all(map(math.isfinite, [*r[0], *r[1], *r[2], *r[3], rss]))
    diag = [abs(r[i][i]) if finite else 0.0 for i in range(3)]  # values too large to square: no column is resolvable
    tolerance = max(n, 3) * math.ulp(1.0) * max(diag)
    collinear = tuple(name for name, d in zip(("intercept", "demand", "supply"), diag) if d <= tolerance)
    condition = max(diag) / min(diag) if min(diag) > 0.0 else float("inf")
    if collinear:
        reason = f"column(s) {', '.join(collinear)} are collinear with the rest" if finite else "its QR factorization overflows"
        raise RankDeficientDesign(f"design matrix is rank deficient: {reason} (condition estimate {condition:.3g})",
                                  columns=collinear, condition_estimate=condition)
    beta = [0.0, 0.0, 0.0]  # back substitution
    for i in (2, 1, 0):
        beta[i] = (r[3][i] - sum(r[k][i] * beta[k] for k in range(i + 1, 3))) / r[i][i]
    r_squared = 1.0 - rss / tss if tss > 0.0 else 1.0
    return ModelFit(*beta, n, rss, r_squared, config)


def predict(model: ModelFit, row: FeatureRow) -> float:
    """Raw linear prediction for a row built under the model's feature configuration; not clamped to [0, 1]."""
    return model.intercept + model.coef_demand * row.demand + model.coef_supply * row.supply

