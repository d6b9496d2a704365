"""Unregularized two-predictor linear model with a hand-rolled QR solver.

`design` turns (feature row, target) pairs into the design matrix
[1, demand, supply] and the target vector once; `fit` works on those arrays,
so a caller that refits on many subsets (leave-one-out) slices rows out of
them instead of rebuilding them. Coefficients minimize the plain sum
of squared residuals; there is no penalty term and predictions are never
clamped (any clamping is a presentation concern, applied downstream if at
all). The solve goes through a Householder QR factorization rather than
explicit normal equations for numerical stability. It works on one
column-major copy of [x | y], so each reflection reads contiguous rows, and
sets each diagonal entry of R from its column's norm. Rank deficiency is a
hard error: with folds this small, a silent minimum-norm fallback would make
cross-validation results depend on implementation details. numpy is imported
inside the functions that use it, so that commands which never fit do not load it.
"""
from __future__ import annotations

from dataclasses import dataclass

from workforecast.errors import FeatureConfigMismatch, RankDeficientDesign, TooFewObservations
from workforecast.features import FeatureConfig, FeatureRow

_COLUMNS = ("intercept", "demand", "supply")


@dataclass(frozen=True)
class ModelFit:
    intercept: float
    coef_demand: float
    coef_supply: float
    n_obs: int
    rss: float
    r_squared: float
    feature_config: FeatureConfig


def _householder_triangularize(a: np.ndarray, n_cols: int) -> None:
    """Reduce the leading n_cols columns of a matrix to upper-triangular form in place.

    `a` holds the matrix column-major (row k of `a` is column k), so every
    reflection reads and updates contiguous rows. As LAPACK's dlarfg does,
    each reflector is scaled to v[0] = 1, so every |v[k]| <= 1 and v.v lies in
    [1, n] whatever the column's scale, and column j's diagonal entry is set
    from the column's norm; the entries below it keep their old values and are
    not part of the result.
    """
    import numpy as np
    for j in range(min(n_cols, a.shape[1])):
        col = a[j, j:]
        norm = float(np.sqrt(np.dot(col, col)))
        if norm == 0.0:
            continue
        # sign keeps the pivot col[0] ± norm away from cancellation
        v = col / (col[0] + (norm if col[0] >= 0.0 else -norm))
        v[0] = 1.0
        rest = a[j + 1:, j:]
        rest -= np.multiply.outer((2.0 / np.dot(v, v)) * (rest @ v), v)
        a[j, j] = -norm if col[0] >= 0.0 else norm


def design(pairs: list[tuple[FeatureRow, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix [1, demand, supply] of shape (n, 3) and target vector of shape (n,)."""
    import numpy as np
    x = np.ones((len(pairs), 3))
    x[:, 1] = [row.demand for row, _ in pairs]
    x[:, 2] = [row.supply for row, _ in pairs]
    y = np.array([target for _, target in pairs], dtype=float)
    return x, y


def fit(x: np.ndarray, y: np.ndarray, config: FeatureConfig) -> ModelFit:
    """Least-squares fit of y on the columns of x, as built by `design`.

    Requires at least 3 observations (one per parameter) and a full-rank
    design. Near-collinear columns are reported by name together with a
    condition estimate taken from the QR diagonal. With a constant target,
    r_squared is reported as 1.0 (the intercept explains it perfectly).
    """
    import numpy as np
    n = x.shape[0]
    if n < 3:
        raise TooFewObservations(f"need at least 3 observations to fit 3 parameters, got {n}")

    work = np.empty((4, n))  # [x | y] column-major: row k is column k
    work[:3], work[3] = x.T, y
    with np.errstate(over="ignore", invalid="ignore"):
        _householder_triangularize(work, 3)
    if not np.isfinite(work).all():
        # Values too large to square in floating point: no column is resolvable.
        raise RankDeficientDesign(
            "design matrix is rank deficient: its QR factorization overflows (condition estimate inf)",
            columns=_COLUMNS,
            condition_estimate=float("inf"),
        )
    diag = np.abs(np.diag(work[:3, :3]))
    tolerance = max(n, 3) * np.finfo(float).eps * float(diag.max())
    collinear = tuple(name for name, d in zip(_COLUMNS, diag) if d <= tolerance)
    # Python floats, so that a ratio past the float range is inf without a numpy RuntimeWarning
    condition = float(diag.max()) / float(diag.min()) if diag.min() > 0.0 else float("inf")
    if collinear:
        raise RankDeficientDesign(
            f"design matrix is rank deficient: column(s) {', '.join(collinear)} are "
            f"collinear with the rest (condition estimate {condition:.3g})",
            columns=collinear,
            condition_estimate=condition,
        )
    beta = np.zeros(3)  # back substitution: R is work[:3, :3].T and Q^T y is work[3, :3]
    for i in (2, 1, 0):
        beta[i] = (work[3, i] - float(np.dot(work[i + 1:3, i], beta[i + 1:]))) / work[i, i]

    tail = work[3, 3:]  # the part of Q^T y that no combination of the columns reaches
    rss = float(tail @ tail)
    centered = y - y.mean()
    tss = float(centered @ centered)
    r_squared = 1.0 - rss / tss if tss > 0.0 else 1.0
    return ModelFit(*beta.tolist(), n, rss, r_squared, config)


def predict(model: ModelFit, row: FeatureRow, config: FeatureConfig) -> float:
    """Raw linear prediction; not clamped to [0, 1]."""
    if config != model.feature_config:
        raise FeatureConfigMismatch(
            f"row was built under {config} but the model was fitted under {model.feature_config}"
        )
    return model.intercept + model.coef_demand * row.demand + model.coef_supply * row.supply

