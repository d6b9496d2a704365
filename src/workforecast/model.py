"""Unregularized two-predictor linear model with a hand-rolled QR solver.

`design` turns (feature row, target) pairs into the design matrix
[1, demand, supply] and the target vector once; `fit` works on those arrays,
so a caller that refits on many subsets (leave-one-out) slices rows out of
them instead of rebuilding them. Coefficients minimize the plain sum
of squared residuals; there is no penalty term and predictions are never
clamped (any clamping is a presentation concern, applied downstream if at
all). The solve goes through a Householder QR factorization rather than
explicit normal equations for numerical stability, and rank deficiency is a
hard error: with folds this small, a silent minimum-norm fallback would make
cross-validation results depend on implementation details. numpy is imported
inside the functions that use it, so that commands which never fit do not load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from workforecast import jsonio
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
    """Reduce the leading n_cols columns of `a` to upper-triangular form in place."""
    import numpy as np
    m = a.shape[0]
    for j in range(min(n_cols, m)):
        col = a[j:, j]
        norm = float(np.sqrt(np.dot(col, col)))
        if norm == 0.0:
            continue
        v = col.copy()
        # sign keeps v away from cancellation
        v[0] += norm if v[0] >= 0.0 else -norm
        vtv = float(np.dot(v, v))
        if vtv == 0.0:
            continue
        a[j:, j:] -= np.outer(v, (2.0 / vtv) * (v @ a[j:, j:]))


def _back_substitute(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    import numpy as np
    n = z.shape[0]
    beta = np.zeros(n)
    for i in range(n - 1, -1, -1):
        beta[i] = (z[i] - float(np.dot(r[i, i + 1:], beta[i + 1:]))) / r[i, i]
    return beta


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

    augmented = np.hstack([x, y[:, None]])
    with np.errstate(over="ignore", invalid="ignore"):
        _householder_triangularize(augmented, 3)
    if not np.isfinite(augmented).all():
        # Values too large to square in floating point: no column is resolvable.
        raise RankDeficientDesign(
            "design matrix is rank deficient: its QR factorization overflows (condition estimate inf)",
            columns=_COLUMNS,
            condition_estimate=float("inf"),
        )
    diag = np.abs(np.diag(augmented[:3, :3]))
    tolerance = max(n, 3) * np.finfo(float).eps * float(diag.max())
    collinear = tuple(name for name, d in zip(_COLUMNS, diag) if d <= tolerance)
    condition = float("inf") if float(diag.min()) == 0.0 else float(diag.max() / diag.min())
    if collinear:
        raise RankDeficientDesign(
            f"design matrix is rank deficient: column(s) {', '.join(collinear)} are "
            f"collinear with the rest (condition estimate {condition:.3g})",
            columns=collinear,
            condition_estimate=condition,
        )
    beta = _back_substitute(augmented[:3, :3], augmented[:3, 3])

    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    centered = y - y.mean()
    tss = float(centered @ centered)
    r_squared = 1.0 - rss / tss if tss > 0.0 else 1.0
    return ModelFit(
        intercept=float(beta[0]),
        coef_demand=float(beta[1]),
        coef_supply=float(beta[2]),
        n_obs=n,
        rss=rss,
        r_squared=r_squared,
        feature_config=config,
    )


def predict(model: ModelFit, row: FeatureRow, config: FeatureConfig) -> float:
    """Raw linear prediction; not clamped to [0, 1]."""
    if config != model.feature_config:
        raise FeatureConfigMismatch(
            f"row was built under {config} but the model was fitted under {model.feature_config}"
        )
    return model.intercept + model.coef_demand * row.demand + model.coef_supply * row.supply


def save_model_json(model: ModelFit, path: str | Path, run_config: dict | None = None) -> None:
    """Serialize at full precision (json float repr round-trips exactly)."""
    jsonio.save(path, model, run_config)


def load_model_json(path: str | Path) -> ModelFit:
    return jsonio.load(path, ModelFit)
