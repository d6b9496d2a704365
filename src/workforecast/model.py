"""Unregularized two-predictor linear model with a hand-rolled QR solver.

The design matrix is [1, demand, supply]. Coefficients minimize the plain sum
of squared residuals; there is no penalty term and predictions are never
clamped (any clamping is a presentation concern, applied downstream if at
all). The solve goes through a Householder QR factorization rather than
explicit normal equations for numerical stability, and rank deficiency is a
hard error: with folds this small, a silent minimum-norm fallback would make
cross-validation results depend on implementation details.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    n = z.shape[0]
    beta = np.zeros(n)
    for i in range(n - 1, -1, -1):
        beta[i] = (z[i] - float(np.dot(r[i, i + 1:], beta[i + 1:]))) / r[i, i]
    return beta


def design_matrix(rows: list[FeatureRow]) -> np.ndarray:
    x = np.empty((len(rows), 3))
    for i, row in enumerate(rows):
        x[i, 0] = 1.0
        x[i, 1] = row.demand
        x[i, 2] = row.supply
    return x


def fit(pairs: list[tuple[FeatureRow, float]], config: FeatureConfig) -> ModelFit:
    """Least-squares fit of performance on [1, demand, supply].

    Requires at least 3 observations (one per parameter) and a full-rank
    design. Near-collinear columns are reported by name together with a
    condition estimate taken from the QR diagonal. With a constant target,
    r_squared is reported as 1.0 (the intercept explains it perfectly).
    """
    n = len(pairs)
    if n < 3:
        raise TooFewObservations(f"need at least 3 observations to fit 3 parameters, got {n}")
    x = design_matrix([row for row, _ in pairs])
    y = np.array([target for _, target in pairs], dtype=float)

    augmented = np.hstack([x, y[:, None]])
    _householder_triangularize(augmented, 3)
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
