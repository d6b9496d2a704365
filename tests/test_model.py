import numpy as np
import pytest

from workforecast import jsonio
from workforecast.errors import FeatureConfigMismatch, RankDeficientDesign, TooFewObservations
from workforecast.features import FeatureConfig, FeatureRow
from workforecast.model import ModelFit, design, fit, predict

from helpers import coordinate_descent, feature_rows

CONFIG = FeatureConfig()


def _pairs_from_law(values, intercept, coef_demand, coef_supply, noise=None):
    rows = feature_rows(values)
    pairs = []
    for i, row in enumerate(rows):
        target = intercept + coef_demand * row.demand + coef_supply * row.supply
        if noise is not None:
            target += noise[i]
        pairs.append((row, target))
    return pairs


def _random_pairs(rng, n, spread=1.0, noise_sd=0.05):
    values = [(float(d), float(s)) for d, s in rng.normal(0.0, spread, size=(n, 2))]
    noise = rng.normal(0.0, noise_sd, size=n)
    return _pairs_from_law(values, 0.4, 1.2, -0.8, noise=noise)


BASE_VALUES = [
    (0.10, 0.05), (0.02, 0.07), (-0.04, 0.03), (0.06, 0.11),
    (-0.08, 0.09), (0.12, 0.02), (0.00, 0.06), (0.05, 0.08),
]


class TestFit:
    def test_recovers_exact_linear_data(self):
        pairs = _pairs_from_law(BASE_VALUES, 0.5, 2.0, -3.0)
        model = fit(*design(pairs), CONFIG)
        assert model.intercept == pytest.approx(0.5, abs=1e-9)
        assert model.coef_demand == pytest.approx(2.0, abs=1e-9)
        assert model.coef_supply == pytest.approx(-3.0, abs=1e-9)
        assert model.rss <= 1e-18
        assert model.n_obs == len(pairs)

    def test_constant_target(self):
        pairs = [(row, 0.4) for row in feature_rows(BASE_VALUES)]
        model = fit(*design(pairs), CONFIG)
        assert model.intercept == pytest.approx(0.4, abs=1e-9)
        assert model.coef_demand == pytest.approx(0.0, abs=1e-9)
        assert model.coef_supply == pytest.approx(0.0, abs=1e-9)
        assert model.r_squared == 1.0

    def test_matches_coordinate_descent_on_noisy_data(self):
        rng = np.random.default_rng(77)
        noise = rng.normal(0.0, 0.01, size=10)
        values = [(float(d), float(s)) for d, s in rng.normal(0.0, 0.5, size=(10, 2))]
        pairs = _pairs_from_law(values, 0.3, 1.0, -0.5, noise=noise)
        model = fit(*design(pairs), CONFIG)
        x = design(pairs)[0]
        y = np.array([target for _, target in pairs])
        oracle = coordinate_descent(x, y, tol=1e-12)
        assert abs(model.intercept - oracle[0]) <= 1e-6
        assert abs(model.coef_demand - oracle[1]) <= 1e-6
        assert abs(model.coef_supply - oracle[2]) <= 1e-6

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(4, 21))
            pairs = _random_pairs(rng, n)
            model = fit(*design(pairs), CONFIG)
            x = design(pairs)[0]
            y = np.array([target for _, target in pairs])
            oracle = coordinate_descent(x, y)
            beta = np.array([model.intercept, model.coef_demand, model.coef_supply])
            assert np.max(np.abs(beta - oracle)) <= 1e-6

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pairs = _random_pairs(rng, int(rng.integers(4, 30)))
            model = fit(*design(pairs), CONFIG)
            x = design(pairs)[0]
            y = np.array([target for _, target in pairs])
            beta = np.array([model.intercept, model.coef_demand, model.coef_supply])
            residual = y - x @ beta
            relative = np.max(np.abs(x.T @ residual)) / (
                np.max(np.abs(x)) * np.max(np.abs(y)) + 1e-30
            )
            assert relative <= 1e-8

    def test_affine_feature_rescaling_keeps_predictions(self):
        rng = np.random.default_rng(17)
        pairs = _random_pairs(rng, 12)
        model = fit(*design(pairs), CONFIG)
        transforms = [
            lambda d, s: (2.5 * d - 0.3, s),
            lambda d, s: (d, -0.5 * s + 1.0),
            lambda d, s: (1.3 * d + 0.2 * s + 0.1, 0.4 * d - 0.9 * s - 0.2),
        ]
        for transform in transforms:
            mapped_pairs = []
            for row, target in pairs:
                demand, supply = transform(row.demand, row.supply)
                mapped_pairs.append((FeatureRow(row.region_id, row.year, demand, supply), target))
            mapped_model = fit(*design(mapped_pairs), CONFIG)
            for (row, _), (mapped_row, _) in zip(pairs, mapped_pairs):
                assert predict(mapped_model, mapped_row, CONFIG) == pytest.approx(
                    predict(model, row, CONFIG), abs=1e-8
                )

    def test_prediction_plus_residual_reproduces_target(self):
        rng = np.random.default_rng(29)
        pairs = _random_pairs(rng, 15)
        model = fit(*design(pairs), CONFIG)
        for row, target in pairs:
            prediction = predict(model, row, CONFIG)
            residual = target - prediction
            assert prediction + residual == pytest.approx(target, abs=1e-10)

    def test_perturbing_coefficients_does_not_reduce_rss(self):
        rng = np.random.default_rng(31)
        pairs = _random_pairs(rng, 12)
        model = fit(*design(pairs), CONFIG)
        x = design(pairs)[0]
        y = np.array([target for _, target in pairs])
        beta = np.array([model.intercept, model.coef_demand, model.coef_supply])
        for j in range(3):
            for sign in (-1.0, 1.0):
                perturbed = beta.copy()
                perturbed[j] += sign * 1e-6
                residual = y - x @ perturbed
                assert float(residual @ residual) >= model.rss - 1e-15

    def test_too_few_observations(self):
        pairs = _pairs_from_law(BASE_VALUES[:2], 0.5, 2.0, -3.0)
        with pytest.raises(TooFewObservations):
            fit(*design(pairs), CONFIG)

    def test_constant_demand_is_rank_deficient(self):
        values = [(0.5, s) for s in (0.01, 0.05, 0.09, 0.12)]
        pairs = _pairs_from_law(values, 0.5, 2.0, -3.0)
        with pytest.raises(RankDeficientDesign) as excinfo:
            fit(*design(pairs), CONFIG)
        assert "demand" in excinfo.value.columns
        assert excinfo.value.condition_estimate > 1e12

    def test_duplicate_columns_are_rank_deficient(self):
        values = [(v, v) for v in (0.01, 0.05, 0.09, 0.12)]
        pairs = _pairs_from_law(values, 0.5, 2.0, -3.0)
        with pytest.raises(RankDeficientDesign):
            fit(*design(pairs), CONFIG)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_design_is_rank_deficient_without_warnings(self):
        pairs = [(row, 0.5) for row in feature_rows([(1e200, 0.05), *BASE_VALUES[1:4]])]
        with pytest.raises(RankDeficientDesign) as excinfo:
            fit(*design(pairs), CONFIG)
        assert excinfo.value.condition_estimate == float("inf")


def _outcome(x, y):
    try:
        model = fit(x, y, CONFIG)
    except RankDeficientDesign as error:
        return error.columns, error.condition_estimate
    return model.intercept, model.coef_demand, model.coef_supply


class TestScaleInvariance:
    """Scaling x and y by a power of two is exact, so it must not change what `fit` reports.

    A column norm in [6.7e153, 1.3e154] is finite, but the squared norm of an
    unscaled Householder vector overflows there, which used to skip that
    reflection silently.
    """

    SCALE = 2.0**-200

    def test_column_norm_near_the_overflow_edge(self):
        demand = [5e153, -5e153, 5e153, -5e153, 1.0, 2.0]
        x = np.column_stack([np.ones(6), demand, [0.3, 0.1, 0.4, 0.1, 0.5, 0.9]])
        y = np.array([0.1, 0.25, 0.3, 0.45, 0.5, 0.6])
        assert _outcome(x, y) == _outcome(x * self.SCALE, y * self.SCALE)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_designs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        demand = rng.normal(size=n)
        if seed % 2:  # a demand column whose norm lies just below the square root of the largest float
            demand *= 2.0 ** rng.uniform(505.0, 511.9) / np.linalg.norm(demand)
        x = np.column_stack([np.ones(n), demand, rng.normal(size=n)])
        y = rng.normal(size=n)
        assert _outcome(x, y) == _outcome(x * self.SCALE, y * self.SCALE)


class TestDesign:
    def test_columns_are_intercept_demand_supply(self):
        pairs = _pairs_from_law(BASE_VALUES[:3], 0.5, 2.0, -3.0)
        x, y = design(pairs)
        assert x.tolist() == [[1.0, row.demand, row.supply] for row, _ in pairs]
        assert y.tolist() == [target for _, target in pairs]

    def test_empty_pairs_give_empty_arrays(self):
        x, y = design([])
        assert x.shape == (0, 3)
        assert y.shape == (0,)

    def test_fit_on_no_rows_is_too_few_observations(self):
        with pytest.raises(TooFewObservations, match="got 0"):
            fit(*design([]), CONFIG)


class TestPredict:
    def test_arithmetic(self):
        model = ModelFit(0.5, 2.0, -3.0, 5, 0.0, 1.0, CONFIG)
        row = FeatureRow("R1", 2015, 0.1, 0.1)
        assert predict(model, row, CONFIG) == pytest.approx(0.4, abs=1e-12)

    def test_zero_coefficients_return_intercept(self):
        model = ModelFit(0.37, 0.0, 0.0, 5, 0.0, 1.0, CONFIG)
        assert predict(model, FeatureRow("R1", 2015, 12.0, -4.0), CONFIG) == 0.37

    def test_exact_fit_interpolates_training_rows(self):
        pairs = _pairs_from_law(BASE_VALUES, 0.5, 2.0, -3.0)
        model = fit(*design(pairs), CONFIG)
        for row, target in pairs:
            assert predict(model, row, CONFIG) == pytest.approx(target, abs=1e-12)

    def test_feature_config_mismatch(self):
        model = ModelFit(0.5, 2.0, -3.0, 5, 0.0, 1.0, CONFIG)
        other = FeatureConfig(normalize=False)
        with pytest.raises(FeatureConfigMismatch):
            predict(model, FeatureRow("R1", 2015, 0.1, 0.1), other)


class TestModelJson:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        model = fit(*design(_random_pairs(rng, 9)), FeatureConfig(normalize=True, lag=2, working_age=(18, 66)))
        path = tmp_path / "model.json"
        jsonio.save(path, model)
        assert jsonio.load(path, ModelFit) == model

    def test_run_config_is_embedded(self, tmp_path):
        import json

        rng = np.random.default_rng(43)
        model = fit(*design(_random_pairs(rng, 9)), CONFIG)
        path = tmp_path / "model.json"
        jsonio.save(path, model, {"subcommand": "fit"})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["run_config"] == {"subcommand": "fit"}
        assert jsonio.load(path, ModelFit) == model
