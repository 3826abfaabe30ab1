import math
from dataclasses import replace

import numpy as np
import pytest

from pricebench.demand import (
    DemandParams,
    ParametricDemandModel,
    centered_rolling_mean,
    estimate_elasticity,
    elasticity_sweep,
    neutral_query,
    predict_demand,
    price_multipliers,
)
from pricebench.market import ConfigError, ProductSpec, derive_rng


def _spec(price=10.0, baseline=100.0, cluster=1):
    return ProductSpec("p", cluster, price, price * 0.6, baseline)


def _params(**kw):
    return DemandParams(**{"noise_sigma": 0.0, **kw}).with_clusters([1])


class TestDemandParams:
    def test_positive_elasticity_rejected(self):
        with pytest.raises(ConfigError):
            DemandParams(elasticity=0.1)

    def test_lag_weight_bound(self):
        with pytest.raises(ConfigError):
            DemandParams(lag_weight=1.0)

    def test_round_trip(self):
        p = DemandParams().with_clusters([1, 2, 3])
        assert DemandParams.from_dict(p.to_dict()) == p


class TestPredictDemand:
    def test_all_neutral_gives_baseline(self):
        q = neutral_query(_spec())
        assert predict_demand(q, _params()) == pytest.approx(100.0)

    def test_cluster_multiplier(self):
        q = neutral_query(_spec())
        params = _params()
        params = replace(params, cluster_base={**params.cluster_base, 1: 1.5})
        assert predict_demand(q, params) == pytest.approx(150.0)

    def test_doubled_price_scaling(self):
        q = replace(neutral_query(_spec()), price=20.0)
        assert predict_demand(q, _params()) == pytest.approx(100.0 * 2 ** (-0.072))

    def test_holiday_uplift(self):
        q = neutral_query(_spec())
        q = replace(q, holiday=True)
        assert predict_demand(q, _params()) == pytest.approx(135.0)

    def test_deterministic_without_noise(self):
        q = neutral_query(_spec())
        assert predict_demand(q, _params()) == predict_demand(q, _params())

    def test_noise_needs_rng(self):
        q = neutral_query(_spec())
        with pytest.raises(ValueError):
            predict_demand(q, replace(_params(), noise_sigma=0.1))

    def test_noise_reproducible_per_stream(self):
        params = replace(_params(), noise_sigma=0.2)
        vals = []
        for _ in range(2):
            q = replace(neutral_query(_spec()), rng=derive_rng(5, "noise"))
            vals.append([predict_demand(q, params) for _ in range(3)])
        assert vals[0] == vals[1]

    def test_nonpositive_price_rejected(self):
        q = replace(neutral_query(_spec()), price=0.0)
        with pytest.raises(ValueError):
            predict_demand(q, _params())

    def test_missing_cluster_entry_rejected(self):
        q = neutral_query(_spec(cluster=9))
        with pytest.raises(ConfigError):
            predict_demand(q, _params())

    def test_strictly_decreasing_in_price(self):
        params = _params(elasticity=-0.5)
        base = neutral_query(_spec())
        prices = np.linspace(1.0, 50.0, 100)
        values = [predict_demand(replace(base, price=p), params) for p in prices]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_always_finite_nonnegative(self):
        params = _params(elasticity=-1.0)
        base = neutral_query(_spec())
        for p in (1e-6, 1.0, 1e6):
            v = predict_demand(replace(base, price=p), params)
            assert math.isfinite(v) and v >= 0


class TestElasticity:
    def test_grid_shape(self):
        grid = price_multipliers()
        assert len(grid) == 41
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(2.5)

    def test_rolling_mean_matches_bruteforce(self):
        values = np.arange(10.0) ** 2
        smoothed = centered_rolling_mean(values, 5)
        brute = [values[i - 2 : i + 3].mean() for i in range(2, 8)]
        assert np.allclose(smoothed, brute)

    @pytest.mark.parametrize("target", [-0.072, -0.5, -1.0])
    def test_reference_model_recovery(self, target):
        model = ParametricDemandModel(_params(elasticity=target))
        q = neutral_query(_spec())
        assert estimate_elasticity(model, q) == pytest.approx(target, abs=0.005)

    def test_constant_oracle(self):
        q = neutral_query(_spec())
        assert estimate_elasticity(lambda query: 42.0, q) == pytest.approx(0.0, abs=1e-9)

    def test_unit_elastic_oracle(self):
        q = neutral_query(_spec())
        oracle = lambda query: 500.0 / query.price
        assert estimate_elasticity(oracle, q) == pytest.approx(-1.0, abs=1e-6)

    def test_too_few_points(self):
        q = neutral_query(_spec())
        with pytest.raises(ValueError):
            estimate_elasticity(lambda query: 1.0, q, scales=[0.5, 1.0, 2.5])

    def test_sweep_ignores_noise(self):
        model = ParametricDemandModel(replace(_params(), noise_sigma=0.5))
        q = neutral_query(_spec())
        prices, first = elasticity_sweep(model, q)
        _, second = elasticity_sweep(model, q)
        assert np.array_equal(first, second)
        assert len(prices) == 41
