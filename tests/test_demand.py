import math
from dataclasses import replace

import numpy as np
import pytest

from pricebench.demand import (
    DemandParams,
    DemandQuery,
    ParametricDemandModel,
    centered_rolling_mean,
    estimate_elasticity,
    elasticity_sweep,
    neutral_query,
    price_multipliers,
)
from pricebench.environment import MarketEnvironment
from pricebench.market import (
    AgentSpec,
    ConfigError,
    MarketConfig,
    ProductSpec,
    derive_rng,
    make_default_portfolio,
)
from pricebench.rule_agents import DIVERSE_STRATEGIES, RuleAgent, RuleStrategy


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
        assert ParametricDemandModel(_params()).sample_demand(q) == pytest.approx([100.0])

    def test_cluster_multiplier(self):
        q = neutral_query(_spec())
        params = _params()
        params = replace(params, cluster_base={**params.cluster_base, 1: 1.5})
        assert ParametricDemandModel(params).sample_demand(q) == pytest.approx([150.0])

    def test_doubled_price_scaling(self):
        q = replace(neutral_query(_spec()), prices=[20.0])
        assert ParametricDemandModel(_params()).sample_demand(q) == pytest.approx(
            [100.0 * 2 ** (-0.072)]
        )

    def test_holiday_uplift(self):
        q = neutral_query(_spec())
        q = replace(q, holiday=True)
        assert ParametricDemandModel(_params()).sample_demand(q) == pytest.approx([135.0])

    def test_deterministic_without_noise(self):
        q = neutral_query(_spec())
        first, second = (ParametricDemandModel(_params()).sample_demand(q) for _ in range(2))
        assert first == second

    def test_noise_needs_rng(self):
        # noise needs the query's shocks
        q = neutral_query(_spec())
        with pytest.raises(ValueError, match="shocks"):
            ParametricDemandModel(replace(_params(), noise_sigma=0.1)).sample_demand(q)

    def test_noise_reproducible_per_stream(self):
        params = replace(_params(), noise_sigma=0.2)
        vals = []
        for _ in range(2):
            shock = derive_rng(5, "noise").standard_normal(1).tolist()
            q = replace(neutral_query(_spec()), shocks=shock)
            vals.append(ParametricDemandModel(params).sample_demand(q))
        assert vals[0] == vals[1]

    def test_noise_is_sigma_times_shock(self):
        q = neutral_query(_spec())
        (expected,) = ParametricDemandModel(_params()).sample_demand(q)
        noisy_model = ParametricDemandModel(replace(_params(), noise_sigma=0.2))
        (noisy,) = noisy_model.sample_demand(replace(q, shocks=[1.5]))
        assert noisy == pytest.approx(expected * math.exp(0.2 * 1.5))

    def test_nonpositive_price_rejected(self):
        q = replace(neutral_query(_spec()), prices=[0.0])
        with pytest.raises(ValueError):
            ParametricDemandModel(_params()).sample_demand(q)

    def test_missing_cluster_entry_rejected(self):
        q = neutral_query(_spec(cluster=9))
        with pytest.raises(ConfigError):
            ParametricDemandModel(_params()).sample_demand(q)

    def test_strictly_decreasing_in_price(self):
        params = _params(elasticity=-0.5)
        base = neutral_query(_spec())
        prices = np.linspace(1.0, 50.0, 100)
        values = [
            ParametricDemandModel(params).sample_demand(replace(base, prices=[p]))[0]
            for p in prices
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_always_finite_nonnegative(self):
        params = _params(elasticity=-1.0)
        base = neutral_query(_spec())
        for p in (1e-6, 1.0, 1e6):
            (v,) = ParametricDemandModel(params).sample_demand(replace(base, prices=[p]))
            assert math.isfinite(v) and v >= 0

    def test_batch_equals_products_one_by_one(self):
        params = replace(_params(elasticity=-0.5), noise_sigma=0.1).with_clusters([1, 2])
        specs = [_spec(), _spec(price=7.0, baseline=30.0, cluster=2), _spec(baseline=12.0)]
        batch = DemandQuery(
            specs=specs, prices=[9.0, 7.5, 11.0], relative_prices=[0.9, 1.0, 1.1],
            lag1_demands=[90.0, 0.0, 15.0], shocks=[0.3, -1.2, 2.0], week_sin=0.4, holiday=True,
        )
        singles = [
            ParametricDemandModel(params).sample_demand(
                replace(batch, specs=[s], prices=[p], relative_prices=[r], lag1_demands=[q],
                        shocks=[z]),
            )[0]
            for s, p, r, q, z in zip(
                specs, batch.prices, batch.relative_prices, batch.lag1_demands, batch.shocks
            )
        ]
        assert ParametricDemandModel(params).sample_demand(batch) == singles

    def test_unequal_lengths_rejected(self):
        q = replace(neutral_query(_spec()), prices=[10.0, 11.0])
        with pytest.raises(ValueError):
            ParametricDemandModel(_params()).sample_demand(q)

    @pytest.mark.parametrize(
        "field, value",
        [("prices", [0.5]), ("relative_prices", [math.nan])],
        ids=["overflow", "nan"],
    )
    def test_non_finite_demand_is_value_error(self, field, value):
        # elasticity -10000 at half the initial price gives log demand ~6936,
        # past math.exp's range; a NaN relative price gives a NaN log demand
        q = replace(neutral_query(_spec()), **{field: value})
        with pytest.raises(ValueError, match=r"non-finite demand for product p \(log_q="):
            ParametricDemandModel(_params(elasticity=-10000.0)).sample_demand(q)


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
        oracle = lambda query: [42.0] * len(query.prices)
        assert estimate_elasticity(oracle, q) == pytest.approx(0.0, abs=1e-9)

    def test_unit_elastic_oracle(self):
        q = neutral_query(_spec())
        oracle = lambda query: [500.0 / p for p in query.prices]
        assert estimate_elasticity(oracle, q) == pytest.approx(-1.0, abs=1e-6)

    def test_too_few_points(self):
        q = neutral_query(_spec())
        with pytest.raises(ValueError):
            estimate_elasticity(lambda query: [1.0] * len(query.prices), q, scales=[0.5, 1.0, 2.5])

    def test_sweep_is_one_batch(self):
        calls = []

        def oracle(query):
            calls.append(query)
            return [1.0] * len(query.prices)

        q = neutral_query(_spec())
        prices, _ = elasticity_sweep(oracle, q)
        (query,) = calls
        assert query.prices == pytest.approx(list(prices))
        assert query.specs == [q.specs[0]] * 41 and query.shocks is None

    def test_sweep_ignores_noise(self):
        model = ParametricDemandModel(replace(_params(), noise_sigma=0.5))
        q = neutral_query(_spec())
        prices, first = elasticity_sweep(model, q)
        _, second = elasticity_sweep(model, q)
        assert np.array_equal(first, second)
        assert len(prices) == 41


class CheckedOracle:
    """Answers from one shared model and checks each answer against a model
    built for the query alone."""

    def __init__(self, shared: ParametricDemandModel):
        self.shared = shared
        self.checked = 0

    def sample_demand(self, query: DemandQuery) -> list[float]:
        fresh = ParametricDemandModel(self.shared.params)
        demands = self.shared.sample_demand(query)
        assert demands == fresh.sample_demand(query)
        assert self.shared.expected_demand(query) == fresh.expected_demand(query)
        self.checked += 1
        return demands

    expected_demand = sample_demand


class TestSlotConstants:
    """`ParametricDemandModel` keeps each slot table's constants, and a model
    shared by markets with other products never answers from stale ones."""

    PARAMS = DemandParams(cluster_base={1: 0.8, 2: 1.3, 3: 1.1, 5: 0.7, 10: 1.6})

    def _market(self, clusters, seed, oracle):
        roster = [AgentSpec(f"r{i}", "rule") for i in range(4)]
        config = MarketConfig(agent_roster=roster, clusters=clusters, weeks_per_episode=12,
                              episodes=1, seed=seed)
        portfolio = make_default_portfolio(clusters, seed)
        agents = [RuleAgent(s.agent_id, portfolio, config, RuleStrategy(kind))
                  for s, kind in zip(roster, DIVERSE_STRATEGIES)]
        return agents, MarketEnvironment(config, agents, oracle)

    def test_shared_model_matches_a_fresh_one(self):
        oracle = CheckedOracle(ParametricDemandModel(self.PARAMS))
        markets = [self._market((1, 2, 3), 5, oracle), self._market((2, 5, 10, 10), 9, oracle)]
        observations = [env.bootstrap_observation() for _, env in markets]
        for _ in range(12):  # the two markets take turns, so the model's table flips each week
            for i, (agents, env) in enumerate(markets):
                submitted = {a.agent_id: a.propose_prices(observations[i]) for a in agents}
                observations[i] = env.step(submitted)
        assert oracle.checked == 24

        # then a sweep of a product neither market holds
        query = neutral_query(_spec(price=8.0, baseline=40.0, cluster=5))
        _, swept = elasticity_sweep(oracle.shared, query)
        _, fresh = elasticity_sweep(ParametricDemandModel(self.PARAMS), query)
        assert np.array_equal(swept, fresh)

    def test_a_changed_spec_or_multiplier_rebuilds_them(self):
        model = ParametricDemandModel(self.PARAMS)
        specs = [_spec(), _spec(price=7.0, baseline=30.0, cluster=2)]
        query = DemandQuery(specs=specs, prices=[9.0, 7.5], relative_prices=[0.9, 1.1],
                            lag1_demands=[90.0, 20.0], shocks=[0.3, -1.2], week_sin=0.4)
        checked = CheckedOracle(model)
        first = checked.sample_demand(query)
        specs[1] = _spec(price=7.0, baseline=35.0, cluster=2)  # the same list, one spec replaced
        assert checked.sample_demand(query) != first
        model.params = replace(self.PARAMS, cluster_base={**self.PARAMS.cluster_base, 2: 2.0})
        assert checked.sample_demand(query)[1] != first[1]
        assert checked.checked == 3
