import pytest
from hypothesis import given, strategies as st

from pricebench.market import (
    AgentSpec,
    ConfigError,
    DemandParams,
    MarketConfig,
    ProductSpec,
    ProductState,
    derive_rng,
    from_fields,
    holiday_flag,
    make_default_portfolio,
)


class TestHolidayFlag:
    def test_mid_holiday_week(self):
        assert holiday_flag(50) is True

    def test_boundaries(self):
        assert holiday_flag(46) is False
        assert holiday_flag(47) is True
        assert holiday_flag(52) is True
        assert holiday_flag(53) is False

    @pytest.mark.parametrize("week", [0, 54, -1])
    def test_out_of_range(self, week):
        with pytest.raises(ConfigError):
            holiday_flag(week)

    @given(st.integers(min_value=1, max_value=53))
    def test_matches_interval(self, week):
        assert holiday_flag(week) == (47 <= week <= 52)



class TestPortfolio:
    def test_default_cluster_set(self):
        specs = make_default_portfolio([1, 2, 3, 5, 10], seed=42)
        assert [s.cluster_id for s in specs] == [1, 2, 3, 5, 10]
        assert len(specs) == 5

    def test_margin_positive(self):
        (spec,) = make_default_portfolio([1], seed=0)
        assert spec.initial_price > spec.unit_cost

    def test_deterministic(self):
        a = make_default_portfolio([1, 2, 3, 5, 10], seed=9)
        b = make_default_portfolio([1, 2, 3, 5, 10], seed=9)
        assert a == b

    def test_empty_clusters_rejected(self):
        with pytest.raises(ConfigError):
            make_default_portfolio([], seed=1)


class TestProductSpec:
    def test_price_must_exceed_cost(self):
        with pytest.raises(ConfigError):
            ProductSpec("p", 1, initial_price=5.0, unit_cost=5.0, baseline_demand=10.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            ProductSpec("p", 1, initial_price=5.0, unit_cost=-1.0, baseline_demand=10.0)


class TestProductState:
    def test_histories_stay_aligned(self):
        state = ProductState.fresh(ProductSpec("p", 1, 10.0, 6.0, 20.0))
        for week in range(5):
            state.record_week(10.0 + week, 20.0)
            n = week + 1
            assert len(state.price_history) == n
            assert len(state.demand_history) == n

    def test_first_week_change_relative_to_initial(self):
        state = ProductState.fresh(ProductSpec("p", 1, 10.0, 6.0, 20.0))
        state.record_week(11.0, 1.0)
        assert state.last_relative_change() == pytest.approx(0.1)


def _roster():
    return [AgentSpec("a0", "rule"), AgentSpec("a1", "madqn")]


class TestMarketConfig:
    def test_validate_fills_demand_params(self):
        config = MarketConfig(agent_roster=_roster()).validate()
        assert config.demand_params is not None
        assert set(config.clusters) <= set(config.demand_params.cluster_base)

    def test_duplicate_ids_rejected(self):
        roster = [AgentSpec("a", "rule"), AgentSpec("a", "rule")]
        with pytest.raises(ConfigError):
            MarketConfig(agent_roster=roster).validate()

    def test_empty_roster_rejected(self):
        with pytest.raises(ConfigError):
            MarketConfig(agent_roster=[]).validate()

    def test_zero_weeks_rejected(self):
        with pytest.raises(ConfigError):
            MarketConfig(agent_roster=_roster(), weeks_per_episode=0).validate()

    def test_empty_clusters_rejected(self):
        with pytest.raises(ConfigError, match="clusters"):
            MarketConfig(agent_roster=_roster(), clusters=()).validate()

    def test_round_trip(self):
        config = MarketConfig(agent_roster=_roster(), seed=77).validate()
        assert MarketConfig.from_dict(config.to_dict()) == config

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AgentSpec("a", "zealot")


class TestFromFields:
    def test_nested_values_cast_by_field_type(self):
        config = from_fields(MarketConfig, {
            "agent_roster": [{"agent_id": "a", "agent_kind": "rule"}],
            "clusters": [1, 2.0],
            "seed": "7",
            "demand_params": {"cluster_base": {"2": 3}},
        })
        assert config.agent_roster == [AgentSpec("a", "rule")]
        assert config.clusters == (1, 2) and config.seed == 7
        assert config.demand_params == DemandParams(cluster_base={2: 3.0})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match=r"unknown DemandParams keys \['elasticty'\]"):
            from_fields(DemandParams, {"elasticty": -1.0})

    def test_nested_unknown_key_named_with_its_field(self):
        roster = [{"agent_id": "a", "agent_kind": "rule", "kind": "rule"}]
        with pytest.raises(ConfigError, match=r"agent_roster: unknown AgentSpec keys \['kind'\]"):
            from_fields(MarketConfig, {"agent_roster": roster})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="agent_kind"):
            from_fields(AgentSpec, {"agent_id": "a"})

    @pytest.mark.parametrize("d", [{"seed": "x"}, {"clusters": 5}, {"demand_params": [1]}])
    def test_value_that_does_not_cast(self, d):
        with pytest.raises(ConfigError, match=next(iter(d))):
            from_fields(MarketConfig, {"agent_roster": [], **d})

    def test_fixed_fields_are_not_read(self):
        assert from_fields(DemandParams, {}, elasticity=-1.0).elasticity == -1.0
        with pytest.raises(ConfigError, match="elasticity"):
            from_fields(DemandParams, {"elasticity": -2.0}, elasticity=-1.0)


def test_derive_rng_stable_and_distinct():
    a = derive_rng(1, "x").random(4)
    b = derive_rng(1, "x").random(4)
    c = derive_rng(1, "y").random(4)
    assert (a == b).all()
    assert not (a == c).all()
