import json
from dataclasses import FrozenInstanceError, asdict, replace

import pytest
from hypothesis import given, strategies as st

from pricebench.harness import desk_spec, execute_run
from pricebench.market import (
    AgentSpec,
    ConfigError,
    DemandParams,
    JsonFields,
    MarketConfig,
    ProductSpec,
    derive_rng,
    from_fields,
    holiday_flag,
    left_sum,
    make_default_portfolio,
)


class TestLeftSum:
    """`left_sum` adds in order, without the compensation of CPython 3.12's `sum`."""

    def test_tenths_keep_their_rounding(self):
        assert left_sum([0.1] * 10) == 0.9999999999999999

    def test_empty_is_a_float_zero(self):
        assert left_sum([]) == 0.0 and type(left_sum([])) is float


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


def _roster():
    return [AgentSpec("a0", "rule"), AgentSpec("a1", "madqn")]


class TestMarketConfig:
    def test_construction_fills_demand_params(self):
        config = MarketConfig(agent_roster=_roster())
        assert config.demand_params is not None
        assert set(config.clusters) <= set(config.demand_params.cluster_base)

    def test_duplicate_ids_rejected(self):
        roster = [AgentSpec("a", "rule"), AgentSpec("a", "rule")]
        with pytest.raises(ConfigError):
            MarketConfig(agent_roster=roster)

    def test_empty_roster_rejected(self):
        with pytest.raises(ConfigError):
            MarketConfig(agent_roster=[])

    def test_zero_weeks_rejected(self):
        with pytest.raises(ConfigError):
            MarketConfig(agent_roster=_roster(), weeks_per_episode=0)

    def test_empty_clusters_rejected(self):
        with pytest.raises(ConfigError, match="clusters"):
            MarketConfig(agent_roster=_roster(), clusters=())

    def test_round_trip(self):
        config = MarketConfig(agent_roster=_roster(), seed=77)
        assert MarketConfig.from_dict(config.to_dict()) == config

    def test_frozen(self):
        config = MarketConfig(agent_roster=_roster())
        with pytest.raises(FrozenInstanceError):
            config.min_margin = 0.2
        with pytest.raises(FrozenInstanceError):
            config.demand_params.noise_sigma = 0.0

    def test_copy_checked_as_it_is_built(self):
        config = MarketConfig(agent_roster=_roster())
        with pytest.raises(ConfigError, match="weeks_per_episode"):
            replace(config, weeks_per_episode=1)

    @pytest.mark.parametrize("key", ["min_margin", "max_weekly_change", "reward_penalty_lambda"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            MarketConfig(agent_roster=_roster(), **{key: value})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AgentSpec("a", "zealot")


def _asdict_json(x) -> str:
    """The reference JSON form: `dataclasses.asdict`, each dict field's keys as strings."""
    def string_keys(items):
        return {k: {str(i): v for i, v in value.items()} if isinstance(value, dict) else value
                for k, value in items}
    return json.dumps(asdict(x, dict_factory=string_keys), sort_keys=True)


class TestJsonForm:
    def test_market_config_with_int_cluster_keys(self):
        roster = [AgentSpec("a0", "rule", {"strategy": "undercut"}),
                  AgentSpec("a1", "madqn", {"hidden": [8, 4], "lr": 0.01})]
        config = MarketConfig(
            agent_roster=roster, clusters=(1, 3, 10),
            demand_params=DemandParams(cluster_base={3: 1.2, 10: 0.8}),
        )
        assert set(config.demand_params.cluster_base) == {1, 3, 10}
        d = config.to_dict()
        assert d["demand_params"]["cluster_base"] == {"1": 1.0, "3": 1.2, "10": 0.8}
        assert json.dumps(d, sort_keys=True) == _asdict_json(config)

    def test_manifest_and_report(self, tmp_path):
        manifest, report = execute_run(desk_spec("D"), 0, tmp_path)
        assert manifest.config and report.agents
        for x in (manifest, report):
            assert json.dumps(JsonFields.to_dict(x), sort_keys=True) == _asdict_json(x)

    def test_editing_the_form_leaves_the_config_alone(self):
        config = MarketConfig(agent_roster=_roster())
        d = config.to_dict()
        d["agent_roster"][0]["params"]["strategy"] = "undercut"
        d["demand_params"]["cluster_base"]["1"] = 9.0
        assert config.agent_roster[0].params == {}
        assert config.demand_params.cluster_base[1] == 1.0


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
        assert config.demand_params == DemandParams(cluster_base={1: 1.0, 2: 3.0})

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

    @pytest.mark.parametrize("d", [{"seed": 7.5}, {"clusters": [1, 2.5]},
                                   {"weeks_per_episode": float("nan")}])
    def test_fractional_number_for_an_int_field(self, d):
        with pytest.raises(ConfigError, match=f"{next(iter(d))}: .* is not an integer"):
            from_fields(MarketConfig, {"agent_roster": [], **d})


def test_derive_rng_stable_and_distinct():
    a = derive_rng(1, "x").random(4)
    b = derive_rng(1, "x").random(4)
    c = derive_rng(1, "y").random(4)
    assert (a == b).all()
    assert not (a == c).all()
