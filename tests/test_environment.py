import math

import pytest
from hypothesis import given, settings, strategies as st

from pricebench.demand import DemandQuery, ParametricDemandModel
from pricebench.environment import (
    HISTORY_COLUMNS,
    MarketEnvironment,
    PricingAgentBase,
    ProtocolError,
    WeeklyRecord,
    history_csv_lines,
    run_episode,
)
from pricebench.market import (
    AgentSpec,
    MarketConfig,
    ProductSpec,
    derive_rng,
    make_default_portfolio,
)
from pricebench.rule_agents import RuleAgent, RuleStrategy


class StubOracle:
    """Deterministic oracle with a fixed demand for every slot."""

    def __init__(self, value=10.0):
        self.value = value

    def expected_demand(self, query: DemandQuery) -> list[float]:
        return [self.value] * len(query.prices)

    sample_demand = expected_demand


class RecordingOracle(StubOracle):
    """Stub oracle that keeps every (weekly, batched) query it was asked."""

    def __init__(self, value=10.0):
        super().__init__(value)
        self.queries: list[DemandQuery] = []

    def sample_demand(self, query: DemandQuery) -> list[float]:
        self.queries.append(query)
        return [self.value] * len(query.prices)


class FixedPriceAgent(PricingAgentBase):
    def __init__(self, agent_id, specs, config, prices=None):
        super().__init__(agent_id, specs, config)
        self.prices = prices

    def propose_prices(self, observation):
        if self.prices is not None:
            return dict(self.prices)
        return {pid: p.current_price for pid, p in self.portfolio.items()}


def _config(n_agents=2, weeks=4, seed=11, noise=0.0, **kw):
    roster = [AgentSpec(f"a{i}", "rule") for i in range(n_agents)]
    config = MarketConfig(
        agent_roster=roster,
        clusters=(1,),
        weeks_per_episode=weeks,
        episodes=1,
        seed=seed,
        **kw,
    ).validate()
    from dataclasses import replace

    config.demand_params = replace(config.demand_params, noise_sigma=noise)
    return config


def _agents(config, cls=FixedPriceAgent, **kw):
    portfolio = make_default_portfolio(config.clusters, config.seed)
    return [cls(spec.agent_id, portfolio, config, **kw) for spec in config.agent_roster]


class TestStep:
    def test_revenue_and_profit_arithmetic(self):
        config = _config(n_agents=1)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle(10.0))
        pid = next(iter(agent.portfolio))
        record, _ = env.step({agent.agent_id: {pid: 5.5}})
        i = record.slots[(agent.agent_id, pid)]
        cost = agent.portfolio[pid].spec.unit_cost
        assert record.revenue[i] == pytest.approx(55.0)
        assert record.profit[i] == pytest.approx((5.5 - cost) * 10.0)
        assert record.profit[i] <= record.revenue[i]

    def test_market_share_definition(self):
        config = _config(n_agents=2)
        agents = _agents(config)

        env = MarketEnvironment(config, agents, StubOracle(10.0))
        pid = next(iter(agents[0].portfolio))
        record, obs = env.step({"a0": {pid: 5.4}, "a1": {pid: 6.6}})
        assert env.clamp_events == 0
        assert record.market_share["a0"] == pytest.approx(0.45)
        assert record.market_share["a1"] == pytest.approx(0.55)
        assert sum(obs.market_share[a] for a in ("a0", "a1")) == pytest.approx(1.0)
        assert obs.market_share is record.market_share

    def test_holiday_flips_at_47(self):
        config = _config(weeks=60)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        flip = {}
        for _ in range(48):
            week = env.state.week_number
            record, obs = env.step(
                {a.agent_id: {pid: agents[0].portfolio[pid].spec.initial_price} for a in agents}
            )
            flip[week] = record.is_holiday
        assert flip[46] is False
        assert flip[47] is True

    def test_missing_price_is_protocol_error(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        with pytest.raises(ProtocolError, match="a1"):
            env.step({"a0": {pid: 6.0}, "a1": {}})

    def test_floor_clamp_applies_and_logs(self):
        # 0.01 each week: capped at -10 % a week until the margin floor binds
        config = _config(n_agents=1, weeks=8)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle())
        pid = next(iter(agent.portfolio))
        spec = agent.portfolio[pid].spec
        prices = [env.step({agent.agent_id: {pid: 0.01}})[0].price[0] for _ in range(6)]
        floor = spec.unit_cost * 1.05
        assert prices[:4] == pytest.approx([spec.initial_price * 0.9**k for k in range(1, 5)])
        assert prices[4:] == pytest.approx([floor, floor])
        assert env.clamp_events == 6

    def test_conservation(self):
        config = _config(n_agents=3, weeks=6)
        agents = _agents(config)
        model = ParametricDemandModel(config.demand_params)
        records = run_episode(config, agents, model)
        for record in records:
            total = sum(record.revenue)
            assert sum(record.agent_revenue.values()) == pytest.approx(total, abs=1e-9)

    def test_observation_freshness(self):
        config = _config(n_agents=1)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle(7.0))
        pid = next(iter(agent.portfolio))
        record, obs = env.step({agent.agent_id: {pid: 6.5}})
        i = obs.slots[(agent.agent_id, pid)]
        assert obs.price[i] == 6.5
        assert obs.last_demand[i] == 7.0
        assert obs.agent_revenue[agent.agent_id] == pytest.approx(45.5)
        # calendar in the observation points at the week to be priced next
        assert obs.week_number == record.week_number + 1


class TestMarketRules:
    def test_cap_limits_submitted_price(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        current = agents[0].portfolio[pid].current_price
        record, _ = env.step({"a0": {pid: 1e6}, "a1": {pid: current}})
        capped = current * (1 + config.max_weekly_change)
        assert record.price[record.slots[("a0", pid)]] == capped
        assert record.market_share["a0"] == pytest.approx(capped / (capped + current))
        assert env.clamp_events == 1

    def test_cap_limits_rule_strategy(self):
        # markup 1.0 prices at twice the cost, 20 % above the initial price
        config = _config(n_agents=1)
        portfolio = make_default_portfolio([1], config.seed)
        agent = RuleAgent("a0", portfolio, config, RuleStrategy("static_markup", markup=1.0))
        env = MarketEnvironment(config, [agent], StubOracle())
        obs = env.bootstrap_observation()
        spec = portfolio[0]
        assert agent.propose_prices(obs)[spec.product_id] == pytest.approx(spec.unit_cost * 2)
        record, _ = env.step({"a0": agent.propose_prices(obs)})
        assert record.price[record.slots[("a0", spec.product_id)]] == pytest.approx(
            spec.initial_price * 1.1
        )
        assert env.clamp_events == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_is_protocol_error(self, bad):
        config = _config(n_agents=2)
        agents = _agents(config)
        oracle = RecordingOracle()
        env = MarketEnvironment(config, agents, oracle)
        pid = next(iter(agents[0].portfolio))
        with pytest.raises(ProtocolError, match=f"a1.*{pid}"):
            env.step({"a0": {pid: 6.0}, "a1": {pid: bad}})
        assert oracle.queries == []


def _hold_cluster_prices(prices):
    """One week in which agent i holds one product priced at prices[i]; returns
    the week's one demand query and the observation after it."""
    config = _config(n_agents=len(prices))
    agents = [
        FixedPriceAgent(f"a{i}", [ProductSpec("p", 1, price, price * 0.6, 20.0)], config)
        for i, price in enumerate(prices)
    ]
    oracle = RecordingOracle()
    env = MarketEnvironment(config, agents, oracle)
    _, obs = env.step({a.agent_id: a.propose_prices(None) for a in agents})
    (query,) = oracle.queries
    return query, obs


class TestDemandInputs:
    def test_cold_start_demand_inputs(self):
        config = _config(n_agents=1)
        (agent,) = _agents(config)
        oracle = RecordingOracle()
        env = MarketEnvironment(config, [agent], oracle)
        spec = agent.portfolio["prod1"].spec
        env.step({"a0": {"prod1": 6.3}})
        (query,) = oracle.queries
        assert query.specs == [spec] and query.prices == [6.3]
        assert query.lag1_demands == [spec.baseline_demand]  # no history yet
        assert query.week_sin == pytest.approx(math.sin(2 * math.pi / 52))
        assert query.holiday is False
        assert len(query.shocks) == 1

    def test_warm_demand_inputs(self):
        config = _config(weeks=60)
        agents = _agents(config)
        oracle = RecordingOracle(7.0)
        env = MarketEnvironment(config, agents, oracle)
        env.state.week_number = 46
        for _ in range(2):
            env.step({a.agent_id: {"prod1": 6.0} for a in agents})
        cold, warm = oracle.queries
        assert cold.holiday is False
        assert warm.holiday is True
        assert warm.lag1_demands == [7.0, 7.0]

    def test_relative_price_is_price_over_cluster_mean(self):
        query, _ = _hold_cluster_prices([12.0, 8.0, 4.0])
        assert query.relative_prices == pytest.approx([1.5, 1.0, 0.5])

    def test_relative_price_at_cluster_mean_is_one(self):
        query, _ = _hold_cluster_prices([8.0, 8.0])
        assert query.relative_prices == [1.0, 1.0]

    def test_singleton_cluster_relative_price_is_one(self):
        query, _ = _hold_cluster_prices([3.0])
        assert query.relative_prices == [1.0]

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=6),
        st.floats(min_value=0.01, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_relative_price_scale_invariance(self, prices, c):
        base, scaled = (
            _hold_cluster_prices([p * k for p in prices])[0].relative_prices for k in (1.0, c)
        )
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_observation_shares_the_cluster_mean(self):
        query, obs = _hold_cluster_prices([12.0, 8.0, 4.0])
        assert obs.cluster_avg_price == [8.0, 8.0, 8.0]
        assert [p / m for p, m in zip(obs.price, obs.cluster_avg_price)] == query.relative_prices

    def test_one_query_per_week_in_roster_order(self):
        roster = [AgentSpec(f"a{i}", "rule") for i in range(4)]
        config = MarketConfig(agent_roster=roster, weeks_per_episode=3, episodes=1).validate()
        portfolio = make_default_portfolio(config.clusters, config.seed)
        agents = [FixedPriceAgent(s.agent_id, portfolio, config) for s in roster]
        oracle = RecordingOracle()
        records = run_episode(config, agents, oracle)
        order = [(f"a{i}", spec.product_id) for i in range(4) for spec in portfolio]
        assert len(oracle.queries) == 3
        assert all(list(r.slots) == order for r in records)
        for query in oracle.queries:
            assert query.specs == portfolio * 4
            assert len(query.prices) == len(query.shocks) == len(query.lag1_demands) == 20

    @pytest.mark.parametrize("sigma", [0.05, 0.37])
    def test_shocks_are_the_streams_weekly_normal_draws(self, sigma):
        weeks = 30
        config = _config(n_agents=3, weeks=weeks, noise=sigma)
        agents = _agents(config)
        oracle = RecordingOracle()
        env = MarketEnvironment(config, agents, oracle, episode_index=2)
        for _ in range(weeks):
            env.step({a.agent_id: a.propose_prices(None) for a in agents})
        for (agent_id, pid), i in env.slots.items():
            rng = derive_rng(config.seed, "demand", agent_id, pid, 2)
            expected = [rng.normal(0.0, sigma) for _ in range(weeks)]
            assert [sigma * q.shocks[i] for q in oracle.queries] == expected

    def test_stepping_past_the_episode_is_protocol_error(self):
        config = _config(n_agents=1, weeks=2)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle())
        for _ in range(2):
            env.step({"a0": {"prod1": 6.0}})
        with pytest.raises(ProtocolError, match="2 weeks"):
            env.step({"a0": {"prod1": 6.0}})


def _outcomes(record):
    """(price, demand, revenue, profit) per (agent_id, product_id) pair."""
    columns = zip(record.price, record.demand, record.revenue, record.profit)
    return dict(zip(record.slots, columns))


class TestRunEpisode:
    def test_week_count(self):
        config = _config(weeks=8)
        agents = _agents(config)
        records = run_episode(config, agents, StubOracle())
        assert len(records) == 8
        assert [r.week_index for r in records] == list(range(1, 9))

    def test_determinism_with_seeds(self):
        runs = []
        for _ in range(2):
            config = _config(n_agents=2, weeks=6, noise=0.05)
            agents = _agents(config)
            model = ParametricDemandModel(config.demand_params)
            runs.append(run_episode(config, agents, model))
        for r1, r2 in zip(*runs):
            assert _outcomes(r1) == _outcomes(r2)
            assert r1.agent_revenue == r2.agent_revenue

    def test_roster_permutation_invariance(self):
        def run_with_order(reverse):
            roster = [AgentSpec("a0", "rule"), AgentSpec("a1", "rule"), AgentSpec("a2", "rule")]
            config = MarketConfig(
                agent_roster=list(reversed(roster)) if reverse else roster,
                clusters=(1, 2),
                weeks_per_episode=5,
                episodes=1,
                seed=21,
            ).validate()
            portfolio = make_default_portfolio([1, 2], config.seed)
            strategies = {
                "a0": RuleStrategy("competitor_match"),
                "a1": RuleStrategy("demand_responsive"),
                "a2": RuleStrategy("seasonal"),
            }
            agents = [
                RuleAgent(s.agent_id, portfolio, config, strategies[s.agent_id])
                for s in config.agent_roster
            ]
            model = ParametricDemandModel(config.demand_params)
            return run_episode(config, agents, model)

        forward = run_with_order(False)
        backward = run_with_order(True)
        for r1, r2 in zip(forward, backward):
            assert _outcomes(r1) == _outcomes(r2)

    def test_calendar_wraps_into_second_year(self):
        config = _config(weeks=104)
        agents = _agents(config)
        records = run_episode(config, agents, StubOracle())
        assert records[51].year == 1 and records[51].week_number == 52
        assert records[52].year == 2 and records[52].week_number == 1

    def test_zero_revenue_week_flagged(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle(0.0))
        pid = next(iter(agents[0].portfolio))
        record, obs = env.step({a.agent_id: {pid: 6.3} for a in agents})
        assert record.zero_revenue is True
        assert record.market_share["a0"] == pytest.approx(0.5)


class TestHistoryCsv:
    def test_layout_and_precision(self):
        config = _config(n_agents=1, weeks=2)
        agents = _agents(config)
        records = run_episode(config, agents, StubOracle(1.5))
        lines = history_csv_lines([records])
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[2] == "a0"
        assert len(first) == len(HISTORY_COLUMNS)
        # six decimal places on all float columns
        for cell in first[4:]:
            assert len(cell.split(".")[1]) == 6

    @pytest.mark.parametrize("value", [-0.0, 1e-7, 1e9, 0.1234565, 2.5e-7, -3.75])
    def test_template_matches_fstring(self, value):
        record = WeeklyRecord(
            week_index=3, year=1, week_number=3, is_holiday=False,
            slots={("a0", "p1"): 0, ("a1", "p1"): 1},
            price=[value, 6.0], demand=[1.0, value], revenue=[value, value],
            profit=[value, -value], agent_revenue={"a0": value, "a1": 1.0},
            market_share={"a0": value, "a1": 0.5},
        )
        expected = [
            f"2,3,{aid},p1,{price:.6f},{demand:.6f},{revenue:.6f},{profit:.6f},{share:.6f}"
            for aid, price, demand, revenue, profit, share in [
                ("a0", value, 1.0, value, value, value),
                ("a1", 6.0, value, value, -value, 0.5),
            ]
        ]
        assert history_csv_lines([[], [record]])[1:] == expected
