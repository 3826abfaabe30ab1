import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pricebench.demand import DemandQuery, ParametricDemandModel
from pricebench.features import seasonal_encoding
from pricebench.harness import build_agents, desk_spec, simulate
from pricebench.environment import (
    HISTORY_COLUMNS,
    HISTORY_HEADER,
    MarketEnvironment,
    PricingAgentBase,
    ProtocolError,
    FIXED6_LIMIT,
    fixed6_text,
    run_episode,
    write_history_csv,
)
from pricebench.market import (
    AgentSpec,
    MarketConfig,
    MarketObservation,
    ProductSpec,
    derive_rng,
    holiday_flag,
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


class FeedbackLog(FixedPriceAgent):
    """Keeps every (observation, previous observation) pair `feedback` is given."""

    def __init__(self, agent_id, specs, config):
        super().__init__(agent_id, specs, config)
        self.fed = []

    def feedback(self, observation, prev_observation, done):
        self.fed.append((observation, prev_observation))


def _config(n_agents=2, weeks=4, seed=11, noise=0.0, **kw):
    roster = [AgentSpec(f"a{i}", "rule") for i in range(n_agents)]
    config = MarketConfig(
        agent_roster=roster,
        clusters=(1,),
        weeks_per_episode=weeks,
        episodes=1,
        seed=seed,
        **kw,
    )
    return replace(config, demand_params=replace(config.demand_params, noise_sigma=noise))


def _agents(config, cls=FixedPriceAgent, **kw):
    portfolio = make_default_portfolio(config.clusters, config.seed)
    return [cls(spec.agent_id, portfolio, config, **kw) for spec in config.agent_roster]


class TestStep:
    def test_revenue_and_profit_arithmetic(self):
        config = _config(n_agents=1)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle(10.0))
        pid = next(iter(agent.portfolio))
        record = env.step({agent.agent_id: {pid: 5.5}})
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
        obs = env.step({"a0": {pid: 5.4}, "a1": {pid: 6.6}})
        assert env.clamp_events == 0
        assert obs.market_share["a0"] == pytest.approx(0.45)
        assert obs.market_share["a1"] == pytest.approx(0.55)
        assert sum(obs.market_share[a] for a in ("a0", "a1")) == pytest.approx(1.0)

    def test_holiday_flips_at_47(self):
        config = _config(weeks=60)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        flip = {}
        for _ in range(48):
            obs = env.step(
                {a.agent_id: {pid: agents[0].portfolio[pid].spec.initial_price} for a in agents}
            )
            flip[obs.week_number] = obs.is_holiday
        assert flip[46] is False
        assert flip[47] is True

    def test_missing_price_is_protocol_error(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        with pytest.raises(ProtocolError, match="a1"):
            env.step({"a0": {pid: 6.0}, "a1": {}})

    @pytest.mark.parametrize("prices", [[6.0], 6.0], ids=["list", "float"])
    def test_prices_not_by_product_id_are_protocol_error(self, prices):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        with pytest.raises(ProtocolError, match=f"a1.*{pid}"):
            env.step({"a0": {pid: 6.0}, "a1": prices})

    def test_floor_clamp_applies_and_logs(self):
        # 0.01 each week: capped at -10 % a week until the margin floor binds
        config = _config(n_agents=1, weeks=8)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle())
        pid = next(iter(agent.portfolio))
        spec = agent.portfolio[pid].spec
        prices = [env.step({agent.agent_id: {pid: 0.01}}).price[0] for _ in range(6)]
        floor = spec.unit_cost * 1.05
        assert prices[:4] == pytest.approx([spec.initial_price * 0.9**k for k in range(1, 5)])
        assert prices[4:] == pytest.approx([floor, floor])
        assert env.clamp_events == 6

    def test_conservation(self):
        config = _config(n_agents=3, weeks=6)
        (records,) = simulate(config, _agents(config))
        for record in records:
            total = sum(record.revenue)
            assert sum(record.agent_revenue.values()) == pytest.approx(total, abs=1e-9)

    def test_observation_freshness(self):
        config = _config(n_agents=1)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle(7.0))
        pid = next(iter(agent.portfolio))
        obs = env.step({agent.agent_id: {pid: 6.5}})
        i = obs.slots[(agent.agent_id, pid)]
        assert obs.price[i] == 6.5
        assert obs.demand[i] == 7.0
        assert obs.agent_revenue[agent.agent_id] == pytest.approx(45.5)
        # the market fields settle week 1; the calendar points at week 2, priced next
        assert obs.week_index == 1 and obs.week_number == 2


_RULE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.9, 1.1, 6.3]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestMarketRules:
    @given(st.lists(st.tuples(_RULE_FLOATS, _RULE_FLOATS, _RULE_FLOATS), max_size=8),
           st.sampled_from([0.1, 0.25, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_allowed_prices_pick_what_min_max_picks(self, rows, span):
        """Bit for bit, -0.0 and ties included, as the rule's min/max form."""
        config = _config(max_weekly_change=span)
        expected = [max(min(max(price, last * (1.0 - span)), last * (1.0 + span)), floor)
                    for last, price, floor in rows]
        lasts, prices, floors = zip(*rows) if rows else ((), (), ())
        allowed = config.allowed_prices(lasts, prices, floors)
        assert np.array(allowed).tobytes() == np.array(expected).tobytes()
        singles = [config.allowed_prices(*zip(row))[0] for row in rows]
        assert np.array(singles).tobytes() == np.array(expected).tobytes()

    def test_cap_limits_submitted_price(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        pid = next(iter(agents[0].portfolio))
        current = agents[0].portfolio[pid].current_price
        record = env.step({"a0": {pid: 1e6}, "a1": {pid: current}})
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
        record = env.step({"a0": agent.propose_prices(obs)})
        assert record.price[record.slots[("a0", spec.product_id)]] == pytest.approx(
            spec.initial_price * 1.1
        )
        assert env.clamp_events == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "cheap"])
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
    obs = env.step({a.agent_id: a.propose_prices(None) for a in agents})
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
        env.week_number = 46
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
        config = MarketConfig(agent_roster=roster, weeks_per_episode=3, episodes=1)
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

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_oracle_without_one_demand_per_slot_is_protocol_error(self, extra):
        class MiscountingOracle(StubOracle):
            def sample_demand(self, query):
                return [self.value] * (len(query.prices) + extra)

        config = _config(n_agents=3)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, MiscountingOracle())
        with pytest.raises(ProtocolError, match=f"{3 + extra} demands for 3 slots"):
            env.step({a.agent_id: {"prod1": 6.0} for a in agents})
        # no slot was settled
        for agent in agents:
            product = agent.portfolio["prod1"]
            assert product.current_price == product.spec.initial_price
            assert product.price_history == [] and product.demand_history == []


def _reference_demands(specs, prices, relative_prices, lag1_demands, shocks, week_sin,
                       holiday, params):
    """The log-linear demand of each slot, computed from its spec every week."""
    season = params.seasonal_amp * week_sin
    uplift = math.log(params.holiday_uplift) * holiday
    demands = []
    for i, (spec, price, relative, lag1) in enumerate(
        zip(specs, prices, relative_prices, lag1_demands, strict=True)
    ):
        baseline = spec.baseline_demand
        log_q = (
            math.log(baseline * params.cluster_base[spec.cluster_id])
            + params.elasticity * math.log(price / spec.initial_price)
            - params.competitor_weight * math.log(relative)
            + season
            + uplift
            + params.lag_weight * math.log(max(lag1, 1e-9) / baseline)
        )
        if params.noise_sigma > 0:
            log_q += params.noise_sigma * shocks[i]
        demands.append(math.exp(log_q))
    return demands


def _reference_week(env, submitted):
    """The week `env.step(submitted)` should settle, slot by slot from the
    agents' product states: the market rule as min/max of each price, the
    demand above and `ProductState.record_week` on copies of the states.
    Returns the observation, the clamp count and the states after the week."""
    config = env.config
    agents = {a.agent_id: a for a in env.agents}
    slots = list(env.slots)
    states = [copy.deepcopy(agents[aid].portfolio[pid]) for aid, pid in slots]
    week, t = env.week_number, env.week_index

    span = config.max_weekly_change
    prices, clamps = [], 0
    for (aid, pid), product in zip(slots, states):
        asked, last = float(submitted[aid][pid]), product.current_price
        capped = min(max(asked, last * (1.0 - span)), last * (1.0 + span))
        price = max(capped, config.price_floor(product.spec))
        clamps += price != asked
        product.current_price = price
        prices.append(price)
    clusters = [p.spec.cluster_id for p in states]
    cluster_avg = []
    for c in clusters:
        members = [price for price, k in zip(prices, clusters) if k == c]
        cluster_avg.append(math.fsum(members) / len(members))
    lag1 = [p.demand_history[-1] if p.demand_history else p.spec.baseline_demand for p in states]
    shocks = [
        derive_rng(config.seed, "demand", aid, pid, env.episode_index)
        .standard_normal(config.weeks_per_episode)[t]
        for aid, pid in slots
    ]
    demands = _reference_demands(
        [p.spec for p in states], prices, [p / m for p, m in zip(prices, cluster_avg)], lag1,
        shocks, seasonal_encoding(week)[0], holiday_flag(week), config.demand_params,
    )

    revenues, profits, agent_revenue = [], [], {}
    for (aid, _), product, price, demand in zip(slots, states, prices, demands):
        product.record_week(price, demand)
        revenues.append(price * demand)
        profits.append((price - product.spec.unit_cost) * demand)
        agent_revenue[aid] = agent_revenue.get(aid, 0.0) + price * demand
    total = math.fsum(agent_revenue.values())
    zero_revenue = total <= 0
    shares = {aid: 1.0 / len(agent_revenue) if zero_revenue else rev / total
              for aid, rev in agent_revenue.items()}
    next_week = week % 52 + 1
    competitor_slots = tuple(
        tuple(j for j, (other, _) in enumerate(slots) if other != aid and clusters[j] == c)
        for (aid, _), c in zip(slots, clusters)
    )
    observation = MarketObservation(
        week_index=t + 1, week_number=next_week, is_holiday=holiday_flag(next_week),
        slots=env.slots, competitor_slots=competitor_slots, price=prices,
        cluster_avg_price=cluster_avg, demand=demands, revenue=revenues, profit=profits,
        agent_revenue=agent_revenue, market_share=shares, zero_revenue=zero_revenue,
    )
    return observation, clamps, states


class RandomPriceAgent(PricingAgentBase):
    """Submits a random multiple of each current price: inside the weekly
    cap, past it either way, and far below the margin floor."""

    MULTIPLIERS = (0.01, 0.5, 0.85, 0.93, 0.97, 1.0, 1.04, 1.2, 4.0)

    def __init__(self, agent_id, specs, config, rng):
        super().__init__(agent_id, specs, config)
        self.rng = rng

    def propose_prices(self, observation):
        return {pid: p.current_price * float(self.rng.choice(self.MULTIPLIERS))
                for pid, p in self.portfolio.items()}


def _rule_hits(env, submitted):
    """Which of the cap and the floor each slot's submission meets."""
    config = env.config
    hits = set()
    for (aid, pid), i in env.slots.items():
        product = next(a for a in env.agents if a.agent_id == aid).portfolio[pid]
        last, asked = product.current_price, submitted[aid][pid]
        span = config.max_weekly_change
        capped = min(max(asked, last * (1 - span)), last * (1 + span))
        hits.add((capped != asked, config.price_floor(product.spec) > capped))
    return hits


class TestReferenceWeek:
    """`MarketEnvironment.step` settles every week exactly as the slot-by-slot
    reference above: the same floats, clamp counts and observations."""

    def _drive(self, config, agents, model, episodes):
        hits = set()
        for ep in range(episodes):
            for agent in agents:
                agent.begin_episode(ep)
            env = MarketEnvironment(config, agents, model, ep)
            observation = env.bootstrap_observation()
            for week in range(1, config.weeks_per_episode + 1):
                submitted = {a.agent_id: a.propose_prices(observation) for a in agents}
                hits |= _rule_hits(env, submitted)
                expected, clamps, states = _reference_week(env, submitted)
                before = env.clamp_events
                new_observation = env.step(submitted)
                assert new_observation == expected
                assert env.clamp_events - before == clamps
                assert [a.portfolio[pid] for a in agents for pid in a.portfolio] == states
                for agent in agents:
                    agent.feedback(new_observation, observation, week == config.weeks_per_episode)
                observation = new_observation
        return hits

    @pytest.mark.parametrize("config_id", ["A", "E", "G"])
    def test_seeded_episodes(self, config_id):
        config = desk_spec(config_id, seed=404).market
        agents = build_agents(config)
        self._drive(config, agents, ParametricDemandModel(config.demand_params), episodes=2)

    def test_random_submissions_hit_the_cap_and_the_floor(self):
        roster = [AgentSpec(f"r{i}", "rule") for i in range(4)]
        config = MarketConfig(agent_roster=roster, weeks_per_episode=40, episodes=1,
                              seed=505)
        portfolio = make_default_portfolio(config.clusters, config.seed)
        rng = derive_rng(505, "submissions")
        agents = [RandomPriceAgent(s.agent_id, portfolio, config, rng) for s in roster]
        hits = self._drive(config, agents, ParametricDemandModel(config.demand_params),
                           episodes=2)
        # the cap alone, the floor alone, and a capped price raised to the floor
        assert {(True, False), (False, True), (True, True)} <= hits


class TestBootstrap:
    def test_week_zero_is_the_initial_prices_at_baseline_demand(self):
        config = _config(n_agents=3)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        obs = env.bootstrap_observation()
        assert obs.week_index == 0 and obs.week_number == 1
        for agent in agents:
            expected = 0.0  # added left to right, in portfolio order
            for pid, product in agent.portfolio.items():
                spec, i = product.spec, obs.slots[(agent.agent_id, pid)]
                assert obs.price[i] == spec.initial_price
                assert obs.demand[i] == spec.baseline_demand
                assert obs.revenue[i] == spec.initial_price * spec.baseline_demand
                assert obs.profit[i] == (
                    (spec.initial_price - spec.unit_cost) * spec.baseline_demand
                )
                expected += obs.revenue[i]
            assert obs.agent_revenue[agent.agent_id] == expected
        total = math.fsum(obs.agent_revenue.values())
        assert obs.market_share == {aid: rev / total for aid, rev in obs.agent_revenue.items()}


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

    def test_records_are_the_observations_fed_back(self):
        config = _config(n_agents=2, weeks=6)
        agents = _agents(config, cls=FeedbackLog)
        records = run_episode(config, agents, StubOracle())
        for agent in agents:
            assert len(agent.fed) == len(records) == 6
            (_, week_zero), *_ = agent.fed
            assert week_zero.week_index == 0
            for i, (observation, prev_observation) in enumerate(agent.fed):
                assert observation is records[i]
                assert records[i].week_index == i + 1
                assert prev_observation is (records[i - 1] if i else week_zero)

    def test_determinism_with_seeds(self):
        runs = []
        for _ in range(2):
            config = _config(n_agents=2, weeks=6, noise=0.05)
            runs.extend(simulate(config, _agents(config)))
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
            )
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
            (records,) = simulate(config, agents)
            return records

        forward = run_with_order(False)
        backward = run_with_order(True)
        for r1, r2 in zip(forward, backward):
            assert _outcomes(r1) == _outcomes(r2)

    def test_calendar_wraps_into_second_year(self):
        config = _config(weeks=104)
        agents = _agents(config)
        records = run_episode(config, agents, StubOracle())
        # each record's calendar is the week priced next: week 52, then week 1 of year 2
        assert records[50].week_index == 51 and records[50].week_number == 52
        assert records[51].week_index == 52 and records[51].week_number == 1
        assert records[103].week_index == 104 and records[103].week_number == 1

    def test_zero_revenue_week_flagged(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle(0.0))
        pid = next(iter(agents[0].portfolio))
        record = env.step({a.agent_id: {pid: 6.3} for a in agents})
        assert record.zero_revenue is True
        assert record.market_share["a0"] == pytest.approx(0.5)


def _write_history(path, episodes: dict[int, list[MarketObservation]]) -> None:
    """A history file of `episodes`' records, by episode index."""
    with open(path, "wb") as fh:
        fh.write(HISTORY_HEADER)
        for ep_idx, records in episodes.items():
            write_history_csv(fh, ep_idx, records)


class TestHistoryCsv:
    def test_layout_and_precision(self, tmp_path):
        config = _config(n_agents=1, weeks=2)
        agents = _agents(config)
        records = run_episode(config, agents, StubOracle(1.5))
        _write_history(tmp_path / "history.csv", {1: records})
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[2] == "a0"
        assert len(first) == len(HISTORY_COLUMNS)
        # six decimal places on all float columns
        for cell in first[4:]:
            assert len(cell.split(".")[1]) == 6

    @pytest.mark.parametrize("value", [-0.0, 1e-7, 1e9, 0.1234565, 2.5e-7, -3.75])
    def test_template_matches_fstring(self, value, tmp_path):
        record = MarketObservation(
            week_index=3, week_number=4, is_holiday=False,
            slots={("a0", "p1"): 0, ("a1", "p1"): 1}, competitor_slots=((1,), (0,)),
            price=[value, 6.0], cluster_avg_price=[(value + 6.0) / 2] * 2,
            demand=[1.0, value], revenue=[value, value], profit=[value, -value],
            agent_revenue={"a0": value, "a1": 1.0}, market_share={"a0": value, "a1": 0.5},
        )
        # the next episode's slot table holds other slots
        other = replace(record, week_index=1, slots={("a1", "p2"): 0, ("a0", "p2"): 1},
                        market_share={"a0": 0.25, "a1": value})
        expected = [
            f"{ep},{week},{aid},{pid},{price:.6f},{demand:.6f},{revenue:.6f},{profit:.6f},{share:.6f}"
            for ep, week, aid, pid, price, demand, revenue, profit, share in [
                (2, 3, "a0", "p1", value, 1.0, value, value, value),
                (2, 3, "a1", "p1", 6.0, value, value, -value, 0.5),
                (3, 1, "a1", "p2", value, 1.0, value, value, value),
                (3, 1, "a0", "p2", 6.0, value, value, -value, 0.25),
            ]
        ]
        _write_history(tmp_path / "history.csv", {2: [record], 3: [other]})
        text = (tmp_path / "history.csv").read_text()
        assert text == "\n".join([",".join(HISTORY_COLUMNS), *expected]) + "\n"


def _fixed6_strings(values) -> list[str]:
    """Each value's text from `fixed6_text`, NULs dropped."""
    text = fixed6_text(np.asarray(values, dtype=float).ravel())
    lines = np.full((len(text) + 1, text.shape[1]), ord("\n"), dtype=np.uint8)
    lines[:-1] = text
    return lines.T.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _percent_f6(values) -> list[str]:
    return ["%.6f" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _half_micro_neighbours(rng, n: int) -> np.ndarray:
    """Doubles at and next to (k + 1/2)·1e-6 across the vector range: exact
    ties k/2⁷ (k odd, the only doubles whose value·10⁶ is a half-integer),
    the rounded quotients (k + 1/2)/10⁶ and both nextafter neighbours of each."""
    exponents = rng.integers(0, 52, n)
    k = np.floor(rng.random(n) * 2.0**exponents)
    ties = (2 * np.floor(rng.random(n) * 2.0**exponents) + 1) / 2**7
    quotients = (k + 0.5) / 1e6
    centres = np.concatenate([ties, quotients])
    centres = centres[centres < FIXED6_LIMIT]
    return np.concatenate([centres, np.nextafter(centres, 0), np.nextafter(centres, np.inf)])


class TestFixed6Text:
    """`fixed6_text` is `'%.6f' % v`, byte for byte, for every double."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_matches_percent_format(self, values):
        assert _fixed6_strings(values) == _percent_f6(values)

    def test_million_values_match_percent_format(self):
        rng = np.random.default_rng(20260)
        dyadic = (2 * rng.integers(0, 2**20, 50_000) + 1) / 2.0 ** rng.integers(1, 61, 50_000)
        subnormal = rng.integers(1, 2**52, 20_000) * 5e-324
        values = np.concatenate([
            _half_micro_neighbours(rng, 110_000),
            dyadic,
            rng.uniform(0, 1, 100_000),
            rng.normal(0, 1e3, 100_000),
            rng.uniform(-1, 1, 50_000) * 10.0 ** rng.integers(-12, 10, 50_000),
            subnormal,
            [0.0, 5e-324, 2.5e-7, 0.1234565, 1e9, 2.0**31 / 1e6, np.nextafter(FIXED6_LIMIT, 0)],
        ])
        values = np.concatenate([values, -values])
        assert len(values) >= 1_000_000
        got, expected = _fixed6_strings(values), _percent_f6(values)
        mismatched = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        assert mismatched == []

    def test_values_at_and_beyond_the_limit_use_the_fallback(self):
        big = [FIXED6_LIMIT, np.nextafter(FIXED6_LIMIT, np.inf), 2.0**52, 1e10, 1e15, 2.0**53 + 2,
               1e22, 1e300, np.finfo(float).max, math.inf, math.nan]
        values = np.array([*big, *(-v for v in big), 1.5, -0.0, 0.0078125, 1e-300])
        assert _fixed6_strings(values) == _percent_f6(values)
        # one width for all: a short value is NUL-padded to the widest one's
        assert fixed6_text(values).shape == (len("%.6f" % -np.finfo(float).max), len(values))

    def test_shape_and_signs(self):
        text = fixed6_text(np.array([[-0.0, 1.0], [-1e-9, 12.5]]))
        assert text.shape == (len("12.500000") + 1, 2, 2)
        assert _fixed6_strings([-0.0, 1.0, -1e-9, 12.5]) == [
            "-0.000000", "1.000000", "-0.000000", "12.500000"
        ]
