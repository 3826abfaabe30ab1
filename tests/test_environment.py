import gc
import io
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pricebench import environment, harness
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
    DemandParams,
    EpisodeLog,
    MarketConfig,
    MarketObservation,
    ProductSpec,
    derive_rng,
    holiday_flag,
    make_default_portfolio,
)
from pricebench.marl.common import encode_state
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
            return list(self.prices)
        return [s.initial_price for s in self.product_specs]


class FeedbackLog(FixedPriceAgent):
    """Keeps every observation it acts on, and every (observation, done)
    pair `feedback` is given."""

    def __init__(self, agent_id, specs, config):
        super().__init__(agent_id, specs, config)
        self.acted, self.fed = [], []

    def propose_prices(self, observation):
        self.acted.append(observation)
        return super().propose_prices(observation)

    def feedback(self, observation, done):
        self.fed.append((observation, done))


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
        observation = env.step({agent.agent_id: [5.5]})
        cost = agent.product_specs[0].unit_cost
        assert observation.agent_revenue[agent.agent_id] == pytest.approx(55.0)
        row = _history_cells(env.log)[0]
        revenue, profit = float(row[6]), float(row[7])
        assert revenue == pytest.approx(55.0)
        assert profit == pytest.approx((5.5 - cost) * 10.0)
        assert profit <= revenue

    def test_market_share_definition(self):
        config = _config(n_agents=2)
        agents = _agents(config)

        env = MarketEnvironment(config, agents, StubOracle(10.0))
        obs = env.step({"a0": [5.4], "a1": [6.6]})
        assert env.clamp_events == 0
        assert obs.market_share["a0"] == pytest.approx(0.45)
        assert obs.market_share["a1"] == pytest.approx(0.55)
        assert sum(obs.market_share[a] for a in ("a0", "a1")) == pytest.approx(1.0)

    def test_holiday_flips_at_47(self):
        config = _config(weeks=60)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle())
        spec = agents[0].product_specs[0]
        flip = {}
        for _ in range(48):
            obs = env.step({a.agent_id: [spec.initial_price] for a in agents})
            flip[obs.week_number] = obs.is_holiday
        assert flip[46] is False
        assert flip[47] is True

    @pytest.mark.parametrize("prices", [
        [6.0], [6.0, 6.0, 6.0], 6.0, None, {"prod1": 6.0, "prod2": 6.0}, {6.0: 6.0, 7.0: 7.0},
    ], ids=["short", "long", "float", "none", "by-product-id", "by-number"])
    def test_no_list_of_one_price_per_product_is_protocol_error(self, prices):
        """a1 holds two products; a0's list is right, and no week is queried
        or counted."""
        config = replace(_config(n_agents=2), clusters=(1, 2))
        agents = _agents(config)
        oracle = RecordingOracle()
        env = MarketEnvironment(config, agents, oracle)
        submitted = {"a0": [6.0, 7.0]}
        if prices is not None:
            submitted["a1"] = prices
        with pytest.raises(ProtocolError, match="agent a1 submitted"):
            env.step(submitted)
        assert oracle.queries == [] and env.clamp_events == 0 and env.week_index == 0

    def test_floor_clamp_applies_and_logs(self):
        # 0.01 each week: capped at -10 % a week until the margin floor binds
        config = _config(n_agents=1, weeks=8)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle())
        spec = agent.product_specs[0]
        prices = [env.step({agent.agent_id: [0.01]}).price[0] for _ in range(6)]
        floor = spec.unit_cost * 1.05
        assert prices[:4] == pytest.approx([spec.initial_price * 0.9**k for k in range(1, 5)])
        assert prices[4:] == pytest.approx([floor, floor])
        assert env.clamp_events == 6

    def test_conservation(self):
        config = _config(n_agents=3, weeks=6)
        (log,) = simulate(config, _agents(config))
        for prices, demands, revenues in zip(log.price, log.demand, log.revenue):
            total = sum(prices * demands)
            assert sum(revenues) == pytest.approx(total, abs=1e-9)

    def test_observation_freshness(self):
        config = _config(n_agents=1)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle(7.0))
        pid = agent.product_specs[0].product_id
        obs = env.step({agent.agent_id: [6.5]})
        i = obs.log.slots[(agent.agent_id, pid)]
        assert obs.price[i] == 6.5
        assert env.log.demand[0, i] == 7.0
        assert obs.agent_revenue[agent.agent_id] == pytest.approx(45.5)
        # the market fields settle week 1; the calendar points at week 2, priced next
        assert env.week_index == 1 and obs.week_number == 2


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
        pid = agents[0].product_specs[0].product_id
        current = agents[0].product_specs[0].initial_price
        record = env.step({"a0": [1e6], "a1": [current]})
        capped = current * (1 + config.max_weekly_change)
        assert record.price[record.log.slots[("a0", pid)]] == capped
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
        assert agent.propose_prices(obs) == [pytest.approx(spec.unit_cost * 2)]
        record = env.step({"a0": agent.propose_prices(obs)})
        assert record.price[record.log.slots[("a0", spec.product_id)]] == pytest.approx(
            spec.initial_price * 1.1
        )
        assert env.clamp_events == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "cheap"])
    def test_non_finite_price_is_protocol_error(self, bad):
        """The error names the agent and the product of the bad entry."""
        config = replace(_config(n_agents=2), clusters=(1, 2))
        agents = _agents(config)
        oracle = RecordingOracle()
        env = MarketEnvironment(config, agents, oracle)
        pid = agents[1].product_specs[1].product_id
        with pytest.raises(ProtocolError, match=f"agent a1 .* for product {pid}$"):
            env.step({"a0": [6.0, 7.0], "a1": [6.0, bad]})
        assert oracle.queries == [] and env.clamp_events == 0


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
        (spec,) = agent.product_specs
        env.step({"a0": [6.3]})
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
            env.step({a.agent_id: [6.0] for a in agents})
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
        assert obs.relative_price == query.relative_prices == [1.5, 1.0, 0.5]

    def test_week_zero_observation_holds_the_relative_prices(self):
        config = _config(n_agents=3)
        agents = [
            FixedPriceAgent(f"a{i}", [ProductSpec("p", 1, price, price * 0.6, 20.0)], config)
            for i, price in enumerate([12.0, 8.0, 4.0])
        ]
        env = MarketEnvironment(config, agents, RecordingOracle())
        assert env.bootstrap_observation().relative_price == [1.5, 1.0, 0.5]

    def test_one_query_per_week_in_roster_order(self):
        roster = [AgentSpec(f"a{i}", "rule") for i in range(4)]
        config = MarketConfig(agent_roster=roster, weeks_per_episode=3, episodes=1)
        portfolio = make_default_portfolio(config.clusters, config.seed)
        agents = [FixedPriceAgent(s.agent_id, portfolio, config) for s in roster]
        oracle = RecordingOracle()
        log = run_episode(config, agents, oracle)
        order = [(f"a{i}", spec.product_id) for i in range(4) for spec in portfolio]
        assert len(oracle.queries) == 3
        assert list(log.slots) == order
        for query in oracle.queries:
            assert query.specs == portfolio * 4
            assert len(query.prices) == len(query.shocks) == len(query.lag1_demands) == 20

    @pytest.mark.parametrize("sigma", [0.05, 0.37])
    def test_shocks_are_the_streams_weekly_normal_draws(self, sigma):
        """Slot i's weekly shocks are the episode stream's draws
        weeks * i to weeks * (i + 1) - 1, in slot order."""
        weeks = 30
        config = _config(n_agents=3, weeks=weeks, noise=sigma)
        agents = _agents(config)
        oracle = RecordingOracle()
        env = MarketEnvironment(config, agents, oracle, episode_index=2)
        for _ in range(weeks):
            env.step({a.agent_id: a.propose_prices(None) for a in agents})
        rng = derive_rng(config.seed, "demand", 2)
        for i in range(len(env.slots)):
            expected = [rng.normal(0.0, sigma) for _ in range(weeks)]
            assert [sigma * q.shocks[i] for q in oracle.queries] == expected

    def test_configs_at_one_seed_share_their_shocks(self, monkeypatch):
        """Common random numbers: the shocks depend on the slot, not on the
        agent holding it, so A and E at one seed hand the oracle the same
        shocks every week, and a 3-agent market's slots get the first 15
        slots' shocks of a 4-agent market."""
        queries = []

        class Recording(ParametricDemandModel):
            def sample_demand(self, query):
                queries.append(query)
                return super().sample_demand(query)

        monkeypatch.setattr(harness, "ParametricDemandModel", Recording)

        def shocks(config):
            queries.clear()
            for _ in simulate(config, build_agents(config)):
                pass
            return [list(q.shocks) for q in queries]

        a, e = (desk_spec(cid, seed=31).market for cid in "AE")
        assert [s.agent_kind for s in a.agent_roster] != [s.agent_kind for s in e.agent_roster]
        a_shocks = shocks(a)
        assert a_shocks == shocks(e)
        assert len(a_shocks) == a.weeks_per_episode * a.episodes and len(a_shocks[0]) == 20

        def rule_market(n_agents):
            roster = [AgentSpec(f"r{i}", "rule") for i in range(n_agents)]
            return MarketConfig(agent_roster=roster, weeks_per_episode=7, episodes=2, seed=31)

        three, four = shocks(rule_market(3)), shocks(rule_market(4))
        assert [week[:15] for week in four] == three

    def test_one_stream_per_environment(self, monkeypatch):
        """Building a `MarketEnvironment` derives one generator, whatever
        the slot count."""
        calls = []

        def counting(*parts):
            calls.append(parts)
            return derive_rng(*parts)

        monkeypatch.setattr(environment, "derive_rng", counting)
        config = desk_spec("A", seed=31).market
        MarketEnvironment(config, build_agents(config), RecordingOracle(), episode_index=1)
        assert calls == [(31, "demand", 1)]

    def test_stepping_past_the_episode_is_protocol_error(self):
        config = _config(n_agents=1, weeks=2)
        (agent,) = _agents(config)
        env = MarketEnvironment(config, [agent], StubOracle())
        for _ in range(2):
            env.step({"a0": [6.0]})
        with pytest.raises(ProtocolError, match="2 weeks"):
            env.step({"a0": [6.0]})

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_oracle_without_one_demand_per_slot_is_protocol_error(self, extra):
        class MiscountingOracle(StubOracle):
            def sample_demand(self, query):
                return [self.value] * (len(query.prices) + extra)

        config = _config(n_agents=3)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, MiscountingOracle())
        with pytest.raises(ProtocolError, match=f"{3 + extra} demands for 3 slots"):
            env.step({a.agent_id: [6.0] for a in agents})
        # no slot was settled
        assert env.week_index == 0
        assert not env.log.price.any() and not env.log.demand.any()
        assert env.bootstrap_observation().price == [a.product_specs[0].initial_price
                                                     for a in agents]


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


def _reference_week(env, submitted, history):
    """The week `env.step(submitted)` should settle, slot by slot from
    `history`, each slot's lists of the prices and demands settled so far:
    the market rule as min/max of each price and the demand above. Returns
    the observation, the week's log row (price, demand, revenue, share and
    zero-revenue flag) and the clamp count."""
    config = env.config
    slots = list(env.slots)
    specs = _slot_specs(env)
    week, t = env.week_number, env.week_index

    span = config.max_weekly_change
    prices, clamps = [], 0
    for asked, spec, last in zip(_asked(env, submitted), specs, _last_prices(specs, history)):
        capped = min(max(asked, last * (1.0 - span)), last * (1.0 + span))
        price = max(capped, config.price_floor(spec))
        clamps += price != asked
        prices.append(price)
    clusters = [spec.cluster_id for spec in specs]
    cluster_avg = []
    for c in clusters:
        members = [price for price, k in zip(prices, clusters) if k == c]
        cluster_avg.append(math.fsum(members) / len(members))
    lag1 = [demands[-1] if demands else spec.baseline_demand
            for spec, (_, demands) in zip(specs, history)]
    shocks = derive_rng(config.seed, "demand", env.episode_index).standard_normal(
        (len(slots), config.weeks_per_episode)
    )[:, t].tolist()
    relative = [p / m for p, m in zip(prices, cluster_avg)]
    demands = _reference_demands(
        specs, prices, relative, lag1,
        shocks, seasonal_encoding(week)[0], holiday_flag(week), config.demand_params,
    )

    agent_revenue = {}
    for (aid, _), price, demand in zip(slots, prices, demands):
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
        week_number=next_week, is_holiday=holiday_flag(next_week),
        competitor_slots=competitor_slots, log=env.log, weeks=t + 1, price=prices,
        relative_price=relative, agent_revenue=agent_revenue, market_share=shares,
    )
    row = (prices, demands, list(agent_revenue.values()), list(shares.values()), zero_revenue)
    return observation, row, clamps


def _slot_specs(env):
    """Each slot's product spec, in slot order."""
    spec_of = {(a.agent_id, spec.product_id): spec for a in env.agents for spec in a.product_specs}
    return [spec_of[pair] for pair in env.slots]


def _asked(env, submitted):
    """Each slot's submitted price as a float: each agent's list in roster order."""
    return [float(price) for a in env.agents for price in submitted[a.agent_id]]


def _last_prices(specs, history):
    """Each slot's last settled price, its initial price before the first week."""
    return [prices[-1] if prices else spec.initial_price for spec, (prices, _) in zip(specs, history)]


class RandomPriceAgent(PricingAgentBase):
    """Submits a random multiple of each current price: inside the weekly
    cap, past it either way, and far below the margin floor."""

    MULTIPLIERS = (0.01, 0.5, 0.85, 0.93, 0.97, 1.0, 1.04, 1.2, 4.0)

    def __init__(self, agent_id, specs, config, rng):
        super().__init__(agent_id, specs, config)
        self.rng = rng

    def propose_prices(self, observation):
        return [
            observation.price[observation.log.slots[(self.agent_id, s.product_id)]]
            * float(self.rng.choice(self.MULTIPLIERS))
            for s in self.product_specs
        ]


def _rule_hits(env, submitted, history):
    """Which of the cap and the floor each slot's submission meets."""
    config = env.config
    specs = _slot_specs(env)
    hits = set()
    for asked, spec, last in zip(_asked(env, submitted), specs, _last_prices(specs, history)):
        span = config.max_weekly_change
        capped = min(max(asked, last * (1 - span)), last * (1 + span))
        hits.add((capped != asked, config.price_floor(spec) > capped))
    return hits


class TestReferenceWeek:
    """`MarketEnvironment.step` settles every week exactly as the slot-by-slot
    reference above: the same floats, clamp counts, observations and log
    rows, and the log's settled rows are each slot's whole history."""

    def _drive(self, config, agents, model, episodes):
        hits = set()
        for ep in range(episodes):
            for agent in agents:
                agent.begin_episode(ep)
            env = MarketEnvironment(config, agents, model, ep)
            history = [([], []) for _ in env.slots]  # each slot's prices and demands
            observation = env.bootstrap_observation()
            for week in range(1, config.weeks_per_episode + 1):
                submitted = {a.agent_id: a.propose_prices(observation) for a in agents}
                hits |= _rule_hits(env, submitted, history)
                expected, row, clamps = _reference_week(env, submitted, history)
                before, t, log = env.clamp_events, env.week_index, env.log
                new_observation = env.step(submitted)
                assert new_observation == expected
                assert (log.price[t].tolist(), log.demand[t].tolist(), log.revenue[t].tolist(),
                        log.share[t].tolist(), log.zero_revenue[t]) == row
                assert env.clamp_events - before == clamps
                for (prices, demands), price, demand in zip(history, row[0], row[1]):
                    prices.append(price)
                    demands.append(demand)
                assert log.price[:t + 1].T.tolist() == [prices for prices, _ in history]
                assert log.demand[:t + 1].T.tolist() == [demands for _, demands in history]
                for agent in agents:
                    agent.feedback(new_observation, week == config.weeks_per_episode)
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
        assert env.week_index == 0 and obs.week_number == 1
        assert obs.log is env.log and obs.weeks == 0
        for agent in agents:
            expected = 0.0  # added left to right, in portfolio order
            for spec in agent.product_specs:
                i = obs.log.slots[(agent.agent_id, spec.product_id)]
                assert obs.price[i] == spec.initial_price
                expected += spec.initial_price * spec.baseline_demand
            assert obs.agent_revenue[agent.agent_id] == expected
        total = math.fsum(obs.agent_revenue.values())
        assert obs.market_share == {aid: rev / total for aid, rev in obs.agent_revenue.items()}
        # week zero is not a logged week
        assert not env.log.price.any() and not env.log.revenue.any()


def _outcomes(log):
    """Each slot's (prices, demands) by (agent_id, product_id), and each
    agent's (revenues, shares) by agent id, week by week."""
    slots = {pair: (log.price[:, i].tolist(), log.demand[:, i].tolist())
             for pair, i in log.slots.items()}
    agents = {aid: (log.revenue[:, j].tolist(), log.share[:, j].tolist())
              for j, aid in enumerate(log.agent_ids)}
    return slots, agents


class TestRunEpisode:
    def test_week_count(self):
        config = _config(weeks=8)
        agents = _agents(config)
        log = run_episode(config, agents, StubOracle())
        assert log.price.shape == log.demand.shape == (8, 2)
        assert log.revenue.shape == log.share.shape == (8, 2)
        assert log.zero_revenue.shape == (8,)
        assert (log.price > 0).all() and (log.share > 0).all()  # every week written

    def test_records_are_the_observations_fed_back(self):
        """`feedback` gets each settled week's observation once, `done` on the
        last week only, and the agents act on week zero and then on each
        observation fed back but the last."""
        config = _config(n_agents=2, weeks=6)
        agents = _agents(config, cls=FeedbackLog)
        log = run_episode(config, agents, StubOracle())
        assert agents[0].fed == agents[1].fed and agents[0].acted == agents[1].acted
        fed = agents[0].fed
        observations = [observation for observation, _ in fed]
        assert [done for _, done in fed] == [False] * 5 + [True]
        assert len(fed) == len(log.price) == 6 and len(set(map(id, observations))) == 6
        week_zero, *acted = agents[0].acted
        assert week_zero.week_number == 1 and week_zero.weeks == 0
        assert all(a is o for a, o in zip(acted, observations[:-1], strict=True))
        for i, observation in enumerate(observations):
            assert observation.week_number == i + 2
            assert observation.log is log and observation.weeks == i + 1
            assert observation.price == log.price[i].tolist()
            assert list(observation.agent_revenue.values()) == log.revenue[i].tolist()
            assert list(observation.market_share.values()) == log.share[i].tolist()

    def test_log_holds_no_market_agent_or_observation(self):
        config = _config(n_agents=2, weeks=3)
        agents = _agents(config, cls=FeedbackLog)
        log = run_episode(config, agents, StubOracle())
        values = list(vars(log).values())
        held = values + gc.get_referents(*values)
        assert not [o for o in held
                    if isinstance(o, (MarketEnvironment, PricingAgentBase, MarketObservation))]
        assert log.slots == {("a0", "prod1"): 0, ("a1", "prod1"): 1}
        assert log.agent_ids == ("a0", "a1")
        assert log.owner.tolist() == [0, 1]
        assert log.unit_cost.tolist() == [a.product_specs[0].unit_cost for a in agents]

    def test_agents_keep_no_history(self):
        """With the agents alive, an episode leaves behind per week no more
        than its log's row: the agents read their history from the log."""
        slack = 32  # bytes per week; the log's own row is 385 B for A

        def left_behind(weeks):
            """Bytes an episode leaves behind, measured while its agents and
            its log are alive, and the log's bytes per week."""
            config = desk_spec("A", seed=7, weeks_per_episode=weeks).market
            agents = build_agents(config)
            model = ParametricDemandModel(config.demand_params)
            gc.collect()
            tracemalloc.start()
            try:
                log = run_episode(config, agents, model)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            columns = (log.price, log.demand, log.revenue, log.share, log.zero_revenue)
            return held, sum(c.nbytes for c in columns) / weeks

        short, _ = left_behind(26)
        long, row = left_behind(104)
        assert (long - short) / (104 - 26) <= row + slack

    def test_kept_observation_reads_the_same_after_later_weeks(self):
        """An observation reads its log's first `weeks` rows only, so what
        agents compute from a kept one does not move as the log fills."""
        roster = [AgentSpec(f"a{i}", "rule") for i in range(3)]
        config = MarketConfig(agent_roster=roster, clusters=(1, 2), weeks_per_episode=8,
                              episodes=1, seed=41)
        portfolio = make_default_portfolio(config.clusters, config.seed)
        agents = [
            RuleAgent(s.agent_id, portfolio, config, RuleStrategy(kind))
            for s, kind in zip(roster, ["historical_anchor", "demand_responsive", "seasonal"])
        ]
        env = MarketEnvironment(config, agents, ParametricDemandModel(config.demand_params))

        def week():
            return env.step({a.agent_id: a.propose_prices(observation) for a in agents})

        def readings(kept):
            return ([encode_state(a, kept).tolist() for a in agents],
                    [a.propose_prices(kept) for a in agents[:2]])

        observation = env.bootstrap_observation()
        for _ in range(3):
            observation = week()
        kept, before = observation, readings(observation)
        for _ in range(2):
            observation = week()
        assert env.log.price[4].all() and observation.weeks == kept.weeks + 2
        assert readings(kept) == before

    def test_determinism_with_seeds(self):
        runs = []
        for _ in range(2):
            config = _config(n_agents=2, weeks=6, noise=0.05)
            runs.extend(simulate(config, _agents(config)))
        first, second = runs
        assert _outcomes(first) == _outcomes(second)
        assert first.zero_revenue.tolist() == second.zero_revenue.tolist()

    def test_roster_permutation_invariance(self):
        """Without noise, rule play does not depend on roster order. With
        noise on it does: the shocks are keyed by slot, so permuting the
        roster hands each agent other slots' shocks."""
        def run_with_order(reverse):
            roster = [AgentSpec("a0", "rule"), AgentSpec("a1", "rule"), AgentSpec("a2", "rule")]
            config = MarketConfig(
                agent_roster=list(reversed(roster)) if reverse else roster,
                clusters=(1, 2),
                weeks_per_episode=5,
                episodes=1,
                seed=21,
                demand_params=DemandParams(noise_sigma=0.0),
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
            (log,) = simulate(config, agents)
            return log

        assert _outcomes(run_with_order(False)) == _outcomes(run_with_order(True))

    def test_calendar_wraps_into_second_year(self):
        config = _config(weeks=104)
        agents = _agents(config, cls=FeedbackLog)
        run_episode(config, agents, StubOracle())
        # each observation's calendar is the week priced next: week 52, then week 1 of year 2
        calendar = [observation.week_number for observation, _ in agents[0].fed]
        assert calendar[50] == 52  # after week 51
        assert calendar[51] == 1  # after week 52
        assert calendar[103] == 1  # after week 104

    def test_zero_revenue_week_flagged(self):
        config = _config(n_agents=2)
        agents = _agents(config)
        env = MarketEnvironment(config, agents, StubOracle(0.0))
        record = env.step({a.agent_id: [6.3] for a in agents})
        assert env.log.zero_revenue.tolist() == [True, False, False, False]  # one week settled
        assert record.market_share["a0"] == pytest.approx(0.5)
        assert env.log.share[0].tolist() == [0.5, 0.5]


def _write_history(path, episodes: dict[int, EpisodeLog]) -> None:
    """A history file of `episodes`' logs, by episode index."""
    with open(path, "wb") as fh:
        fh.write(HISTORY_HEADER)
        for ep_idx, log in episodes.items():
            write_history_csv(fh, ep_idx, log)


def _history_cells(log, ep_idx=1) -> list[list[str]]:
    """The cells of each history row that `write_history_csv` writes for `log`."""
    fh = io.BytesIO()
    write_history_csv(fh, ep_idx, log)
    return [line.split(",") for line in fh.getvalue().decode().splitlines()]


def _log(slots, agent_ids, unit_costs, price, demand, share) -> EpisodeLog:
    """A hand-built log: one row of `price` and `demand` per week over `slots`,
    one row of `share` per week over `agent_ids`."""
    log = EpisodeLog(len(price), slots, agent_ids, unit_costs)
    log.price[:], log.demand[:], log.share[:] = price, demand, share
    return log


class TestHistoryCsv:
    def test_layout_and_precision(self, tmp_path):
        config = _config(n_agents=1, weeks=2)
        agents = _agents(config)
        log = run_episode(config, agents, StubOracle(1.5))
        _write_history(tmp_path / "history.csv", {1: log})
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
        # two weeks over (a0, p1), (a1, p1) at unit costs 0 and 6
        log = _log({("a0", "p1"): 0, ("a1", "p1"): 1}, ("a0", "a1"), [0.0, 6.0],
                   price=[[1.0, 2.0], [value, 6.0]], demand=[[3.0, 4.0], [1.0, value]],
                   share=[[0.375, 0.625], [value, 0.5]])
        # the next episode's slot table holds other slots, in another roster order
        other = _log({("a1", "p2"): 0, ("a0", "p2"): 1}, ("a1", "a0"), [2.0, 0.5],
                     price=[[value, 6.0]], demand=[[1.0, value]], share=[[value, 0.25]])
        expected = [
            f"{ep},{week},{aid},{pid},{price:.6f},{demand:.6f},{price * demand:.6f},"
            f"{(price - cost) * demand:.6f},{share:.6f}"
            for ep, week, aid, pid, price, demand, cost, share in [
                (2, 1, "a0", "p1", 1.0, 3.0, 0.0, 0.375),
                (2, 1, "a1", "p1", 2.0, 4.0, 6.0, 0.625),
                (2, 2, "a0", "p1", value, 1.0, 0.0, value),
                (2, 2, "a1", "p1", 6.0, value, 6.0, 0.5),
                (3, 1, "a1", "p2", value, 1.0, 2.0, value),
                (3, 1, "a0", "p2", 6.0, value, 0.5, 0.25),
            ]
        ]
        _write_history(tmp_path / "history.csv", {2: log, 3: other})
        text = (tmp_path / "history.csv").read_text()
        assert text == "\n".join([",".join(HISTORY_COLUMNS), *expected]) + "\n"


def _python_cells(log) -> list[list[str]]:
    """The float cells of each history row of `log`, formatted one by one as
    `'%.6f'` of Python floats: revenue `p * d` and profit `(p - c) * d`."""
    costs, rows = log.unit_cost.tolist(), []
    for prices, demands, shares in zip(log.price.tolist(), log.demand.tolist(),
                                       log.share.tolist()):
        for (_aid, _pid), i in log.slots.items():
            p, d, c = prices[i], demands[i], costs[i]
            share = shares[log.owner[i]]
            rows.append(["%.6f" % v for v in (p, d, p * d, (p - c) * d, share)])
    return rows


class TestHistoryDerivation:
    """The history's revenue and profit columns, computed from the log's
    price and demand columns, are `'%.6f'` of the per-slot Python products."""

    @pytest.mark.parametrize("config_id", ["A", "E"])
    def test_seeded_episode(self, config_id):
        config = desk_spec(config_id, seed=404).market
        logs = list(simulate(config, build_agents(config)))
        for ep_idx, log in enumerate(logs, start=1):
            cells = _history_cells(log, ep_idx)
            assert len(cells) == config.weeks_per_episode * len(log.slots)
            assert [row[4:] for row in cells] == _python_cells(log)

    def test_edge_values(self):
        edges = [-0.0, 0.0, 5e-324, 2.2e-308, 1e-7, 0.1234565, 6.0, 1e300, -1e300]
        triples = list(itertools.product(edges, repeat=3))  # (price, demand, unit cost)
        slots = {("a0", f"p{k}"): k for k in range(len(triples))}
        price, demand, cost = (list(column) for column in zip(*triples))
        log = _log(slots, ("a0",), cost, price=[price], demand=[demand], share=[[1.0]])
        cells = _history_cells(log)
        assert [row[4:] for row in cells] == _python_cells(log)
        assert {row[6] for row in cells} >= {"-0.000000", "0.000000", "inf", "-inf"}


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
