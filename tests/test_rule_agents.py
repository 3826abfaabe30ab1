from dataclasses import replace

import pytest

from pricebench.demand import ParametricDemandModel
from pricebench.environment import MarketEnvironment, run_episode
from pricebench.harness import simulate
from pricebench.market import (
    AgentSpec,
    ConfigError,
    EpisodeLog,
    MarketConfig,
    MarketObservation,
    ProductSpec,
    make_default_portfolio,
)
from pricebench.rule_agents import (
    DIVERSE_STRATEGIES,
    RuleAgent,
    RuleStrategy,
    competitor_match_price,
    demand_responsive_price,
    historical_anchor_price,
    seasonal_price,
    static_markup_price,
)


def _spec(price=10.0, cost=6.0, baseline=20.0):
    return ProductSpec("p", 1, price, cost, baseline)


def _one_product_config(n_agents, weeks=4):
    return MarketConfig(
        agent_roster=[AgentSpec(f"rule-{i}", "rule") for i in range(n_agents)],
        clusters=(1,),
        weeks_per_episode=weeks,
        episodes=1,
    )


class FallingDemand:
    """Oracle whose demand drops by one unit on every draw."""

    def __init__(self, start=20.0):
        self.value = start

    def sample_demand(self, query):
        self.value -= 1.0
        return [self.value] * len(query.prices)

    expected_demand = sample_demand


def _observation(week=20, competitor_prices=(), holiday=False, price=10.0):
    """Agent "me" and one rival per competitor price, one cluster-1 product
    each, before any week has settled."""
    pool = [price, *competitor_prices]
    ids = ["me", *(f"rival{i}" for i in range(len(competitor_prices)))]
    n = len(pool)
    slots = {(aid, "p"): i for i, aid in enumerate(ids)}
    return MarketObservation(
        week_number=week,
        is_holiday=holiday,
        competitor_slots=tuple(tuple(j for j in range(n) if j != i) for i in range(n)),
        log=EpisodeLog(0, slots, ids, [6.0] * n),
        weeks=0,
        price=pool,
        relative_price=[p / (sum(pool) / n) for p in pool],
        agent_revenue={aid: 200.0 for aid in ids},
        market_share={aid: 1.0 / n for aid in ids},
    )


class TestStaticMarkup:
    def test_formula(self):
        assert static_markup_price(_spec(cost=6.0), markup=0.5) == pytest.approx(9.0)

    def test_zero_markup_hits_cost(self):
        assert static_markup_price(_spec(cost=6.0), markup=0.0) == pytest.approx(6.0)

    def test_constant_across_weeks(self):
        spec = _spec()
        assert static_markup_price(spec, 0.5) == static_markup_price(spec, 0.5)


def _matcher(agent_id="me", cost=6.0, **strategy):
    """A competitor-matching agent with `_spec`'s product."""
    spec = ProductSpec("p", 1, 10.0, cost, 20.0)
    return RuleAgent(agent_id, [spec], RuleStrategy("competitor_match", **strategy))


def _rival_prices(observation, agent_id, product_id):
    slot = observation.log.slots[(agent_id, product_id)]
    return [observation.price[j] for j in observation.competitor_slots[slot]]


class TestCompetitorMatch:
    def test_undercuts_mean(self):
        obs = _observation(competitor_prices=(9.0, 11.0))
        assert _matcher(undercut_fraction=0.03).propose_prices(obs) == [pytest.approx(9.70)]
        assert competitor_match_price(_spec(), [9.0, 11.0], 0.03, 0.5) == pytest.approx(9.70)

    def test_floor_binds(self):
        # undercutting a rival priced just above the floor lands below it;
        # the environment raises the submission to the floor
        config = _one_product_config(2)
        spec = ProductSpec("p", 1, 6.31, 6.0, 20.0)
        me = RuleAgent("rule-0", [spec], RuleStrategy("competitor_match"))
        rival = RuleAgent("rule-1", [spec], RuleStrategy("historical_anchor"))
        env = MarketEnvironment(config, [me, rival], ParametricDemandModel(config.demand_params))
        obs = env.bootstrap_observation()
        assert me.propose_prices(obs) == [pytest.approx(6.31 * 0.97)]
        record = env.step({a.agent_id: a.propose_prices(obs) for a in (me, rival)})
        assert record.price[record.log.slots[("rule-0", "p")]] == pytest.approx(6.0 * 1.05)
        assert env.clamp_events == 1

    def test_competitors_are_other_agents_same_cluster_slots(self):
        # a0 and a1 carry two cluster-1 products each; a0's own second
        # cluster-1 product is not its competitor
        roster = [AgentSpec(f"a{i}", "rule") for i in range(3)]
        clusters = (1, 1, 2, 3, 5)
        config = MarketConfig(agent_roster=roster, clusters=clusters, episodes=1)
        portfolio = make_default_portfolio(clusters, config.seed)
        agents = [RuleAgent(s.agent_id, portfolio, RuleStrategy("static_markup"))
                  for s in roster]
        env = MarketEnvironment(config, agents, ParametricDemandModel(config.demand_params))
        submitted = {
            a.agent_id: [s.initial_price * (1 + 0.01 * (i + 1) + 0.001 * k)
                         for k, s in enumerate(portfolio)]
            for i, a in enumerate(agents)
        }
        obs = env.step(submitted)
        for agent in agents:
            for spec in portfolio:
                expected = [
                    submitted[other.agent_id][k]
                    for other in agents if other is not agent
                    for k, s in enumerate(portfolio) if s.cluster_id == spec.cluster_id
                ]
                assert _rival_prices(obs, agent.agent_id, spec.product_id) == expected
            # a matcher in the agent's place undercuts exactly those prices
            matcher = RuleAgent(agent.agent_id, portfolio, RuleStrategy("competitor_match"))
            assert matcher.propose_prices(obs) == [
                competitor_match_price(spec, _rival_prices(obs, agent.agent_id, spec.product_id),
                                       0.03, 0.5)
                for spec in portfolio
            ]
        assert _rival_prices(obs, "a0", "prod1") == [
            6.0 * 1.02, 6.0 * 1.021, 6.0 * 1.03, 6.0 * 1.031
        ]
        assert _rival_prices(obs, "a0", "prod3") == [7.0 * 1.022, 7.0 * 1.032]

    def test_no_competitors_falls_back_to_markup(self):
        obs = _observation(competitor_prices=())
        assert _matcher(cost=6.0, markup=0.5).propose_prices(obs) == [pytest.approx(9.0)]
        assert competitor_match_price(_spec(cost=6.0), [], 0.03, markup=0.5) == pytest.approx(9.0)


class TestHistoricalAnchor:
    def test_constant_history_fixed_point(self):
        assert historical_anchor_price([8.0] * 4, 10.0) == pytest.approx(8.0)

    def test_window_mean(self):
        assert historical_anchor_price([10.0, 10.0, 10.0, 14.0], 10.0) == pytest.approx(11.0)

    def test_cold_start_uses_initial_price(self):
        assert historical_anchor_price([], 10.0) == pytest.approx(10.0)

    def test_agent_reads_its_slots_window_from_the_log(self):
        # two agents, two products each: rows 1..3 of each slot, its last three weeks
        config = replace(_one_product_config(2, weeks=4), clusters=(1, 2))
        specs = [ProductSpec("p", 1, 10.0, 6.0, 20.0), ProductSpec("q", 2, 20.0, 12.0, 20.0)]
        strategy = RuleStrategy("historical_anchor", anchor_window=3)
        agents = [RuleAgent(f"rule-{i}", specs, strategy) for i in range(2)]
        env = MarketEnvironment(config, agents, FallingDemand())
        weekly = [[10.0, 20.0, 10.5, 21.0], [10.5, 21.5, 11.0, 22.0], [11.0, 23.0, 11.5, 23.0],
                  [11.5, 24.0, 12.0, 25.0]]
        for prices in weekly:
            obs = env.step({f"rule-{i}": prices[2 * i:2 * i + 2] for i in range(2)})
        assert agents[1].propose_prices(obs) == [pytest.approx(11.5), pytest.approx(23.0 + 1 / 3)]


class TestDemandResponsive:
    def test_up_step(self):
        assert demand_responsive_price(10.0, [10.0, 12.0], response_step=0.02) == pytest.approx(10.20)

    def test_down_step(self):
        assert demand_responsive_price(10.0, [12.0, 10.0], response_step=0.02) == pytest.approx(9.80)

    def test_tie_holds(self):
        assert demand_responsive_price(10.0, [10.0, 10.0], 0.02) == pytest.approx(10.0)

    def test_cold_start_holds(self):
        assert demand_responsive_price(10.0, [12.0], 0.02) == 10.0

    def test_floor_clamps_down_step(self):
        # falling demand steps 6.31 down 2 % in week 3; the environment floors it at 6.30
        config = _one_product_config(1, weeks=3)
        spec = ProductSpec("p", 1, 6.31, 6.0, 20.0)
        agent = RuleAgent("rule-0", [spec], RuleStrategy("demand_responsive"))
        log = run_episode(config, [agent], FallingDemand())
        assert log.price[:, 0].tolist() == pytest.approx([6.31, 6.31, 6.30])


class TestSeasonal:
    def test_holiday_uplift(self):
        assert seasonal_price(_spec(cost=6.0), True, seasonal_uplift=0.10, markup=0.5) == pytest.approx(9.90)
        agent = RuleAgent("me", [_spec(cost=6.0)], RuleStrategy("seasonal", seasonal_uplift=0.10))
        assert agent.propose_prices(_observation(week=50, holiday=True)) == [pytest.approx(9.90)]

    def test_off_peak_base(self):
        assert seasonal_price(_spec(cost=6.0), False, 0.10, 0.5) == pytest.approx(9.0)
        agent = RuleAgent("me", [_spec(cost=6.0)], RuleStrategy("seasonal"))
        assert agent.propose_prices(_observation(week=20)) == [pytest.approx(9.0)]

    def test_zero_uplift(self):
        assert seasonal_price(_spec(cost=6.0), True, seasonal_uplift=0.0, markup=0.5) == pytest.approx(9.0)


class TestRuleStrategyValidation:
    def test_undercut_band(self):
        with pytest.raises(ConfigError):
            RuleStrategy("competitor_match", undercut_fraction=0.2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            RuleStrategy("astrology")


def _rule_market(weeks=40, seed=31, noise=0.0):
    roster = [AgentSpec(f"rule-{i}", "rule") for i in range(4)]
    config = MarketConfig(
        agent_roster=roster,
        clusters=(1, 2),
        weeks_per_episode=weeks,
        episodes=1,
        seed=seed,
    )
    config = replace(config, demand_params=replace(config.demand_params, noise_sigma=noise))
    portfolio = make_default_portfolio([1, 2], config.seed)
    agents = [
        RuleAgent(s.agent_id, portfolio, RuleStrategy(DIVERSE_STRATEGIES[i]))
        for i, s in enumerate(config.agent_roster)
    ]
    return config, agents


class TestRuleAgentProperties:
    def test_deterministic(self):
        results = []
        for _ in range(2):
            (log,) = simulate(*_rule_market(weeks=10))
            results.append([log.price.tolist(), log.demand.tolist(), log.revenue.tolist(),
                            log.share.tolist()])
        assert results[0] == results[1]

    def test_constraints_respected(self):
        config, agents = _rule_market(weeks=30, noise=0.05)
        (log,) = simulate(config, agents)
        for agent in agents:
            for spec in agent.product_specs:
                floor = config.price_floor(spec)
                prev = spec.initial_price
                for price in log.price[:, log.slots[(agent.agent_id, spec.product_id)]].tolist():
                    assert price >= floor - 1e-9
                    assert abs(price - prev) / prev <= config.max_weekly_change + 1e-9
                    prev = price

    def test_diverse_market_share_stability(self):
        from pricebench.metrics import market_share_volatility_pp

        config, agents = _rule_market(weeks=40)
        (log,) = simulate(config, agents)
        shares = dict(zip(log.agent_ids, log.share.T))
        assert market_share_volatility_pp(shares) < 0.5
