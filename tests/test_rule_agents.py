import pytest

from pricebench.demand import ParametricDemandModel
from pricebench.environment import MarketEnvironment, run_episode
from pricebench.market import (
    AgentSpec,
    ConfigError,
    MarketConfig,
    ProductSpec,
    ProductState,
    make_default_portfolio,
)
from pricebench.rule_agents import (
    DIVERSE_STRATEGIES,
    RuleAgent,
    RuleStrategy,
    competitor_match_price,
    competitor_prices,
    demand_responsive_price,
    historical_anchor_price,
    seasonal_price,
    static_markup_price,
)


def _product(price=10.0, cost=6.0, baseline=20.0):
    return ProductState.fresh(ProductSpec("p", 1, price, cost, baseline))


def _one_product_config(n_agents, weeks=4):
    return MarketConfig(
        agent_roster=[AgentSpec(f"rule-{i}", "rule") for i in range(n_agents)],
        clusters=(1,),
        weeks_per_episode=weeks,
        episodes=1,
    ).validate()


class FallingDemand:
    """Oracle whose demand drops by one unit on every draw."""

    def __init__(self, start=20.0):
        self.value = start

    def sample_demand(self, query):
        self.value -= 1.0
        return [self.value] * len(query.prices)

    expected_demand = sample_demand


def _observation(week=20, competitor_prices=(), holiday=False, price=10.0):
    """Agent "me" and one rival per competitor price, one cluster-1 product each."""
    from pricebench.market import MarketObservation

    pool = [price, *competitor_prices]
    ids = ["me", *(f"rival{i}" for i in range(len(competitor_prices)))]
    n = len(pool)
    return MarketObservation(
        week_number=week,
        year=1,
        is_holiday=holiday,
        slots={(aid, "p"): i for i, aid in enumerate(ids)},
        competitor_slots=tuple(tuple(j for j in range(n) if j != i) for i in range(n)),
        price=pool,
        cluster_avg_price=[sum(pool) / n] * n,
        last_demand=[20.0] * n,
        agent_revenue={aid: 200.0 for aid in ids},
        market_share={aid: 1.0 / n for aid in ids},
    )


class TestStaticMarkup:
    def test_formula(self):
        assert static_markup_price(_product(cost=6.0), markup=0.5) == pytest.approx(9.0)

    def test_zero_markup_hits_cost(self):
        assert static_markup_price(_product(cost=6.0), markup=0.0) == pytest.approx(6.0)

    def test_constant_across_weeks(self):
        product = _product()
        assert static_markup_price(product) == static_markup_price(product)


class TestCompetitorMatch:
    def test_undercuts_mean(self):
        obs = _observation(competitor_prices=(10.0, 10.0))
        price = competitor_match_price(_product(), obs, "me", undercut_fraction=0.03)
        assert price == pytest.approx(9.70)

    def test_floor_binds(self):
        # undercutting a rival priced just above the floor lands below it;
        # the environment raises the submission to the floor
        config = _one_product_config(2)
        spec = ProductSpec("p", 1, 6.31, 6.0, 20.0)
        me = RuleAgent("rule-0", [spec], config, RuleStrategy("competitor_match"))
        rival = RuleAgent("rule-1", [spec], config, RuleStrategy("historical_anchor"))
        env = MarketEnvironment(config, [me, rival], ParametricDemandModel(config.demand_params))
        obs = env.bootstrap_observation()
        assert me.propose_prices(obs)["p"] == pytest.approx(6.31 * 0.97)
        record, _ = env.step({a.agent_id: a.propose_prices(obs) for a in (me, rival)})
        assert record.price[record.slots[("rule-0", "p")]] == pytest.approx(6.0 * 1.05)
        assert env.clamp_events == 1

    def test_competitors_are_other_agents_same_cluster_slots(self):
        # a0 and a1 carry two cluster-1 products each; a0's own second
        # cluster-1 product is not its competitor
        roster = [AgentSpec(f"a{i}", "rule") for i in range(3)]
        clusters = (1, 1, 2, 3, 5)
        config = MarketConfig(agent_roster=roster, clusters=clusters, episodes=1).validate()
        portfolio = make_default_portfolio(clusters, config.seed)
        agents = [RuleAgent(s.agent_id, portfolio, config, RuleStrategy("static_markup"))
                  for s in roster]
        env = MarketEnvironment(config, agents, ParametricDemandModel(config.demand_params))
        submitted = {
            a.agent_id: {s.product_id: s.initial_price * (1 + 0.01 * (i + 1) + 0.001 * k)
                         for k, s in enumerate(portfolio)}
            for i, a in enumerate(agents)
        }
        _, obs = env.step(submitted)
        for agent in agents:
            for spec in portfolio:
                expected = [
                    submitted[other.agent_id][s.product_id]
                    for other in agents if other is not agent
                    for s in portfolio if s.cluster_id == spec.cluster_id
                ]
                assert competitor_prices(obs, agent.agent_id, spec.product_id) == expected
        assert competitor_prices(obs, "a0", "prod1") == [
            6.0 * 1.02, 6.0 * 1.021, 6.0 * 1.03, 6.0 * 1.031
        ]
        assert competitor_prices(obs, "a0", "prod3") == [7.0 * 1.022, 7.0 * 1.032]
        assert competitor_prices(obs, "nobody", "prod1") == []

    def test_no_competitors_falls_back_to_markup(self):
        obs = _observation(competitor_prices=())
        price = competitor_match_price(_product(cost=6.0), obs, "me", markup=0.5)
        assert price == pytest.approx(9.0)


class TestHistoricalAnchor:
    def test_constant_history_fixed_point(self):
        product = _product()
        for _ in range(5):
            product.record_week(8.0, 10.0)
        assert historical_anchor_price(product, 4) == pytest.approx(8.0)

    def test_window_mean(self):
        product = _product()
        for p in (10.0, 10.0, 10.0, 14.0):
            product.record_week(p, 10.0)
        assert historical_anchor_price(product, 4) == pytest.approx(11.0)

    def test_cold_start_uses_initial_price(self):
        assert historical_anchor_price(_product(price=10.0)) == pytest.approx(10.0)


class TestDemandResponsive:
    def _with_demand(self, d1, d2, price=10.0):
        product = _product(price=price)
        product.record_week(price, d1)
        product.record_week(price, d2)
        return product

    def test_up_step(self):
        product = self._with_demand(10.0, 12.0)
        assert demand_responsive_price(product, response_step=0.02) == pytest.approx(10.20)

    def test_down_step(self):
        product = self._with_demand(12.0, 10.0)
        assert demand_responsive_price(product, response_step=0.02) == pytest.approx(9.80)

    def test_tie_holds(self):
        product = self._with_demand(10.0, 10.0)
        assert demand_responsive_price(product) == pytest.approx(10.0)

    def test_floor_clamps_down_step(self):
        # falling demand steps 6.31 down 2 % in week 3; the environment floors it at 6.30
        config = _one_product_config(1, weeks=3)
        spec = ProductSpec("p", 1, 6.31, 6.0, 20.0)
        agent = RuleAgent("rule-0", [spec], config, RuleStrategy("demand_responsive"))
        run_episode(config, [agent], FallingDemand())
        assert agent.portfolio["p"].price_history == pytest.approx([6.31, 6.31, 6.30])


class TestSeasonal:
    def test_holiday_uplift(self):
        obs = _observation(week=50, holiday=True)
        assert seasonal_price(_product(cost=6.0), obs, seasonal_uplift=0.10) == pytest.approx(9.90)

    def test_off_peak_base(self):
        obs = _observation(week=20)
        assert seasonal_price(_product(cost=6.0), obs) == pytest.approx(9.0)

    def test_zero_uplift(self):
        obs = _observation(week=50, holiday=True)
        assert seasonal_price(_product(cost=6.0), obs, seasonal_uplift=0.0) == pytest.approx(9.0)


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
    ).validate()
    from dataclasses import replace

    config.demand_params = replace(config.demand_params, noise_sigma=noise)
    portfolio = make_default_portfolio([1, 2], config.seed)
    agents = [
        RuleAgent(s.agent_id, portfolio, config, RuleStrategy(DIVERSE_STRATEGIES[i]))
        for i, s in enumerate(config.agent_roster)
    ]
    return config, agents


class TestRuleAgentProperties:
    def test_deterministic(self):
        results = []
        for _ in range(2):
            config, agents = _rule_market(weeks=10)
            model = ParametricDemandModel(config.demand_params)
            records = run_episode(config, agents, model)
            results.append([(r.price, r.demand, r.revenue, r.profit) for r in records])
        assert results[0] == results[1]

    def test_constraints_respected(self):
        config, agents = _rule_market(weeks=30, noise=0.05)
        model = ParametricDemandModel(config.demand_params)
        records = run_episode(config, agents, model)
        for agent in agents:
            for product in agent.portfolio.values():
                floor = config.price_floor(product.spec)
                prev = product.spec.initial_price
                for price in product.price_history:
                    assert price >= floor - 1e-9
                    assert abs(price - prev) / prev <= config.max_weekly_change + 1e-9
                    prev = price

    def test_diverse_market_share_stability(self):
        from pricebench.metrics import market_share_series, market_share_volatility_pp

        config, agents = _rule_market(weeks=40)
        model = ParametricDemandModel(config.demand_params)
        records = run_episode(config, agents, model)
        revenues = {
            a.agent_id: [r.agent_revenue[a.agent_id] for r in records] for a in agents
        }
        shares, _ = market_share_series(revenues)
        assert market_share_volatility_pp(shares) < 0.5
