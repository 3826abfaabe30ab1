import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pricebench.demand import ParametricDemandModel
from pricebench.environment import MarketEnvironment, run_episode
from pricebench.harness import build_agents, desk_spec
from pricebench.market import AgentSpec, ConfigError, MarketConfig, ProductSpec, make_default_portfolio
from pricebench.marl import compute_reward, discretize_action, encode_state, state_dim
from pricebench.marl.common import (
    N_PRICE_BINS,
    STATE_SLOTS_PER_PRODUCT,
    MarlAgentBase,
    parse_hyper,
)
from pricebench.marl.madqn import DqnHyper, MadqnAgent
from pricebench.marl.maddpg import MaddpgHyper
from pricebench.nn import EPSILON_GREEDY_DEFAULT, GAUSSIAN_NOISE_DEFAULT, ExplorationSchedule


class TestParseHyper:
    def test_keys_cast_to_the_default_types(self):
        hyper = parse_hyper(
            DqnHyper, {"batch_size": 32.0, "lr": "0.01", "hidden": [8, 4], "epsilon_floor": 0}, "epsilon"
        )
        assert hyper.batch_size == 32 and type(hyper.batch_size) is int
        assert hyper.lr == 0.01 and hyper.hidden == (8, 4)
        assert hyper.schedule == ExplorationSchedule(
            "epsilon_greedy", EPSILON_GREEDY_DEFAULT.start, EPSILON_GREEDY_DEFAULT.decay, 0.0
        )

    def test_schedule_prefix_follows_the_learner(self):
        hyper = parse_hyper(MaddpgHyper, {"noise_start": 0.3}, "noise")
        assert hyper.schedule.kind == GAUSSIAN_NOISE_DEFAULT.kind
        assert (hyper.schedule.start, hyper.schedule.floor) == (0.3, GAUSSIAN_NOISE_DEFAULT.floor)

    @pytest.mark.parametrize("key", ["noise_start", "schedule", "soft_tau", "updates_per_step"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_hyper(DqnHyper, {key: 1}, "epsilon")


class TestDiscretize:
    def test_center_bin_holds(self):
        assert discretize_action(10) == pytest.approx(0.0)

    def test_endpoints(self):
        assert discretize_action(0) == pytest.approx(-0.10)
        assert discretize_action(20) == pytest.approx(+0.10)

    def test_mapping_arithmetic(self):
        assert discretize_action(13) == pytest.approx(0.03)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            discretize_action(21)
        with pytest.raises(ValueError):
            discretize_action(-1)

    @given(st.integers(min_value=0, max_value=20))
    def test_within_band(self, b):
        assert abs(discretize_action(b)) <= 0.10 + 1e-12


class TestApplyAction:
    """Learners submit current * (1 + r); the market rule then caps and floors it."""

    def _agent(self, price=10.0, cost=6.0):
        config = MarketConfig(
            agent_roster=[AgentSpec("q0", "madqn")], clusters=(1,)
        ).validate()
        return MadqnAgent("q0", [ProductSpec("p", 1, price, cost, 10.0)], config, None)

    def test_zero_change(self):
        assert self._agent()._apply_changes({"p": 0.0}) == {"p": pytest.approx(10.0)}

    def test_full_raise(self):
        agent = self._agent()
        assert agent._apply_changes({"p": 0.10}) == {"p": pytest.approx(11.0)}
        assert agent._prev_changes["p"] == 0.10

    def test_floor_clamps(self):
        agent = self._agent(price=6.5, cost=6.0)
        submitted = agent._apply_changes({"p": -0.10})["p"]
        assert submitted == pytest.approx(5.85)
        floor = agent.config.price_floor(agent.portfolio["p"].spec)
        assert agent.config.allowed_price(6.5, submitted, floor) == pytest.approx(6.30)


class TestReward:
    def test_no_change_is_zero(self):
        assert compute_reward(100.0, 100.0, 0.0, 1.0, 100.0) == 0.0

    def test_gain_minus_penalty(self):
        assert compute_reward(100.0, 150.0, 0.10, 1.0, 100.0) == pytest.approx(0.49)

    def test_pure_penalty(self):
        assert compute_reward(100.0, 100.0, 0.10, 1.0, 100.0) == pytest.approx(-0.01)

    def test_denominator_floor_at_one(self):
        assert compute_reward(0.0, 0.5, 0.0, 1.0, 0.0) == pytest.approx(0.5)

    @given(
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1e5),
    )
    @settings(max_examples=60)
    def test_antisymmetric_without_price_change(self, a, b, m):
        fwd = compute_reward(a, b, 0.0, 1.0, m)
        rev = compute_reward(b, a, 0.0, 1.0, m)
        assert fwd == pytest.approx(-rev, abs=1e-9)


def _madqn_setup(n_products=2, seed=5):
    roster = [AgentSpec("q0", "madqn"), AgentSpec("q1", "madqn")]
    clusters = tuple(range(1, n_products + 1))
    config = MarketConfig(
        agent_roster=roster,
        clusters=clusters,
        weeks_per_episode=10,
        episodes=1,
        seed=seed,
    ).validate()
    portfolio = make_default_portfolio(clusters, config.seed)
    agents = [MadqnAgent(s.agent_id, portfolio, config, None) for s in config.agent_roster]
    env = MarketEnvironment(config, agents, ParametricDemandModel(config.demand_params))
    return config, agents, env


class TestEncodeState:
    def test_dimension(self):
        config, agents, env = _madqn_setup(n_products=3)
        obs = env.bootstrap_observation()
        state = encode_state(agents[0], obs)
        assert state.shape == (state_dim(3),)
        assert state_dim(3) == 3 * STATE_SLOTS_PER_PRODUCT

    def test_cold_start_layout(self):
        config, agents, env = _madqn_setup()
        obs = env.bootstrap_observation()
        state = encode_state(agents[0], obs).reshape(-1, STATE_SLOTS_PER_PRODUCT)
        # identical portfolios: PVC exactly 1; ratios substituted with 1; trend/vol 0
        assert np.allclose(state[:, 0], 1.0)
        assert np.allclose(state[:, 2:5], 1.0)
        assert np.allclose(state[:, 5:7], 0.0)
        assert np.allclose(state[:, 11], 0.0)

    def test_identical_agents_equal_vectors(self):
        config, agents, env = _madqn_setup()
        obs = env.bootstrap_observation()
        a, b = (encode_state(agent, obs) for agent in agents)
        assert np.array_equal(a, b)

    def test_all_finite_during_run(self):
        config, agents, env = _madqn_setup()
        obs = env.bootstrap_observation()
        for week in range(6):
            submitted = {a.agent_id: a.propose_prices(obs) for a in agents}
            _, obs = env.step(submitted)
            for agent in agents:
                assert np.all(np.isfinite(encode_state(agent, obs)))


class _Short(ValueError):
    """The reference encoder's "not enough history" signal."""


def _reference_encode_state(agent, observation):
    """The encoder as it was before `features.demand_features`: one helper per entry."""
    import math

    from pricebench.features import seasonal_encoding

    def qrm(history, k):
        if len(history) < k:
            raise _Short
        return sum(history[-k:]) / k

    def trend(history):
        if len(history) < 4:
            raise _Short
        return qrm(history, 4) - qrm(history, 2)

    def rolling_volatility(history, k):
        if len(history) < k:
            raise _Short
        window = history[-k:]
        mean = sum(window) / k
        return math.sqrt(sum((q - mean) ** 2 for q in window) / k)

    week_sin, week_cos = seasonal_encoding(observation.week_number)
    holiday = 1.0 if observation.is_holiday else 0.0
    share = observation.market_share[agent.agent_id]
    slots = []
    for spec in agent.product_specs:
        product = agent.portfolio[spec.product_id]
        baseline = spec.baseline_demand
        history = product.demand_history

        def ratio_or(fn, default, *args):
            try:
                return fn(history, *args) / baseline
            except _Short:
                return default

        price = product.current_price
        slots.extend([
            price / observation.cluster_avg_price[observation.slots[(agent.agent_id, spec.product_id)]],
            (price - spec.unit_cost) / price,
            (history[-1] / baseline) if history else 1.0,
            ratio_or(qrm, 1.0, 2),
            ratio_or(qrm, 1.0, 4),
            ratio_or(trend, 0.0),
            ratio_or(rolling_volatility, 0.0, 4),
            week_sin,
            week_cos,
            holiday,
            share,
            product.last_relative_change(),
        ])
    return np.asarray(slots, dtype=float)


class TestEncodeStateMatchesReference:
    """Bit for bit the per-entry encoder, through every cold-start window."""

    @pytest.mark.parametrize("weeks", range(6))
    def test_equal_after_weeks_of_history(self, weeks):
        config, agents, env = _madqn_setup(n_products=3, seed=23)
        obs = env.bootstrap_observation()
        for _ in range(weeks):
            submitted = {a.agent_id: a.propose_prices(obs) for a in agents}
            _, obs = env.step(submitted)
        for agent in agents:
            assert len(next(iter(agent.portfolio.values())).demand_history) == weeks
            assert np.array_equal(encode_state(agent, obs), _reference_encode_state(agent, obs))


class TestStateEncodedOncePerWeek:
    """feedback() encodes next_state; the next propose_prices() reuses it."""

    @pytest.mark.parametrize("config_id,module", [("B", "maddpg"), ("C", "madqn"), ("F", "qmix")])
    def test_one_encoding_per_learner_per_week(self, config_id, module, monkeypatch):
        learner = importlib.import_module(f"pricebench.marl.{module}")
        calls = []

        def counting(agent, observation):
            calls.append(agent.agent_id)
            return encode_state(agent, observation)

        monkeypatch.setattr(learner, "encode_state", counting)
        weeks, episodes = 6, 2
        config = desk_spec(config_id, seed=17).market.copy_with(weeks_per_episode=weeks).validate()
        agents = build_agents(config)
        model = ParametricDemandModel(config.demand_params)
        for episode in range(episodes):
            run_episode(config, agents, model, episode)
        learners = [a for a in agents if isinstance(a, MarlAgentBase)]
        # each episode: one encoding of the opening observation, then one per week
        assert len(calls) == len(learners) * episodes * (weeks + 1)


class TestLearningPersistence:
    def test_weights_and_buffer_survive_episode_reset(self):
        config, agents, env = _madqn_setup()
        agent = agents[0]
        agent.core.buffer.push("sentinel")
        weights_before = agent.core.net.weights
        agent.begin_episode(1)
        assert agent.core.net.weights is weights_before  # learning state persists
        assert len(agent.core.buffer) == 1
        assert agent.portfolio["prod1"].price_history == []  # histories reset
        assert agent.episode_index == 1


class TestActionRangeSafety:
    def test_ten_thousand_random_states_stay_in_band(self):
        from pricebench.harness import build_agents, desk_spec
        from pricebench.marl.common import ACTION_SMOOTHING

        rng = np.random.default_rng(99)
        for config_id in ("B", "C", "F"):
            spec = desk_spec(config_id, seed=29)
            config = spec.market
            agents = build_agents(config)
            agent = agents[0]
            dim = state_dim(len(config.clusters))
            band = config.max_weekly_change
            for _ in range(10_000 // 3 + 1):
                state = rng.normal(size=dim) * 5.0
                if config_id == "B":
                    raw = agent.act_raw(state, episode=0)
                elif config_id == "C":
                    bins = agent.core.act(state, episode=0)
                    raw = np.array([
                        discretize_action(int(b), N_PRICE_BINS, band) for b in bins
                    ])
                else:
                    bins = agent.act_bins(state, episode=0)
                    raw = np.array([
                        discretize_action(int(b), N_PRICE_BINS, band) for b in bins
                    ])
                smoothed = ACTION_SMOOTHING * band + (1 - ACTION_SMOOTHING) * raw
                assert np.all(np.abs(raw) <= band + 1e-12)
                assert np.all(np.abs(smoothed) <= band + 1e-12)

    @pytest.mark.parametrize("config_id", ["B", "C", "F"])
    def test_fuzzed_episode_respects_bounds(self, config_id):
        from pricebench.harness import build_agents, desk_spec
        from pricebench.environment import run_episode

        spec = desk_spec(config_id, seed=17)
        config = spec.market.copy_with(weeks_per_episode=30, episodes=1).validate()
        agents = build_agents(config)
        model = ParametricDemandModel(config.demand_params)
        run_episode(config, agents, model, 0)
        for agent in agents:
            for product in agent.portfolio.values():
                floor = config.price_floor(product.spec)
                prev = product.spec.initial_price
                for price in product.price_history:
                    change = abs(price - prev) / prev
                    assert change <= config.max_weekly_change + 1e-9
                    assert price >= floor - 1e-9
                    prev = price
