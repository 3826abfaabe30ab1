import copy
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pricebench import nn
from pricebench.demand import ParametricDemandModel
from pricebench.environment import MarketEnvironment
from pricebench.harness import (
    ExperimentSpec, build_agents, desk_spec, roster_settings, run_experiment, simulate,
)
from pricebench.market import (
    AgentSpec,
    ConfigError,
    MarketConfig,
    ProductSpec,
    left_sum,
)
from pricebench.marl import common
from pricebench.marl.common import (
    N_PRICE_BINS,
    STATE_SLOTS_PER_PRODUCT,
    TeamMember,
    compute_reward,
    discretize_action,
    encode_state,
    epsilon_greedy,
    state_dim,
)
from pricebench.marl.madqn import DqnHyper
from pricebench.marl.maddpg import MaddpgHyper


def _hyper(kind, params):
    """A learner's hyper-parameters from its roster `params`."""
    return roster_settings([AgentSpec("a0", kind, params)], 0.10)["a0"]


class TestParseHyper:
    def test_keys_cast_to_the_default_types(self):
        hyper = _hyper(
            "madqn", {"batch_size": 32.0, "lr": "0.01", "hidden": [8, 4], "epsilon_floor": 0}
        )
        assert hyper.batch_size == 32 and type(hyper.batch_size) is int
        assert hyper.lr == 0.01 and hyper.hidden == (8, 4)
        default = DqnHyper()
        assert (hyper.epsilon_start, hyper.epsilon_decay, hyper.epsilon_floor) == (
            default.epsilon_start, default.epsilon_decay, 0.0
        )

    def test_schedule_prefix_follows_the_learner(self):
        hyper, default = _hyper("maddpg", {"noise_start": 0.3}), MaddpgHyper()
        assert (hyper.noise_start, hyper.noise_decay, hyper.noise_floor) == (
            0.3, default.noise_decay, default.noise_floor
        )

    @pytest.mark.parametrize("key", ["noise_start", "schedule", "soft_tau", "updates_per_step"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            _hyper("madqn", {key: 1})


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


class _FixedChange:
    """A learner whose one member, "q0", always chooses `change`."""

    member_ids = ["q0"]

    def __init__(self, change):
        self.change = change

    def encode(self, agent, observation):
        return np.zeros(1)

    def choose(self, i, state, episode, prev_changes):
        return np.zeros(1), [self.change]


class TestApplyAction:
    """Learners submit current * (1 + r); the market rule then caps and floors it."""

    def _proposed(self, change, price=10.0, cost=6.0):
        """The member's price for its one product, and the member."""
        config = MarketConfig(
            agent_roster=[AgentSpec("q0", "madqn")], clusters=(1,)
        )
        spec = ProductSpec("p", 1, price, cost, 10.0)
        agent = TeamMember("q0", [spec], config, _FixedChange(change))
        env = MarketEnvironment(config, [agent], ParametricDemandModel(config.demand_params))
        return agent.propose_prices(env.bootstrap_observation()), agent

    def test_zero_change(self):
        assert self._proposed(0.0)[0] == [pytest.approx(10.0)]

    def test_full_raise(self):
        prices, agent = self._proposed(0.10)
        assert prices == [pytest.approx(11.0)]
        assert agent._prev_changes == [0.10]

    def test_floor_clamps(self):
        prices, agent = self._proposed(-0.10, price=6.5, cost=6.0)
        (submitted,) = prices
        assert submitted == pytest.approx(5.85)
        floor = agent.config.price_floor(agent.product_specs[0])
        assert agent.config.allowed_prices((6.5,), (submitted,), (floor,)) == [pytest.approx(6.30)]


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


def _madqn_setup(n_products=2, seed=5, weeks=10):
    roster = [AgentSpec("q0", "madqn"), AgentSpec("q1", "madqn")]
    clusters = tuple(range(1, n_products + 1))
    config = MarketConfig(
        agent_roster=roster,
        clusters=clusters,
        weeks_per_episode=weeks,
        episodes=1,
        seed=seed,
    )
    agents = build_agents(config)
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

    def test_last_relative_change(self):
        """Each product's last entry: 0 at week zero, the change from the
        initial price in week 1, then from the week before."""
        config = MarketConfig(agent_roster=[AgentSpec("q0", "madqn")], clusters=(1,),
                              weeks_per_episode=3, episodes=1)
        agent = TeamMember("q0", [ProductSpec("p", 1, 10.0, 6.0, 20.0)], config,
                           _FixedChange(0.0))
        env = MarketEnvironment(config, [agent], ParametricDemandModel(config.demand_params))
        observations = [env.bootstrap_observation()]
        observations += [env.step({"q0": [price]}) for price in (11.0, 11.55, 11.55)]
        changes = [encode_state(agent, obs)[STATE_SLOTS_PER_PRODUCT - 1] for obs in observations]
        assert changes[0] == 0.0 and changes[3] == 0.0
        assert changes[1:3] == [pytest.approx(0.1), pytest.approx(0.05)]

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
            obs = env.step(submitted)
            for agent in agents:
                assert np.all(np.isfinite(encode_state(agent, obs)))


def _eager_epsilon_greedy(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """The reference act: every head's greedy bin of `q` (heads, bins), each
    replaced by a uniform random bin with probability `epsilon`."""
    n_heads, n_bins = q.shape
    greedy = np.argmax(q, axis=1)
    explore = rng.random(n_heads) < epsilon
    random_bins = rng.integers(0, n_bins, size=n_heads)
    return np.where(explore, random_bins, greedy)


class TestLazyEpsilonGreedy:
    """`epsilon_greedy` computes the Q-values only when some head exploits."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_bins_and_draws_equal_the_eager_act(self, epsilon):
        source = np.random.default_rng(3)
        lazy, eager = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(1_000):
            q = source.integers(0, 4, size=(5, N_PRICE_BINS)).astype(float)  # ties too
            bins = epsilon_greedy(lambda: q, 5, N_PRICE_BINS, epsilon, lazy)
            expected = _eager_epsilon_greedy(q, epsilon, eager)
            assert bins.dtype == expected.dtype and np.array_equal(bins, expected)
        assert lazy.random() == eager.random()

    def test_q_called_once_unless_every_head_explores(self):
        rng = np.random.default_rng(5)
        q = np.arange(2 * N_PRICE_BINS, dtype=float).reshape(2, N_PRICE_BINS)
        seen = set()
        for _ in range(200):
            mirror = copy.deepcopy(rng)
            every_head_explores = bool((mirror.random(2) < 0.5).all())
            calls = []
            epsilon_greedy(lambda: calls.append(1) or q, 2, N_PRICE_BINS, 0.5, rng)
            assert len(calls) == (0 if every_head_explores else 1)
            seen.add(every_head_explores)
        assert seen == {True, False}


def _low_epsilon_run(config_id: str, out) -> dict[str, bytes]:
    """Artifact bytes of one run at 2 x 52 weeks with epsilon_start 0.3."""
    kind = {"C": "madqn", "F": "qmix"}[config_id]
    spec = ExperimentSpec.from_dict({
        "config_id": config_id, "n_runs": 1,
        "roster_params": {kind: {"epsilon_start": 0.3}},
        "market": {"episodes": 2, "weeks_per_episode": 52, "seed": 12345},
    })
    (manifest, _), = run_experiment(spec, out)
    return {name: (out / manifest.run_id / name).read_bytes() for name in ("history.csv", "metrics.json")}


class TestLazyActKeepsTrainedBytes:
    """At epsilon 0.3 most acts exploit, so the greedy branch and the learn
    steps it feeds are pinned here (the golden tables run at epsilon near 1)."""

    @pytest.mark.parametrize("config_id", ["C", "F"])
    def test_same_bytes_as_the_eager_act(self, config_id, tmp_path, monkeypatch):
        steps, acts = [], []
        adam_step = nn.Adam.step
        monkeypatch.setattr(nn.Adam, "step", lambda opt, *a, **k: steps.append(1) or adam_step(opt, *a, **k))

        def counted(q, n_heads, n_bins, epsilon, rng):
            calls = []
            bins = epsilon_greedy(lambda: calls.append(1) or q(), n_heads, n_bins, epsilon, rng)
            acts.append(len(calls))
            return bins

        def eager(q, n_heads, n_bins, epsilon, rng):
            return _eager_epsilon_greedy(q(), epsilon, rng)

        # both Q-learner kinds act through common's epsilon_greedy
        monkeypatch.setattr(common, "epsilon_greedy", counted)
        lazy = _low_epsilon_run(config_id, tmp_path / "lazy")
        lazy_steps = len(steps)
        assert lazy_steps > 0
        assert sum(acts) > len(acts) / 2  # most acts computed the Q-values
        monkeypatch.setattr(common, "epsilon_greedy", eager)
        assert _low_epsilon_run(config_id, tmp_path / "eager") == lazy
        assert len(steps) == 2 * lazy_steps


class _Short(ValueError):
    """The reference encoder's "not enough history" signal."""


class _WeekRecorder:
    """A demand model that keeps every week's prices and demands as it
    settles them, as plain lists: the reference encoder's history."""

    def __init__(self, model):
        self.model = model
        self.prices: list[list[float]] = []
        self.demands: list[list[float]] = []

    def sample_demand(self, query):
        demands = self.model.sample_demand(query)
        self.prices.append(list(query.prices))
        self.demands.append(list(demands))
        return demands


def _reference_encode_state(agent, observation, recorder: _WeekRecorder):
    """The encoder as it was before `features.demand_features`: one helper
    per entry, over each product's whole history in `recorder`."""
    from pricebench.features import seasonal_encoding

    def qrm(history, k):
        if len(history) < k:
            raise _Short
        return left_sum(history[-k:]) / k

    def trend(history):
        if len(history) < 4:
            raise _Short
        return qrm(history, 4) - qrm(history, 2)

    def rolling_volatility(history, k):
        if len(history) < k:
            raise _Short
        window = history[-k:]
        mean = left_sum(window) / k
        return math.sqrt(left_sum((q - mean) ** 2 for q in window) / k)

    week_sin, week_cos = seasonal_encoding(observation.week_number)
    holiday = 1.0 if observation.is_holiday else 0.0
    share = observation.market_share[agent.agent_id]
    slots = []
    for spec in agent.product_specs:
        slot = observation.log.slots[(agent.agent_id, spec.product_id)]
        baseline = spec.baseline_demand
        history = [week[slot] for week in recorder.demands]
        prices = [week[slot] for week in recorder.prices]
        if prices:  # relative to the week before, or to the initial price in week 1
            before = prices[-2] if len(prices) > 1 else spec.initial_price
            last_change = (prices[-1] - before) / before
        else:
            last_change = 0.0

        def ratio_or(fn, default, *args):
            try:
                return fn(history, *args) / baseline
            except _Short:
                return default

        price = prices[-1] if prices else spec.initial_price
        # the cluster's slots are this one and its competitors' (one product per cluster)
        cluster = [slot, *observation.competitor_slots[slot]]
        cluster_avg = math.fsum(observation.price[j] for j in cluster) / len(cluster)
        slots.extend([
            price / cluster_avg,
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
            last_change,
        ])
    return np.asarray(slots, dtype=float)


class TestEncodeStateMatchesReference:
    """Bit for bit the per-entry encoder, through every cold-start window."""

    @pytest.mark.parametrize("weeks", range(6))
    def test_equal_after_weeks_of_history(self, weeks):
        config, agents, env = _madqn_setup(n_products=3, seed=23)
        env.demand_model = recorder = _WeekRecorder(env.demand_model)
        obs = env.bootstrap_observation()
        for _ in range(weeks):
            submitted = {a.agent_id: a.propose_prices(obs) for a in agents}
            obs = env.step(submitted)
        assert obs.weeks == len(recorder.demands) == weeks
        for agent in agents:
            expected = _reference_encode_state(agent, obs, recorder)
            assert np.array_equal(encode_state(agent, obs), expected)

    def test_equal_every_week_through_the_holidays_and_a_year_wrap(self):
        config, agents, env = _madqn_setup(n_products=3, seed=23, weeks=30)
        env.demand_model = recorder = _WeekRecorder(env.demand_model)
        env.week_number = 36  # weeks 36..52, then 1..13 of the next year
        obs = env.bootstrap_observation()
        calendar = []
        for _ in range(30):
            submitted = {a.agent_id: a.propose_prices(obs) for a in agents}
            obs = env.step(submitted)
            calendar.append((obs.week_number, obs.is_holiday))
            for agent in agents:
                expected = _reference_encode_state(agent, obs, recorder)
                assert np.array_equal(encode_state(agent, obs), expected)
        assert (47, True) in calendar and (52, True) in calendar and (1, False) in calendar
        assert env.week_number == 14


def _reference_reward(agent, observation, prev_observation, samples: list[float]) -> float:
    """`_reward_from` as it was: a list of the episode's revenues and a
    generator over the products' changes, each summed left to right. The
    previous revenue is the agent's in `prev_observation`, the observation
    it acted on, and a product's change is its price in `observation`
    relative to its price in `prev_observation` (at week zero, the initial
    price)."""
    revenue = observation.agent_revenue[agent.agent_id]
    prev_revenue = prev_observation.agent_revenue[agent.agent_id]
    if not samples:
        samples.append(prev_revenue)
    running_mean = left_sum(samples) / len(samples)
    changes = []
    for s in agent.product_specs:
        slot = observation.log.slots[(agent.agent_id, s.product_id)]
        before = prev_observation.price[slot]
        changes.append((observation.price[slot] - before) / before)
    change_rms = math.sqrt(left_sum(c * c for c in changes) / len(changes))
    reward = compute_reward(
        prev_revenue, revenue, change_rms, agent.config.reward_penalty_lambda, running_mean
    )
    samples.append(revenue)
    return reward


class TestRewardMatchesReference:
    """Bit for bit the list-and-generator reward, on runs whose learners train."""

    @pytest.mark.parametrize("config_id", ["B", "C", "F"])
    def test_equal_every_week_at_2x52(self, config_id, monkeypatch):
        steps = []
        adam_step = nn.Adam.step
        monkeypatch.setattr(nn.Adam, "step", lambda opt, *a, **k: steps.append(1) or adam_step(opt, *a, **k))
        samples: dict[tuple, list[float]] = {}
        rewards = []
        acted_on = {}  # each member's last observation acted on, kept here
        propose_prices, reward_from = TeamMember.propose_prices, TeamMember._reward_from

        def proposing(agent, observation):
            acted_on[agent] = observation
            return propose_prices(agent, observation)

        def checked(agent, observation, prev_revenue, state):
            reward = reward_from(agent, observation, prev_revenue, state)
            prev_observation = acted_on[agent]
            assert prev_revenue.hex() == prev_observation.agent_revenue[agent.agent_id].hex()
            episode_samples = samples.setdefault((agent, agent.episode_index), [])
            expected = _reference_reward(agent, observation, prev_observation, episode_samples)
            assert reward.hex() == expected.hex()
            rewards.append(reward)
            return reward

        monkeypatch.setattr(TeamMember, "propose_prices", proposing)
        monkeypatch.setattr(TeamMember, "_reward_from", checked)
        config = desk_spec(config_id, seed=31, episodes=2, weeks_per_episode=52).market
        list(simulate(config, build_agents(config)))
        assert len(rewards) == 4 * 2 * 52
        assert len(steps) > 0
        assert len(set(rewards)) > 100  # the weeks' rewards differ


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
        config = desk_spec(config_id, seed=17, episodes=episodes, weeks_per_episode=weeks).market
        agents = build_agents(config)
        list(simulate(config, agents))
        learners = [a for a in agents if isinstance(a, TeamMember)]
        # each episode: one encoding of the opening observation, then one per week
        assert len(calls) == len(learners) * episodes * (weeks + 1)


@pytest.mark.parametrize("config_id", ["B", "C", "F"])
def test_target_nets_share_their_online_nets_buffers(config_id):
    """Every learner runs its target passes before its online pass, so a
    target net needs no buffers of its own (see `nn`)."""
    learner = build_agents(desk_spec(config_id).market)[0].learner
    if config_id == "B":
        pairs = [(learner.target_actors, learner.actors),
                 (learner.target_critics, learner.critics)]
    else:
        pairs = [(learner.target_nets, learner.nets)]
    if config_id == "F":
        pairs += [(learner.target_mixer, learner.mixer),
                  *zip(learner.target_mixer.hypernets, learner.mixer.hypernets)]
    for target, net in pairs:
        assert target._work is net._work
        assert not np.shares_memory(target.params()[0], net.params()[0])


class TestLearningPersistence:
    def test_weights_and_buffer_survive_episode_reset(self):
        config, agents, env = _madqn_setup()
        agent = agents[0]
        agent.learner.buffer.push("sentinel", "sentinel")
        weights_before = agent.learner.nets.weights
        agent.begin_episode(1)
        assert agent.learner.nets.weights is weights_before  # learning state persists
        assert len(agent.learner.buffer) == 1
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
                # from previous changes of 0, a smoothed change is exactly half the raw one
                prev = [0.0] * len(config.clusters)
                _, changes = agent.learner.choose(agent.index, state, 0, prev)
                raw = np.array(changes) * (1.0 if config_id == "C" else 2.0)
                smoothed = ACTION_SMOOTHING * band + (1 - ACTION_SMOOTHING) * raw
                assert np.all(np.abs(raw) <= band + 1e-12)
                assert np.all(np.abs(smoothed) <= band + 1e-12)

    @pytest.mark.parametrize("config_id", ["B", "C", "F"])
    def test_fuzzed_episode_respects_bounds(self, config_id):
        config = desk_spec(config_id, seed=17, weeks_per_episode=30, episodes=1).market
        agents = build_agents(config)
        (log,) = simulate(config, agents)
        for agent in agents:
            for spec in agent.product_specs:
                floor = config.price_floor(spec)
                prev = spec.initial_price
                for price in log.price[:, log.slots[(agent.agent_id, spec.product_id)]].tolist():
                    change = abs(price - prev) / prev
                    assert change <= config.max_weekly_change + 1e-9
                    assert price >= floor - 1e-9
                    prev = price
