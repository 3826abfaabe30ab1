import copy

import numpy as np
import pytest

from pricebench.demand import ParametricDemandModel
from pricebench.environment import run_episode
from pricebench.market import AgentSpec, ConfigError, MarketConfig, derive_rng, make_default_portfolio
from pricebench.nn import Adam, DenseNet, TrainingError, hard_update
from pricebench.marl.qmix import (
    MonotonicMixer,
    QmixCoordinator,
    QmixHyper,
    build_team,
)


def _mixer(n_agents=2, state=4, embed=8, seed=1):
    return MonotonicMixer(n_agents, state, embed, derive_rng(seed, "mixer"))


class TestMixerForward:
    def test_zero_hypernets_give_constant_bias(self):
        mixer = _mixer()
        for p in mixer.params():
            p[:] = 0.0
        mixer.b2_bias[:] = 3.25
        qs = derive_rng(2, "q").normal(size=(6, 2))
        states = derive_rng(3, "s").normal(size=(6, 4))
        out = mixer.forward(qs, states)
        assert np.allclose(out, 3.25)

    def test_identity_passthrough_single_agent(self):
        mixer = _mixer(n_agents=1, embed=4)
        for p in mixer.params():
            p[:] = 0.0
        mixer.w1_bias[0] = 1.0  # first mixing unit weight 1 on the single agent
        mixer.w2_bias[0] = 1.0
        qs = np.array([[0.7], [2.5], [0.01]])
        states = np.zeros((3, 4))
        out = mixer.forward(qs, states)
        assert np.allclose(out, qs[:, 0])  # elu is identity for positive inputs

    def test_shape_errors(self):
        mixer = _mixer(n_agents=3)
        with pytest.raises(Exception):
            mixer.forward(np.zeros((2, 2)), np.zeros((2, 4)))

    def test_qmix_mix_single_sample(self):
        mixer = _mixer()
        value = mixer.forward(np.array([1.0, 2.0]), np.ones(4))  # one sample, unbatched
        assert value.shape == (1,) and np.isfinite(value[0])


class TestMonotonicity:
    def test_finite_difference_partials_nonnegative(self):
        rng = derive_rng(4, "mono")
        mixer = _mixer(n_agents=3, state=5, embed=16, seed=9)
        h = 1e-6
        for _ in range(300):
            qs = rng.normal(size=(1, 3)) * 3
            state = rng.normal(size=(1, 5))
            for i in range(3):
                q_up = qs.copy()
                q_up[0, i] += h
                q_dn = qs.copy()
                q_dn[0, i] -= h
                partial = (mixer.forward(q_up, state) - mixer.forward(q_dn, state))[0] / (2 * h)
                assert partial >= -1e-8

    def test_backward_matches_finite_differences(self):
        rng = derive_rng(5, "fd")
        mixer = _mixer(n_agents=2, state=4, embed=8)
        qs = rng.normal(size=(4, 2))
        states = rng.normal(size=(4, 4))
        up = rng.normal(size=4)
        _, cache = mixer.forward_cached(qs, states)
        qtot, cache = mixer.forward_cached(qs, states)
        grads, dqs = mixer.backward(cache, up)

        def loss():
            return float(np.sum(up * mixer.forward(qs, states)))

        h = 1e-6
        for p, g in zip(mixer.params(), grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for i in range(0, flat_p.size, max(1, flat_p.size // 10)):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up_l = loss()
                flat_p[i] = orig - h
                dn_l = loss()
                flat_p[i] = orig
                fd = (up_l - dn_l) / (2 * h)
                assert fd == pytest.approx(flat_g[i], rel=1e-4, abs=1e-7)


class _FakeMember:
    """Minimal duck-typed member for coordinator-level tests."""

    def __init__(self, agent_id, state_size, n_bins, seed):
        self.agent_id = agent_id
        self.n_heads = 1
        self.n_bins = n_bins
        rng = derive_rng(seed, "fake", agent_id)
        self.net = DenseNet([state_size, 32, n_bins], ["relu", "linear"], rng)
        self.target = self.net.clone()
        self.coordinator = None


def _team(n_agents=2, state_size=2, n_bins=3, seed=6, **hyper_kw):
    """A coordinator and its fake members (the coordinator keeps only their nets)."""
    config = MarketConfig(
        agent_roster=[AgentSpec(f"x{i}", "qmix") for i in range(n_agents)], seed=seed,
        clusters=(1,), weeks_per_episode=4, episodes=1,
    ).validate()
    hyper = QmixHyper(**{"warm_up": 16, "batch_size": 16, **hyper_kw})
    coord = QmixCoordinator(config, hyper, n_agents, state_size)
    members = [_FakeMember(f"x{i}", state_size, n_bins, seed) for i in range(n_agents)]
    for member in members:
        coord.register(member)
        member.coordinator = coord
    return coord, members


def _coordinator(**kwargs) -> QmixCoordinator:
    return _team(**kwargs)[0]


class TestCoordinator:
    def test_double_registration_rejected(self):
        _, (member, _) = _team()
        coord_b = _coordinator()
        with pytest.raises(ConfigError):
            coord_b.register(member)

    def test_done_targets_equal_shared_reward(self):
        coord = _coordinator(gamma=0.99, lr=0.02)
        rng = derive_rng(7, "fill")
        for _ in range(32):
            states = [rng.normal(size=2) for _ in range(2)]
            actions = [[int(rng.integers(3))] for _ in range(2)]
            coord.buffer.push(states, actions, [rng.normal(size=2) for _ in range(2)], 0.75, True)
        for _ in range(1500):
            loss = coord.learn()
        assert loss < 1e-3

    def test_constant_reward_regression(self):
        coord = _coordinator(gamma=0.0, lr=0.02)
        rng = derive_rng(8, "fill")
        for _ in range(32):
            states = [rng.normal(size=2) for _ in range(2)]
            actions = [[int(rng.integers(3))] for _ in range(2)]
            coord.buffer.push(states, actions, [rng.normal(size=2) for _ in range(2)], 0.4, False)
        for _ in range(2500):
            loss = coord.learn()
        assert loss < 1e-3


def _fill(coord, n=32, seed=7):
    rng = derive_rng(seed, "fill")
    for _ in range(n):
        states = [rng.normal(size=2) for _ in coord.member_ids]
        actions = [[int(rng.integers(3))] for _ in coord.member_ids]
        reward = float(rng.normal())
        next_states = [rng.normal(size=2) for _ in coord.member_ids]
        coord.buffer.push(states, actions, next_states, reward, bool(rng.integers(2)))


def _reference_learn(coord, nets, targets, mixer, target_mixer, opt, rng, step):
    """One QMIX step as a loop over members: per-member nets, one Adam over every array."""
    hp = coord.hyper
    sampled = coord.buffer.sample(hp.batch_size, rng)
    b, n = len(sampled), len(nets)
    rows = np.arange(b)[:, None]
    heads = np.arange(1)[None, :]
    state_ring, action_ring, next_ring, reward_ring, done_ring = (
        f[sampled] for f in coord.buffer.fields
    )
    rewards = reward_ring
    done = done_ring.astype(float)
    states = [state_ring[:, i] for i in range(n)]
    next_states = [next_ring[:, i] for i in range(n)]
    actions = [action_ring[:, i] for i in range(n)]
    target_qs = np.empty((b, n))
    for i, target in enumerate(targets):
        target_qs[:, i] = target.forward(next_states[i]).reshape(b, 1, -1).max(axis=2).mean(axis=1)
    y = rewards + hp.gamma * (1.0 - done) * target_mixer.forward(
        target_qs, np.concatenate(next_states, axis=1)
    )
    qs, caches = np.empty((b, n)), []
    for i, net in enumerate(nets):
        out, cache = net.forward_cached(states[i])
        q = out.reshape(b, 1, -1)
        qs[:, i] = q[rows, heads, actions[i]].mean(axis=1)
        caches.append((cache, q.shape))
    q_tot, mix_cache = mixer.forward_cached(qs, np.concatenate(states, axis=1))
    mixer_grads, d_qs = mixer.backward(mix_cache, 2.0 * (q_tot - y) / b)
    grads, params = [], []
    for i, (net, (cache, shape)) in enumerate(zip(nets, caches)):
        upstream = np.zeros(shape)
        upstream[rows, heads, actions[i]] = d_qs[:, i][:, None]
        grads.extend(net.backward(cache, upstream.reshape(b, -1))[0])
        params.extend(net.params())
    opt.step(params + mixer.params(), grads + mixer_grads, hp.lr)
    if step % hp.target_update_every == 0:
        for target, net in zip(targets, nets):
            hard_update(target, net)
        target_mixer.copy_from(mixer)


class TestTeamStep:
    def test_team_step_equals_per_member_reference(self):
        coord, members = _team(n_agents=3, lr=0.02, target_update_every=2)
        _fill(coord)
        nets = [m.net.clone() for m in members]
        targets = [m.target.clone() for m in members]
        mixer, target_mixer = coord.mixer.clone(), coord.target_mixer.clone()
        opt = Adam([p for net in nets for p in net.params()] + mixer.params())
        rng = copy.deepcopy(coord.rng)
        for step in range(1, 6):
            coord.learn()
            _reference_learn(coord, nets, targets, mixer, target_mixer, opt, rng, step)
        for member, net, target in zip(members, nets, targets):
            assert np.array_equal(member.net.flat, net.flat)
            assert np.array_equal(member.target.flat, target.flat)
        assert np.array_equal(coord.mixer.flat, mixer.flat)
        assert np.array_equal(coord.target_mixer.flat, target_mixer.flat)

    def test_non_finite_joint_step_leaves_team_and_mixer_untouched(self):
        coord = _coordinator(lr=0.02)
        _fill(coord)
        coord.learn()
        coord.buffer.fields[3][:] = np.nan  # the shared rewards
        opt = coord.optimizer
        before = [a.copy() for a in [coord.nets.flat, coord.mixer.flat, *opt.m, *opt.v]]
        with pytest.raises(TrainingError):
            coord.learn()
        assert opt.t == 1
        after = [coord.nets.flat, coord.mixer.flat, *opt.m, *opt.v]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


class TestMatrixGame:
    def test_greedy_joint_action_matches_payoff_argmax(self):
        # 3x3 additive payoff: exhaustive argmax is the oracle
        r1 = np.array([0.0, 1.0, 0.5])
        r2 = np.array([0.2, 0.0, 1.0])
        payoff = r1[:, None] + r2[None, :]
        oracle = np.unravel_index(payoff.argmax(), payoff.shape)

        coord, members = _team(n_agents=2, state_size=1, n_bins=3, lr=0.01, seed=12)
        state = [np.ones(1), np.ones(1)]
        for a1 in range(3):
            for a2 in range(3):
                for _ in range(4):
                    coord.buffer.push(state, [[a1], [a2]], state, payoff[a1, a2], True)
        for _ in range(2500):
            coord.learn()
        greedy = [
            int(np.argmax(m.net.forward(np.ones(1)))) for m in members
        ]
        assert tuple(greedy) == oracle


class TestQmixTeamInMarket:
    def test_episode_respects_bounds_and_stores_joint(self):
        roster = [AgentSpec(f"m{i}", "qmix") for i in range(2)]
        config = MarketConfig(
            agent_roster=roster, clusters=(1, 2),
            weeks_per_episode=8, episodes=1, seed=33,
        ).validate()
        portfolio = make_default_portfolio([1, 2], config.seed)
        team = build_team([s.agent_id for s in roster], portfolio, config)
        model = ParametricDemandModel(config.demand_params)
        run_episode(config, team, model)
        coord = team[0].coordinator
        assert len(coord.buffer) == 8
        for agent in team:
            for product in agent.portfolio.values():
                prev = product.spec.initial_price
                for price in product.price_history:
                    assert abs(price - prev) / prev <= config.max_weekly_change + 1e-9
                    prev = price

    def test_shared_reward_is_mean(self):
        coord = _coordinator()
        coord.contribute("x0", np.zeros(2), [0], 1.0, np.zeros(2), False)
        assert len(coord.buffer) == 0  # waits for the team
        coord.contribute("x1", np.zeros(2), [0], 3.0, np.zeros(2), False)
        assert coord.buffer.fields[3][0] == 2.0  # the shared reward
