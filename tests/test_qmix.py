import copy

import numpy as np
import pytest

from pricebench.harness import build_agents, simulate
from pricebench.market import AgentSpec, MarketConfig, derive_rng
from pricebench.marl.common import N_PRICE_BINS, discretize_action, smoothed, state_dim
from pricebench.nn import Adam, DenseNet, TrainingError, hard_update
from pricebench.marl import qmix
from pricebench.marl.qmix import (
    MonotonicMixer,
    QmixCoordinator,
    QmixHyper,
)


def _mixer(n_agents=2, state=4, embed=8, seed=1):
    return MonotonicMixer(n_agents, state, embed, derive_rng(seed, "mixer"))


class TestMixerForward:
    def test_zero_hypernets_give_constant_bias(self):
        mixer = _mixer()
        for net in mixer.hypernets:
            net.flat[:] = 0.0
        mixer.hypernets[3].biases[0][:] = 3.25  # the second layer's bias
        qs = derive_rng(2, "q").normal(size=(6, 2))
        states = derive_rng(3, "s").normal(size=(6, 4))
        out = mixer.forward(qs, states)
        assert np.allclose(out, 3.25)

    def test_identity_passthrough_single_agent(self):
        mixer = _mixer(n_agents=1, embed=4)
        for net in mixer.hypernets:
            net.flat[:] = 0.0
        w1, _, w2, _ = mixer.hypernets
        w1.biases[0][0] = 1.0  # first mixing unit weight 1 on the single agent
        w2.biases[0][0] = 1.0
        qs = np.array([[0.7], [2.5], [0.01]])
        states = np.zeros((3, 4))
        out = mixer.forward(qs, states)
        assert np.allclose(out, qs[:, 0])  # elu is identity for positive inputs

    def test_hypernets_are_successive_draws_of_the_mixers_generator(self):
        n, state, m = 4, 240, 32
        mixer = MonotonicMixer(n, state, m, derive_rng(11, "mixer"))
        twin, bound = derive_rng(11, "mixer"), 1.0 / np.sqrt(state)
        for net, rows in zip(mixer.hypernets, (n * m, m, m, 1), strict=True):
            assert np.array_equal(net.weights[0], twin.uniform(-bound, bound, size=(rows, state)))
            assert np.array_equal(net.biases[0], twin.uniform(-bound, bound, size=rows))

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
        dqs = mixer.backward(cache, up).copy()

        def loss():
            return float(np.sum(up * mixer.forward(qs, states)))

        h = 1e-6
        # each hypernetwork's flat parameters, then the agent utilities
        coords = [(net.flat, net.grad, i) for net in mixer.hypernets
                  for i in range(0, net.flat.size, max(1, net.flat.size // 10))]
        coords += [(qs.reshape(-1), dqs.reshape(-1), i) for i in range(qs.size)]
        for flat_p, flat_g, i in coords:
            orig = flat_p[i]
            flat_p[i] = orig + h
            up_l = loss()
            flat_p[i] = orig - h
            dn_l = loss()
            flat_p[i] = orig
            fd = (up_l - dn_l) / (2 * h)
            assert fd == pytest.approx(flat_g[i], rel=1e-4, abs=1e-7)


def _coordinator(n_agents=2, state_size=2, n_bins=3, seed=6, **hyper_kw) -> QmixCoordinator:
    """A coordinator of one-head members x0, x1, ... and their team nets, in a
    run of 64 weeks: its buffer holds up to 64 of the rows these tests push."""
    config = MarketConfig(
        agent_roster=[AgentSpec(f"x{i}", "qmix") for i in range(n_agents)], seed=seed,
        clusters=(1,), weeks_per_episode=4, episodes=16,
    )
    hyper = QmixHyper(**{"warm_up": 16, "batch_size": 16, "hidden": (32,), **hyper_kw})
    ids = [f"x{i}" for i in range(n_agents)]
    return QmixCoordinator(config, hyper, ids, state_size, n_heads=1, n_bins=n_bins)


class TestCoordinator:
    def test_done_targets_equal_shared_reward(self):
        coord = _coordinator(gamma=0.99, lr=0.02)
        rng = derive_rng(7, "fill")
        for _ in range(32):
            states = [rng.normal(size=2) for _ in range(2)]
            actions = [[int(rng.integers(3))] for _ in range(2)]
            coord.buffer.push(states, [rng.normal(size=2) for _ in range(2)], actions, 0.75, True)
        for _ in range(1500):
            loss = coord.learn()
        assert loss < 1e-3

    def test_constant_reward_regression(self):
        coord = _coordinator(gamma=0.0, lr=0.02)
        rng = derive_rng(8, "fill")
        for _ in range(32):
            states = [rng.normal(size=2) for _ in range(2)]
            actions = [[int(rng.integers(3))] for _ in range(2)]
            coord.buffer.push(states, [rng.normal(size=2) for _ in range(2)], actions, 0.4, False)
        for _ in range(2500):
            loss = coord.learn()
        assert loss < 1e-3


def _fill(coord, n=32, seed=7):
    rng = derive_rng(seed, "fill")
    states = [rng.normal(size=2) for _ in coord.member_ids]
    for _ in range(n):
        actions = [[int(rng.integers(3))] for _ in coord.member_ids]
        reward = float(rng.normal())
        next_states = [rng.normal(size=2) for _ in coord.member_ids]
        done = bool(rng.integers(2))
        coord.buffer.push(states, next_states, actions, reward, done)
        # an episode's next state is its next week's state
        states = [rng.normal(size=2) for _ in coord.member_ids] if done else next_states


def _reference_learn(coord, nets, targets, mixer, target_mixer, opt, rng, step):
    """One QMIX step as a loop over members: per-member nets, one Adam over every array."""
    hp = coord.hyper
    sampled = coord.buffer.sample(hp.batch_size, rng)
    b, n = len(sampled), len(nets)
    rows = np.arange(b)[:, None]
    heads = np.arange(1)[None, :]
    state_ring = coord.buffer.states[sampled]
    next_ring = coord.buffer.states[(sampled + 1) % len(coord.buffer.states)]
    action_ring, reward_ring, done_ring = (f[sampled] for f in coord.buffer.fields)
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
    d_qs = mixer.backward(mix_cache, 2.0 * (q_tot - y) / b)
    for i, (net, (cache, shape)) in enumerate(zip(nets, caches)):
        upstream = np.zeros(shape)
        upstream[rows, heads, actions[i]] = d_qs[:, i][:, None]
        net.backward(cache, upstream.reshape(b, -1))
    trained = [*nets, *mixer.hypernets]
    opt.step([net.flat for net in trained], [net.grad for net in trained], hp.lr)
    if step % hp.target_update_every == 0:
        for target, net in zip(targets, nets):
            hard_update(target, net)
        for target, net in zip(target_mixer.hypernets, mixer.hypernets):
            hard_update(target, net)


class TestTeamStep:
    def test_team_step_equals_per_member_reference(self):
        coord = _coordinator(n_agents=3, lr=0.02, target_update_every=2)
        _fill(coord)
        coord.build_training()
        members = [(coord.nets.member(i), coord.target_nets.member(i)) for i in range(3)]
        nets = [net.clone() for net, _ in members]
        targets = [target.clone() for _, target in members]
        mixer, target_mixer = coord.mixer.clone(), coord.target_mixer.clone()
        opt = Adam([net.flat for net in [*nets, *mixer.hypernets]])
        rng = copy.deepcopy(coord.rng)
        for step in range(1, 6):
            coord.learn()
            _reference_learn(coord, nets, targets, mixer, target_mixer, opt, rng, step)
        for (member_net, member_target), net, target in zip(members, nets, targets):
            assert np.array_equal(member_net.flat, net.flat)
            assert np.array_equal(member_target.flat, target.flat)
        for ours, theirs in [(coord.mixer, mixer), (coord.target_mixer, target_mixer)]:
            for net, reference in zip(ours.hypernets, theirs.hypernets, strict=True):
                assert np.array_equal(net.flat, reference.flat)

    def test_target_refresh_hard_updates_the_team_and_each_hypernet(self, monkeypatch):
        coord = _coordinator(lr=0.02, target_update_every=1)
        _fill(coord)
        calls = []

        def counting(target, online):
            calls.append((target, online))
            hard_update(target, online)

        monkeypatch.setattr(qmix, "hard_update", counting)
        for _ in range(3):
            coord.learn()
        pairs = list(zip([coord.target_nets, *coord.target_mixer.hypernets],
                         [coord.nets, *coord.mixer.hypernets]))
        assert len(calls) == 3 * 5
        assert all(a is c and b is d for (a, b), (c, d) in zip(calls, pairs * 3))
        assert all(np.array_equal(target.flat, online.flat) for target, online in pairs)

    def test_non_finite_joint_step_leaves_team_and_mixer_untouched(self):
        coord = _coordinator(lr=0.02)
        _fill(coord)
        coord.learn()
        coord.buffer.fields[1][:] = np.nan  # the shared rewards
        opt = coord.optimizer
        flats = [coord.nets.flat, *(net.flat for net in coord.mixer.hypernets)]
        before = [a.copy() for a in [*flats, *opt.m, *opt.v]]
        with pytest.raises(TrainingError):
            coord.learn()
        assert opt.t == 1
        after = [*flats, *opt.m, *opt.v]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


class TestMatrixGame:
    def test_greedy_joint_action_matches_payoff_argmax(self):
        # 3x3 additive payoff: exhaustive argmax is the oracle
        r1 = np.array([0.0, 1.0, 0.5])
        r2 = np.array([0.2, 0.0, 1.0])
        payoff = r1[:, None] + r2[None, :]
        oracle = np.unravel_index(payoff.argmax(), payoff.shape)

        coord = _coordinator(n_agents=2, state_size=1, n_bins=3, lr=0.01, seed=12)
        state = [np.ones(1), np.ones(1)]
        for a1 in range(3):
            for a2 in range(3):
                for _ in range(4):
                    coord.buffer.push(state, state, [[a1], [a2]], payoff[a1, a2], True)
        for _ in range(2500):
            coord.learn()
        greedy = [int(np.argmax(coord.nets.member(i).forward(np.ones(1)))) for i in range(2)]
        assert tuple(greedy) == oracle


def _market_team(n_agents=2, seed=33):
    """A market config and its QMIX team of members m0, m1, ... over two products."""
    roster = [AgentSpec(f"m{i}", "qmix") for i in range(n_agents)]
    config = MarketConfig(
        agent_roster=roster, clusters=(1, 2),
        weeks_per_episode=8, episodes=1, seed=seed,
    )
    return config, build_agents(config)


class TestTeamConstruction:
    def test_members_view_the_team_nets_before_any_learn_step(self):
        _, team = _market_team(n_agents=3)
        coord = team[0].learner
        coord.build_training()
        for i, agent in enumerate(team):
            view = coord.views[agent.index]
            assert np.shares_memory(view.flat, coord.nets.flat)
            assert np.shares_memory(coord.target_nets.member(i).flat, coord.target_nets.flat)
            view.biases[-1][0] = float(i)
            assert coord.nets.biases[-1][i, 0] == float(i)
        assert coord.optimizer.t == 0 and coord.optimizer.m == []  # no moments before a step

    def test_team_equals_nets_drawn_from_each_members_generator(self):
        config, team = _market_team(n_agents=3, seed=41)
        coord, hp = team[0].learner, QmixHyper()
        coord.build_training()
        sizes = [state_dim(2), *hp.hidden, 2 * N_PRICE_BINS]
        acts = ["relu"] * len(hp.hidden) + ["linear"]
        for i, agent in enumerate(team):
            rng = derive_rng(config.seed, "agent", agent.agent_id)
            single = DenseNet(sizes, acts, rng)
            assert np.array_equal(coord.nets.member(i).flat, single.flat)
            assert np.array_equal(coord.target_nets.member(i).flat, single.flat)
            # the member explores with what is left
            assert coord.rngs[agent.index].random() == rng.random()

    def test_changes_are_the_bins_smoothed(self):
        config, team = _market_team(n_agents=2)
        coord, cap = team[0].learner, config.max_weekly_change
        prev = [0.04, -0.1]
        for agent in team:
            for episode in (0, 5):
                bins, changes = coord.choose(agent.index, np.ones(state_dim(2)), episode, prev)
                raw = [discretize_action(b, N_PRICE_BINS, cap) for b in bins.tolist()]
                assert changes == smoothed(prev, raw)


class TestQmixTeamInMarket:
    def test_episode_respects_bounds_and_stores_joint(self):
        config, team = _market_team()
        (log,) = simulate(config, team)
        coord = team[0].learner
        assert len(coord.buffer) == 8
        for agent in team:
            for spec in agent.product_specs:
                prev = spec.initial_price
                for price in log.price[:, log.slots[(agent.agent_id, spec.product_id)]].tolist():
                    assert abs(price - prev) / prev <= config.max_weekly_change + 1e-9
                    prev = price

    def test_shared_reward_is_mean(self):
        coord = _coordinator()
        coord.contribute("x0", np.zeros(2), [0], 1.0, np.zeros(2), False)
        assert len(coord.buffer) == 0  # waits for the team
        coord.contribute("x1", np.zeros(2), [0], 3.0, np.zeros(2), False)
        assert coord.buffer.fields[1][0] == 2.0  # the shared reward
