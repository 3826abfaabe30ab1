import copy
from dataclasses import replace

import numpy as np
import pytest

from pricebench.harness import simulate
from pricebench.market import (
    AgentSpec, MarketConfig, derive_rng, from_fields, make_default_portfolio,
)
from pricebench.marl.common import ACTION_SMOOTHING, TeamMember, smoothed, state_dim
from pricebench.marl.maddpg import MaddpgCoordinator, MaddpgHyper
from pricebench.nn import Adam, DenseNet, soft_update
from tests.test_nn import _reference_backward, _reference_forward


def _config(n_agents=2, n_products=2, seed=23, weeks=10):
    roster = [AgentSpec(f"d{i}", "maddpg") for i in range(n_agents)]
    clusters = tuple(range(1, n_products + 1))
    config = MarketConfig(
        agent_roster=roster,
        clusters=clusters,
        weeks_per_episode=weeks,
        episodes=1,
        seed=seed,
    )
    return replace(config, demand_params=replace(config.demand_params, noise_sigma=0.0))


def _team(config, **params):
    """The config's MADDPG team under `params`: its members, one coordinator."""
    portfolio = make_default_portfolio(config.clusters, config.seed)
    ids = [s.agent_id for s in config.agent_roster]
    n = len(portfolio)
    coord = MaddpgCoordinator(config, from_fields(MaddpgHyper, params), ids, state_dim(n), n)
    return [TeamMember(aid, portfolio, config, coord) for aid in ids]


def _view(agent, role):
    """Member `agent`'s view of its coordinator's team net of `role` (see ROLES)."""
    return getattr(agent.learner, role + "s").member(agent.index)


def _actor(agent):
    """The view of its actor that the member acts on."""
    return agent.learner.views[agent.index]


def _raw(agent, state, episode=0):
    """The member's change before smoothing: from previous changes of 0, the
    EMA is exactly half of it."""
    _, changes = agent.learner.choose(agent.index, state, episode, [0.0] * len(agent.product_specs))
    return 2.0 * np.array(changes)


class TestActing:
    def test_zero_actor_and_noise_holds_price(self):
        config = _config(n_agents=1)
        (agent,) = _team(config, noise_start=0.0, noise_decay=1.0, noise_floor=0.0)
        for w in _actor(agent).weights:
            w[:] = 0.0
        for b in _actor(agent).biases:
            b[:] = 0.0
        raw = _raw(agent, np.zeros(_actor(agent).layer_sizes[0]))
        assert np.allclose(raw, 0.0)

    def test_noise_clamped_to_weekly_band(self):
        config = _config(n_agents=1)
        (agent,) = _team(config, noise_start=5.0, noise_decay=1.0, noise_floor=5.0)
        state = np.zeros(_actor(agent).layer_sizes[0])
        for _ in range(50):
            raw = _raw(agent, state)
            assert np.all(np.abs(raw) <= config.max_weekly_change + 1e-12)

    def test_smoothing_arithmetic(self):
        # previous +0.10, raw -0.10 -> applied 0.00
        assert ACTION_SMOOTHING * 0.10 + (1 - ACTION_SMOOTHING) * (-0.10) == pytest.approx(0.0)

    def test_changes_are_the_smoothed_noisy_policy_and_the_replay_action(self):
        config = _config(n_agents=2, n_products=2)
        team = _team(config, noise_start=0.3, noise_decay=1.0, noise_floor=0.3)
        coord, cap = team[0].learner, config.max_weekly_change
        state = derive_rng(4, "state").normal(size=state_dim(2))
        prev = [0.08, -0.03]
        for agent in team:
            rng = copy.deepcopy(coord.rngs[agent.index])
            action, changes = coord.choose(agent.index, state, 0, prev)
            noisy = _actor(agent).forward(state) + rng.normal(0.0, 0.3, size=2)
            raw = (np.minimum(np.maximum(noisy, -1.0), 1.0) * cap).tolist()
            assert changes == smoothed(prev, raw)
            assert action.tolist() == changes  # the replay holds the applied changes

    def test_episode_run_respects_bounds(self):
        config = _config(n_agents=2, weeks=15)
        team = _team(config)
        (log,) = simulate(config, team)
        for agent in team:
            for spec in agent.product_specs:
                prev = spec.initial_price
                for price in log.price[:, log.slots[(agent.agent_id, spec.product_id)]].tolist():
                    assert abs(price - prev) / prev <= config.max_weekly_change + 1e-9
                    prev = price


def _fill_buffer(team, reward_fn, n=80, rng=None):
    rng = rng or derive_rng(7, "fill")
    coord = team[0].learner
    d = _actor(team[0]).layer_sizes[0]
    p = _actor(team[0]).layer_sizes[-1]
    for _ in range(n):
        states = [rng.normal(size=d) for _ in team]
        actions = [rng.uniform(-0.1, 0.1, size=p) for _ in team]
        rewards = [reward_fn(s, a) for s, a in zip(states, actions)]
        next_states = [rng.normal(size=d) for _ in team]
        coord.buffer.push(states, next_states, actions, rewards, True)
    return coord


class TestLearning:
    def test_gamma_zero_critic_regresses_rewards(self):
        config = _config(n_agents=1, weeks=64)  # a run as long as the buffer's 64 pushes
        team = _team(config, gamma=0.0, critic_lr=0.003, actor_lr=0.0, warm_up=16)
        assert team[0].learner.learn() is None  # warming up on an empty buffer
        coord = _fill_buffer(team, lambda s, a: float(np.tanh(a.sum())), n=64)
        for _ in range(2000):
            losses = coord.learn()
        assert coord.learn_calls == 2000  # the warm-up call above took no step
        (critic_loss, _), = losses  # one (critic, actor) pair per member
        assert critic_loss < 1e-3

    def test_contraction_of_targets(self):
        # tau=0.001 for 1000 steps shrinks the gap by 0.999^1000 ~ 0.368
        config = _config(n_agents=1)
        team = _team(config)
        team[0].learner.build_training()
        critic, target_critic = _view(team[0], "critic"), _view(team[0], "target_critic")
        target_critic.weights[0][:] = 0.0
        critic.weights[0][:] = 1.0
        for _ in range(1000):
            soft_update(target_critic, critic, 0.001)
        gap = np.abs(critic.weights[0] - target_critic.weights[0]).max()
        assert gap == pytest.approx(0.999**1000, rel=1e-6)

    def test_single_agent_critic_gradient_matches_fd(self):
        config = _config(n_agents=1)
        (agent,) = _team(config)
        agent.learner.build_training()
        critic = _view(agent, "critic")
        rng = derive_rng(8, "fd")
        d = critic.layer_sizes[0]
        x = rng.normal(size=d)
        _, cache = critic.forward_cached(x)
        critic.backward(cache, np.array([1.0]))
        h = 1e-5
        worst = 0.0
        for i in rng.integers(critic.flat.size, size=100):
            orig = critic.flat[i]
            critic.flat[i] = orig + h
            up = critic.forward(x)[0]
            critic.flat[i] = orig - h
            dn = critic.forward(x)[0]
            critic.flat[i] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - critic.grad[i]) / max(abs(fd), abs(critic.grad[i]), 1e-8))
        assert worst < 1e-4

    def test_own_action_gradient_is_its_columns_of_the_input_gradient(self):
        # the actor step's upstream is each member's own action columns of its critic's
        # input gradient, taken at the critics and the replaced batch of that step
        config = _config(n_agents=3, n_products=2, weeks=40)
        team = _team(config, warm_up=16, batch_size=16, critic_lr=0.01)
        coord = _fill_buffer(team, lambda s, a: float(np.tanh(a.sum())), n=40)
        coord.build_training()
        seen = {}
        critic_backward, actor_backward = coord.critics.backward, coord.actors.backward

        def record_critic(cache, upstream, params=True):
            if not params:  # the actor step's pass over the replaced batch
                seen.update(replaced=cache["post"][0].copy(), upstream=upstream.copy(),
                            flat=coord.critics.flat.copy())
            return critic_backward(cache, upstream, params)

        def record_actor(cache, upstream, params=True):
            seen["own"] = upstream.copy()
            return actor_backward(cache, upstream, params)

        coord.critics.backward, coord.actors.backward = record_critic, record_actor
        coord.learn()
        critics = coord.critics.clone()
        critics.flat[:] = seen["flat"]
        _, cache = _reference_forward(critics, seen["replaced"])
        _, dz1, full = _reference_backward(critics, cache, seen["upstream"], params=False)
        n, b, width = seen["own"].shape
        first_action = critics.layer_sizes[0] - n * width
        max_change = config.max_weekly_change
        for i in range(n):
            cols = slice(first_action + i * width, first_action + (i + 1) * width)
            expected = full[i, :, cols] * max_change
            assert np.abs(seen["own"][i] - expected).max() <= 1e-12 * np.abs(expected).max()
            # bit for bit: the reference dz1 times those columns of W1 alone
            own = dz1[i] @ critics.weights[0][i, :, cols]
            assert seen["own"][i].tobytes() == (own * max_change).tobytes()

    def test_actor_update_improves_critic_score(self):
        config = _config(n_agents=1, weeks=64)  # a run as long as the buffer's 64 pushes
        team = _team(config, gamma=0.0, critic_lr=0.0, actor_lr=0.01, warm_up=16,
                     noise_start=0.0, noise_decay=1.0, noise_floor=0.0)
        (agent,) = team
        coord = agent.learner
        rng = derive_rng(9, "actor")
        _fill_buffer(team, lambda s, a: 0.0, n=64, rng=rng)
        coord.build_training()

        states = coord.buffer.states[: len(coord.buffer), 0].copy()

        def mean_q():
            acts = _actor(agent).forward(states) * config.max_weekly_change
            joint = np.concatenate([states, acts], axis=1)
            return float(_view(agent, "critic").forward(joint).mean())

        before = mean_q()
        for _ in range(200):
            coord.learn()
        assert mean_q() > before

    def test_warm_up_defers_learning(self):
        config = _config(n_agents=2)
        team = _team(config, warm_up=500)
        coord = team[0].learner
        _fill_buffer(team, lambda s, a: 0.0, n=10)
        coord.build_training()
        critic = _view(team[0], "critic")
        before = [w.copy() for w in critic.weights]
        assert coord.learn() is None
        assert all(np.array_equal(b, w) for b, w in zip(before, critic.weights))


ROLES = ("actor", "critic", "target_actor", "target_critic")


def _reference_learn(coord, nets, opts, rng):
    """One MADDPG step as a loop over members, each with its own nets and Adams."""
    hp = coord.hyper
    rows = coord.buffer.sample(hp.batch_size, rng)
    b, n = len(rows), len(nets)
    state_ring = coord.buffer.states
    states = [state_ring[rows, i] for i in range(n)]
    next_states = [state_ring[(rows + 1) % len(state_ring), i] for i in range(n)]
    action_ring, reward_ring, done_ring = (f[rows] for f in coord.buffer.fields)
    actions = [action_ring[:, i] for i in range(n)]
    rewards = [reward_ring[:, i] for i in range(n)]
    done = done_ring.astype(float)
    max_change = coord.config.max_weekly_change
    joint_state = np.concatenate(states, axis=1)
    target_actions = [r["target_actor"].forward(s) * max_change for r, s in zip(nets, next_states)]
    critic_next_in = np.concatenate([np.concatenate(next_states, axis=1), *target_actions], axis=1)
    critic_in = np.concatenate([joint_state, *actions], axis=1)
    width = actions[0].shape[1]
    for i, (r, (actor_opt, critic_opt)) in enumerate(zip(nets, opts)):
        q_next = r["target_critic"].forward(critic_next_in)[:, 0]
        y = rewards[i] + hp.gamma * (1.0 - done) * q_next
        q, cache = r["critic"].forward_cached(critic_in)
        r["critic"].backward(cache, (2.0 * (q[:, 0] - y) / b)[:, None])
        critic_opt.step([r["critic"].flat], [r["critic"].grad], hp.critic_lr)
        actor_out, actor_cache = r["actor"].forward_cached(states[i])
        replaced = critic_in.copy()
        lo = joint_state.shape[1] + i * width
        replaced[:, lo : lo + width] = actor_out * max_change
        _, critic_cache = r["critic"].forward_cached(replaced)
        # the gradient of the member's own action columns only, as the team step takes it
        dz1 = r["critic"].backward(critic_cache, np.full((b, 1), -1.0 / b), params=False)
        own_grad = dz1 @ r["critic"].weights[0][:, lo : lo + width]
        r["actor"].backward(actor_cache, own_grad * max_change)
        actor_opt.step([r["actor"].flat], [r["actor"].grad], hp.actor_lr)
        soft_update(r["target_actor"], r["actor"], hp.tau)
        soft_update(r["target_critic"], r["critic"], hp.tau)


class TestTeamStep:
    def test_team_step_equals_per_member_reference(self):
        config = _config(n_agents=3, weeks=40)  # a run as long as the buffer's 40 pushes
        team = _team(config, warm_up=16, batch_size=16, actor_lr=0.01, critic_lr=0.01, tau=0.1)
        coord = _fill_buffer(team, lambda s, a: float(np.tanh(a.sum())), n=40)
        coord.build_training()
        nets = [{role: _view(m, role).clone() for role in ROLES} for m in team]
        opts = [(Adam([r["actor"].flat]), Adam([r["critic"].flat])) for r in nets]
        rng = copy.deepcopy(coord.rng)
        for _ in range(3):
            coord.learn()
            _reference_learn(coord, nets, opts, rng)
        for member, r in zip(team, nets):
            for role in ROLES:
                assert np.array_equal(_view(member, role).flat, r[role].flat), role
        assert not np.array_equal(_actor(team[0]).flat, _view(team[0], "target_actor").flat)


class TestTeamConstruction:
    def test_members_view_the_team_nets_before_any_learn_step(self):
        team = _team(_config(n_agents=3))
        coord = team[0].learner
        coord.build_training()
        for i, agent in enumerate(team):
            assert np.shares_memory(_actor(agent).flat, coord.actors.flat)
            for role in ROLES:
                assert np.shares_memory(_view(agent, role).flat, getattr(coord, role + "s").flat)
            _actor(agent).biases[-1][0] = float(i)
            assert coord.actors.biases[-1][i, 0] == float(i)
        assert coord.actor_opt.m == [] and coord.critic_opt.m == []  # no moments before a step

    def test_team_equals_nets_drawn_from_each_members_generator(self):
        config = _config(n_agents=3, n_products=2)
        team = _team(config)
        coord, hp, local = team[0].learner, MaddpgHyper(), state_dim(2)
        coord.build_training()
        for i, agent in enumerate(team):
            # each member draws its actor, then its critic, from its own generator
            rng = derive_rng(config.seed, "agent", agent.agent_id)
            actor = DenseNet([local, *hp.actor_hidden, 2], ["relu", "relu", "tanh"], rng)
            actor.scale_output_layer(0.01)
            critic = DenseNet([3 * (local + 2), *hp.critic_hidden, 1], ["relu", "relu", "linear"], rng)
            for role, single in (("actor", actor), ("critic", critic)):
                assert np.array_equal(getattr(coord, role + "s").member(i).flat, single.flat)
                assert np.array_equal(getattr(coord, "target_" + role + "s").member(i).flat, single.flat)
            # the member explores with what is left
            assert coord.rngs[agent.index].random() == rng.random()


    def test_deferred_critics_equal_an_eager_draw(self):
        config = _config(n_agents=3, n_products=2)
        team = _team(config, noise_start=0.3, noise_decay=1.0, noise_floor=0.3)
        coord, hp, local = team[0].learner, MaddpgHyper(), state_dim(2)
        rngs = [derive_rng(config.seed, "agent", agent.agent_id) for agent in team]
        for rng in rngs:  # the actor's draw, as the coordinator made it
            DenseNet([local, *hp.actor_hidden, 2], ["relu", "relu", "tanh"], rng)
        eager = DenseNet([3 * (local + 2), *hp.critic_hidden, 1], ["relu", "relu", "linear"], rngs)
        # past the critic draw, one 64-bit word per double: exploration reads the eager stream
        for agent, rng in zip(team, rngs):
            assert coord.rngs[agent.index].normal(size=8).tobytes() == rng.normal(size=8).tobytes()
        for agent in team:  # acting before the first learn step leaves the critic draw alone
            coord.choose(agent.index, np.zeros(local), 0, [0.0, 0.0])
        assert coord.critics is None
        coord.build_training()
        assert coord.critics.flat.tobytes() == eager.flat.tobytes()
        assert coord.target_critics.flat.tobytes() == eager.flat.tobytes()


class TestJointAlignment:
    def test_team_stores_one_joint_transition_per_step(self):
        config = _config(n_agents=2, weeks=6)
        team = _team(config)
        list(simulate(config, team))
        coord = team[0].learner
        assert len(coord.buffer) == 6
        d, p = _actor(team[0]).layer_sizes[0], _actor(team[0]).layer_sizes[-1]
        rows = np.arange(2)
        coord.build_training()  # the critic input's width is the critics'
        states, next_states, actions, rewards, done = coord.buffer.gather(rows, coord._work)
        critic_in = coord._batch(rows)[1]
        assert critic_in.shape == (2, 2 * (d + p))  # both members' states, then both actions
        assert states.shape == next_states.shape == (2, 2, d) and actions.shape == (2, 2, p)
        assert np.array_equal(next_states[0], states[1])  # a week's next state is stored once
        assert rewards.shape == (2, 2)
