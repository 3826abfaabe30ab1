import copy

import numpy as np
import pytest

from pricebench.demand import ParametricDemandModel
from pricebench.environment import run_episode
from pricebench.market import AgentSpec, ConfigError, MarketConfig, derive_rng, make_default_portfolio
from pricebench.marl.common import ACTION_SMOOTHING, parse_hyper
from pricebench.marl.maddpg import MaddpgHyper, build_team
from pricebench.nn import Adam, soft_update


def _config(n_agents=2, n_products=2, seed=23, weeks=10):
    roster = [AgentSpec(f"d{i}", "maddpg") for i in range(n_agents)]
    clusters = tuple(range(1, n_products + 1))
    config = MarketConfig(
        agent_roster=roster,
        clusters=clusters,
        weeks_per_episode=weeks,
        episodes=1,
        seed=seed,
    ).validate()
    from dataclasses import replace

    config.demand_params = replace(config.demand_params, noise_sigma=0.0)
    return config


def _team(config, **params):
    portfolio = make_default_portfolio(config.clusters, config.seed)
    ids = [s.agent_id for s in config.agent_roster]
    return build_team(ids, portfolio, config, parse_hyper(MaddpgHyper, params, "noise"))


class TestActing:
    def test_zero_actor_and_noise_holds_price(self):
        config = _config(n_agents=1)
        (agent,) = _team(config, noise_start=0.0, noise_decay=1.0, noise_floor=0.0)
        for w in agent.actor.weights:
            w[:] = 0.0
        for b in agent.actor.biases:
            b[:] = 0.0
        raw = agent.act_raw(np.zeros(agent.actor.layer_sizes[0]), episode=0)
        assert np.allclose(raw, 0.0)

    def test_noise_clamped_to_weekly_band(self):
        config = _config(n_agents=1)
        (agent,) = _team(config, noise_start=5.0, noise_decay=1.0, noise_floor=5.0)
        state = np.zeros(agent.actor.layer_sizes[0])
        for _ in range(50):
            raw = agent.act_raw(state, episode=0)
            assert np.all(np.abs(raw) <= config.max_weekly_change + 1e-12)

    def test_smoothing_arithmetic(self):
        # previous +0.10, raw -0.10 -> applied 0.00
        assert ACTION_SMOOTHING * 0.10 + (1 - ACTION_SMOOTHING) * (-0.10) == pytest.approx(0.0)

    def test_episode_run_respects_bounds(self):
        config = _config(n_agents=2, weeks=15)
        team = _team(config)
        model = ParametricDemandModel(config.demand_params)
        run_episode(config, team, model)
        for agent in team:
            for product in agent.portfolio.values():
                prev = product.spec.initial_price
                for price in product.price_history:
                    assert abs(price - prev) / prev <= config.max_weekly_change + 1e-9
                    prev = price


def _fill_buffer(team, reward_fn, n=80, rng=None):
    rng = rng or derive_rng(7, "fill")
    coord = team[0].coordinator
    d = team[0].actor.layer_sizes[0]
    p = team[0].actor.layer_sizes[-1]
    for _ in range(n):
        states = [rng.normal(size=d) for _ in team]
        actions = [rng.uniform(-0.1, 0.1, size=p) for _ in team]
        rewards = [reward_fn(s, a) for s, a in zip(states, actions)]
        next_states = [rng.normal(size=d) for _ in team]
        coord.buffer.push(
            np.concatenate(states + actions), np.concatenate(next_states), rewards, True
        )
    return coord


class TestLearning:
    def test_gamma_zero_critic_regresses_rewards(self):
        config = _config(n_agents=1)
        team = _team(config, gamma=0.0, critic_lr=0.003, actor_lr=0.0, warm_up=16)
        coord = _fill_buffer(team, lambda s, a: float(np.tanh(a.sum())), n=64)
        for _ in range(2000):
            coord.learn()
        assert coord.last_losses[0][0] < 1e-3

    def test_contraction_of_targets(self):
        # tau=0.001 for 1000 steps shrinks the gap by 0.999^1000 ~ 0.368
        config = _config(n_agents=1)
        team = _team(config)
        agent = team[0]
        agent.target_critic.weights[0][:] = 0.0
        agent.critic.weights[0][:] = 1.0
        for _ in range(1000):
            soft_update(agent.target_critic, agent.critic, 0.001)
        gap = np.abs(agent.critic.weights[0] - agent.target_critic.weights[0]).max()
        assert gap == pytest.approx(0.999**1000, rel=1e-6)

    def test_single_agent_critic_gradient_matches_fd(self):
        config = _config(n_agents=1)
        (agent,) = _team(config)
        rng = derive_rng(8, "fd")
        d = agent.critic.layer_sizes[0]
        x = rng.normal(size=d)
        _, cache = agent.critic.forward_cached(x)
        grads, input_grad = agent.critic.backward(cache, np.array([1.0]))
        h = 1e-5
        worst = 0.0
        params = agent.critic.params()
        for _ in range(100):
            pi = rng.integers(len(params))
            flat_p, flat_g = params[pi].ravel(), grads[pi].ravel()
            i = rng.integers(flat_p.size)
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = agent.critic.forward(x)[0]
            flat_p[i] = orig - h
            dn = agent.critic.forward(x)[0]
            flat_p[i] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8))
        assert worst < 1e-4

    def test_actor_update_improves_critic_score(self):
        config = _config(n_agents=1)
        team = _team(config, gamma=0.0, critic_lr=0.0, actor_lr=0.01, warm_up=16,
                     noise_start=0.0, noise_decay=1.0, noise_floor=0.0)
        (agent,) = team
        coord = agent.coordinator
        rng = derive_rng(9, "actor")
        _fill_buffer(team, lambda s, a: 0.0, n=64, rng=rng)

        d = agent.actor.layer_sizes[0]
        states = coord.buffer.fields[0][: len(coord.buffer), :d].copy()

        def mean_q():
            acts = agent.actor.forward(states) * config.max_weekly_change
            joint = np.concatenate([states, acts], axis=1)
            return float(agent.critic.forward(joint).mean())

        before = mean_q()
        for _ in range(200):
            coord.learn()
        assert mean_q() > before

    def test_warm_up_defers_learning(self):
        config = _config(n_agents=2)
        team = _team(config, warm_up=500)
        coord = team[0].coordinator
        _fill_buffer(team, lambda s, a: 0.0, n=10)
        before = [w.copy() for w in team[0].critic.weights]
        coord.learn()
        assert all(np.array_equal(b, w) for b, w in zip(before, team[0].critic.weights))


ROLES = ("actor", "critic", "target_actor", "target_critic")


def _reference_learn(coord, nets, opts, rng):
    """One MADDPG step as a loop over members, each with its own nets and Adams."""
    hp = coord.hyper
    rows = coord.buffer.sample(hp.batch_size, rng)
    b, n = len(rows), len(nets)
    d, p = nets[0]["actor"].layer_sizes[0], nets[0]["actor"].layer_sizes[-1]
    critic_ring, next_ring, reward_ring, done_ring = (f[rows] for f in coord.buffer.fields)
    states = [critic_ring[:, i * d : (i + 1) * d] for i in range(n)]
    actions = [critic_ring[:, n * d + i * p : n * d + (i + 1) * p] for i in range(n)]
    next_states = [next_ring[:, i * d : (i + 1) * d] for i in range(n)]
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
        grads, _ = r["critic"].backward(cache, (2.0 * (q[:, 0] - y) / b)[:, None])
        critic_opt.step(r["critic"].params(), grads, hp.critic_lr)
        actor_out, actor_cache = r["actor"].forward_cached(states[i])
        replaced = critic_in.copy()
        lo = joint_state.shape[1] + i * width
        replaced[:, lo : lo + width] = actor_out * max_change
        _, critic_cache = r["critic"].forward_cached(replaced)
        _, input_grad = r["critic"].backward(critic_cache, np.full((b, 1), -1.0 / b))
        actor_grads, _ = r["actor"].backward(actor_cache, input_grad[:, lo : lo + width] * max_change)
        actor_opt.step(r["actor"].params(), actor_grads, hp.actor_lr)
        soft_update(r["target_actor"], r["actor"], hp.tau)
        soft_update(r["target_critic"], r["critic"], hp.tau)


class TestTeamStep:
    def test_team_step_equals_per_member_reference(self):
        config = _config(n_agents=3)
        team = _team(config, warm_up=16, batch_size=16, actor_lr=0.01, critic_lr=0.01, tau=0.1)
        coord = _fill_buffer(team, lambda s, a: float(np.tanh(a.sum())), n=40)
        nets = [{role: getattr(m, role).clone() for role in ROLES} for m in team]
        opts = [(Adam(r["actor"].params()), Adam(r["critic"].params())) for r in nets]
        rng = copy.deepcopy(coord.rng)
        for _ in range(3):
            coord.learn()
            _reference_learn(coord, nets, opts, rng)
        for member, r in zip(team, nets):
            for role in ROLES:
                assert np.array_equal(getattr(member, role).flat, r[role].flat), role
        assert not np.array_equal(team[0].actor.flat, team[0].target_actor.flat)

    def test_no_member_joins_after_training_starts(self):
        config = _config(n_agents=2)
        team = _team(config, warm_up=16, batch_size=16)
        coord = _fill_buffer(team, lambda s, a: 0.0, n=16)
        coord.learn()
        with pytest.raises(ConfigError):
            coord.register(team[0])


class TestJointAlignment:
    def test_team_stores_one_joint_transition_per_step(self):
        config = _config(n_agents=2, weeks=6)
        team = _team(config)
        model = ParametricDemandModel(config.demand_params)
        run_episode(config, team, model)
        coord = team[0].coordinator
        assert len(coord.buffer) == 6
        d, p = team[0].actor.layer_sizes[0], team[0].actor.layer_sizes[-1]
        critic_in, next_states, rewards, done = (f[0] for f in coord.buffer.fields)
        assert critic_in.shape == (2 * (d + p),)  # both members' states, then both actions
        assert next_states.shape == (2 * d,)
        assert rewards.shape == (2,)
