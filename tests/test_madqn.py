import numpy as np
import pytest

from pricebench.market import AgentSpec, MarketConfig, ProductSpec, derive_rng
from pricebench.nn import DenseNet, TrainingError
from pricebench.marl.common import TeamMember, discretize_action, state_dim
from pricebench.marl.madqn import DqnCore, DqnHyper


def _config(member_ids, seed=1):
    return MarketConfig(agent_roster=[AgentSpec(aid, "madqn") for aid in member_ids],
                        clusters=(1,), seed=seed)


def _team_of_one(hyper, state, n_heads, n_bins, seed=1):
    """A MADQN team of one member, "q0", and that member."""
    config = _config(["q0"], seed)
    core = DqnCore(config, hyper, ["q0"], state, n_heads, n_bins)
    specs = [ProductSpec(f"p{h}", 1, 10.0, 6.0, 10.0) for h in range(n_heads)]
    return core, TeamMember("q0", specs, core)


def _core(n_heads=1, n_bins=5, state=3, epsilon=0.0, seed=1, **hyper_kw):
    hyper = DqnHyper(epsilon_start=epsilon, epsilon_decay=1.0, epsilon_floor=epsilon,
                     hidden=(16, 16), warm_up=4, batch_size=8, **hyper_kw)
    return _team_of_one(hyper, state, n_heads, n_bins, seed)


def _q_values(agent, state):
    learner = agent.learner
    return learner.views[agent.index].forward(state).reshape(learner.n_heads, learner.n_bins)


def _bins(agent, state, episode):
    """The bins the member's learner chooses for it, from no previous changes."""
    bins, _ = agent.learner.choose(agent.index, state, episode, [0.0] * agent.learner.n_heads)
    return bins


class TestAct:
    def test_greedy_when_epsilon_zero(self):
        _, agent = _core(epsilon=0.0)
        state = np.ones(3)
        expected = np.argmax(_q_values(agent, state), axis=1)
        for _ in range(10):
            assert np.array_equal(_bins(agent, state, episode=0), expected)

    def test_uniform_when_epsilon_one(self):
        _, agent = _core(epsilon=1.0, n_bins=5)
        state = np.zeros(3)
        draws = np.array([_bins(agent, state, 0)[0] for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=5) / len(draws)
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_equal_q_values_pick_bin_zero(self):
        _, agent = _core(epsilon=0.0)
        view = agent.learner.views[agent.index]
        for w in view.weights:
            w[:] = 0.0
        for b in view.biases:
            b[:] = 0.0
        assert np.array_equal(np.argmax(_q_values(agent, np.ones(3)), axis=1), [0])

    def test_argmax_invariant_under_constant_shift(self):
        _, agent = _core(epsilon=0.0)
        state = derive_rng(2, "s").normal(size=3)
        before = np.argmax(_q_values(agent, state), axis=1)
        agent.learner.views[agent.index].biases[-1] += 7.5  # shifts every Q-value equally
        assert np.array_equal(np.argmax(_q_values(agent, state), axis=1), before)

    def test_changes_are_the_bins_discretized(self):
        core, agent = _core(n_heads=3, n_bins=21, epsilon=0.5)
        prev = [0.1, -0.1, 0.05]  # unsmoothed: the previous changes play no part
        for _ in range(20):
            bins, changes = core.choose(agent.index, np.ones(3), 0, prev)
            cap = core.config.max_weekly_change
            assert changes == [discretize_action(b, 21, cap) for b in bins.tolist()]


def _store(core, state, bins, reward, next_state, done):
    """Push one step of a team of one without learning."""
    core.buffer.push((state,), (next_state,), *core._row((np.asarray(bins),), (reward,), done))


def _fill(core, transitions):
    for t in transitions:
        _store(core, *t)


class TestLearn:
    def test_warm_up_returns_none(self):
        core, _ = _core()
        _store(core, np.zeros(3), [0], 1.0, np.zeros(3), False)
        assert core.learn() is None

    def test_terminal_targets_equal_reward(self):
        # gamma irrelevant when done; loss should regress toward r exactly
        core, agent = _core(n_bins=2, lr=0.05)
        s = np.zeros(3)
        _fill(core, [(s, [i % 2], float(i % 2), s, True) for i in range(16)])
        for _ in range(300):
            core.learn()
        q = _q_values(agent, s)[0]
        assert q[0] == pytest.approx(0.0, abs=0.05)
        assert q[1] == pytest.approx(1.0, abs=0.05)

    def test_gamma_zero_equals_terminal(self):
        core, agent = _core(n_bins=2, gamma=0.0, lr=0.05)
        s = np.zeros(3)
        _fill(core, [(s, [i % 2], float(i % 2), s, False) for i in range(16)])
        for _ in range(300):
            core.learn()
        q = _q_values(agent, s)[0]
        assert q[1] == pytest.approx(1.0, abs=0.05)

    def test_frozen_batch_loss_decreases(self):
        core, _ = _core(n_bins=3, lr=0.01)
        rng = derive_rng(3, "batch")
        transitions = [
            (rng.normal(size=3), [int(rng.integers(3))], float(rng.normal()),
             rng.normal(size=3), True)
            for _ in range(8)
        ]
        _fill(core, transitions)
        losses = [core.learn()[0] for _ in range(1500)]
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]

    def test_target_hard_copy_every_five(self):
        core, _ = _core(target_update_every=5, lr=0.01)
        s = np.ones(3)
        _fill(core, [(s, [0], 1.0, s, True) for _ in range(8)])
        for i in range(4):
            core.learn()
        # four learns: target still the initial clone
        assert not np.allclose(core.nets.weights[0], core.target_nets.weights[0])
        core.learn()
        assert all(
            np.array_equal(w, tw) for w, tw in zip(core.nets.weights, core.target_nets.weights)
        )

    def test_non_finite_loss_names_the_member(self):
        hyper = DqnHyper(hidden=(8,), warm_up=2, batch_size=4)
        ids = ["q0", "q1"]
        core = DqnCore(_config(ids), hyper, ids, 3, 1, 2)
        for _ in range(2):
            core.buffer.push((np.ones(3),) * 2, (np.ones(3),) * 2,
                             *core._row((np.zeros(1, int),) * 2, (0.0, 0.0), False))
        core.build_training()  # the targets stay finite: only the online loss is not
        core.nets.member(1).biases[-1][:] = np.inf
        with pytest.raises(TrainingError, match="member 'q1'"):
            core.learn()


class TestTeamOfIndependentLearners:
    def test_team_of_four_equals_four_teams_of_one(self):
        """Every member of a 4-member team ends bit-equal to its solo twin,
        fed the same steps, after hard copies past warm-up."""
        ids = [f"madqn-{i}" for i in range(4)]
        hyper = DqnHyper()
        n_products = 5
        config = _config(ids, seed=21)
        team = DqnCore(config, hyper, ids, state_dim(n_products), n_products)
        solos = [DqnCore(config, hyper, [aid], state_dim(n_products), n_products) for aid in ids]
        rng = np.random.default_rng(4)
        weeks = hyper.warm_up + 2 * hyper.target_update_every + 2
        for week in range(weeks):
            done = week % 20 == 19
            for aid, solo in zip(ids, solos):
                step = (rng.normal(size=state_dim(n_products)), rng.integers(0, 21, size=n_products),
                        float(rng.normal()), rng.normal(size=state_dim(n_products)))
                team.contribute(aid, *step, done)
                solo.contribute(aid, *step, done)
        assert team.learn_calls == solos[0].learn_calls > hyper.target_update_every
        assert team.learn_calls % hyper.target_update_every  # the target lags the net
        size = solos[0].nets.flat.size
        for i, solo in enumerate(solos):
            own = slice(i * size, (i + 1) * size)
            assert np.array_equal(team.nets.member(i).flat, solo.nets.flat)
            assert np.array_equal(team.target_nets.member(i).flat, solo.target_nets.flat)
            assert np.array_equal(team.optimizer.m[0][own], solo.optimizer.m[0])
            assert np.array_equal(team.optimizer.v[0][own], solo.optimizer.v[0])
            assert team.rngs[i].bit_generator.state == solo.rngs[0].bit_generator.state
        assert not np.array_equal(team.nets.flat, team.target_nets.flat)

    def test_member_nets_draw_like_single_nets(self):
        ids = ["a", "b"]
        core = DqnCore(_config(ids, seed=5), DqnHyper(hidden=(8,)), ids, 4, 2)
        for i, aid in enumerate(ids):
            single = DenseNet([4, 8, 2 * 21], ["relu", "linear"], derive_rng(5, "agent", aid))
            assert np.array_equal(core.nets.member(i).flat, single.flat)


class ToyMdp:
    """Two states, two actions, deterministic; oracle policy from value iteration."""

    def __init__(self):
        # transition[s][a] = (next_state, reward)
        self.dynamics = {
            0: {0: (0, 0.1), 1: (1, 0.0)},
            1: {0: (0, 0.1), 1: (1, 1.0)},
        }

    def optimal_policy(self, gamma=0.95):
        q = np.zeros((2, 2))
        for _ in range(500):
            new = np.zeros_like(q)
            for s in (0, 1):
                for a in (0, 1):
                    s2, r = self.dynamics[s][a]
                    new[s, a] = r + gamma * q[s2].max()
            q = new
        return q.argmax(axis=1), q

    @staticmethod
    def encode(s):
        return np.eye(2)[s]


def run_toy_mdp(seed, steps=4000):
    mdp = ToyMdp()
    hyper = DqnHyper(
        lr=0.003, gamma=0.95, batch_size=32, warm_up=32, hidden=(32, 32),
        epsilon_start=1.0, epsilon_decay=0.9, epsilon_floor=0.05,
    )
    core, agent = _team_of_one(hyper, 2, 1, 2, seed)
    s = 0
    for step in range(steps):
        episode = step // 100  # schedule decays every 100 steps
        a = int(_bins(agent, mdp.encode(s), episode)[0])
        s2, r = mdp.dynamics[s][a]
        core.contribute("q0", mdp.encode(s), [a], r, mdp.encode(s2), False)  # stores, then learns
        s = s2
    greedy = [int(np.argmax(_q_values(agent, mdp.encode(s)), axis=1)[0]) for s in (0, 1)]
    return greedy, mdp.optimal_policy()[0]


class TestToyMdp:
    def test_value_iteration_oracle(self):
        policy, q = ToyMdp().optimal_policy()
        # staying in state 1 forever earns 1/(1-gamma) = 20: dominates the 0.1 loop
        assert list(policy) == [1, 1]
        assert q[1, 1] == pytest.approx(20.0, rel=1e-3)

    def test_converges_to_optimal(self):
        greedy, optimal = run_toy_mdp(seed=11)
        assert greedy == list(optimal)
