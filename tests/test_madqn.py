import numpy as np
import pytest

from pricebench.market import derive_rng
from pricebench.nn import ExplorationSchedule
from pricebench.marl.madqn import DqnCore, DqnHyper


def _core(n_heads=1, n_bins=5, state=3, epsilon=0.0, seed=1, **hyper_kw):
    schedule = ExplorationSchedule(epsilon, 1.0, epsilon)
    hyper = DqnHyper(schedule=schedule, hidden=(16, 16), warm_up=4, batch_size=8, **hyper_kw)
    return DqnCore(state, n_heads, n_bins, hyper, derive_rng(seed, "dqn"))


class TestAct:
    def test_greedy_when_epsilon_zero(self):
        core = _core(epsilon=0.0)
        state = np.ones(3)
        expected = np.argmax(core.q_values(state), axis=1)
        for _ in range(10):
            assert np.array_equal(core.act(state, episode=0), expected)

    def test_uniform_when_epsilon_one(self):
        core = _core(epsilon=1.0, n_bins=5)
        state = np.zeros(3)
        draws = np.array([core.act(state, 0)[0] for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=5) / len(draws)
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_equal_q_values_pick_bin_zero(self):
        core = _core(epsilon=0.0)
        for w in core.net.weights:
            w[:] = 0.0
        for b in core.net.biases:
            b[:] = 0.0
        assert np.array_equal(np.argmax(core.q_values(np.ones(3)), axis=1), [0])

    def test_argmax_invariant_under_constant_shift(self):
        core = _core(epsilon=0.0)
        state = derive_rng(2, "s").normal(size=3)
        before = np.argmax(core.q_values(state), axis=1)
        core.net.biases[-1] += 7.5  # shifts every Q-value equally
        assert np.array_equal(np.argmax(core.q_values(state), axis=1), before)


def _fill(core, transitions):
    for t in transitions:
        core.store(*t)


class TestLearn:
    def test_warm_up_returns_none(self):
        core = _core()
        core.store(np.zeros(3), [0], 1.0, np.zeros(3), False)
        assert core.learn() is None

    def test_terminal_targets_equal_reward(self):
        # gamma irrelevant when done; loss should regress toward r exactly
        core = _core(n_bins=2, lr=0.05)
        s = np.zeros(3)
        _fill(core, [(s, [i % 2], float(i % 2), s, True) for i in range(16)])
        for _ in range(300):
            loss = core.learn()
        q = core.q_values(s)[0]
        assert q[0] == pytest.approx(0.0, abs=0.05)
        assert q[1] == pytest.approx(1.0, abs=0.05)

    def test_gamma_zero_equals_terminal(self):
        core = _core(n_bins=2, gamma=0.0, lr=0.05)
        s = np.zeros(3)
        _fill(core, [(s, [i % 2], float(i % 2), s, False) for i in range(16)])
        for _ in range(300):
            core.learn()
        q = core.q_values(s)[0]
        assert q[1] == pytest.approx(1.0, abs=0.05)

    def test_frozen_batch_loss_decreases(self):
        core = _core(n_bins=3, lr=0.01)
        rng = derive_rng(3, "batch")
        transitions = [
            (rng.normal(size=3), [int(rng.integers(3))], float(rng.normal()),
             rng.normal(size=3), True)
            for _ in range(8)
        ]
        _fill(core, transitions)
        losses = [core.learn() for _ in range(1500)]
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]

    def test_target_hard_copy_every_five(self):
        core = _core(target_update_every=5, lr=0.01)
        s = np.ones(3)
        _fill(core, [(s, [0], 1.0, s, True) for _ in range(8)])
        for i in range(4):
            core.learn()
        # four learns: target still the initial clone
        assert not np.allclose(core.net.weights[0], core.target.weights[0])
        core.learn()
        assert all(
            np.array_equal(w, tw) for w, tw in zip(core.net.weights, core.target.weights)
        )


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
    schedule = ExplorationSchedule(1.0, 0.9, 0.05)
    hyper = DqnHyper(
        lr=0.003, gamma=0.95, batch_size=32, warm_up=32, hidden=(32, 32), schedule=schedule
    )
    core = DqnCore(2, 1, 2, hyper, derive_rng(seed, "toy"))
    s = 0
    for step in range(steps):
        episode = step // 100  # schedule decays every 100 steps
        a = int(core.act(mdp.encode(s), episode)[0])
        s2, r = mdp.dynamics[s][a]
        core.store(mdp.encode(s), [a], r, mdp.encode(s2), False)
        core.learn()
        s = s2
    greedy = [int(np.argmax(core.q_values(mdp.encode(s)), axis=1)[0]) for s in (0, 1)]
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
