"""Value factorization: per-agent Q-networks joined by a monotonic mixer.

Each member keeps a local Q-network (same discrete bins as the independent
Q-learner) while a coordinator trains all member nets plus a mixing network
on one shared reward (the mean of the members' shaped rewards). The mixer's
layer weights come from state-conditioned hypernetworks and pass through an
absolute value, so Q_tot is monotone in every member utility and the greedy
joint action decomposes into per-member argmaxes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..market import MarketConfig, MarketObservation, derive_rng, left_sum
from ..nn import Adam, DenseNet, ShapeError, Workspace, hard_update
from .common import N_PRICE_BINS, QTeamLearner, encode_state
from .madqn import DqnHyper


@dataclass(frozen=True)
class QmixHyper(DqnHyper):
    mixing_dim: int = 32

    COUNTS = (*DqnHyper.COUNTS, "mixing_dim")


class MonotonicMixer:
    """Two-layer mixer with |hypernetwork| weights: Q_tot monotone in each q_i.

    Its `hypernets` are single-layer linear `DenseNet`s of the global state,
    drawn from the mixer's generator in this order: the first mixing layer's
    weights (agents x mixing) and biases (mixing), the second layer's weights
    (mixing) and its bias (one). Each keeps its own parameters, gradient and
    buffers; the mixer keeps the buffers of the monotone mixing between them.
    """

    def __init__(self, n_agents: int, state_size: int, mixing_dim: int, rng: np.random.Generator):
        self.n_agents = n_agents
        self.mixing_dim = mixing_dim
        self.hypernets = [
            DenseNet([state_size, rows], ["linear"], rng)
            for rows in (n_agents * mixing_dim, mixing_dim, mixing_dim, 1)
        ]
        self._work = Workspace()

    def clone(self) -> "MonotonicMixer":
        """A target mixer: a copy of the hypernetworks' parameters that shares
        the mixer's buffers and theirs, as a target `DenseNet` does."""
        twin = copy.copy(self)
        twin.hypernets = [net.clone() for net in self.hypernets]
        return twin

    def forward_cached(self, qs: np.ndarray, states: np.ndarray):
        """Q_tot for each row of `qs` (B, agents) and `states` (B, state).

        Q_tot and the cache are views of the mixer's and its hypernetworks'
        buffers for this batch size, valid until its next forward_cached at
        that size.
        """
        qs = np.atleast_2d(np.asarray(qs, dtype=float))
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if qs.shape[1] != self.n_agents:
            raise ShapeError(f"expected {self.n_agents} agent utilities, got {qs.shape[1]}")
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim
        work = self._work
        (u1, b1, u2, b2), hyper_caches = zip(*(net.forward_cached(states) for net in self.hypernets))
        w1 = np.abs(u1, out=work.get("w1", (b, n * m))).reshape(b, n, m)
        h_pre = np.einsum("bn,bnm->bm", qs, w1, out=work.get("h_pre", (b, m)))
        h_pre += b1
        # elu: h_pre where positive, else exp(min(h_pre, 0)) - 1
        h = np.minimum(h_pre, 0.0, out=work.get("h", (b, m)))
        np.exp(h, out=h)
        h -= 1.0
        np.copyto(h, h_pre, where=np.greater(h_pre, 0, out=work.get("h_pre>0", (b, m), bool)))
        w2 = np.abs(u2, out=work.get("w2", (b, m)))
        hw2 = np.multiply(h, w2, out=work.get("hw2", (b, m)))
        q_tot = np.sum(hw2, axis=1, out=work.get("q_tot", (b,)))
        q_tot += b2[:, 0]
        cache = {"qs": qs, "hypernets": hyper_caches, "u1": u1, "w1": w1, "h_pre": h_pre,
                 "h": h, "u2": u2, "w2": w2}
        return q_tot, cache

    def forward(self, qs: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Q_tot as an array the caller owns."""
        return self.forward_cached(qs, states)[0].copy()

    def backward(self, cache, upstream: np.ndarray) -> np.ndarray:
        """Gradients of sum(upstream * Q_tot) w.r.t. params and agent utilities.

        The parameter gradients go to the hypernetworks' `grad`, which their
        next backward overwrites. Returns the utilities' gradient (B, agents),
        a view of the mixer's buffers, valid until its next backward at this
        batch size.
        """
        g = np.asarray(upstream, dtype=float)
        qs = cache["qs"]
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim
        work = self._work
        w1_net, b1_net, w2_net, b2_net = self.hypernets
        w1_cache, b1_cache, w2_cache, b2_cache = cache["hypernets"]

        b2_net.backward(b2_cache, g[:, None])

        d_u2 = np.multiply(g[:, None], cache["h"], out=work.get("d_u2", (b, m)))  # d_w2
        d_u2 *= np.sign(cache["u2"], out=work.get("sign_u2", (b, m)))
        w2_net.backward(w2_cache, d_u2)

        # d_h times elu's derivative: 1 where h_pre > 0, else exp(min(h_pre, 0))
        h_pre = cache["h_pre"]
        elu_grad = np.minimum(h_pre, 0.0, out=work.get("elu'", (b, m)))
        np.exp(elu_grad, out=elu_grad)
        np.copyto(elu_grad, 1.0, where=np.greater(h_pre, 0, out=work.get("h_pre>0", (b, m), bool)))
        d_h_pre = np.multiply(g[:, None], cache["w2"], out=work.get("d_h_pre", (b, m)))  # d_h
        d_h_pre *= elu_grad
        b1_net.backward(b1_cache, d_h_pre)

        # d_w1 = qs[:, :, None] * d_h_pre[:, None, :], from full-shape copies: a broadcast
        # ufunc operand costs a temporary buffer per call, a broadcast copyto does not
        qs_rep = work.get("qs_rep", (b, n, m))
        np.copyto(qs_rep, qs[:, :, None])
        d_w1 = work.get("d_w1", (b, n, m))
        np.copyto(d_w1, d_h_pre[:, None, :])
        np.multiply(qs_rep, d_w1, out=d_w1)
        d_w1 *= np.sign(cache["u1"], out=work.get("sign_u1", (b, n * m))).reshape(b, n, m)
        w1_net.backward(w1_cache, d_w1.reshape(b, n * m))

        return np.einsum("bm,bnm->bn", d_h_pre, cache["w1"], out=work.get("d_qs", (b, n)))


class QmixCoordinator(QTeamLearner):
    """Joint trainer for the member Q-networks and the mixing network.

    Each member acts on its view of the team net (`DenseNet.member`),
    EMA-smoothing its bins' changes. The team's targets, the mixer and its
    target, and a single Adam over the team and the mixer are built at the
    first learn step (`build_training`); the mixer draws from the team
    generator `rng`, which nothing reads before that step's replay sample.
    The team and the mixer train in one batched pass.
    """

    smooths = True

    def __init__(
        self, config: MarketConfig, hyper: QmixHyper, member_ids: list[str], local_state_size: int,
        n_heads: int, n_bins: int = N_PRICE_BINS,
    ):
        super().__init__(config, hyper, member_ids, local_state_size, n_heads, n_bins)
        self.rng = derive_rng(config.seed, "team", "qmix")
        self.mixer = self.target_mixer = self.optimizer = None

    def build_training(self) -> None:
        """Build the team's targets, the mixer from `rng`, its target and the joint Adam."""
        super().build_training()
        n, state_size = len(self.member_ids), self.nets.layer_sizes[0]
        self.mixer = MonotonicMixer(n, n * state_size, self.hyper.mixing_dim, self.rng)
        self.target_mixer = self.mixer.clone()
        self.optimizer = Adam([net.flat for net in self._trained()])

    def encode(self, agent, observation: MarketObservation) -> np.ndarray:
        return encode_state(agent, observation)

    def _row(self, actions, rewards, done) -> tuple:
        return actions, left_sum(rewards) / len(rewards), done

    def learn(self) -> float | None:
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, 1):
            return None
        if self.target_nets is None:
            self.build_training()
        rows = self.buffer.sample(hp.batch_size, self.rng)
        # (B, members, local state), (B, members, local state), (B, members, heads), (B,), (B,)
        states, next_states, actions, rewards, done = self.buffer.gather(rows, self._work)
        b, n = len(rows), len(self.member_ids)
        y = self._td_target(next_states, rewards, done)

        # online utilities at the taken actions
        chosen, cache, taken = self._taken_q(states.transpose(1, 0, 2), actions.transpose(1, 0, 2))
        per_member = self._work.get("per_member", (n, b))
        qs = self._by_row(np.mean(chosen, axis=2, out=per_member), "qs")
        q_tot, mix_cache = self.mixer.forward_cached(qs, states.reshape(b, -1))

        err = q_tot - y
        loss = float(np.mean(err**2))
        upstream = 2.0 * err / b
        d_qs = self.mixer.backward(mix_cache, upstream)

        share = np.divide(d_qs.T, self.n_heads, out=per_member)
        self._backward_taken(cache, taken, share[:, :, None])
        trained = self._trained()
        self.optimizer.step([net.flat for net in trained], [net.grad for net in trained], hp.lr)

        self.learn_calls += 1
        if self.learn_calls % hp.target_update_every == 0:
            for target, net in zip([self.target_nets, *self.target_mixer.hypernets], trained):
                hard_update(target, net)
        return loss

    def _td_target(self, next_states, rewards, done) -> np.ndarray:
        """The TD target (B,) of a batch: the shared reward plus the discounted
        target mixer over each member's greedy target utility at its (B,
        members, local state) next states."""
        b, n = len(done), len(self.member_ids)
        best = self._greedy_targets(next_states.transpose(1, 0, 2))
        per_member = np.mean(best, axis=2, out=self._work.get("per_member", (n, b)))
        target_qs = self._by_row(per_member, "target_qs")
        q_tot_next = self.target_mixer.forward(target_qs, next_states.reshape(b, -1))
        return rewards + self.hyper.gamma * (1.0 - done) * q_tot_next

    def _trained(self) -> list[DenseNet]:
        """The nets the optimizer trains: the team net, then the mixer's hypernetworks."""
        return [self.nets, *self.mixer.hypernets]

    def _by_row(self, per_member: np.ndarray, name: str) -> np.ndarray:
        """A kept (B, members) copy of a (members, B) array."""
        rows = self._work.get(name, per_member.shape[::-1])
        np.copyto(rows, per_member.T)
        return rows
