"""Value factorization: per-agent Q-networks joined by a monotonic mixer.

Each member keeps a local Q-network (same discrete bins as the independent
Q-learner) while a coordinator trains all member nets plus a mixing network
on one shared reward (the mean of the members' shaped rewards). The mixer's
layer weights come from state-conditioned hypernetworks and pass through an
absolute value, so Q_tot is monotone in every member utility and the greedy
joint action decomposes into per-member argmaxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..market import MarketConfig, MarketObservation, ProductSpec, derive_rng, left_sum
from ..nn import Adam, ShapeError, Workspace, hard_update
from .common import N_PRICE_BINS, QTeamLearner, QTeamMember, encode_state, state_dim
from .madqn import DqnHyper


@dataclass(frozen=True)
class QmixHyper(DqnHyper):
    mixing_dim: int = 32


MIXER_PARAMS = (
    "w1_hyper", "w1_bias", "b1_hyper", "b1_bias", "w2_hyper", "w2_bias", "b2_hyper", "b2_bias",
)


class MonotonicMixer:
    """Two-layer mixer with |hypernetwork| weights: Q_tot monotone in each q_i.

    Its eight parameter arrays are views of one contiguous `flat` vector, in
    MIXER_PARAMS order, and its gradients views of one `grad` vector.
    """

    def __init__(self, n_agents: int, state_size: int, mixing_dim: int, rng: np.random.Generator):
        self.n_agents = n_agents
        self.state_size = state_size
        self.mixing_dim = mixing_dim
        bound = 1.0 / np.sqrt(state_size)

        def lin(rows):
            return rng.uniform(-bound, bound, size=(rows, state_size)), rng.uniform(
                -bound, bound, size=rows
            )

        arrays = [a for rows in self._hyper_rows() for a in lin(rows)]
        self._bind(np.concatenate([a.ravel() for a in arrays]))

    def _hyper_rows(self) -> tuple[int, ...]:
        return (self.n_agents * self.mixing_dim, self.mixing_dim, self.mixing_dim, 1)

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.grad: np.ndarray | None = None  # allocated by the first backward
        self._work = Workspace()
        for name, view in zip(MIXER_PARAMS, self._views(flat)):
            setattr(self, name, view)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of `flat` shaped like the parameters, in MIXER_PARAMS order."""
        views, offset = [], 0
        for rows in self._hyper_rows():
            views.append(flat[offset : offset + rows * self.state_size].reshape(rows, self.state_size))
            offset += rows * self.state_size
            views.append(flat[offset : offset + rows])
            offset += rows
        return views

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in MIXER_PARAMS]

    def clone(self) -> "MonotonicMixer":
        twin = MonotonicMixer.__new__(MonotonicMixer)
        twin.n_agents = self.n_agents
        twin.state_size = self.state_size
        twin.mixing_dim = self.mixing_dim
        twin._bind(self.flat.copy())
        return twin

    def copy_from(self, other: "MonotonicMixer") -> None:
        self.flat[...] = other.flat

    def forward_cached(self, qs: np.ndarray, states: np.ndarray):
        """Q_tot for each row of `qs` (B, agents) and `states` (B, state).

        Q_tot and the cache are views of the mixer's buffers for this batch
        size, valid until its next forward_cached at that size.
        """
        qs = np.atleast_2d(np.asarray(qs, dtype=float))
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if qs.shape[1] != self.n_agents:
            raise ShapeError(f"expected {self.n_agents} agent utilities, got {qs.shape[1]}")
        if states.shape[1] != self.state_size:
            raise ShapeError(f"expected state dim {self.state_size}, got {states.shape[1]}")
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim
        work = self._work

        def hyper(name, weights, bias, rows):
            out = np.matmul(states, weights.T, out=work.get(name, (b, rows)))
            out += bias
            return out

        u1 = hyper("u1", self.w1_hyper, self.w1_bias, n * m)
        w1 = np.abs(u1, out=work.get("w1", (b, n * m))).reshape(b, n, m)
        b1 = hyper("b1", self.b1_hyper, self.b1_bias, m)
        h_pre = np.einsum("bn,bnm->bm", qs, w1, out=work.get("h_pre", (b, m)))
        h_pre += b1
        # elu: h_pre where positive, else exp(min(h_pre, 0)) - 1
        h = np.minimum(h_pre, 0.0, out=work.get("h", (b, m)))
        np.exp(h, out=h)
        h -= 1.0
        np.copyto(h, h_pre, where=np.greater(h_pre, 0, out=work.get("h_pre>0", (b, m), bool)))
        u2 = hyper("u2", self.w2_hyper, self.w2_bias, m)
        w2 = np.abs(u2, out=work.get("w2", (b, m)))
        b2 = hyper("b2", self.b2_hyper, self.b2_bias, 1)
        hw2 = np.multiply(h, w2, out=work.get("hw2", (b, m)))
        q_tot = np.sum(hw2, axis=1, out=work.get("q_tot", (b,)))
        q_tot += b2[:, 0]
        cache = {"qs": qs, "states": states, "u1": u1, "w1": w1, "h_pre": h_pre,
                 "h": h, "u2": u2, "w2": w2}
        return q_tot, cache

    def forward(self, qs: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Q_tot as an array the caller owns."""
        return self.forward_cached(qs, states)[0].copy()

    def backward(self, cache, upstream: np.ndarray):
        """Gradients of sum(upstream * Q_tot) w.r.t. params and agent utilities.

        The parameter gradients are views of `self.grad`, in params() order;
        the next backward overwrites them. The utilities' gradient is a view
        of the mixer's buffers, valid until its next backward at this batch size.
        """
        g = np.asarray(upstream, dtype=float)
        qs, states = cache["qs"], cache["states"]
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim
        work = self._work
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
            self._grads = self._views(self.grad)
        d_w1_hyper, d_w1_bias, d_b1_hyper, d_b1_bias, d_w2_hyper, d_w2_bias, d_b2_hyper, d_b2_bias = (
            self._grads
        )

        d_b2 = g[:, None]  # (B, 1)
        np.matmul(d_b2.T, states, out=d_b2_hyper)
        np.sum(d_b2, axis=0, out=d_b2_bias)

        d_u2 = np.multiply(g[:, None], cache["h"], out=work.get("d_u2", (b, m)))  # d_w2
        d_u2 *= np.sign(cache["u2"], out=work.get("sign_u2", (b, m)))
        np.matmul(d_u2.T, states, out=d_w2_hyper)
        np.sum(d_u2, axis=0, out=d_w2_bias)

        # d_h times elu's derivative: 1 where h_pre > 0, else exp(min(h_pre, 0))
        h_pre = cache["h_pre"]
        elu_grad = np.minimum(h_pre, 0.0, out=work.get("elu'", (b, m)))
        np.exp(elu_grad, out=elu_grad)
        np.copyto(elu_grad, 1.0, where=np.greater(h_pre, 0, out=work.get("h_pre>0", (b, m), bool)))
        d_h_pre = np.multiply(g[:, None], cache["w2"], out=work.get("d_h_pre", (b, m)))  # d_h
        d_h_pre *= elu_grad

        np.matmul(d_h_pre.T, states, out=d_b1_hyper)
        np.sum(d_h_pre, axis=0, out=d_b1_bias)

        # d_w1 = qs[:, :, None] * d_h_pre[:, None, :], from full-shape copies: a broadcast
        # ufunc operand costs a temporary buffer per call, a broadcast copyto does not
        qs_rep = work.get("qs_rep", (b, n, m))
        np.copyto(qs_rep, qs[:, :, None])
        d_w1 = work.get("d_w1", (b, n, m))
        np.copyto(d_w1, d_h_pre[:, None, :])
        np.multiply(qs_rep, d_w1, out=d_w1)
        d_w1 *= np.sign(cache["u1"], out=work.get("sign_u1", (b, n * m))).reshape(b, n, m)
        d_u1 = d_w1.reshape(b, n * m)
        np.matmul(d_u1.T, states, out=d_w1_hyper)
        np.sum(d_u1, axis=0, out=d_w1_bias)

        d_qs = np.einsum("bm,bnm->bn", d_h_pre, cache["w1"], out=work.get("d_qs", (b, n)))
        return self._grads, d_qs


class QmixCoordinator(QTeamLearner):
    """Joint trainer for the member Q-networks and the mixing network.

    It builds the team whole: the member Q-networks and their targets
    (`QTeamLearner`), the mixer and its target, and a single Adam over the
    team and the mixer. Each member acts on its view of the team net
    (`DenseNet.member`), and the team and the mixer train in one batched
    pass.
    """

    def __init__(
        self, config: MarketConfig, hyper: QmixHyper, member_ids: list[str], local_state_size: int,
        n_heads: int, n_bins: int = N_PRICE_BINS,
    ):
        super().__init__(config, hyper, member_ids, local_state_size, n_heads, n_bins)
        n = len(self.member_ids)
        self.rng = derive_rng(config.seed, "team", "qmix")
        self.mixer = MonotonicMixer(n, n * local_state_size, hyper.mixing_dim, self.rng)
        self.target_mixer = self.mixer.clone()
        self.optimizer = Adam([self.nets.flat, self.mixer.flat])

    def _row(self, states, actions, rewards, next_states, done) -> tuple:
        return states, actions, next_states, left_sum(rewards) / len(rewards), done

    def learn(self) -> float | None:
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, 1):
            return None
        rows = self.buffer.sample(hp.batch_size, self.rng)
        # (B, members, local state), (B, members, heads), (B, members, local state), (B,), (B,)
        states, actions, next_states, rewards, done = self.buffer.gather(rows, self._work)
        b, n = len(rows), len(self.member_ids)
        work = self._work
        global_state = states.reshape(b, -1)
        next_global_state = next_states.reshape(b, -1)

        # target utilities: per-member greedy on the target nets
        best = self._greedy_targets(next_states.transpose(1, 0, 2))
        per_member = np.mean(best, axis=2, out=work.get("per_member", (n, b)))
        target_qs = self._by_row(per_member, "target_qs")
        q_tot_next = self.target_mixer.forward(target_qs, next_global_state)
        y = rewards + hp.gamma * (1.0 - done) * q_tot_next

        # online utilities at the taken actions
        chosen, cache, taken = self._taken_q(states.transpose(1, 0, 2), actions.transpose(1, 0, 2))
        qs = self._by_row(np.mean(chosen, axis=2, out=per_member), "qs")
        q_tot, mix_cache = self.mixer.forward_cached(qs, global_state)

        err = q_tot - y
        loss = float(np.mean(err**2))
        upstream = 2.0 * err / b
        _, d_qs = self.mixer.backward(mix_cache, upstream)

        share = np.divide(d_qs.T, self.n_heads, out=per_member)
        self._backward_taken(cache, taken, share[:, :, None])
        self.optimizer.step([self.nets.flat, self.mixer.flat], [self.nets.grad, self.mixer.grad], hp.lr)

        self.learn_calls += 1
        if self.learn_calls % hp.target_update_every == 0:
            hard_update(self.target_nets, self.nets)
            self.target_mixer.copy_from(self.mixer)
        return loss

    def _by_row(self, per_member: np.ndarray, name: str) -> np.ndarray:
        """A kept (B, members) copy of a (members, B) array."""
        rows = self._work.get(name, per_member.shape[::-1])
        np.copyto(rows, per_member.T)
        return rows


class QmixAgent(QTeamMember):
    """Member agent: its view of the team's Q-networks, coordinator-driven learning."""

    smooths = True

    def _state(self, observation: MarketObservation) -> np.ndarray:
        return encode_state(self, observation)


def build_team(
    agent_ids: list[str],
    product_specs: list[ProductSpec],
    config: MarketConfig,
    hyper: QmixHyper | None = None,
) -> list[QmixAgent]:
    n_products = len(product_specs)
    coordinator = QmixCoordinator(
        config, hyper or QmixHyper(), agent_ids, state_dim(n_products), n_products
    )
    return [QmixAgent(aid, product_specs, config, coordinator) for aid in agent_ids]
