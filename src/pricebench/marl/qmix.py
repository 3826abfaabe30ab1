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

from ..market import ConfigError, MarketConfig, MarketObservation, ProductSpec, derive_rng
from ..nn import (
    Adam,
    DenseNet,
    EPSILON_GREEDY_DEFAULT,
    ExplorationSchedule,
    ReplayBuffer,
    ShapeError,
    hard_update,
)
from .common import MarlAgentBase, N_PRICE_BINS, discretize_action, encode_state, state_dim
from .maddpg import ACTION_SMOOTHING, JointTransition


@dataclass(frozen=True)
class QmixHyper:
    lr: float = 0.001
    gamma: float = 0.95
    batch_size: int = 64
    buffer_capacity: int = 50_000
    recency_decay: float = 0.999
    warm_up: int = 64
    target_update_every: int = 5
    hidden: tuple[int, ...] = (128, 64, 32)
    mixing_dim: int = 32
    schedule: ExplorationSchedule = EPSILON_GREEDY_DEFAULT
    updates_per_step: int = 1

    @classmethod
    def from_params(cls, params: dict) -> "QmixHyper":
        sched = EPSILON_GREEDY_DEFAULT
        if any(k in params for k in ("epsilon_start", "epsilon_decay", "epsilon_floor")):
            sched = ExplorationSchedule(
                "epsilon_greedy",
                start=float(params.get("epsilon_start", sched.start)),
                decay=float(params.get("epsilon_decay", sched.decay)),
                floor=float(params.get("epsilon_floor", sched.floor)),
            )
        return cls(
            lr=float(params.get("lr", cls.lr)),
            gamma=float(params.get("gamma", cls.gamma)),
            batch_size=int(params.get("batch_size", cls.batch_size)),
            buffer_capacity=int(params.get("buffer_capacity", cls.buffer_capacity)),
            recency_decay=float(params.get("recency_decay", cls.recency_decay)),
            warm_up=int(params.get("warm_up", cls.warm_up)),
            target_update_every=int(params.get("target_update_every", cls.target_update_every)),
            hidden=tuple(params.get("hidden", cls.hidden)),
            mixing_dim=int(params.get("mixing_dim", cls.mixing_dim)),
            schedule=sched,
            updates_per_step=int(params.get("updates_per_step", cls.updates_per_step)),
        )


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


class MonotonicMixer:
    """Two-layer mixer with |hypernetwork| weights: Q_tot monotone in each q_i."""

    def __init__(self, n_agents: int, state_size: int, mixing_dim: int, rng: np.random.Generator):
        self.n_agents = n_agents
        self.state_size = state_size
        self.mixing_dim = mixing_dim
        bound = 1.0 / np.sqrt(state_size)

        def lin(rows):
            return rng.uniform(-bound, bound, size=(rows, state_size)), rng.uniform(
                -bound, bound, size=rows
            )

        self.w1_hyper, self.w1_bias = lin(n_agents * mixing_dim)
        self.b1_hyper, self.b1_bias = lin(mixing_dim)
        self.w2_hyper, self.w2_bias = lin(mixing_dim)
        self.b2_hyper, self.b2_bias = lin(1)

    def params(self) -> list[np.ndarray]:
        return [
            self.w1_hyper, self.w1_bias,
            self.b1_hyper, self.b1_bias,
            self.w2_hyper, self.w2_bias,
            self.b2_hyper, self.b2_bias,
        ]

    def clone(self) -> "MonotonicMixer":
        twin = MonotonicMixer.__new__(MonotonicMixer)
        twin.n_agents = self.n_agents
        twin.state_size = self.state_size
        twin.mixing_dim = self.mixing_dim
        (
            twin.w1_hyper, twin.w1_bias,
            twin.b1_hyper, twin.b1_bias,
            twin.w2_hyper, twin.w2_bias,
            twin.b2_hyper, twin.b2_bias,
        ) = (p.copy() for p in self.params())
        return twin

    def copy_from(self, other: "MonotonicMixer") -> None:
        for mine, theirs in zip(self.params(), other.params()):
            mine[...] = theirs

    def forward_cached(self, qs: np.ndarray, states: np.ndarray):
        qs = np.atleast_2d(np.asarray(qs, dtype=float))
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if qs.shape[1] != self.n_agents:
            raise ShapeError(f"expected {self.n_agents} agent utilities, got {qs.shape[1]}")
        if states.shape[1] != self.state_size:
            raise ShapeError(f"expected state dim {self.state_size}, got {states.shape[1]}")
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim
        u1 = states @ self.w1_hyper.T + self.w1_bias  # (B, n*m)
        w1 = np.abs(u1).reshape(b, n, m)
        b1 = states @ self.b1_hyper.T + self.b1_bias  # (B, m)
        h_pre = np.einsum("bn,bnm->bm", qs, w1) + b1
        h = _elu(h_pre)
        u2 = states @ self.w2_hyper.T + self.w2_bias  # (B, m)
        w2 = np.abs(u2)
        b2 = states @ self.b2_hyper.T + self.b2_bias  # (B, 1)
        q_tot = np.sum(h * w2, axis=1) + b2[:, 0]
        cache = {"qs": qs, "states": states, "u1": u1, "w1": w1, "h_pre": h_pre,
                 "h": h, "u2": u2, "w2": w2}
        return q_tot, cache

    def forward(self, qs: np.ndarray, states: np.ndarray) -> np.ndarray:
        return self.forward_cached(qs, states)[0]

    def backward(self, cache, upstream: np.ndarray):
        """Gradients of sum(upstream * Q_tot) w.r.t. params and agent utilities."""
        g = np.asarray(upstream, dtype=float)
        qs, states = cache["qs"], cache["states"]
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim

        d_b2 = g[:, None]  # (B, 1)
        d_b2_hyper = d_b2.T @ states
        d_b2_bias = d_b2.sum(axis=0)

        d_w2 = g[:, None] * cache["h"]  # (B, m)
        d_u2 = d_w2 * np.sign(cache["u2"])
        d_w2_hyper = d_u2.T @ states
        d_w2_bias = d_u2.sum(axis=0)

        d_h = g[:, None] * cache["w2"]  # (B, m)
        d_h_pre = d_h * _elu_grad(cache["h_pre"])

        d_b1_hyper = d_h_pre.T @ states
        d_b1_bias = d_h_pre.sum(axis=0)

        d_w1 = qs[:, :, None] * d_h_pre[:, None, :]  # (B, n, m)
        d_u1 = (d_w1 * np.sign(cache["u1"]).reshape(b, n, m)).reshape(b, n * m)
        d_w1_hyper = d_u1.T @ states
        d_w1_bias = d_u1.sum(axis=0)

        d_qs = np.einsum("bm,bnm->bn", d_h_pre, cache["w1"])
        grads = [
            d_w1_hyper, d_w1_bias,
            d_b1_hyper, d_b1_bias,
            d_w2_hyper, d_w2_bias,
            d_b2_hyper, d_b2_bias,
        ]
        return grads, d_qs


def qmix_mix(agent_qs, global_state, mixer: MonotonicMixer) -> float:
    """Single-sample mixing: combine per-agent chosen-action utilities."""
    return float(mixer.forward(np.asarray(agent_qs), np.asarray(global_state))[0])


class QmixCoordinator:
    """Joint trainer for the member Q-networks and the mixing network."""

    def __init__(
        self,
        config: MarketConfig,
        hyper: QmixHyper,
        n_agents: int,
        local_state_size: int,
    ):
        self.config = config
        self.hyper = hyper
        self.n_agents = n_agents
        self.members: list["QmixAgent"] = []
        rng = derive_rng(config.seed, "team", "qmix")
        self.mixer = MonotonicMixer(n_agents, n_agents * local_state_size, hyper.mixing_dim, rng)
        self.target_mixer = self.mixer.clone()
        self.buffer = ReplayBuffer(hyper.buffer_capacity, hyper.recency_decay)
        self.rng = rng
        self.optimizer: Adam | None = None
        self.learn_calls = 0
        self.last_loss: float | None = None
        self._pending: dict[str, tuple] = {}

    def register(self, member: "QmixAgent") -> None:
        if member.coordinator is not None and member.coordinator is not self:
            raise ConfigError(f"agent {member.agent_id} already has a coordinator")
        self.members.append(member)
        if len(self.members) > self.n_agents:
            raise ConfigError("more members registered than the coordinator was sized for")

    def _all_params(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for m in self.members:
            params.extend(m.net.params())
        params.extend(self.mixer.params())
        return params

    def contribute(self, agent_id, state, action, reward, next_state, done) -> None:
        if agent_id not in {m.agent_id for m in self.members}:
            raise ValueError(f"agent {agent_id!r} is not a member of this team")
        self._pending[agent_id] = (state, action, reward, next_state)
        if len(self._pending) < len(self.members):
            return
        parts = [self._pending[m.agent_id] for m in self.members]
        self._pending = {}
        shared_reward = float(np.mean([p[2] for p in parts]))
        self.buffer.push(
            JointTransition(
                states=[p[0] for p in parts],
                actions=[p[1] for p in parts],
                rewards=[shared_reward] * len(parts),
                next_states=[p[3] for p in parts],
                done=done,
            )
        )
        for _ in range(self.hyper.updates_per_step):
            self.learn()

    def learn(self) -> float | None:
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, 1):
            return None
        if self.optimizer is None:
            self.optimizer = Adam(self._all_params())
        batch = self.buffer.sample(hp.batch_size, self.rng)
        b = len(batch)
        n = len(self.members)
        rewards = np.asarray([t.rewards[0] for t in batch])
        done = np.asarray([t.done for t in batch], dtype=float)
        global_state = np.concatenate(
            [np.stack([t.states[i] for t in batch]) for i in range(n)], axis=1
        )
        next_global_state = np.concatenate(
            [np.stack([t.next_states[i] for t in batch]) for i in range(n)], axis=1
        )

        # target utilities: per-member greedy on the target nets
        target_qs = np.empty((b, n))
        for i, member in enumerate(self.members):
            next_states = np.stack([t.next_states[i] for t in batch])
            tq = member.target.forward(next_states).reshape(b, member.n_heads, member.n_bins)
            target_qs[:, i] = tq.max(axis=2).mean(axis=1)
        q_tot_next = self.target_mixer.forward(target_qs, next_global_state)
        y = rewards + hp.gamma * (1.0 - done) * q_tot_next

        # online utilities at the taken actions
        qs = np.empty((b, n))
        caches = []
        for i, member in enumerate(self.members):
            states = np.stack([t.states[i] for t in batch])
            actions = np.stack([np.asarray(t.actions[i], dtype=int) for t in batch])
            out, cache = member.net.forward_cached(states)
            q = out.reshape(b, member.n_heads, member.n_bins)
            rows = np.arange(b)[:, None]
            heads = np.arange(member.n_heads)[None, :]
            qs[:, i] = q[rows, heads, actions].mean(axis=1)
            caches.append((cache, actions, q.shape))
        q_tot, mix_cache = self.mixer.forward_cached(qs, global_state)

        err = q_tot - y
        loss = float(np.mean(err**2))
        upstream = 2.0 * err / b
        mixer_grads, d_qs = self.mixer.backward(mix_cache, upstream)

        all_grads: list[np.ndarray] = []
        for i, member in enumerate(self.members):
            cache, actions, q_shape = caches[i]
            net_upstream = np.zeros(q_shape)
            rows = np.arange(b)[:, None]
            heads = np.arange(member.n_heads)[None, :]
            net_upstream[rows, heads, actions] = (d_qs[:, i] / member.n_heads)[:, None]
            grads, _ = member.net.backward(cache, net_upstream.reshape(b, -1))
            all_grads.extend(grads)
        all_grads.extend(mixer_grads)
        self.optimizer.step(self._all_params(), all_grads, hp.lr)

        self.learn_calls += 1
        if self.learn_calls % hp.target_update_every == 0:
            for member in self.members:
                hard_update(member.target, member.net)
            self.target_mixer.copy_from(self.mixer)
        self.last_loss = loss
        return loss


class QmixAgent(MarlAgentBase):
    """Member agent: local discrete Q-network, coordinator-driven learning."""

    def __init__(
        self,
        agent_id: str,
        product_specs: list[ProductSpec],
        config: MarketConfig,
        coordinator: QmixCoordinator,
    ):
        super().__init__(agent_id, product_specs, config)
        hp = coordinator.hyper
        self.n_heads = len(product_specs)
        self.n_bins = N_PRICE_BINS
        rng = derive_rng(config.seed, "agent", agent_id)
        sizes = [state_dim(self.n_heads), *hp.hidden, self.n_heads * self.n_bins]
        acts = ["relu"] * len(hp.hidden) + ["linear"]
        self.net = DenseNet(sizes, acts, rng)
        self.target = self.net.clone()
        self.rng = rng
        self.coordinator: QmixCoordinator | None = None
        coordinator.register(self)
        self.coordinator = coordinator
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    def act_bins(self, state: np.ndarray, episode: int) -> np.ndarray:
        epsilon = self.coordinator.hyper.schedule.value(episode)
        q = self.net.forward(state).reshape(self.n_heads, self.n_bins)
        greedy = np.argmax(q, axis=1)
        explore = self.rng.random(self.n_heads) < epsilon
        random_bins = self.rng.integers(0, self.n_bins, size=self.n_heads)
        return np.where(explore, random_bins, greedy)

    def propose_prices(self, observation: MarketObservation) -> dict[str, float]:
        state = encode_state(self, observation)
        bins = self.act_bins(state, self.episode_index)
        self._pending = (state, bins)
        changes = {}
        for spec, b in zip(self.product_specs, bins):
            nominal = discretize_action(int(b), self.n_bins, self.config.max_weekly_change)
            prev = self._prev_changes[spec.product_id]
            changes[spec.product_id] = ACTION_SMOOTHING * prev + (1.0 - ACTION_SMOOTHING) * nominal
        return self._apply_changes(changes)

    def feedback(self, observation, prev_observation, done: bool) -> None:
        if self._pending is None:
            return
        state, bins = self._pending
        self._pending = None
        reward = self._reward_from(observation, prev_observation)
        next_state = encode_state(self, observation)
        self.coordinator.contribute(self.agent_id, state, bins, reward, next_state, done)

    def checkpoint_state(self) -> dict:
        return {
            "kind": "qmix",
            "layer_sizes": self.net.layer_sizes,
            "activations": self.net.activations,
            "weights": [w.tolist() for w in self.net.weights],
            "biases": [b.tolist() for b in self.net.biases],
        }


def build_team(
    agent_ids: list[str],
    product_specs: list[ProductSpec],
    config: MarketConfig,
    params: dict | None = None,
) -> list[QmixAgent]:
    hyper = QmixHyper.from_params(params or {})
    coordinator = QmixCoordinator(
        config, hyper, n_agents=len(agent_ids), local_state_size=state_dim(len(product_specs))
    )
    return [QmixAgent(aid, product_specs, config, coordinator) for aid in agent_ids]
