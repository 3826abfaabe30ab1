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
    Workspace,
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
        """Gradients of sum(upstream * Q_tot) w.r.t. params and agent utilities.

        The parameter gradients are views of `self.grad`, in params() order;
        the next backward overwrites them.
        """
        g = np.asarray(upstream, dtype=float)
        qs, states = cache["qs"], cache["states"]
        b, n, m = qs.shape[0], self.n_agents, self.mixing_dim
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
            self._grads = self._views(self.grad)
        d_w1_hyper, d_w1_bias, d_b1_hyper, d_b1_bias, d_w2_hyper, d_w2_bias, d_b2_hyper, d_b2_bias = (
            self._grads
        )

        d_b2 = g[:, None]  # (B, 1)
        np.matmul(d_b2.T, states, out=d_b2_hyper)
        np.sum(d_b2, axis=0, out=d_b2_bias)

        d_w2 = g[:, None] * cache["h"]  # (B, m)
        d_u2 = d_w2 * np.sign(cache["u2"])
        np.matmul(d_u2.T, states, out=d_w2_hyper)
        np.sum(d_u2, axis=0, out=d_w2_bias)

        d_h = g[:, None] * cache["w2"]  # (B, m)
        d_h_pre = d_h * _elu_grad(cache["h_pre"])

        np.matmul(d_h_pre.T, states, out=d_b1_hyper)
        np.sum(d_h_pre, axis=0, out=d_b1_bias)

        d_w1 = qs[:, :, None] * d_h_pre[:, None, :]  # (B, n, m)
        d_u1 = (d_w1 * np.sign(cache["u1"]).reshape(b, n, m)).reshape(b, n * m)
        np.matmul(d_u1.T, states, out=d_w1_hyper)
        np.sum(d_u1, axis=0, out=d_w1_bias)

        d_qs = np.einsum("bm,bnm->bn", d_h_pre, cache["w1"])
        return self._grads, d_qs


def qmix_mix(agent_qs, global_state, mixer: MonotonicMixer) -> float:
    """Single-sample mixing: combine per-agent chosen-action utilities."""
    return float(mixer.forward(np.asarray(agent_qs), np.asarray(global_state))[0])


class QmixCoordinator:
    """Joint trainer for the member Q-networks and the mixing network.

    It knows its members by id and by their nets, never as agents: the
    members own the coordinator, and with no reference back a finished run
    is freed by reference counting alone. At its first learn step it stacks
    the member nets and their targets into two team nets (the member nets
    become views of them), and trains the team and the mixer in one batched
    pass under a single Adam.
    """

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
        self.member_ids: list[str] = []
        self._member_nets: list[tuple[DenseNet, DenseNet]] = []  # (net, target) per member
        self._q_shape: tuple[int, int] | None = None  # (heads, bins) of the first member
        rng = derive_rng(config.seed, "team", "qmix")
        self.mixer = MonotonicMixer(n_agents, n_agents * local_state_size, hyper.mixing_dim, rng)
        self.target_mixer = self.mixer.clone()
        self.buffer = ReplayBuffer(hyper.buffer_capacity, hyper.recency_decay)
        self.rng = rng
        self.nets: DenseNet | None = None
        self.target_nets: DenseNet | None = None
        self.optimizer: Adam | None = None
        self.learn_calls = 0
        self.last_loss: float | None = None
        self._pending: dict[str, tuple] = {}
        self._work = Workspace()  # the learn step's batch arrays, refilled every step

    def register(self, member: "QmixAgent") -> None:
        if member.coordinator is not None and member.coordinator is not self:
            raise ConfigError(f"agent {member.agent_id} already has a coordinator")
        if self.nets is not None:
            raise ConfigError("the team has started training; no member can join")
        if len(self.member_ids) == self.n_agents:
            raise ConfigError("more members registered than the coordinator was sized for")
        self.member_ids.append(member.agent_id)
        self._member_nets.append((member.net, member.target))
        self._q_shape = self._q_shape or (member.n_heads, member.n_bins)

    def contribute(self, agent_id, state, action, reward, next_state, done) -> None:
        if agent_id not in self.member_ids:
            raise ValueError(f"agent {agent_id!r} is not a member of this team")
        self._pending[agent_id] = (state, action, reward, next_state)
        if len(self._pending) < len(self.member_ids):
            return
        parts = [self._pending[aid] for aid in self.member_ids]
        self._pending = {}
        shared_reward = float(np.mean([p[2] for p in parts]))
        self.buffer.push(
            JointTransition(
                states=np.stack([p[0] for p in parts]),
                actions=np.stack([p[1] for p in parts]),
                rewards=[shared_reward] * len(parts),
                next_states=np.stack([p[3] for p in parts]),
                done=done,
            )
        )
        for _ in range(self.hyper.updates_per_step):
            self.learn()

    def learn(self) -> float | None:
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, 1):
            return None
        if self.nets is None:
            nets, targets = zip(*self._member_nets)
            self.nets = DenseNet.team(nets)
            self.target_nets = DenseNet.team(targets)
            self.optimizer = Adam([self.nets.flat, self.mixer.flat])
        batch = self.buffer.sample(hp.batch_size, self.rng)
        b = len(batch)
        n = len(self.member_ids)
        n_heads, n_bins = self._q_shape
        rewards = np.asarray([t.rewards[0] for t in batch])
        done = np.asarray([t.done for t in batch], dtype=float)
        work, shape = self._work, (b, *np.shape(batch[0].states))  # (B, members, local state)
        states = np.stack([t.states for t in batch], out=work.get("states", shape))
        next_states = np.stack([t.next_states for t in batch], out=work.get("next_states", shape))
        actions = np.asarray(np.stack([t.actions for t in batch]), dtype=int).transpose(1, 0, 2)
        global_state = states.reshape(b, -1)
        next_global_state = next_states.reshape(b, -1)

        # target utilities: per-member greedy on the target nets, read from their buffers
        tq, _ = self.target_nets.forward_cached(next_states.transpose(1, 0, 2))
        tq = tq.reshape(n, b, n_heads, n_bins)
        target_qs = np.ascontiguousarray(tq.max(axis=3).mean(axis=2).T)  # (B, members)
        q_tot_next = self.target_mixer.forward(target_qs, next_global_state)
        y = rewards + hp.gamma * (1.0 - done) * q_tot_next

        # online utilities at the taken actions
        out, cache = self.nets.forward_cached(states.transpose(1, 0, 2))
        q = out.reshape(n, b, n_heads, n_bins)
        taken = (
            np.arange(n)[:, None, None],
            np.arange(b)[None, :, None],
            np.arange(n_heads)[None, None, :],
            actions,
        )
        qs = np.ascontiguousarray(q[taken].mean(axis=2).T)  # (B, members)
        q_tot, mix_cache = self.mixer.forward_cached(qs, global_state)

        err = q_tot - y
        loss = float(np.mean(err**2))
        upstream = 2.0 * err / b
        _, d_qs = self.mixer.backward(mix_cache, upstream)

        net_upstream = work.get("net_upstream", q.shape)
        net_upstream.fill(0.0)
        net_upstream[taken] = (d_qs.T / n_heads)[:, :, None]
        self.nets.backward(cache, net_upstream.reshape(n, b, -1), inputs=False)
        self.optimizer.step([self.nets.flat, self.mixer.flat], [self.nets.grad, self.mixer.grad], hp.lr)

        self.learn_calls += 1
        if self.learn_calls % hp.target_update_every == 0:
            hard_update(self.target_nets, self.nets)
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
        state = self._encode(observation, encode_state)
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
        next_state = self._encode(observation, encode_state)
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
