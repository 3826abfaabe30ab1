"""Deterministic policy-gradient team: local actors, centralized critics.

Actors map local state to one continuous price change per product (tanh
output scaled by the weekly cap). Critics score the JOINT state and action of
the whole team, so members share a coordinator that owns one aligned replay
buffer; each member still acts from purely local observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..market import ConfigError, MarketConfig, MarketObservation, ProductSpec, derive_rng
from ..nn import (
    Adam,
    DenseNet,
    GAUSSIAN_NOISE_DEFAULT,
    ExplorationSchedule,
    ReplayBuffer,
    ShapeError,
    Workspace,
    soft_update,
)
from .common import MarlAgentBase, encode_state, state_dim

ACTION_SMOOTHING = 0.5  # EMA weight on the previous applied change


@dataclass(frozen=True)
class MaddpgHyper:
    actor_lr: float = 0.0001
    critic_lr: float = 0.00001
    gamma: float = 0.95
    tau: float = 0.001
    batch_size: int = 64
    buffer_capacity: int = 50_000
    recency_decay: float = 0.999
    warm_up: int = 64
    actor_hidden: tuple[int, ...] = (64, 64)
    critic_hidden: tuple[int, ...] = (128, 64)
    schedule: ExplorationSchedule = GAUSSIAN_NOISE_DEFAULT

    @classmethod
    def from_params(cls, params: dict) -> "MaddpgHyper":
        sched = GAUSSIAN_NOISE_DEFAULT
        if any(k in params for k in ("noise_start", "noise_decay", "noise_floor")):
            sched = ExplorationSchedule(
                "gaussian_noise",
                start=float(params.get("noise_start", sched.start)),
                decay=float(params.get("noise_decay", sched.decay)),
                floor=float(params.get("noise_floor", sched.floor)),
            )
        return cls(
            actor_lr=float(params.get("actor_lr", cls.actor_lr)),
            critic_lr=float(params.get("critic_lr", cls.critic_lr)),
            gamma=float(params.get("gamma", cls.gamma)),
            tau=float(params.get("tau", cls.tau)),
            batch_size=int(params.get("batch_size", cls.batch_size)),
            buffer_capacity=int(params.get("buffer_capacity", cls.buffer_capacity)),
            recency_decay=float(params.get("recency_decay", cls.recency_decay)),
            warm_up=int(params.get("warm_up", cls.warm_up)),
            actor_hidden=tuple(params.get("actor_hidden", cls.actor_hidden)),
            critic_hidden=tuple(params.get("critic_hidden", cls.critic_hidden)),
            schedule=sched,
        )


@dataclass
class JointTransition:
    """One aligned team step: per-member local views plus a shared done flag.

    `states`, `actions` and `next_states` hold one row per member.
    """

    states: np.ndarray
    actions: np.ndarray  # applied relative changes, one row per member
    rewards: list[float]
    next_states: np.ndarray
    done: bool


class MaddpgCoordinator:
    """Owns the joint replay buffer and runs the centralized training step.

    It knows its members by id and by their nets, never as agents: the
    members own the coordinator, and with no reference back a finished run
    is freed by reference counting alone. At its first learn step it stacks
    the members' actors, critics and their targets into four team nets (the
    member nets become views of them) and trains each team in one batched
    pass under one Adam per role.
    """

    def __init__(self, config: MarketConfig, hyper: MaddpgHyper):
        self.config = config
        self.hyper = hyper
        self.member_ids: list[str] = []
        self._member_nets: list[tuple[DenseNet, DenseNet, DenseNet, DenseNet]] = []
        self.buffer = ReplayBuffer(hyper.buffer_capacity, hyper.recency_decay)
        self.rng = derive_rng(config.seed, "team", "maddpg")
        self._pending: dict[str, tuple] = {}
        self.last_losses: list[tuple[float, float]] = []
        # team nets and their optimizers, stacked from the members by the first learn step
        self.actors = self.critics = self.target_actors = self.target_critics = None
        self.actor_opt = self.critic_opt = None
        self._work = Workspace()  # the learn step's batch arrays, refilled every step

    def register(self, member: "MaddpgAgent") -> None:
        if self.actors is not None:
            raise ConfigError("the team has started training; no member can join")
        self.member_ids.append(member.agent_id)
        self._member_nets.append(
            (member.actor, member.critic, member.target_actor, member.target_critic)
        )

    def contribute(self, agent_id, state, action, reward, next_state, done) -> None:
        """Collect one member's step; store and learn once the team is complete."""
        if agent_id not in self.member_ids:
            raise ValueError(f"agent {agent_id!r} is not a member of this team")
        self._pending[agent_id] = (state, action, reward, next_state)
        if len(self._pending) < len(self.member_ids):
            return
        parts = [self._pending[aid] for aid in self.member_ids]
        self._pending = {}
        self.buffer.push(
            JointTransition(
                states=np.stack([p[0] for p in parts]),
                actions=np.stack([p[1] for p in parts]),
                rewards=[p[2] for p in parts],
                next_states=np.stack([p[3] for p in parts]),
                done=done,
            )
        )
        self.learn()

    def learn(self) -> None:
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, hp.batch_size):
            return
        if self.actors is None:
            actors, critics, target_actors, target_critics = zip(*self._member_nets)
            self.actors = DenseNet.team(actors)
            self.critics = DenseNet.team(critics)
            self.target_actors = DenseNet.team(target_actors)
            self.target_critics = DenseNet.team(target_critics)
            self.actor_opt = Adam([self.actors.flat])
            self.critic_opt = Adam([self.critics.flat])
        batch = self.buffer.sample(hp.batch_size, self.rng)
        b, n = len(batch), len(self.member_ids)
        work = self._work
        state_shape = (b, *np.shape(batch[0].states))  # (B, members, local state)
        action_shape = (b, *np.shape(batch[0].actions))  # (B, members, products)
        states = np.stack([t.states for t in batch], out=work.get("states", state_shape))
        actions = np.stack([t.actions for t in batch], out=work.get("actions", action_shape))
        next_states = np.stack([t.next_states for t in batch], out=work.get("next_states", state_shape))
        rewards = np.asarray([t.rewards for t in batch]).T  # (members, B)
        done = np.asarray([t.done for t in batch], dtype=float)
        max_change = self.config.max_weekly_change

        # every critic reads the joint state and action: member-major blocks
        joint_dim = states[0].size
        critic_dim = joint_dim + actions[0].size
        target_next_actions = self.target_actors.forward(next_states.transpose(1, 0, 2)) * max_change
        critic_next_in = np.concatenate(
            [next_states.reshape(b, -1), target_next_actions.transpose(1, 0, 2).reshape(b, -1)],
            axis=1,
            out=work.get("critic_next_in", (b, critic_dim)),
        )
        critic_in = np.concatenate(
            [states.reshape(b, -1), actions.reshape(b, -1)],
            axis=1,
            out=work.get("critic_in", (b, critic_dim)),
        )

        q_next = self.target_critics.forward(critic_next_in)[..., 0]  # (members, B)
        y = rewards + hp.gamma * (1.0 - done) * q_next
        q, cache = self.critics.forward_cached(critic_in)
        err = q[..., 0] - y
        critic_loss = np.mean(err**2, axis=1)
        self.critics.backward(cache, (2.0 * err / b)[..., None], inputs=False)
        self.critic_opt.step([self.critics.flat], [self.critics.grad], hp.critic_lr)

        # actors: ascend Q with each member's own action replaced by its policy output
        actor_out, actor_cache = self.actors.forward_cached(states.transpose(1, 0, 2))
        replaced = work.get("replaced", (n, b, critic_dim))  # (members, B, critic input)
        replaced[...] = critic_in
        own = np.arange(n)
        replaced[:, :, joint_dim:].reshape(n, b, n, -1)[own, :, own] = actor_out * max_change
        q_pi, critic_cache = self.critics.forward_cached(replaced)
        actor_loss = -np.mean(q_pi[..., 0], axis=1)
        _, input_grad = self.critics.backward(
            critic_cache, np.full((n, b, 1), -1.0 / b), params=False
        )
        upstream_actor = input_grad[:, :, joint_dim:].reshape(n, b, n, -1)[own, :, own] * max_change
        self.actors.backward(actor_cache, upstream_actor, inputs=False)
        self.actor_opt.step([self.actors.flat], [self.actors.grad], hp.actor_lr)

        soft_update(self.target_actors, self.actors, hp.tau)
        soft_update(self.target_critics, self.critics, hp.tau)
        self.last_losses = list(zip(critic_loss.tolist(), actor_loss.tolist()))


class MaddpgAgent(MarlAgentBase):
    """One team member: local tanh actor plus a centralized critic."""

    def __init__(
        self,
        agent_id: str,
        product_specs: list[ProductSpec],
        config: MarketConfig,
        coordinator: MaddpgCoordinator,
        team_size: int,
    ):
        super().__init__(agent_id, product_specs, config)
        hp = coordinator.hyper
        n_products = len(product_specs)
        local_dim = state_dim(n_products)
        joint_dim = team_size * (local_dim + n_products)
        rng = derive_rng(config.seed, "agent", agent_id)
        self.actor = DenseNet(
            [local_dim, *hp.actor_hidden, n_products],
            ["relu"] * len(hp.actor_hidden) + ["tanh"],
            rng,
        )
        # near-hold initial policy: standard small final-layer init for DDPG actors
        self.actor.scale_output_layer(0.01)
        self.critic = DenseNet(
            [joint_dim, *hp.critic_hidden, 1],
            ["relu"] * len(hp.critic_hidden) + ["linear"],
            rng,
        )
        self.target_actor = self.actor.clone()
        self.target_critic = self.critic.clone()
        self.noise_rng = rng
        self.coordinator = coordinator
        coordinator.register(self)
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    def act_raw(self, state: np.ndarray, episode: int) -> np.ndarray:
        """Noisy tanh policy output scaled to a relative change, pre-smoothing."""
        out = self.actor.forward(state)
        sigma = self.coordinator.hyper.schedule.value(episode)
        noisy = np.clip(out + self.noise_rng.normal(0.0, sigma, size=out.shape), -1.0, 1.0)
        return noisy * self.config.max_weekly_change

    def propose_prices(self, observation: MarketObservation) -> dict[str, float]:
        state = self._encode(observation, encode_state)
        raw = self.act_raw(state, self.episode_index)
        changes = {}
        for spec, r in zip(self.product_specs, raw):
            prev = self._prev_changes[spec.product_id]
            changes[spec.product_id] = ACTION_SMOOTHING * prev + (1.0 - ACTION_SMOOTHING) * r
        applied = np.asarray([changes[s.product_id] for s in self.product_specs])
        self._pending = (state, applied)
        return self._apply_changes(changes)

    def feedback(self, observation, prev_observation, done: bool) -> None:
        if self._pending is None:
            return
        state, action = self._pending
        self._pending = None
        reward = self._reward_from(observation, prev_observation)
        next_state = self._encode(observation, encode_state)
        self.coordinator.contribute(self.agent_id, state, action, reward, next_state, done)

    def checkpoint_state(self) -> dict:
        return {
            "kind": "maddpg",
            "actor": {
                "layer_sizes": self.actor.layer_sizes,
                "weights": [w.tolist() for w in self.actor.weights],
                "biases": [b.tolist() for b in self.actor.biases],
            },
            "critic": {
                "layer_sizes": self.critic.layer_sizes,
                "weights": [w.tolist() for w in self.critic.weights],
                "biases": [b.tolist() for b in self.critic.biases],
            },
        }


def build_team(
    agent_ids: list[str],
    product_specs: list[ProductSpec],
    config: MarketConfig,
    params: dict | None = None,
) -> list[MaddpgAgent]:
    hyper = MaddpgHyper.from_params(params or {})
    coordinator = MaddpgCoordinator(config, hyper)
    if not agent_ids:
        raise ShapeError("a team needs at least one member")
    return [
        MaddpgAgent(aid, product_specs, config, coordinator, team_size=len(agent_ids))
        for aid in agent_ids
    ]
