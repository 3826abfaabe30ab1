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


class MaddpgCoordinator:
    """Owns the joint replay buffer and runs the centralized training step.

    A replay row is one team step: the joint critic input (every member's
    state, then every member's applied action), the joint next state, the
    members' rewards and the shared done flag.

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
        rows = config.episodes * config.weeks_per_episode  # the pushes a run makes
        self.buffer = ReplayBuffer(hyper.buffer_capacity, hyper.recency_decay, rows=rows)
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
        states, actions, rewards, next_states = zip(*(self._pending[a] for a in self.member_ids))
        self._pending = {}
        # the row's critic input is every member's state, then every member's action
        self.buffer.push(np.concatenate(states + actions), np.concatenate(next_states), rewards, done)
        self.learn()

    def _batch(self, rows: np.ndarray):
        """The replay rows as the learn step reads them, in the learner's kept buffers.

        Returns states (B, members, local state), a view of the critic input
        (B, critic input), next states (B, members, local state), rewards
        (members, B) and done (B,).
        """
        critic_in, next_states, rewards, done = self.buffer.gather(rows, self._work)
        b, n = len(rows), len(self.member_ids)
        states = critic_in[:, : next_states.shape[1]].reshape(b, n, -1)
        return states, critic_in, next_states.reshape(b, n, -1), rewards.T, done

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
        rows = self.buffer.sample(hp.batch_size, self.rng)
        states, critic_in, next_states, rewards, done = self._batch(rows)
        (b, n, _), critic_dim = states.shape, critic_in.shape[1]
        work = self._work
        max_change = self.config.max_weekly_change

        # every critic reads the joint state and action: member-major blocks
        joint_dim = states[0].size
        target_next_actions = self.target_actors.forward(next_states.transpose(1, 0, 2)) * max_change
        critic_next_in = np.concatenate(
            [next_states.reshape(b, -1), target_next_actions.transpose(1, 0, 2).reshape(b, -1)],
            axis=1,
            out=work.get("critic_next_in", (b, critic_dim)),
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
        self.nets = {"actor": self.actor, "critic": self.critic}
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
        changes = self._smoothed(self.act_raw(state, self.episode_index))
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


def build_team(
    agent_ids: list[str],
    product_specs: list[ProductSpec],
    config: MarketConfig,
    hyper: MaddpgHyper | None = None,
) -> list[MaddpgAgent]:
    coordinator = MaddpgCoordinator(config, hyper or MaddpgHyper())
    if not agent_ids:
        raise ShapeError("a team needs at least one member")
    return [
        MaddpgAgent(aid, product_specs, config, coordinator, team_size=len(agent_ids))
        for aid in agent_ids
    ]
