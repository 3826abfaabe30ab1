"""Deterministic policy-gradient team: local actors, centralized critics.

Actors map local state to one continuous price change per product (tanh
output scaled by the weekly cap). Critics score the JOINT state and action of
the whole team, so members share a coordinator that owns the team's nets and
one aligned replay buffer; each member still acts from purely local
observations, through a view of its own actor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..market import MarketConfig, MarketObservation, derive_rng
from ..nn import Adam, DenseNet, exploration_rate, soft_update
from .common import TeamLearner, check_hyper, encode_state, smoothed


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
    noise_start: float = 0.2
    noise_decay: float = 0.9995
    noise_floor: float = 0.05

    def __post_init__(self):
        check_hyper(self, ("batch_size", "buffer_capacity"), ("actor_hidden", "critic_hidden"))


class MaddpgCoordinator(TeamLearner):
    """Owns the team's nets and joint replay buffer, and runs the centralized
    training step.

    A replay row is one team step: every member's state and next state,
    every member's applied action, the members' rewards and the shared done
    flag.

    Its four team nets (actors, critics and their targets) have a leading
    members axis, member i's actor then critic drawn from its generator, and
    each role has one Adam. Members act on their views of the team actor
    (`views`, from `DenseNet.member`), so __init__ builds the actors only
    and advances each member generator past the critic's draw (PCG64's
    `uniform` takes one 64-bit word per double), so the member explores
    with what an eager draw would leave; it keeps only the critic's layer
    sizes. The first learn step's `build_training` re-derives each member
    stream, `derive_rng(seed, "agent", id)`, advances it past the actor's
    draw by the same rule and draws the critic from it, then clones both
    targets and builds the critic Adam; the actors do not change before
    then, so every net is the one an eager build would make. Each team
    trains in one batched pass. The actor step reads a critic's input
    gradient at the member's own action only: it multiplies the dz1 that
    the critics' backward returns by those columns of W1.

    Known mismatch, kept as it stands (a mend moves B, D, G and H's bytes):
    replay rows hold the *applied* change, the EMA of the previous change
    and the noisy scaled actor output, but `_td_target` and the actor step
    put the *raw* scaled actor output in the same critic input columns.
    """

    def __init__(
        self, config: MarketConfig, hyper: MaddpgHyper, member_ids: list[str],
        local_state_size: int, n_products: int,
    ):
        super().__init__(config, hyper, member_ids)
        n, local_dim = len(self.member_ids), local_state_size
        self.actors = DenseNet(
            [local_dim, *hyper.actor_hidden, n_products],
            ["relu"] * len(hyper.actor_hidden) + ["tanh"],
            self.rngs,
        )
        # near-hold initial policy: standard small final-layer init for DDPG actors
        self.actors.weights[-1] *= 0.01
        self.actors.biases[-1] *= 0.01
        self.views = [self.actors.member(i) for i in range(n)]
        self.actor_opt = Adam([self.actors.flat])
        self.rng = derive_rng(config.seed, "team", "maddpg")
        sizes = self._critic_sizes = [n * (local_dim + n_products), *hyper.critic_hidden, 1]
        for rng in self.rngs:  # past the critic's W1, b1, W2, b2, ...
            rng.bit_generator.advance(sum((a + 1) * b for a, b in zip(sizes, sizes[1:])))
        self.critics = self.target_actors = self.target_critics = self.critic_opt = None

    def build_training(self) -> None:
        """Draw the critics from each member's stream re-derived and advanced
        past its actor's draw, clone both targets and build the critic Adam."""
        sizes = self._critic_sizes
        rngs = [derive_rng(self.config.seed, "agent", aid) for aid in self.member_ids]
        for rng in rngs:  # past the actor's W1, b1, W2, b2, ...
            rng.bit_generator.advance(self.actors.flat.size // len(rngs))
        self.critics = DenseNet(sizes, ["relu"] * (len(sizes) - 2) + ["linear"], rngs)
        self.target_actors = self.actors.clone()
        self.target_critics = self.critics.clone()
        self.critic_opt = Adam([self.critics.flat])

    def encode(self, agent, observation: MarketObservation) -> np.ndarray:
        return encode_state(agent, observation)

    def choose(self, i: int, state: np.ndarray, episode: int, prev_changes: list[float]):
        """Member i's changes: its actor's noisy tanh output, clipped, scaled to
        the weekly cap and EMA-smoothed. The replay action is the changes."""
        out = self.views[i].forward(state)
        hp = self.hyper
        sigma = exploration_rate(hp.noise_start, hp.noise_decay, hp.noise_floor, episode)
        noisy = out + self.rngs[i].normal(0.0, sigma, size=out.shape)
        np.maximum(noisy, -1.0, out=noisy)  # np.clip's bounds, without its dispatch
        np.minimum(noisy, 1.0, out=noisy)
        noisy *= self.config.max_weekly_change
        changes = smoothed(prev_changes, noisy.tolist())
        return np.array(changes), changes

    def _batch(self, rows: np.ndarray):
        """The replay rows as the learn step reads them, in the learner's kept buffers.

        Returns states (B, members, local state), a view of the critic input
        (B, critic input: every member's state, then every member's action),
        next states (B, members, local state), rewards (members, B) and done
        (B,).
        """
        states, next_states, actions, rewards, done = self.buffer.gather(rows, self._work)
        b, joint_dim = len(rows), states[0].size
        critic_in = np.concatenate(
            [states.reshape(b, -1), actions.reshape(b, -1)], axis=1,
            out=self._work.get("critic_in", (b, self.critics.layer_sizes[0])),
        )
        # the actors read the critic input's state block
        states = critic_in[:, :joint_dim].reshape(states.shape)
        return states, critic_in, next_states, rewards.T, done

    def _td_target(self, next_states, rewards, done) -> np.ndarray:
        """Each member's TD target (members, B): its reward plus the discounted
        target critic at the (B, members, local state) next states and the
        target actors' actions there."""
        b = len(done)
        target_next_actions = self.target_actors.forward(next_states.transpose(1, 0, 2))
        target_next_actions *= self.config.max_weekly_change
        # every critic reads the joint state and action: member-major blocks
        critic_next_in = np.concatenate(
            [next_states.reshape(b, -1), target_next_actions.transpose(1, 0, 2).reshape(b, -1)],
            axis=1,
            out=self._work.get("critic_next_in", (b, self.critics.layer_sizes[0])),
        )
        q_next = self.target_critics.forward(critic_next_in)[..., 0]  # (members, B)
        return rewards + self.hyper.gamma * (1.0 - done) * q_next

    def learn(self) -> list[tuple[float, float]] | None:
        """One critic and actor step for every member: each member's (critic,
        actor) loss, or None while warming up."""
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, hp.batch_size):
            return None
        if self.critics is None:
            self.build_training()
        rows = self.buffer.sample(hp.batch_size, self.rng)
        states, critic_in, next_states, rewards, done = self._batch(rows)
        (b, n, _), critic_dim = states.shape, critic_in.shape[1]
        work = self._work
        max_change = self.config.max_weekly_change
        joint_dim = states[0].size

        y = self._td_target(next_states, rewards, done)
        q, cache = self.critics.forward_cached(critic_in)
        err = q[..., 0] - y
        critic_loss = np.mean(err**2, axis=1)
        self.critics.backward(cache, (2.0 * err / b)[..., None])
        self.critic_opt.step([self.critics.flat], [self.critics.grad], hp.critic_lr)

        # actors: ascend Q with each member's own action replaced by its policy output
        actor_out, actor_cache = self.actors.forward_cached(states.transpose(1, 0, 2))
        replaced = work.get("replaced", (n, b, critic_dim))  # (members, B, critic input)
        replaced[...] = critic_in
        own = np.arange(n)
        replaced[:, :, joint_dim:].reshape(n, b, n, -1)[own, :, own] = actor_out * max_change
        q_pi, critic_cache = self.critics.forward_cached(replaced)
        actor_loss = -np.mean(q_pi[..., 0], axis=1)
        dz1 = self.critics.backward(critic_cache, np.full((n, b, 1), -1.0 / b), params=False)
        # member i's own action columns of its critic's input gradient dz1 @ W1 (the
        # critic input is every state, then every member's action)
        width, w1 = actor_out.shape[-1], self.critics.weights[0]
        own_action_grad = work.get("own_action_grad", actor_out.shape)
        for i in range(n):
            start = joint_dim + i * width
            np.matmul(dz1[i], w1[i, :, start : start + width], out=own_action_grad[i])
        own_action_grad *= max_change
        self.actors.backward(actor_cache, own_action_grad)
        self.actor_opt.step([self.actors.flat], [self.actors.grad], hp.actor_lr)

        soft_update(self.target_actors, self.actors, hp.tau)
        soft_update(self.target_critics, self.critics, hp.tau)
        self.learn_calls += 1
        return list(zip(critic_loss.tolist(), actor_loss.tolist()))
