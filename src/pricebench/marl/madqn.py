"""Independent deep Q-learning over discrete price-change bins.

Each agent owns a Q-network with one 21-bin head per product, a hard-copied
target network, and a recency-biased replay buffer. No information is shared
between agents: act and learn consume only the agent's own state, action and
reward (there is deliberately no joint-batch surface here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..market import MarketConfig, MarketObservation, ProductSpec, derive_rng
from ..nn import (
    Adam,
    DenseNet,
    EPSILON_GREEDY_DEFAULT,
    ExplorationSchedule,
    ReplayBuffer,
    ShapeError,
    TrainingError,
    Workspace,
    hard_update,
)
from .common import (
    MarlAgentBase,
    N_PRICE_BINS,
    discretize_action,
    encode_state,
    epsilon_greedy,
    state_dim,
)


@dataclass(frozen=True)
class DqnHyper:
    lr: float = 0.001
    gamma: float = 0.95
    batch_size: int = 64
    buffer_capacity: int = 50_000
    recency_decay: float = 0.999
    warm_up: int = 64
    target_update_every: int = 5
    hidden: tuple[int, ...] = (128, 64, 32)
    schedule: ExplorationSchedule = EPSILON_GREEDY_DEFAULT


class DqnCore:
    """Q-learning engine over `n_heads` independent discrete action heads."""

    def __init__(
        self,
        state_size: int,
        n_heads: int,
        n_bins: int,
        hyper: DqnHyper,
        rng: np.random.Generator,
        rows: int = 1,
    ):
        self.state_size = state_size
        self.n_heads = n_heads
        self.n_bins = n_bins
        self.hyper = hyper
        self.rng = rng
        sizes = [state_size, *hyper.hidden, n_heads * n_bins]
        acts = ["relu"] * len(hyper.hidden) + ["linear"]
        self.net = DenseNet(sizes, acts, rng)
        self.target = self.net.clone()
        self.optimizer = Adam([self.net.flat])
        # replay fields: state, bins, reward, next state, done; the first push allocates `rows` rows
        self.buffer = ReplayBuffer(hyper.buffer_capacity, hyper.recency_decay, rows=rows)
        self.learn_calls = 0
        self._work = Workspace()  # the learn step's batch arrays, refilled every step

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.net.forward(state).reshape(self.n_heads, self.n_bins)

    def act(self, state: np.ndarray, episode: int) -> np.ndarray:
        return epsilon_greedy(self.q_values(state), self.hyper.schedule.value(episode), self.rng)

    def store(self, state, bins, reward: float, next_state, done: bool) -> None:
        if np.shape(state) != np.shape(next_state):
            raise ShapeError("state and next_state dimensions differ")
        self.buffer.push(state, bins, reward, next_state, done)

    def learn(self) -> float | None:
        """One TD step on a recency-sampled batch; None while warming up."""
        if len(self.buffer) < max(self.hyper.warm_up, 1):
            return None
        sampled = self.buffer.sample(self.hyper.batch_size, self.rng)
        states, actions, rewards, next_states, done = self.buffer.gather(sampled, self._work)

        b = len(sampled)
        target_q = self.target.forward(next_states).reshape(b, self.n_heads, self.n_bins)
        bootstrap = target_q.max(axis=2)  # (B, H)
        y = rewards[:, None] + self.hyper.gamma * (1.0 - done)[:, None] * bootstrap

        out, cache = self.net.forward_cached(states)
        q = out.reshape(b, self.n_heads, self.n_bins)
        rows = np.arange(b)[:, None]
        heads = np.arange(self.n_heads)[None, :]
        chosen = q[rows, heads, actions]
        err = chosen - y
        loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite TD loss; batch rewards {rewards.tolist()}, "
                f"q range [{q.min()}, {q.max()}]"
            )

        upstream = self._work.get("upstream", q.shape)
        upstream.fill(0.0)
        upstream[rows, heads, actions] = 2.0 * err / err.size
        self.net.backward(cache, upstream.reshape(b, -1), inputs=False)
        self.optimizer.step([self.net.flat], [self.net.grad], self.hyper.lr)

        self.learn_calls += 1
        if self.learn_calls % self.hyper.target_update_every == 0:
            hard_update(self.target, self.net)
        return loss


class MadqnAgent(MarlAgentBase):
    """Pricing wrapper: encode market state, pick one bin per product, learn locally."""

    def __init__(
        self,
        agent_id: str,
        product_specs: list[ProductSpec],
        config: MarketConfig,
        hyper: DqnHyper | None = None,
    ):
        super().__init__(agent_id, product_specs, config)
        self.core = DqnCore(
            state_size=state_dim(len(product_specs)),
            n_heads=len(product_specs),
            n_bins=N_PRICE_BINS,
            hyper=hyper or DqnHyper(),
            rng=derive_rng(config.seed, "agent", agent_id),
            rows=config.episodes * config.weeks_per_episode,
        )
        self.nets = {"q": self.core.net}
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self.last_loss: float | None = None

    def propose_prices(self, observation: MarketObservation) -> dict[str, float]:
        state = self._encode(observation, encode_state)
        bins = self.core.act(state, self.episode_index)
        self._pending = (state, bins)
        changes = {
            spec.product_id: discretize_action(
                int(b), N_PRICE_BINS, self.config.max_weekly_change
            )
            for spec, b in zip(self.product_specs, bins)
        }
        return self._apply_changes(changes)

    def feedback(self, observation, prev_observation, done: bool) -> None:
        if self._pending is None:
            return
        state, bins = self._pending
        self._pending = None
        reward = self._reward_from(observation, prev_observation)
        next_state = self._encode(observation, encode_state)
        self.core.store(state, bins, reward, next_state, done)
        self.last_loss = self.core.learn()
