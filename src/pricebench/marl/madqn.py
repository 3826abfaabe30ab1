"""Independent deep Q-learning over discrete price-change bins.

Each agent learns alone: a Q-network with one 21-bin head per product, a
hard-copied target network, its own generator, and its own column of a
recency-biased replay ring. The agents of a roster that share one set of
hyper-parameters are built as one team (`DqnCore`) so that their learn
steps run as one batched pass, but only the arithmetic is batched: each
member samples its own rows, gathers only its own column of them and
regresses on its own TD target, so no member ever reads another's data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..market import MarketConfig, MarketObservation
from ..nn import Adam, TrainingError, hard_update
from .common import N_PRICE_BINS, QTeamLearner, check_hyper, encode_state


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
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_floor: float = 0.05

    COUNTS = ("batch_size", "buffer_capacity", "target_update_every")  # each at least 1

    def __post_init__(self):
        check_hyper(self, self.COUNTS, ("hidden",))


class DqnCore(QTeamLearner):
    """A team of independent Q-learners.

    It builds the members' Q-nets as one team (`QTeamLearner`), their
    targets at its first learn step, and one Adam over the team's flat
    vector, which updates each member's slice as a per-member Adam would. A
    ring row holds every member's state, next state, bins and reward, plus
    the shared done. The members push, warm up and hard-copy their targets
    in lockstep, so a team step is the members' steps stacked. A member's
    price changes are its bins' own.
    """

    smooths = False

    def __init__(
        self, config: MarketConfig, hyper: DqnHyper, member_ids: list[str], local_state_size: int,
        n_heads: int, n_bins: int = N_PRICE_BINS,
    ):
        super().__init__(config, hyper, member_ids, local_state_size, n_heads, n_bins)
        self.optimizer = Adam([self.nets.flat])

    def encode(self, agent, observation: MarketObservation) -> np.ndarray:
        return encode_state(agent, observation)

    def _td_target(self, next_states, rewards, done) -> np.ndarray:
        """Each (member, row, head)'s TD target: the member's reward plus the
        discounted best target-net value at its (members, B, state) next state."""
        bootstrap = self._greedy_targets(next_states)
        return rewards[..., None] + self.hyper.gamma * (1.0 - done)[..., None] * bootstrap

    def learn(self) -> list[float] | None:
        """One TD step per member on its own recency-sampled batch: each
        member's loss, or None while warming up."""
        hp = self.hyper
        if len(self.buffer) < max(hp.warm_up, 1):
            return None
        if self.target_nets is None:
            self.build_training()
        rows = self._work.get("rows", (len(self.member_ids), hp.batch_size), np.intp)
        for i, rng in enumerate(self.rngs):
            rows[i] = self.buffer.sample(hp.batch_size, rng)
        # each member's own entry of its own rows: states and next states (members, B,
        # state), bins (members, B, heads), rewards and done (members, B)
        states, next_states, actions, rewards, done = self.buffer.gather_members(rows, self._work)
        y = self._td_target(next_states, rewards, done)
        chosen, cache, taken = self._taken_q(states, actions)
        err = np.subtract(chosen, y, out=y)
        losses = np.mean(np.square(err).reshape(len(err), -1), axis=1)
        if not np.isfinite(losses).all():
            i = int(np.flatnonzero(~np.isfinite(losses))[0])
            raise TrainingError(
                f"non-finite TD loss of member {self.member_ids[i]!r}; batch rewards "
                f"{rewards[i].tolist()}, taken q range [{chosen[i].min()}, {chosen[i].max()}]"
            )
        self._backward_taken(cache, taken, 2.0 * err / err[0].size)
        self.optimizer.step([self.nets.flat], [self.nets.grad], hp.lr)

        self.learn_calls += 1
        if self.learn_calls % hp.target_update_every == 0:
            hard_update(self.target_nets, self.nets)
        return losses.tolist()
