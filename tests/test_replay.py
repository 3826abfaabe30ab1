"""Replay kept as one array per field picks what the list-of-entries replay picked.

`ListReplayBuffer` is the list-based buffer that the learners used before
their replay became struct-of-arrays rings, kept verbatim as the reference:
for the same pushes and the same rng stream, `ReplayBuffer.sample` must pick
the same entries, and each learner's gathered batch must equal, bit for bit,
the batch the old learners assembled with `np.stack`.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from pricebench.harness import build_agents
from pricebench.market import AgentSpec, MarketConfig, derive_rng
from pricebench.marl.madqn import DqnCore, DqnHyper
from pricebench.nn import ReplayBuffer, ShapeError


class ListReplayBuffer:
    """Ring buffer sampling with probability proportional to decay^age."""

    def __init__(self, capacity: int, recency_decay: float = 0.999):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 < recency_decay <= 1:
            raise ValueError("recency_decay must be in (0, 1]")
        self.capacity = capacity
        self.recency_decay = recency_decay
        self._entries: list = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, item) -> None:
        if len(self._entries) < self.capacity:
            self._entries.append(item)
        else:
            self._entries[self._next] = item
        self._next = (self._next + 1) % self.capacity

    def snapshot(self) -> list:
        """Entries ordered oldest to newest."""
        if len(self._entries) < self.capacity:
            return list(self._entries)
        return self._entries[self._next :] + self._entries[: self._next]

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        """batch_size draws with replacement, newest entries most likely."""
        if not self._entries:
            raise ValueError("cannot sample from an empty buffer")
        ordered = self.snapshot()
        n = len(ordered)
        ages = np.arange(n - 1, -1, -1, dtype=float)  # newest has age 0
        weights = self.recency_decay**ages
        probs = weights / weights.sum()
        idx = rng.choice(n, size=batch_size, replace=True, p=probs)
        return [ordered[i] for i in idx]


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("decay", [1.0, 0.9])
@pytest.mark.parametrize("capacity,warm_up,draws", [
    *(pytest.param(c, w, (0, 2), id=f"{c}-{w}")
      for c, w in [(1, 1), (3, 1), (7, 2), (16, 16), (50, 5)]),
    # the learners' length at benchmark scale, one draw or none between pushes,
    # from the full ring on and from the learners' warm-up on
    pytest.param(1040, 1040, (0, 1), id="1040-1040"),
    pytest.param(1040, 64, (0, 1), id="1040-64"),
    # several draws at each length, as a MADQN team's members make them
    pytest.param(16, 16, (4, 4), id="16-16-back-to-back"),
    pytest.param(16, 1, (4, 4), id="16-1-back-to-back"),
])
def test_sample_picks_the_list_buffers_entries(capacity, warm_up, draws, decay):
    """The ring's draws are the list buffer's `rng.choice` draws, and leave its
    generator where `rng.choice` leaves it. As a learner's, they start once
    `warm_up` entries are in."""
    low, high = draws
    for seed in range(4):
        pushes = derive_rng(seed, "replay-pushes")
        ring, reference = ReplayBuffer(capacity, decay), ListReplayBuffer(capacity, decay)
        ring_rng, reference_rng = derive_rng(seed, "replay"), derive_rng(seed, "replay")
        for i in range(3 * capacity + 5):  # fills, then wraps at least twice
            ring.push(i, float(i))
            reference.push(i)
            if len(ring) < warm_up:
                continue
            for _ in range(int(pushes.integers(low, high + 1))):  # samples between pushes
                batch = int(pushes.integers(1, 65))
                rows_drawn = ring.sample(batch, ring_rng)
                assert ring.fields[0][rows_drawn].tolist() == reference.sample(batch, reference_rng)
                assert np.array_equal(ring.fields[1][rows_drawn], ring.fields[0][rows_drawn])
        assert len(ring) == len(reference) == capacity
        assert ring_rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("row", [(np.ones(2), 2.0), (np.ones(3),), (np.ones(3), (2.0, 3.0))])
def test_push_of_a_wrong_row_shape_writes_nothing(row):
    ring = ReplayBuffer(4)
    ring.push(np.zeros(3), 1.0)
    states, rewards = ring.fields
    states[1], rewards[1] = 7.0, 7.0
    with pytest.raises(ShapeError):
        ring.push(*row)
    assert len(ring) == 1 and np.all(states[1] == 7.0) and rewards[1] == 7.0
    ring.push(np.ones(3), 2.0)
    assert len(ring) == 2 and np.all(states[1] == 1.0) and rewards[1] == 2.0


def _config(kind: str, seed: int = 3, params=None) -> MarketConfig:
    return MarketConfig(
        agent_roster=[AgentSpec(f"{kind}{i}", kind, params or {}) for i in range(3)],
        clusters=(1, 2),
        weeks_per_episode=40,  # the 40 steps each test pushes
        episodes=1,
        seed=seed,
    )


# warm_up past every push: contribute() stores and never trains, so the team's rng is untouched
NO_TRAINING = {"buffer_capacity": 16, "warm_up": 10**6, "batch_size": 64}


def _random_steps(team, kind, n_steps, rng):
    """Per step, each member's (state, action, reward, next state) and the done flag."""
    d = team[0].learner.views[0].layer_sizes[0]
    products = len(team[0].product_specs)
    for step in range(n_steps):
        parts = []
        for _ in team:
            if kind == "maddpg":
                action = rng.uniform(-0.1, 0.1, size=products)
            else:
                action = rng.integers(0, team[0].learner.n_bins, size=products)
            parts.append((rng.normal(size=d), action, float(rng.normal()), rng.normal(size=d)))
        yield parts, step % 7 == 6


def test_maddpg_batch_equals_stacked_joint_transitions():
    team = build_agents(_config("maddpg", params=NO_TRAINING))
    coord = team[0].learner
    reference = ListReplayBuffer(coord.buffer.capacity, coord.buffer.recency_decay)
    for parts, done in _random_steps(team, "maddpg", 40, derive_rng(5, "steps")):
        for member, (state, action, reward, next_state) in zip(team, parts):
            coord.contribute(member.agent_id, state, action, reward, next_state, done)
        # the old JointTransition: per-member rows stacked, rewards as a list
        reference.push((np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts]),
                        [p[2] for p in parts], np.stack([p[3] for p in parts]), done))
    rng = derive_rng(6, "sample")
    rows = coord.buffer.sample(64, copy.deepcopy(rng))
    batch = reference.sample(64, rng)
    states, critic_in, next_states, rewards, done = coord._batch(rows)

    old_states = np.stack([t[0] for t in batch])
    old_actions = np.stack([t[1] for t in batch])
    b = len(batch)
    assert _same_bits(states, old_states)
    assert _same_bits(critic_in, np.concatenate([old_states.reshape(b, -1), old_actions.reshape(b, -1)], axis=1))
    assert np.shares_memory(states, critic_in)  # the actors read the critic input's state block
    assert _same_bits(next_states, np.stack([t[3] for t in batch]))
    assert _same_bits(rewards, np.asarray([t[2] for t in batch]).T)
    assert _same_bits(1.0 - done, 1.0 - np.asarray([t[4] for t in batch], dtype=float))


def test_qmix_batch_equals_stacked_joint_transitions():
    team = build_agents(_config("qmix", params=NO_TRAINING))
    coord = team[0].learner
    reference = ListReplayBuffer(coord.buffer.capacity, coord.buffer.recency_decay)
    for parts, done in _random_steps(team, "qmix", 40, derive_rng(7, "steps")):
        for member, (state, bins, reward, next_state) in zip(team, parts):
            coord.contribute(member.agent_id, state, bins, reward, next_state, done)
        shared = float(np.mean([p[2] for p in parts]))
        reference.push((np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts]),
                        [shared] * len(parts), np.stack([p[3] for p in parts]), done))
    rng = derive_rng(8, "sample")
    rows = coord.buffer.sample(64, copy.deepcopy(rng))
    batch = reference.sample(64, rng)
    states, actions, next_states, rewards, done = coord.buffer.gather(rows, coord._work)

    assert _same_bits(states, np.stack([t[0] for t in batch]))
    assert _same_bits(actions, np.asarray(np.stack([t[1] for t in batch]), dtype=int))
    assert _same_bits(next_states, np.stack([t[3] for t in batch]))
    assert _same_bits(rewards, np.asarray([t[2][0] for t in batch]))
    assert _same_bits(1.0 - done, 1.0 - np.asarray([t[4] for t in batch], dtype=float))


def test_madqn_batch_equals_stacked_transitions():
    """Each member's batch is its own transitions, as its own ring would hold them."""
    config = _config("madqn")
    ids = [s.agent_id for s in config.agent_roster]
    core = DqnCore(config, DqnHyper(buffer_capacity=16, hidden=(8,), warm_up=10**6), ids, 6, 2)
    references = [ListReplayBuffer(16, core.hyper.recency_decay) for _ in ids]
    rng = derive_rng(10, "steps")
    for step in range(40):
        done = step % 5 == 4
        for aid, reference in zip(ids, references):
            t = (rng.normal(size=6), rng.integers(0, 21, size=2), float(rng.normal()),
                 rng.normal(size=6), done)
            core.contribute(aid, *t)  # stores; warm_up is never reached
            reference.push(t)  # the old Transition's fields, in its order
    sample_rngs = [derive_rng(11, "sample", aid) for aid in ids]
    rows = np.stack([core.buffer.sample(64, copy.deepcopy(r)) for r in sample_rngs])
    states, actions, rewards, next_states, done = core._batch(rows)

    for i, (reference, sample_rng) in enumerate(zip(references, sample_rngs)):
        batch = reference.sample(64, sample_rng)
        assert _same_bits(states[i], np.stack([t[0] for t in batch]))
        assert _same_bits(actions[i], np.stack([np.asarray(t[1], dtype=int) for t in batch]))
        assert _same_bits(rewards[i], np.asarray([t[2] for t in batch]))
        assert _same_bits(next_states[i], np.stack([t[3] for t in batch]))
        assert _same_bits(1.0 - done[i], 1.0 - np.asarray([t[4] for t in batch], dtype=float))


@pytest.mark.parametrize("weeks,capacity", [(10, 10), (40, 16)])
def test_a_learners_ring_holds_at_most_its_runs_pushes(weeks, capacity):
    config = replace(_config("madqn"), weeks_per_episode=weeks)
    ids = [s.agent_id for s in config.agent_roster]
    core = DqnCore(config, DqnHyper(buffer_capacity=16, hidden=(8,)), ids, 6, 2)
    assert core.buffer.capacity == capacity
