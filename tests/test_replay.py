"""Replay kept as one array per field picks what the list-of-entries replay picked.

`ListReplayBuffer` is the list-based buffer that the learners used before
their replay became struct-of-arrays rings, kept verbatim as the reference:
for the same pushes and the same rng stream, `ReplayBuffer.sample` must pick
the same entries, and each learner's gathered batch must equal, bit for bit,
the batch the old learners assembled with `np.stack`.

The ring stores each state once: a row's next state is the slot of the next
push's state. So a terminal row's gathered next state is the next episode's
first state, not its own; the reference keeps the true one, and every
learner's TD target on a batch with terminal rows must equal, bit for bit,
the target computed from the reference's next states.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from pricebench.harness import build_agents
from pricebench.market import AgentSpec, MarketConfig, derive_rng
from pricebench.marl.madqn import DqnCore, DqnHyper
from pricebench.nn import ReplayBuffer, ShapeError, Workspace


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
            ring.push(i, i + 1, float(i))
            reference.push(i)
            if len(ring) < warm_up:
                continue
            for _ in range(int(pushes.integers(low, high + 1))):  # samples between pushes
                batch = int(pushes.integers(1, 65))
                rows_drawn = ring.sample(batch, ring_rng)
                assert ring.states[rows_drawn].tolist() == reference.sample(batch, reference_rng)
                assert np.array_equal(ring.fields[0][rows_drawn], ring.states[rows_drawn])
        assert len(ring) == len(reference) == capacity
        assert ring_rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("row", [
    (np.ones(2), np.ones(3), 2.0),  # a state of another shape
    (np.ones(3), np.ones(3)),  # a field missing
    (np.ones(3), np.ones(3), (2.0, 3.0)),  # a field of another shape
    (np.ones(3), np.ones(2), 2.0),  # a next state of another shape
])
def test_push_of_a_wrong_row_shape_writes_nothing(row):
    ring = ReplayBuffer(4, 0.999)
    ring.push(np.zeros(3), np.zeros(3), 1.0)
    states, (rewards,) = ring.states, ring.fields
    states[1:3], rewards[1] = 7.0, 7.0
    with pytest.raises(ShapeError):
        ring.push(*row)
    assert len(ring) == 1 and np.all(states[1:3] == 7.0) and rewards[1] == 7.0
    ring.push(np.ones(3), np.full(3, 2.0), 2.0)
    assert len(ring) == 2 and np.all(states[1] == 1.0) and rewards[1] == 2.0
    assert np.all(states[2] == 2.0)  # the next state, in the slot after


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
    """Per step, each member's (state, action, reward, next state) and the done
    flag, in episodes of 7 steps: a step's next state is the next step's state."""
    d = team[0].learner.views[0].layer_sizes[0]
    products = len(team[0].product_specs)
    states = [rng.normal(size=d) for _ in team]
    for step in range(n_steps):
        parts, done = [], step % 7 == 6
        for state in states:
            if kind == "maddpg":
                action = rng.uniform(-0.1, 0.1, size=products)
            else:
                action = rng.integers(0, team[0].learner.n_bins, size=products)
            parts.append((state, action, float(rng.normal()), rng.normal(size=d)))
        yield parts, done
        states = [rng.normal(size=d) for _ in team] if done else [p[3] for p in parts]


def _live(batch) -> np.ndarray:
    """The non-terminal entries of a reference batch: those whose next state the ring keeps."""
    live = ~np.asarray([t[4] for t in batch])
    assert live.any() and not live.all()  # the batch holds terminal rows too
    return live


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
    coord.build_training()  # the critic input's width is the critics'
    states, critic_in, next_states, rewards, done = coord._batch(rows)

    old_states = np.stack([t[0] for t in batch])
    old_actions = np.stack([t[1] for t in batch])
    b = len(batch)
    assert _same_bits(states, old_states)
    assert _same_bits(critic_in, np.concatenate([old_states.reshape(b, -1), old_actions.reshape(b, -1)], axis=1))
    assert np.shares_memory(states, critic_in)  # the actors read the critic input's state block
    live = _live(batch)
    assert _same_bits(next_states[live], np.stack([t[3] for t in batch])[live])
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
    states, next_states, actions, rewards, done = coord.buffer.gather(rows, coord._work)

    assert _same_bits(states, np.stack([t[0] for t in batch]))
    assert _same_bits(actions, np.asarray(np.stack([t[1] for t in batch]), dtype=int))
    live = _live(batch)
    assert _same_bits(next_states[live], np.stack([t[3] for t in batch])[live])
    assert _same_bits(rewards, np.asarray([t[2][0] for t in batch]))
    assert _same_bits(1.0 - done, 1.0 - np.asarray([t[4] for t in batch], dtype=float))


def test_madqn_batch_equals_stacked_transitions():
    """Each member's batch is its own transitions, as its own ring would hold them."""
    config = _config("madqn")
    ids = [s.agent_id for s in config.agent_roster]
    core = DqnCore(config, DqnHyper(buffer_capacity=16, hidden=(8,), warm_up=10**6), ids, 6, 2)
    references = [ListReplayBuffer(16, core.hyper.recency_decay) for _ in ids]
    rng = derive_rng(10, "steps")
    states = {aid: rng.normal(size=6) for aid in ids}
    for step in range(40):
        done = step % 5 == 4
        for aid, reference in zip(ids, references):
            t = (states[aid], rng.integers(0, 21, size=2), float(rng.normal()),
                 rng.normal(size=6), done)
            core.contribute(aid, *t)  # stores; warm_up is never reached
            reference.push(t)  # the old Transition's fields, in its order
            states[aid] = rng.normal(size=6) if done else t[3]  # the episode's next state
    sample_rngs = [derive_rng(11, "sample", aid) for aid in ids]
    rows = np.stack([core.buffer.sample(64, copy.deepcopy(r)) for r in sample_rngs])
    states, next_states, actions, rewards, done = core.buffer.gather_members(rows, core._work)

    for i, (reference, sample_rng) in enumerate(zip(references, sample_rngs)):
        batch = reference.sample(64, sample_rng)
        assert _same_bits(states[i], np.stack([t[0] for t in batch]))
        assert _same_bits(actions[i], np.stack([np.asarray(t[1], dtype=int) for t in batch]))
        assert _same_bits(rewards[i], np.asarray([t[2] for t in batch]))
        live = _live(batch)
        assert _same_bits(next_states[i][live], np.stack([t[3] for t in batch])[live])
        assert _same_bits(1.0 - done[i], 1.0 - np.asarray([t[4] for t in batch], dtype=float))


@pytest.mark.parametrize("weeks,capacity", [(10, 10), (40, 16)])
def test_a_learners_ring_holds_at_most_its_runs_pushes(weeks, capacity):
    config = replace(_config("madqn"), weeks_per_episode=weeks)
    ids = [s.agent_id for s in config.agent_roster]
    core = DqnCore(config, DqnHyper(buffer_capacity=16, hidden=(8,)), ids, 6, 2)
    assert core.buffer.capacity == capacity


def _episodes(rng, weeks, shape):
    """`weeks` transitions (state, next state, done) in episodes of 3-5 weeks,
    the last one cut short: a week's next state is the next week's state,
    and an episode's last week has its own, true next state."""
    transitions = []
    while len(transitions) < weeks:
        length = int(rng.integers(3, 6))
        state = rng.normal(size=shape)
        for week in range(length):
            next_state = rng.normal(size=shape)
            transitions.append((state, next_state, week == length - 1))
            state = next_state
    return transitions[:weeks]


@pytest.mark.parametrize("capacity", [40, 13])
def test_ring_states_equal_full_transitions(capacity):
    """Against a list buffer of full transitions: each row's state and field
    are the reference's, so is a non-terminal row's next state, and a terminal
    row's next state is the next episode's first state (its slot's next push)."""
    pushes = _episodes(derive_rng(capacity, "episodes"), 40, (2, 3))
    ring, reference = ReplayBuffer(capacity, 0.9), ListReplayBuffer(capacity, 0.9)
    work, terminal_rows = Workspace(), 0
    for k, (state, next_state, done) in enumerate(pushes):
        ring.push(state, next_state, k, done)
        reference.push((state, next_state, k, done))
        seed = derive_rng(k, "draws")
        rows = ring.sample(64, copy.deepcopy(seed))
        states, next_states, ks, dones = ring.gather(rows, work)
        for j, (t_state, t_next, t_k, t_done) in enumerate(reference.sample(64, seed)):
            assert ks[j] == t_k and dones[j] == t_done
            assert _same_bits(states[j], t_state)
            if not t_done:
                assert _same_bits(next_states[j], t_next)
            elif t_k < k:  # taken by the next push, the next episode's first state
                assert _same_bits(next_states[j], pushes[t_k + 1][0])
                terminal_rows += 1
    assert len(ring) == min(capacity, len(pushes)) and terminal_rows


def _learner_kind(kind: str, capacity: int):
    """A team of `kind` over 3 members, whose learn step samples 16 rows of a
    ring of `capacity` rows once 8 are in."""
    params = {"buffer_capacity": capacity, "warm_up": 8, "batch_size": 16}
    return build_agents(_config(kind, params=params))[0].learner


@pytest.mark.parametrize("capacity", [40, 16])
@pytest.mark.parametrize("kind", ["maddpg", "qmix", "madqn"])
def test_td_target_of_terminal_rows_equals_the_references(kind, capacity):
    """A learn step's TD target on a batch holding terminal rows equals, bit
    for bit, the target computed from the reference's true next states: every
    learner multiplies the bootstrap of a terminal row by 1 - done = 0."""
    coord = _learner_kind(kind, capacity)
    n, d = len(coord.member_ids), coord.views[0].layer_sizes[0]
    rng = derive_rng(capacity, kind, "episodes")
    pushes = _episodes(rng, 40, (n, d))
    true_next = {}  # a member's state's bytes -> its true next state
    for state, next_state, done in pushes:
        if kind == "maddpg":
            actions = rng.uniform(-0.1, 0.1, size=(n, coord.views[0].layer_sizes[-1]))
        else:
            actions = rng.integers(0, coord.n_bins, size=(n, coord.n_heads))
        rewards = tuple(rng.normal(size=n))
        coord.buffer.push(state, next_state, *coord._row(tuple(actions), rewards, done))
        true_next.update((s.tobytes(), t) for s, t in zip(state, next_state))

    gather_name = "gather_members" if kind == "madqn" else "gather"
    gather, target, seen = getattr(coord.buffer, gather_name), coord._td_target, {}

    def spy_gather(rows, work):
        batch = gather(rows, work)
        seen["states"] = batch[0].copy()
        return batch

    def spy_target(next_states, rewards, done):
        states = seen["states"] if kind == "madqn" else seen["states"].swapaxes(0, 1)
        # (members, B, state) for every kind: member i's own states
        reference = np.stack([[true_next[s.tobytes()] for s in member] for member in states])
        if kind != "madqn":
            reference = reference.swapaxes(0, 1)
        terminal = done.astype(bool)
        live = ~terminal
        assert terminal.any() and live.any()
        assert _same_bits(next_states[live], reference[live])
        assert not np.array_equal(next_states[terminal], reference[terminal])  # the ring's rule
        seen["reference_y"] = target(reference, rewards, done).copy()
        y = target(next_states, rewards, done)
        seen["y"] = y.copy()  # MADQN's step writes its error over y
        return y

    setattr(coord.buffer, gather_name, spy_gather)
    coord._td_target = spy_target
    assert coord.learn() is not None
    assert _same_bits(seen["y"], seen["reference_y"])
