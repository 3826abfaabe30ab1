"""Steady-state learn steps allocate almost nothing, and keep one copy of what they hold.

Once warm, a MADDPG (config B), MADQN (config C) or QMIX (config F) learn
step writes into buffers it keeps: the nets' activations and gradients, the
sweep scratch that every Adam and target update shares, the learner's batch
arrays gathered from the replay rings and the QMIX mixer's (B, members x
mixing) intermediates. What it still allocates is small per-step
bookkeeping (the sampled ring rows, targets, losses) and numpy's buffer for
a broadcast ufunc operand, at most 64 KiB a call. What a learner holds is
held once: its ring stores each state in one slot, and no optimizer or net
keeps a sweep scratch of its own.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pricebench import nn
from pricebench.harness import build_agents, desk_spec
from pricebench.marl.common import N_PRICE_BINS, state_dim

# bytes. A warm step peaks at about 81 KiB (B), 86 KiB (C) and 69 KiB (F). An
# allocating step peaks at about 4.1 MiB (B) and 2.6 MiB (F); in F, a mixer that
# allocates its intermediates every pass brings it to about 472 KiB. Adam and
# the soft updates sweep through the thread's one 512 KiB scratch, which the
# warm-up allocates; a sweep that allocated its own every call would pass the
# limit alone. B's warm peak includes one of numpy's 64 KiB broadcast buffers
# (for a bias row or a bool mask); a step that holds two at once, as a team
# pass run in two concurrent halves did, peaks at about 158 KiB.
PEAK_LIMIT = 128 * 1024
WARM_UP_STEPS = 6


def _coordinator(config_id: str):
    """The config's team coordinator with two batches of random joint steps
    stored, in a run of 2 x 64 weeks: as many steps as its buffer holds."""
    agents = build_agents(desk_spec(config_id, episodes=2, weeks_per_episode=64).market)
    coord = agents[0].learner
    n, products = len(coord.member_ids), len(agents[0].product_specs)
    shape = (n, state_dim(products))
    rng = np.random.default_rng(0)
    next_states = rng.normal(size=shape)
    for _ in range(2 * coord.hyper.batch_size):
        if config_id in ("C", "F"):
            actions = rng.integers(0, N_PRICE_BINS, size=(n, products))
        else:
            actions = rng.uniform(-0.1, 0.1, size=(n, products))
        rewards = rng.normal(size=n)
        # one episode: a week's next state is the next week's state
        states, next_states = next_states, rng.normal(size=shape)
        reward = rewards.mean() if config_id == "F" else rewards  # F stores the shared reward
        coord.buffer.push(states, next_states, actions, reward, False)
    return coord


@pytest.mark.parametrize("config_id", ["B", "C", "F"])
def test_steady_state_learn_step_peak_allocation(config_id):
    coord = _coordinator(config_id)
    # allocates the buffers and the optimizer's moments; a learn call past
    # target_update_every = 5 also makes C's and F's first hard target copy
    for _ in range(WARM_UP_STEPS):
        coord.learn()
    trained = coord.critics if config_id == "B" else coord.nets
    before = trained.flat.copy()
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(20):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            coord.learn()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert not np.array_equal(trained.flat, before), "the measured steps trained nothing"
    assert max(peaks) <= PEAK_LIMIT, f"a learn step peaked at {max(peaks) / 1024:.0f} KiB"


def test_b_ring_stores_each_state_once():
    """After a B run's 1,040 pushes (10 x 104 weeks), its ring holds 1,041
    state slots and no field as wide as one member's state: no state is
    stored twice."""
    market = desk_spec("B", episodes=10, weeks_per_episode=104).market
    # warm_up past every push: contribute() stores and never trains
    roster = [replace(a, params={**a.params, "warm_up": 10**6}) for a in market.agent_roster]
    agents = build_agents(replace(market, agent_roster=roster))
    coord = agents[0].learner
    n, products = len(coord.member_ids), len(agents[0].product_specs)
    d = state_dim(products)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(n, d))
    for week in range(10 * 104):
        done = week % 104 == 103
        next_states = rng.normal(size=(n, d))
        for aid, state, next_state in zip(coord.member_ids, states, next_states):
            coord.contribute(aid, state, rng.uniform(-0.1, 0.1, products), 0.0, next_state, done)
        states = rng.normal(size=(n, d)) if done else next_states
    ring = coord.buffer
    assert len(ring) == ring.capacity == 1040 and coord.learn_calls == 0
    assert ring.states.shape == (1041, n, d)
    assert all(field[0].size < d for field in ring.fields)


def _held(work: nn.Workspace) -> list[np.ndarray]:
    kept = work._arrays.values()
    return [a for entry in kept for a in (entry if isinstance(entry, list) else [entry])]


def test_b_learn_step_sweeps_through_the_shared_scratch():
    """After a B learn step no optimizer or net holds a sweep scratch of its
    own: Adam and the soft updates wrote the thread's one scratch."""
    coord = _coordinator("B")
    scratch = nn._sweep_scratch()
    scratch.fill(np.nan)
    assert coord.learn() is not None
    assert not np.isnan(scratch).any()  # both rows filled by the sweeps
    nets = [coord.actors, coord.critics, coord.target_actors, coord.target_critics]
    for work in [coord._work, *(net._work for net in nets)]:
        assert all(nn.CHUNK not in a.shape for a in _held(work))
    for opt in (coord.actor_opt, coord.critic_opt):
        assert not any(isinstance(v, (nn.Workspace, np.ndarray)) for v in vars(opt).values())
