"""Steady-state learn steps allocate almost nothing.

Once warm, a MADDPG (config B) or QMIX (config F) learn step writes into
buffers it keeps: the nets' activations and gradients, the target-update
scratch, the learner's batch arrays gathered from the replay rings and the
QMIX mixer's (B, members x mixing) intermediates. What it still allocates
is small per-step bookkeeping (the sampled ring rows, targets, losses) and
numpy's buffer for a broadcast ufunc operand, at most 64 KiB a call.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pricebench.harness import build_agents, desk_spec
from pricebench.marl.common import N_PRICE_BINS, state_dim

PEAK_LIMIT = 512 * 1024  # bytes; an allocating step peaks at about 4.1 MiB (B) and 2.6 MiB (F)
# a warm F step peaks at about 69 KiB; a mixer that allocates its
# intermediates every pass brings it to about 472 KiB, and a target copy
# that allocates its 256 KiB chunk scratch every time to about 260 KiB
QMIX_PEAK_LIMIT = 128 * 1024
WARM_UP_STEPS = 6


def _coordinator(config_id: str):
    """The config's team coordinator with two batches of random joint steps stored."""
    agents = build_agents(desk_spec(config_id).market.validate())
    coord = agents[0].coordinator
    n, products = len(coord.member_ids), len(agents[0].product_specs)
    shape = (n, state_dim(products))
    rng = np.random.default_rng(0)
    for _ in range(2 * coord.hyper.batch_size):
        if config_id == "F":
            actions = rng.integers(0, N_PRICE_BINS, size=(n, products))
        else:
            actions = rng.uniform(-0.1, 0.1, size=(n, products))
        rewards = rng.normal(size=n)
        states, next_states = rng.normal(size=shape), rng.normal(size=shape)
        if config_id == "F":
            coord.buffer.push(states, actions, next_states, rewards.mean(), False)
        else:  # the joint critic input (states, then actions) and the joint next state
            critic_in = np.concatenate([states.ravel(), actions.ravel()])
            coord.buffer.push(critic_in, next_states.ravel(), rewards, False)
    return coord


@pytest.mark.parametrize("config_id", ["B", "F"])
def test_steady_state_learn_step_peak_allocation(config_id):
    coord = _coordinator(config_id)
    # stacks the teams and allocates the buffers and the optimizer state; F's
    # first hard target copy (learn call target_update_every = 5) allocates
    # the target update's scratch
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
    if config_id == "F":
        assert max(peaks) <= QMIX_PEAK_LIMIT, f"a QMIX step peaked at {max(peaks) / 1024:.0f} KiB"
