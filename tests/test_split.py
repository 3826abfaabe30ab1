"""A team or an Adam step split into halves gives the bytes of the whole.

A team net's members never read each other's parameters or inputs, and
Adam updates each element on its own. So a team pass over members
`[0, n//2)` and `[n//2, n)` as two smaller teams, or Adam over the two
element halves of each vector with an optimizer each, must give the bytes
of the one pass or step over everything. The tests compare the two bit for
bit; they catch a pass that mixes members or an update that reads a
neighbouring element, chunk or vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from pricebench.market import derive_rng
from pricebench.nn import CHUNK, Adam, DenseNet


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _team(sizes, acts, members, skip=0, seed=0):
    """Members skip to skip + members of a team whose members draw in turn from one generator."""
    rng = derive_rng(seed, "split-team")
    if skip:
        DenseNet(sizes, acts, [rng] * skip)  # draws the members before the wanted ones
    return DenseNet(sizes, acts, [rng] * members)


NETS = {
    "maddpg_critic": ([260, 128, 64, 1], ["relu", "relu", "linear"]),
    "maddpg_actor": ([60, 64, 64, 5], ["relu", "relu", "tanh"]),
    "q_net": ([60, 128, 64, 32, 105], ["relu", "relu", "relu", "linear"]),
    "tanh-linear-relu": ([9, 7, 6, 3], ["tanh", "linear", "relu"]),
}


def _passes(team, x, up, params, inputs):
    """Output, post-activations, grad, dz1 and, with `inputs`, the input
    gradient dz1 @ W1 of one forward and one backward."""
    y, cache = team.forward_cached(x)
    dz1 = team.backward(cache, up, params=params)
    return (y.copy(), [a.copy() for a in cache["post"]],
            None if team.grad is None else team.grad.copy(), dz1.copy(),
            dz1 @ team.weights[0] if inputs else None)


@pytest.mark.parametrize("net_name", NETS)
@pytest.mark.parametrize("members", [4, 3])  # 3: the halves hold 1 and 2 members
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-member"])
@pytest.mark.parametrize("params", [True, False])
@pytest.mark.parametrize("inputs", [True, False])  # also form the input gradient from dz1
def test_team_passes_split_equal_serial(net_name, members, shared, params, inputs, batch=37):
    sizes, acts = NETS[net_name]
    rng = derive_rng(21, "split-pass", net_name, members, shared)
    x = rng.normal(size=(batch, sizes[0]) if shared else (members, batch, sizes[0])) * 2.0
    up = rng.normal(size=(members, batch, sizes[-1]))
    up[..., 0] = -0.0  # a signed zero meets dead relu units and linear layers
    whole = _passes(_team(sizes, acts, members), x, up, params, inputs)

    h = members // 2
    halves = [
        _passes(_team(sizes, acts, part.stop - part.start, skip=part.start),
                x if shared else x[part], up[part], params, inputs)
        for part in (slice(0, h), slice(h, members))
    ]
    y, post, grad, dz1, input_grad = whole
    assert _same_bits(y, np.concatenate([half[0] for half in halves]))
    # post[0] is the input itself; a shared input has no members axis
    if shared:
        assert all(_same_bits(post[0], half[1][0]) for half in halves)
    else:
        assert _same_bits(post[0], np.concatenate([half[1][0] for half in halves]))
    for layer in range(1, len(post)):
        assert _same_bits(post[layer], np.concatenate([half[1][layer] for half in halves]))
    if params:  # the team's grad is member-major, like its flat
        assert _same_bits(grad, np.concatenate([half[2] for half in halves]))
    else:
        assert grad is None and all(half[2] is None for half in halves)
    # one batch per member, shared input or not
    assert _same_bits(dz1, np.concatenate([half[3] for half in halves]))
    if inputs:
        assert _same_bits(input_grad, np.concatenate([half[4] for half in halves]))


def _adam_run(params, grads, lr=0.01):
    opt = Adam(params)
    for step in grads:
        opt.step(params, step, lr=lr)
    return params + opt.m + opt.v


@pytest.mark.parametrize(
    "sizes",
    [
        (4 * 21_609, 46_513),  # QMIX's team net and, in total, its mixer's hypernetworks
        (2 * CHUNK + 7, 3 * CHUNK + 1),  # odd, and not a multiple of CHUNK
        (5, 1),
    ],
)
def test_adam_split_equals_serial(sizes, steps=4):
    rng = derive_rng(22, "split-adam")
    params = [rng.normal(size=n) for n in sizes]
    grads = [[rng.normal(size=n) for n in sizes] for _ in range(steps)]
    whole = _adam_run([p.copy() for p in params], grads)

    # each non-empty element half of each vector, with an optimizer of its own
    pieces = [
        [_adam_run([params[i][cut].copy()], [[step[i][cut]] for step in grads])
         for cut in cuts if cut.stop > cut.start]
        for i, cuts in enumerate([slice(0, n // 2), slice(n // 2, n)] for n in sizes)
    ]
    # whole is [p_0, p_1, m_0, m_1, v_0, v_1]; each piece is its own [p, m, v]
    joined = [np.concatenate([piece[k] for piece in pieces[i]]) for k in range(3) for i in range(len(sizes))]
    assert all(_same_bits(a, b) for a, b in zip(whole, joined, strict=True))
