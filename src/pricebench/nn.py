"""Self-contained learning substrate: dense nets with exact backprop, Adam,
recency-biased replay, Polyak target updates, and the exploration rate.

Everything is plain numpy. A network's parameters live in one contiguous
`flat` vector; its `weights`/`biases` lists are views of it, so Adam, target
updates and writes through either name change the same memory. A team net,
built from one generator per member, has a leading members axis: each
member's parameters are one contiguous slice of the team's `flat`, drawn
from that member's generator, and `member(i)` is a single net viewing that
slice, so a team trains in one batched pass while each member acts on its
own, in one memory layout from construction on.

Two passes skip work that the learners would throw away. A backward pass
writes the parameter gradients into the net's `grad` and returns dz1, the
gradient of the first layer's pre-activation, without forming the input
gradient dz1 @ W1: no learner reads a Q-net's or an actor's input gradient,
and MADDPG's actor update reads only each member's own action columns of its
critic's, which it multiplies out itself. Adam keeps the textbook moments
`m` and `v` and folds both bias corrections into a step size alpha_t and an
eps_hat, so its update divides once per element.

Buffers. A net keeps its activations and backward intermediates in scratch
arrays (`Workspace`) that it reuses from call to call, one per layer and
shape, so a training step allocates almost nothing once warm. Adam and
`soft_update` sweep their vectors in chunks through one `(2, CHUNK)` sweep
scratch per thread, allocated by the first sweep and shared by every
optimizer and target net, so a run holds one however many it builds. One
rule says which arrays a caller may keep:

- `DenseNet.forward` returns an array the caller owns.
- The cache and output of `forward_cached` and the dz1 that `backward`
  returns are views of the net's buffers. Each stays valid until the same
  net's next pass of the same kind (forward or backward) whose output has
  the same shape; a pass of another shape leaves it alone. (A net of one
  linear layer returns the `upstream` it was given as its dz1.)
- `net.grad` holds the parameter gradients, laid out like `flat`; the net's
  next backward with `params=True` overwrites it.

A target net (`clone()`) shares its online net's `Workspace`, so the two
hold one set of buffers: each learner runs its target passes and reduces
their output into an array it keeps (`forward` copies) before its online
pass, so neither net's pass meets the other's output in use. A learner
clones its targets at its first learn step, not when it is built; its
online nets do not change before then, so the clones are the same.

Replay. A `ReplayBuffer` keeps the transitions' states in one ring and one
array per other field (the learners choose the fields). A push writes its
state to its row's slot and its next state to the slot after it, which the
next push of the same episode overwrites with the same values, so each
state is stored once. Its first push allocates every row, `capacity + 1`
slots; a learner's capacity is at most the pushes of its run, episodes x
weeks_per_episode. `sample` returns ring rows, an array the caller owns;
`gather` and `gather_members` write the rows' states, next states and
fields into arrays kept in the caller's `Workspace`, so a gathered batch
belongs to the learner and stays valid until its next gather.

Threads. Every pass runs on the calling thread, and the module starts no
thread of its own. Runs use more CPUs side by side, one process each
(`harness.run_experiment(..., jobs=J)`).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "linear")
# Elements per pass of the elementwise optimizer and target-update loops: the
# scratch stays in cache and is bounded however large the parameter vector.
CHUNK = 32_768
_sweep = threading.local()


def _sweep_scratch() -> np.ndarray:
    """The calling thread's `(2, CHUNK)` scratch for Adam's and soft_update's
    chunked sweeps, allocated by its first use. Each sweep uses it only
    within one call, so every optimizer and target net shares it."""
    scratch = getattr(_sweep, "scratch", None)
    if scratch is None:
        scratch = _sweep.scratch = np.empty((2, CHUNK))
    return scratch


class ShapeError(ValueError):
    """Mismatched tensor/network shapes."""


class TrainingError(RuntimeError):
    """Non-finite values encountered during optimization."""


class Workspace:
    """Scratch arrays reused between calls, one per (name, shape).

    The first `get` of a name at a shape allocates an uninitialized array;
    every later `get` of that name and shape returns the same array, so a
    loop that asks for the same shapes allocates nothing after its first
    pass. The caller overwrites what the array held before.
    """

    def __init__(self):
        self._arrays: dict[tuple, np.ndarray | list[np.ndarray]] = {}

    def get(self, name, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        key = (name, shape)
        array = self._arrays.get(key)
        if array is None:
            array = self._arrays[key] = np.empty(shape, dtype)
        return array

    def layers(self, name, lead: tuple[int, ...], widths: Sequence[int]) -> list[np.ndarray]:
        """One float array of shape `lead + (width,)` per width, kept like get()'s.

        Its names are its own: a name passed here is not also passed to get().
        """
        key = (name, lead)
        arrays = self._arrays.get(key)
        if arrays is None:
            arrays = self._arrays[key] = [np.empty(lead + (w,)) for w in widths]
        return arrays


def _layer_views(layer_sizes: Sequence[int], flat: np.ndarray, members: int | None):
    """Per-layer weight and bias views of `flat`.

    The layout is member-major and, within a member, W1, b1, W2, b2, ...
    each row-major. With `members` the views carry a leading members axis.
    """
    rows = flat.reshape(members or 1, -1)
    lead = (members,) if members else ()
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rows[:, offset : offset + fan_out * fan_in].reshape(lead + (fan_out, fan_in)))
        offset += fan_out * fan_in
        biases.append(rows[:, offset : offset + fan_out].reshape(lead + (fan_out,)))
        offset += fan_out
    if offset != rows.shape[1]:
        raise ShapeError(f"{rows.shape[1]} parameters per net, layer sizes need {offset}")
    return weights, biases


class DenseNet:
    """Fully-connected network with per-layer activations and cached backprop.

    `rng` is one generator for a single net, or a sequence of generators, one
    per member, for a team net; `members` is None or the team's size. Each
    member draws its layers (W1, b1, W2, b2, ...) from its own generator, as
    a single net built from that generator would.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        activations: Sequence[str],
        rng: np.random.Generator | Sequence[np.random.Generator],
    ):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least an input and an output layer")
        if len(activations) != len(layer_sizes) - 1:
            raise ShapeError("need one activation per weight layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ShapeError(f"unknown activation {act!r}")
        self.layer_sizes = list(layer_sizes)
        self.activations = list(activations)
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        if not rngs:
            raise ShapeError("a team net needs at least one member")
        draws = []  # (size, init bound) of W1, b1, W2, b2, ... in flat order
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            draws += [(fan_out * fan_in, bound), (fan_out, bound)]
        flat = np.empty(len(rngs) * sum(n for n, _ in draws))
        offset = 0
        for member_rng in rngs:
            for n, bound in draws:
                flat[offset : offset + n] = member_rng.uniform(-bound, bound, size=n)
                offset += n
        self._bind(flat, None if single else len(rngs))

    def _bind(self, flat: np.ndarray, members: int | None) -> None:
        self.flat = flat
        self.members = members
        self.weights, self.biases = _layer_views(self.layer_sizes, flat, members)
        # the forward pass's operands: W^T and the bias as one row, views of flat
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._bias_rows = [b[..., None, :] for b in self.biases]
        self.grad: np.ndarray | None = None  # allocated by the first backward that needs it
        self._work = Workspace()

    def _like(self, flat: np.ndarray, members: int | None) -> "DenseNet":
        """A net of this architecture over `flat`."""
        net = DenseNet.__new__(DenseNet)
        net.layer_sizes = list(self.layer_sizes)
        net.activations = list(self.activations)
        net._bind(flat, members)
        return net

    def member(self, i: int) -> "DenseNet":
        """Member i of a team net: a single net whose `flat` is a view of
        member i's slice of the team's, so either one's writes reach the other."""
        if self.members is None or not 0 <= i < self.members:
            raise ShapeError(f"no member {i} in a team of {self.members}")
        size = self.flat.size // self.members
        return self._like(self.flat[i * size : (i + 1) * size], None)

    def scale_output_layer(self, factor: float) -> None:
        self.weights[-1] *= factor
        self.biases[-1] *= factor

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The net's output for `x`, as an array the caller owns."""
        y, _ = self.forward_cached(x)
        return y.copy()

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping each layer's output for backward().

        `x` is one sample `(in,)` or a batch `(B, in)`, shared by every member
        of a team, or, for a team, one batch per member `(members, B, in)`.
        A team's outputs carry a leading members axis. The output and the
        cache are views of the net's buffers for this output shape (see the
        module docstring); only post-activations are kept, because relu's
        mask `post > 0` equals `pre > 0` and tanh's derivative reads `post`.
        """
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        a = x[None, :] if squeeze else x
        if a.shape[-1] != self.layer_sizes[0]:
            raise ShapeError(
                f"input dim {a.shape[-1]} != expected {self.layer_sizes[0]}"
            )
        if a.ndim > 3 or (a.ndim == 3 and a.shape[0] != self.members):
            raise ShapeError(f"{a.shape[0]} input batches for {self.members} members")
        lead = (self.members, a.shape[-2]) if self.members else a.shape[:-1]
        outs = self._work.layers("post", lead, self.layer_sizes[1:])
        h = a
        for w_t, b, act, z in zip(self._weights_t, self._bias_rows, self.activations, outs):
            np.matmul(h, w_t, out=z)
            z += b
            if act == "relu":
                np.maximum(z, 0.0, out=z)
            elif act == "tanh":
                np.tanh(z, out=z)
            h = z
        post = [a, *outs]
        y = post[-1][..., 0, :] if squeeze else post[-1]
        return y, {"post": post, "squeeze": squeeze}

    def backward(self, cache, upstream: np.ndarray, params: bool = True) -> np.ndarray:
        """Exact gradients of sum(output * upstream) w.r.t. the parameters,
        written into `self.grad` (none with `params=False`).

        Returns dz1, the gradient w.r.t. the first layer's pre-activation,
        with the output's leading axes and the first layer's width: a view
        of the net's buffers (see the module docstring). The input gradient
        is dz1 @ W1, which the pass leaves to a caller that reads it.
        """
        if cache is None:
            raise RuntimeError("backward() called without a cached forward pass")
        upstream = np.ascontiguousarray(upstream, dtype=float)
        if cache["squeeze"]:
            upstream = upstream[..., None, :]
        post = cache["post"]
        if upstream.shape != post[-1].shape:
            raise ShapeError(
                f"upstream shape {upstream.shape} != output shape {post[-1].shape}"
            )
        if params and self.grad is None:
            self.grad = np.zeros_like(self.flat)
            self._grad_weights, self._grad_biases = _layer_views(
                self.layer_sizes, self.grad, self.members
            )
        work, lead, top = self._work, upstream.shape[:-1], len(self.weights) - 1
        g = upstream
        for layer in reversed(range(top + 1)):
            act, out = self.activations[layer], post[layer + 1]
            if act == "linear":  # the derivative is 1
                dz = g
            else:
                d_act = work.get((act + "'", layer), out.shape, bool if act == "relu" else float)
                if act == "relu":
                    np.greater(out, 0.0, out=d_act)
                else:  # tanh: 1 - tanh^2, read from the output
                    np.multiply(out, out, out=d_act)
                    np.subtract(1.0, d_act, out=d_act)
                # the top layer's dz may not overwrite the caller's upstream; below it
                # dz overwrites the pass's own input product
                dz = work.get(("dz", layer), out.shape) if layer == top else g
                np.multiply(g, d_act, out=dz)
            if params:
                np.matmul(dz.swapaxes(-1, -2), post[layer], out=self._grad_weights[layer])
                np.sum(dz, axis=-2, out=self._grad_biases[layer])
            if layer:
                d_post = work.get(("d_post", layer), lead + (self.layer_sizes[layer],))
                g = np.matmul(dz, self.weights[layer], out=d_post)
        return dz[..., 0, :] if cache["squeeze"] else dz

    def clone(self) -> "DenseNet":
        """A copy of the parameters that shares this net's buffers (see the
        module docstring): a target net."""
        twin = self._like(self.flat.copy(), self.members)
        twin._work = self._work
        return twin


def soft_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """Polyak update: target <- (1 - tau) * target + tau * online."""
    if target.layer_sizes != online.layer_sizes or target.flat.shape != online.flat.shape:
        raise ShapeError("target/online architectures differ")
    scratch = _sweep_scratch()[0]
    for lo in range(0, target.flat.size, CHUNK):
        t = target.flat[lo : lo + CHUNK]
        tau_online = np.multiply(online.flat[lo : lo + CHUNK], tau, out=scratch[: t.size])
        t *= 1.0 - tau
        t += tau_online


def hard_update(target: DenseNet, online: DenseNet) -> None:
    """target <- online, copied in place."""
    if target.layer_sizes != online.layer_sizes or target.flat.shape != online.flat.shape:
        raise ShapeError("target/online architectures differ")
    np.copyto(target.flat, online.flat)


class Adam:
    """Adam over a list of contiguous parameter arrays, updated in place.

    `m` and `v` are the textbook moment estimates. The parameter update is
    Kingma & Ba's form with the bias corrections folded into two scalars,
    p <- p - alpha_t m / (sqrt(v) + eps_hat), where alpha_t = lr sqrt(1 -
    beta2^t) / (1 - beta1^t) and eps_hat = eps sqrt(1 - beta2^t): the
    textbook step up to rounding, with one division per element.

    The learners pass flat parameter vectors, so one step is a few passes
    over a vector rather than a Python loop over layers and members, in
    chunks through the thread's sweep scratch. The moments are allocated by
    the first step, so an optimizer that never steps holds none.

    Every FLUSH_EVERY steps the moment entries below the smallest normal
    float are set to 0, chunk by chunk after the update. A parameter whose
    gradient stays 0 has its `m` scaled by beta1 each step until it sticks
    at a subnormal (beta1 times the smallest one rounds back to it), and
    numpy's passes over subnormals run tens of times slower. At lr <= 1
    such an entry moves its parameter by less than 1e-298, below the last
    bit of any parameter above 1e-280, so the flush leaves the parameters as
    they were.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    FLUSH_EVERY = 64

    def __init__(self, params: Sequence[np.ndarray]):
        self._n_params = len(params)
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        if len(params) != self._n_params:
            raise ShapeError("parameter list length changed under the optimizer")
        if not all(p.flags.c_contiguous for p in params):
            raise ShapeError("Adam updates contiguous arrays in place")
        # checked before any array is written, so a failed step leaves every array as it was
        for i, g in enumerate(grads):
            # min and max propagate NaN and reach +-inf, without a mask the size of g
            if not (np.isfinite(g.min()) and np.isfinite(g.max())):
                raise TrainingError(
                    f"non-finite gradient in parameter {i} (shape {g.shape})"
                )
        if not self.t:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        root2 = np.sqrt(1.0 - self.beta2**self.t)
        alpha, eps_hat = lr * root2 / (1.0 - self.beta1**self.t), self.eps * root2
        scratch = _sweep_scratch()
        for p, g, m, v in zip(params, grads, self.m, self.v):
            p, g, m, v = p.reshape(-1), np.ravel(g), m.reshape(-1), v.reshape(-1)
            for lo in range(0, p.size, CHUNK):
                chunk = slice(lo, lo + CHUNK)
                gc, mc, vc = g[chunk], m[chunk], v[chunk]
                step, denom = scratch[:, : gc.size]
                # m <- beta1 m + (1 - beta1) g;  v <- beta2 v + (1 - beta2) g g
                mc *= self.beta1
                mc += np.multiply(gc, 1.0 - self.beta1, out=step)
                vc *= self.beta2
                np.multiply(gc, 1.0 - self.beta2, out=step)
                vc += np.multiply(step, gc, out=step)
                # p <- p - alpha_t m / (sqrt(v) + eps_hat)
                np.sqrt(vc, out=denom)
                denom += eps_hat
                np.multiply(mc, alpha, out=step)
                step /= denom
                p[chunk] -= step
                if self.t % self.FLUSH_EVERY == 0:  # tiny: the smallest normal float
                    for moment in (mc, vc):
                        moment[np.abs(moment, out=step) < np.finfo(float).tiny] = 0.0


class ReplayBuffer:
    """Ring of transitions, a state ring and one array per field, sampled by decay^age.

    A transition is a state, its next state and a fixed tuple of other
    fields (say action, reward, done). Ring row i holds a transition's
    fields in row i of every array in `fields`, its state in slot i of
    `states` and its next state in slot i + 1 (slot 0 after the last): the
    slot that the next push writes its own state to. Within an episode the
    two are the same values, so each state is stored once.

    A terminal row's next-state slot is taken by the next episode's first
    state. Every learner multiplies its bootstrap by 1 - done = 0 there, so
    its target does not read that state; a row whose next state is not the
    next push's state must be marked done.

    The first push fixes the state's and each field's row shape and dtype
    and allocates `capacity + 1` rows of each array: `capacity` transitions
    and the slot of the newest one's next state. Once full, a push
    overwrites the oldest row.
    """

    def __init__(self, capacity: int, recency_decay: float = 0.999):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 < recency_decay <= 1:
            raise ValueError("recency_decay must be in (0, 1]")
        self.capacity = capacity
        self.recency_decay = recency_decay
        self.states: np.ndarray | None = None  # capacity + 1 slots, allocated by the first push
        self.fields: tuple[np.ndarray, ...] = ()
        # the shape of each value of a push, set by the first push
        self._row_shapes: list[tuple[int, ...]] = []
        self._size = 0
        self._next = 0  # the next push's row and state slot
        # (length, decay, cumulative draw table) of the last sample
        self._draws: tuple[int, float, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._size

    def push(self, state, next_state, *fields) -> None:
        """Write one transition: its state to the next row's slot, its next
        state to the slot after it, and each field to the next row.

        Every value is checked against its row shape before any is written.
        """
        values = [np.asarray(v) for v in (state, next_state, *fields)]
        shapes = [v.shape for v in values]
        if shapes[1] != shapes[0] or (self.states is not None and shapes != self._row_shapes):
            raise ShapeError(f"pushed row shapes {shapes} != the ring's {self._row_shapes}")
        if self.states is None:
            slots = self.capacity + 1
            self.states = np.empty((slots, *shapes[0]), values[0].dtype)
            self.fields = tuple(np.empty((slots, *v.shape), v.dtype) for v in values[2:])
            self._row_shapes = shapes
        row = self._next
        self._next = (row + 1) % len(self.states)
        self.states[row] = values[0]
        self.states[self._next] = values[1]
        for field, value in zip(self.fields, values[2:]):
            field[row] = value
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Ring rows of batch_size draws with replacement, newest entries most likely.

        The rows index `states` and every array in `fields`; the caller owns
        the returned array.
        """
        n = self._size
        if not n:
            raise ValueError("cannot sample from an empty buffer")
        draws = self._draws
        if draws is None or draws[0] != n or draws[1] != self.recency_decay:
            ages = np.arange(n - 1, -1, -1, dtype=float)  # newest has age 0
            weights = self.recency_decay**ages
            cdf = (weights / weights.sum()).cumsum()
            cdf /= cdf[-1]
            draws = self._draws = (n, self.recency_decay, cdf)
        # what rng.choice(n, batch_size, p=weights / weights.sum()) does with its table
        idx = draws[2].searchsorted(rng.random(batch_size), side="right")
        # full: the oldest row follows the next push's, whose slot holds the newest next state
        oldest = (self._next + 1) % (n + 1) if n == self.capacity else 0
        if oldest:
            idx += oldest
            idx %= n + 1
        return idx

    def gather(self, rows: np.ndarray, work: Workspace) -> list[np.ndarray]:
        """The `rows`' states, their next states, then each field's rows, in
        order, written into arrays kept in `work`."""
        after = self._slots_after(rows, work)
        pairs = [(self.states, rows), (self.states, after), *((f, rows) for f in self.fields)]
        return [_take(ring, at, work, k) for k, (ring, at) in enumerate(pairs)]

    def gather_members(self, rows: np.ndarray, work: Workspace) -> list[np.ndarray]:
        """Like gather() for (members, B) `rows`, member i's rows in row i,
        where each member reads only its own entry of a row.

        The states and every field whose rows have a leading members axis
        give member i entry i of its rows, (members, B, ...); a field of
        scalar rows (done) gives each member its rows whole, (members, B).
        """
        n = len(rows)
        member = np.arange(n)[:, None]
        # member i's cell of ring row r is r * members + i
        cells = np.multiply(rows, n, out=work.get(("replay", "cells"), rows.shape, np.intp))
        cells += member
        after = self._slots_after(rows, work)
        after *= n
        after += member
        pairs = [(self.states, cells), (self.states, after),
                 *((f, cells if f.ndim > 1 else rows) for f in self.fields)]
        batch = []
        for k, (ring, at) in enumerate(pairs):
            if at is not rows:  # one cell per (row, member)
                ring = ring.reshape(-1, *ring.shape[2:])
            batch.append(_take(ring, at, work, k))
        return batch

    def _slots_after(self, rows: np.ndarray, work: Workspace) -> np.ndarray:
        """The state slots of the `rows`' next states, in a kept array."""
        after = np.add(rows, 1, out=work.get(("replay", "after"), rows.shape, np.intp))
        return np.remainder(after, len(self.states), out=after)


def _take(ring: np.ndarray, at: np.ndarray, work: Workspace, key) -> np.ndarray:
    """ring[at] along the first axis, written into an array kept in `work`."""
    # mode="clip" writes straight into `out`; "raise" would buffer it (indices are in range)
    out = work.get(("replay", key), (*at.shape, *ring.shape[1:]), ring.dtype)
    return np.take(ring, at, axis=0, mode="clip", out=out)


def exploration_rate(start: float, decay: float, floor: float, episode: int) -> float:
    """Multiplicative decay with a floor: max(floor, start * decay^episode).

    Agents pass the episode index; callers wanting per-step decay can pass a
    step-derived index instead, the rate is unit-agnostic.
    """
    if episode < 0:
        raise ValueError("episode must be >= 0")
    return max(floor, start * decay**episode)
