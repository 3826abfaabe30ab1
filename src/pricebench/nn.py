"""Self-contained learning substrate: dense nets with exact backprop, Adam,
recency-biased replay, Polyak target updates, and exploration schedules.

Everything is plain numpy. A network's parameters live in one contiguous
`flat` vector; its `weights`/`biases` lists are views of it, so Adam, target
updates and writes through either name change the same memory. Same-shaped
nets can be stacked into one team net (`DenseNet.team`) with a leading
members axis: each member's parameters stay one contiguous slice of the
team's `flat`, and the member nets become views of that slice, so a team
trains in one batched pass while each member still acts on its own.

Buffers. A net keeps its activations and backward intermediates in scratch
arrays (`Workspace`) that it reuses from call to call, one per layer and
shape, so a training step allocates almost nothing once warm. One rule says
which arrays a caller may keep:

- `DenseNet.forward` returns an array the caller owns.
- The cache and output of `forward_cached` and the `input_grad` of
  `backward` are views of the net's buffers. Each stays valid until the
  same net's next pass of the same kind (forward or backward) whose output
  has the same shape; a pass of another shape leaves it alone.
- The `grads` of `backward` are views of `net.grad`, which the net's next
  backward with `params=True` overwrites.

Replay. A `ReplayBuffer` keeps one array per transition field (the learners
choose the fields), row i of each holding transition i of the ring. Its first
push allocates the rows a run will push, `min(capacity, rows)`; a learner
passes episodes x weeks_per_episode, so a run never grows them, and a buffer
pushed past its rows doubles them up to `capacity`. `sample` returns ring
rows, an array the caller owns; `gather` writes each field's rows into
arrays kept in the caller's `Workspace`, so a gathered batch belongs to the
learner and stays valid until its next gather.

Two threads. When the process may run on two or more CPUs
(`os.sched_getaffinity`), a large pass runs in two halves at once, the
caller's and one worker thread's (`_Worker`, started by the first such
pass). A team pass (`forward_cached`, `backward`) splits by members,
`[0, n//2)` and `[n//2, n)`, for a shared `(B, in)` input as for a
`(members, B, in)` one; an Adam step splits each vector at its middle
element, which for a team of an even size is a member boundary. A member's
rows are computed by the same BLAS call on the same operands, and an
elementwise update by the same ufunc on the same elements, whichever thread
runs them, so the bytes equal the serial pass's. The buffers, the `grad`
views and the scratch of each half are fetched by the caller before the
split; the worker runs only private closures, never a public name, so a
tracer that wraps those sees every call on the caller's stack. A pass below
its threshold (`SPLIT_MIN_PASS` rows x parameters, `SPLIT_MIN_ADAM`
elements) stays serial: at those sizes the hand-off cost more than the
second CPU saved. Target updates always run serially. When splits stop
saving time (another process on the worker's CPU, or more threads than
CPUs), the passes run serially for a while (see `_Worker`).
`use_one_thread()` makes every pass serial; a process pool whose jobs fill
the CPUs calls it in each job. A forked child drops the parent's worker and
starts its own.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "linear")
# Elements per pass of the elementwise optimizer and target-update loops: the
# scratch stays in cache and is bounded however large the parameter vector.
CHUNK = 32_768
# The smallest work that runs faster split between two threads than on one
# (see the module docstring): a team pass in rows x parameters summed over
# the members, an Adam step in elements. Measured within learn steps on a
# 2-vCPU VM, split/serial speed: team passes of 5.5 M (the QMIX nets at
# batch 64) 0.93-1.10x, of 10.7 M (the MADDPG critics) 1.15-1.40x; Adam at
# 133 k elements (QMIX's nets and mixer) 1.09x, at 167 k (the MADDPG
# critics) 1.35x. The thresholds sit between, so at the default sizes only
# MADDPG's critic passes and critic Adam step split.
SPLIT_MIN_PASS = 6_000_000
SPLIT_MIN_ADAM = 150_000

# CPUs this process may run on; the split needs two, and `sched_getcpu` to
# keep its halves apart (see _Worker). Read once, here.
try:
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
except (AttributeError, OSError):  # no C library that reports the running CPU
    _sched_getcpu = None
_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and _sched_getcpu else 1


class ShapeError(ValueError):
    """Mismatched tensor/network shapes."""


class TrainingError(RuntimeError):
    """Non-finite values encountered during optimization."""


class _Worker:
    """One daemon thread that takes the second of two closures.

    `run(mine, theirs)` queues theirs(), runs mine() and then waits for the
    thread if it took theirs(), or runs theirs() itself if the thread had not
    started it by then.

    What keeps the halves apart and prompt was measured on a 2-vCPU VM:
    - Left to the scheduler, a thread woken by another tends to be placed on
      its waker's CPU (an idle virtual CPU reads as unavailable), and the two
      halves then share one CPU. So for each split the caller stays on the
      CPU it is running on and the thread is kept to the others. No CPU is
      fixed: the caller runs anywhere between splits, and each split places
      the thread anew.
    - Waking a thread from a plain blocking wait took 0.1-0.7 ms, as long as
      a half. So both sides wait for the other in `WAIT_S` timed waits, and
      the thread keeps waiting so for `POLL_S` after each job before it blocks.
    - The CPUs may be busy: another process, another pricebench run, the
      host. A half the thread has taken cannot be taken back, so the caller
      waits for it however long it runs, and on a shared CPU some of the
      thread's halves stall for a whole time slice (3-6 ms against 0.5 ms).
      When every CPU has more work than it can run, as with two split runs
      on two CPUs, each half also runs at part speed. A split saved time if
      it ended before the caller could have run both halves on a CPU of its
      own, twice the CPU time of its own half (`time.thread_time`). When the
      mean saving over about the last 64 splits, and at least 32 since the
      last back-off, is negative, the passes run serially (`_splits`) for
      `BACKOFF_S`, twice as long as the last back-off when it comes within
      128 splits of it, up to `BACKOFF_MAX_S`.
    """

    POLL_S = 0.003  # longer than the gaps between the passes of one learn step
    WAIT_S = 5e-5
    BACKOFF_S = 0.5
    BACKOFF_MAX_S = 8.0

    def __init__(self):
        self._jobs: deque[Callable[[], None]] = deque()  # the queued closure, until taken
        self._wake, self._done, self._busy = threading.Lock(), threading.Lock(), threading.Lock()
        self._wake.acquire()
        self._done.acquire()
        self._error: BaseException | None = None
        self._saving = 0.0  # running mean of the seconds each recent split saved
        self._judged = 0  # splits since the last back-off
        self._backoff_s = 0.0  # the last back-off's length
        self._serial_until = 0.0
        self._placed: set[int] | None = None  # the CPUs the thread is kept to
        thread = threading.Thread(target=self._serve, name="pricebench-nn", daemon=True)
        thread.start()
        self._tid = thread.native_id

    def _serve(self) -> None:
        while True:
            idle_until = time.perf_counter() + self.POLL_S
            while not self._wake.acquire(timeout=self.WAIT_S):
                if time.perf_counter() > idle_until:
                    self._wake.acquire()
                    break
            try:
                job = self._jobs.pop()
            except IndexError:  # the caller ran it
                continue
            try:
                job()
            except BaseException as exc:  # noqa: BLE001 - run() re-raises it on the caller
                self._error = exc
            self._done.release()

    def backing_off(self) -> bool:
        """Whether the passes run serially now, after splits that saved no time."""
        return time.perf_counter() < self._serial_until

    def run(self, mine: Callable[[], None], theirs: Callable[[], None]) -> None:
        """mine() and theirs(), in either thread; returns once both have.

        An error of either is raised here, after both returned. While another
        caller thread has the worker, or when this thread may run on one CPU
        only, the caller runs both itself.
        """
        if not self._busy.acquire(blocking=False):
            mine()
            theirs()
            return
        cpus = os.sched_getaffinity(0)
        here = _sched_getcpu()
        if here not in cpus or len(cpus) < 2:
            self._busy.release()
            mine()
            theirs()
            return
        try:
            os.sched_setaffinity(0, {here})
            if self._placed != cpus - {here}:
                self._placed = cpus - {here}
                os.sched_setaffinity(self._tid, self._placed)
            self._jobs.append(theirs)
            if self._wake.locked():  # else a wake is pending and the thread will find the job
                self._wake.release()
            start, start_cpu = time.perf_counter(), time.thread_time()
            try:
                mine()
            finally:
                mine_cpu = time.thread_time() - start_cpu
                try:
                    left = self._jobs.pop()
                except IndexError:  # the thread took it
                    left = None
                    while not self._done.acquire(timeout=self.WAIT_S):
                        pass
                    self._judge(2 * mine_cpu - (time.perf_counter() - start))
                error, self._error = self._error, None
        finally:
            os.sched_setaffinity(0, cpus)
            self._busy.release()
        if error is not None:
            raise error
        if left is not None:
            left()

    def _judge(self, saved_s: float) -> None:
        self._saving += (saved_s - self._saving) / 64
        self._judged += 1
        if self._saving < 0 and self._judged >= 32:
            again = self._backoff_s > 0 and self._judged < 128
            self._backoff_s = min(2 * self._backoff_s, self.BACKOFF_MAX_S) if again else self.BACKOFF_S
            self._serial_until = time.perf_counter() + self._backoff_s
            self._saving, self._judged = 0.0, 0


_worker: _Worker | None = None
_worker_lock = threading.Lock()


def _in_halves(mine: Callable[[], None], theirs: Callable[[], None]) -> None:
    global _worker
    worker = _worker
    if worker is None:
        with _worker_lock:
            if _worker is None:
                _worker = _Worker()
            worker = _worker
    worker.run(mine, theirs)


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


def use_one_thread() -> None:
    """Run every pass of this process serially: its siblings fill the other CPUs."""
    global _cpus
    _cpus = 1


def _splits(work: int, minimum: int) -> bool:
    """Whether a pass of this size runs on two threads now."""
    return _cpus >= 2 and work >= minimum and not (_worker and _worker.backing_off())


if hasattr(os, "register_at_fork"):
    # a forked child has no copy of the parent's worker thread; it starts its own
    os.register_at_fork(after_in_child=_forget_worker)


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


def _interleave(weights: list[np.ndarray], biases: list[np.ndarray]) -> list[np.ndarray]:
    return [a for pair in zip(weights, biases) for a in pair]


def _forward_layers(a: np.ndarray, layers) -> None:
    """Run `a` through (W^T, bias row, activation, output buffer) layers."""
    for w_t, b, act, z in layers:
        np.matmul(a, w_t, out=z)
        z += b
        if act == "relu":
            np.maximum(z, 0.0, out=z)
        elif act == "tanh":
            np.tanh(z, out=z)
        a = z


def _backward_layers(g: np.ndarray, layers) -> None:
    """Backpropagate `g` through the layers of DenseNet.backward, top layer first."""
    for act, out, d_act, dz, weight, x, grad_w, grad_b, input_grad in layers:
        if act == "linear":  # the derivative is 1
            dz = g
        else:
            if act == "relu":
                np.greater(out, 0.0, out=d_act)
            else:  # tanh: 1 - tanh^2, read from the output
                np.multiply(out, out, out=d_act)
                np.subtract(1.0, d_act, out=d_act)
            if dz is None:
                dz = g
            np.multiply(g, d_act, out=dz)
        if grad_w is not None:
            np.matmul(dz.swapaxes(-1, -2), x, out=grad_w)
            np.sum(dz, axis=-2, out=grad_b)
        if input_grad is not None:
            g = np.matmul(dz, weight, out=input_grad)


def _member_halves(layers, h: int, shared: np.ndarray | None = None):
    """The layers' team arrays cut at member h: members [0, h), then [h, n).

    Names, None and the `shared` team input `(B, in)`, which has no members
    axis, stay as they are.
    """
    def cut(part: slice):
        return [
            tuple(a if a is None or a is shared or isinstance(a, str) else a[part] for a in layer)
            for layer in layers
        ]
    return cut(slice(0, h)), cut(slice(h, None))


class DenseNet:
    """Fully-connected network with per-layer activations and cached backprop.

    `members` is None for a single net, or the size of the leading members
    axis of a team net built by `DenseNet.team`.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        activations: Sequence[str],
        rng: np.random.Generator,
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
        arrays = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            arrays.append(rng.uniform(-bound, bound, size=fan_out * fan_in))
            arrays.append(rng.uniform(-bound, bound, size=fan_out))
        self._bind(np.concatenate(arrays), None)

    def _bind(self, flat: np.ndarray, members: int | None) -> None:
        self.flat = flat
        self.members = members
        self.weights, self.biases = _layer_views(self.layer_sizes, flat, members)
        # the forward pass's operands: W^T and the bias as one row, views of flat
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._bias_rows = [b[..., None, :] for b in self.biases]
        self.grad: np.ndarray | None = None  # allocated by the first backward that needs it
        self._work = Workspace()

    @classmethod
    def team(cls, nets: Sequence["DenseNet"]) -> "DenseNet":
        """One net with a leading members axis holding copies of `nets`.

        Each of `nets` is rebound to its slice of the team's `flat`, so from
        then on member and team read and write the same parameters.
        """
        first = nets[0]
        for net in nets:
            if net.members is not None:
                raise ShapeError("a team member must be a single net")
            if net.layer_sizes != first.layer_sizes or net.activations != first.activations:
                raise ShapeError("team members must share one architecture")
        team = cls.__new__(cls)
        team.layer_sizes = list(first.layer_sizes)
        team.activations = list(first.activations)
        team._bind(np.concatenate([net.flat for net in nets]), len(nets))
        size = first.flat.size
        for i, net in enumerate(nets):
            net._bind(team.flat[i * size : (i + 1) * size], None)
        return team

    def params(self) -> list[np.ndarray]:
        return _interleave(self.weights, self.biases)

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
        layers = list(zip(self._weights_t, self._bias_rows, self.activations, outs))
        if self._splits(a.shape[-2]):
            h, shared = self.members // 2, a.ndim == 2
            first, second = _member_halves(layers, h)
            _in_halves(
                lambda: _forward_layers(a if shared else a[:h], first),
                lambda: _forward_layers(a if shared else a[h:], second),
            )
        else:
            _forward_layers(a, layers)
        post = [a, *outs]
        y = post[-1][..., 0, :] if squeeze else post[-1]
        return y, {"post": post, "squeeze": squeeze}

    def backward(self, cache, upstream: np.ndarray, params: bool = True, inputs: bool = True):
        """Exact gradients of sum(output * upstream) w.r.t. params and input.

        Returns (grads, input_grad). `grads` is [dW1, db1, dW2, db2, ...],
        aligned with params(): views of `self.grad`, which the next backward
        overwrites. A team's input gradient has one batch per member; it is a
        view of the net's buffers, valid until the next backward whose output
        has its shape. With `params=False` no weight gradient is computed and
        `grads` is None; with `inputs=False` the first layer's input product
        is neither computed nor given a buffer, and `input_grad` is None.
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
        # every buffer of the pass, top layer first: (activation, output,
        # derivative, dz, weight, layer input, weight grad, bias grad, input grad)
        work, lead, top = self._work, upstream.shape[:-1], len(self.weights) - 1
        layers = []
        for layer in reversed(range(top + 1)):
            act, out = self.activations[layer], post[layer + 1]
            d_act = dz = None
            if act != "linear":
                d_act = work.get((act + "'", layer), out.shape, bool if act == "relu" else float)
                # the top layer's dz may not overwrite the caller's upstream; below it
                # dz overwrites the pass's own input product
                if layer == top:
                    dz = work.get(("dz", layer), out.shape)
            grad_w = grad_b = input_grad = None
            if params:
                grad_w, grad_b = self._grad_weights[layer], self._grad_biases[layer]
            if layer or inputs:
                input_grad = work.get(("input_grad", layer), lead + (self.layer_sizes[layer],))
            layers.append((act, out, d_act, dz, self.weights[layer], post[layer], grad_w, grad_b, input_grad))
        if self._splits(lead[-1]):
            h = self.members // 2
            first, second = _member_halves(layers, h, post[0] if post[0].ndim == 2 else None)
            _in_halves(
                lambda: _backward_layers(upstream[:h], first),
                lambda: _backward_layers(upstream[h:], second),
            )
        else:
            _backward_layers(upstream, layers)
        grads = _interleave(self._grad_weights, self._grad_biases) if params else None
        input_grad = None
        if inputs:
            g = layers[-1][-1]
            input_grad = g[..., 0, :] if cache["squeeze"] else g
        return grads, input_grad

    def _splits(self, rows: int) -> bool:
        return (self.members or 0) >= 2 and _splits(rows * self.flat.size, SPLIT_MIN_PASS)

    def clone(self) -> "DenseNet":
        twin = DenseNet.__new__(DenseNet)
        twin.layer_sizes = list(self.layer_sizes)
        twin.activations = list(self.activations)
        twin._bind(self.flat.copy(), self.members)
        return twin


def soft_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """Polyak update: target <- (1 - tau) * target + tau * online."""
    if target.layer_sizes != online.layer_sizes or target.flat.shape != online.flat.shape:
        raise ShapeError("target/online architectures differ")
    scratch = target._work.get("update", (min(CHUNK, target.flat.size),))
    for lo in range(0, target.flat.size, CHUNK):
        t = target.flat[lo : lo + CHUNK]
        tau_online = np.multiply(online.flat[lo : lo + CHUNK], tau, out=scratch[: t.size])
        t *= 1.0 - tau
        t += tau_online


def hard_update(target: DenseNet, online: DenseNet) -> None:
    soft_update(target, online, 1.0)


class Adam:
    """Adam over a list of contiguous parameter arrays, updated in place.

    The learners pass flat parameter vectors, so one step is a few passes
    over a vector rather than a Python loop over layers and members. The
    scratch is two chunk-sized buffers per thread, allocated by the first
    step that uses the thread.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self._work = Workspace()

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        if len(params) != len(self.m):
            raise ShapeError("parameter list length changed under the optimizer")
        if not all(p.flags.c_contiguous for p in params):
            raise ShapeError("Adam updates contiguous arrays in place")
        # checked before either half writes, so a failed step leaves every array as it was
        for i, g in enumerate(grads):
            # min and max propagate NaN and reach +-inf, without a mask the size of g
            if not (np.isfinite(g.min()) and np.isfinite(g.max())):
                raise TrainingError(
                    f"non-finite gradient in parameter {i} (shape {g.shape})"
                )
        self.t += 1
        correct = (1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t)
        vectors = [
            (p.reshape(-1), np.ravel(g), m.reshape(-1), v.reshape(-1))
            for p, g, m, v in zip(params, grads, self.m, self.v)
        ]
        chunk = (2, min(CHUNK, max(p.size for p in params)))
        if _splits(sum(p.size for p in params), SPLIT_MIN_ADAM):
            first = [tuple(a[: a.size // 2] for a in vector) for vector in vectors]
            second = [tuple(a[a.size // 2 :] for a in vector) for vector in vectors]
            mine, theirs = (self._work.get(("scratch", i), chunk) for i in (0, 1))
            _in_halves(
                lambda: self._update(first, lr, correct, mine),
                lambda: self._update(second, lr, correct, theirs),
            )
        else:
            self._update(vectors, lr, correct, self._work.get(("scratch", 0), chunk))

    def _update(self, vectors, lr: float, correct: tuple[float, float], scratch: np.ndarray) -> None:
        correct1, correct2 = correct
        for p, g, m, v in vectors:
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
                # p <- p - lr (m / c1) / (sqrt(v / c2) + eps)
                np.divide(mc, correct1, out=step)
                step *= lr
                np.divide(vc, correct2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                step /= denom
                p[chunk] -= step


class ReplayBuffer:
    """Ring of transitions, one array per field, sampled by decay^age.

    A transition is a fixed tuple of fields (say state, action, reward, next
    state, done), and row i of every array in `fields` holds the same
    transition. The first push fixes each field's row shape and dtype and
    allocates `rows` rows (at most `capacity`); pushes past them double the
    rows, up to `capacity`. Once full, a push overwrites the oldest row.
    """

    def __init__(self, capacity: int, recency_decay: float = 0.999, rows: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 < recency_decay <= 1:
            raise ValueError("recency_decay must be in (0, 1]")
        self.capacity = capacity
        self.recency_decay = recency_decay
        self.fields: tuple[np.ndarray, ...] = ()
        self._rows = min(max(rows, 1), capacity)
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, *row) -> None:
        """Write one transition, one value per field, into the next ring row."""
        values = [np.asarray(v) for v in row]
        if not self.fields:
            self.fields = tuple(np.empty((self._rows, *v.shape), v.dtype) for v in values)
        if len(values) != len(self.fields):
            raise ShapeError(f"{len(values)} fields pushed to a buffer of {len(self.fields)}")
        for field, value in zip(self.fields, values):
            if value.shape != field.shape[1:]:
                raise ShapeError(f"field row shape {value.shape} != {field.shape[1:]}")
        slot = self._next
        if slot == len(self.fields[0]):  # every row in use and fewer than capacity
            rows = min(2 * slot, self.capacity)
            grown = [np.empty((rows, *f.shape[1:]), f.dtype) for f in self.fields]
            for new, old in zip(grown, self.fields):
                new[:slot] = old
            self.fields = tuple(grown)
        for field, value in zip(self.fields, values):
            field[slot] = value
        self._next = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Ring rows of batch_size draws with replacement, newest entries most likely.

        The rows index every array in `fields`; the caller owns the returned array.
        """
        n = self._size
        if not n:
            raise ValueError("cannot sample from an empty buffer")
        ages = np.arange(n - 1, -1, -1, dtype=float)  # newest has age 0
        weights = self.recency_decay**ages
        probs = weights / weights.sum()
        idx = rng.choice(n, size=batch_size, replace=True, p=probs)
        if n == self.capacity and self._next:  # full: the oldest row is the next to overwrite
            idx += self._next
            idx %= n
        return idx

    def gather(self, rows: np.ndarray, work: Workspace) -> list[np.ndarray]:
        """Each field's `rows`, in order, written into arrays kept in `work`."""
        return [
            # mode="clip" writes straight into `out`; "raise" would buffer it (rows are in range)
            np.take(f, rows, axis=0, out=work.get(("batch", i), (len(rows), *f.shape[1:]), f.dtype),
                    mode="clip")
            for i, f in enumerate(self.fields)
        ]


@dataclass(frozen=True)
class ExplorationSchedule:
    """Multiplicative decay with a floor: max(floor, start * decay^e).

    Agents pass the episode index; callers wanting per-step decay can pass a
    step-derived index instead, the schedule is unit-agnostic.
    """

    kind: str  # "gaussian_noise" | "epsilon_greedy"
    start: float
    decay: float
    floor: float

    def value(self, episode: int) -> float:
        if episode < 0:
            raise ValueError("episode must be >= 0")
        return max(self.floor, self.start * self.decay**episode)


EPSILON_GREEDY_DEFAULT = ExplorationSchedule("epsilon_greedy", start=1.0, decay=0.995, floor=0.05)
GAUSSIAN_NOISE_DEFAULT = ExplorationSchedule("gaussian_noise", start=0.2, decay=0.9995, floor=0.05)

