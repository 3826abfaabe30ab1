"""Self-contained learning substrate: dense nets with exact backprop, Adam,
recency-biased replay, Polyak target updates, and exploration schedules.

Everything is plain numpy. A network's parameters live in `weights`/`biases`
lists; optimizers mutate those arrays in place so target-network copies stay
independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "linear")
WEIGHTS_FORMAT_VERSION = 1


class ShapeError(ValueError):
    """Mismatched tensor/network shapes."""


class TrainingError(RuntimeError):
    """Non-finite values encountered during optimization."""


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(z.dtype)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


class DenseNet:
    """Fully-connected network with per-layer activations and cached backprop."""

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
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def scale_output_layer(self, factor: float) -> None:
        self.weights[-1] *= factor
        self.biases[-1] *= factor

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping pre/post activations for backward()."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        a = x.reshape(1, -1) if squeeze else x
        if a.shape[1] != self.layer_sizes[0]:
            raise ShapeError(
                f"input dim {a.shape[1]} != expected {self.layer_sizes[0]}"
            )
        pre, post = [], [a]
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = post[-1] @ w.T + b
            pre.append(z)
            post.append(_apply_activation(act, z))
        y = post[-1][0] if squeeze else post[-1]
        return y, {"pre": pre, "post": post, "squeeze": squeeze}

    def backward(self, cache, upstream: np.ndarray):
        """Exact gradients of sum(output * upstream) w.r.t. params and input.

        Returns ([dW1, db1, dW2, db2, ...], input_grad), aligned with params().
        """
        if cache is None:
            raise RuntimeError("backward() called without a cached forward pass")
        upstream = np.asarray(upstream, dtype=float)
        if cache["squeeze"]:
            upstream = upstream.reshape(1, -1)
        pre, post = cache["pre"], cache["post"]
        if upstream.shape != pre[-1].shape:
            raise ShapeError(
                f"upstream shape {upstream.shape} != output shape {pre[-1].shape}"
            )
        grads: list[np.ndarray] = []
        g = upstream
        for layer in reversed(range(len(self.weights))):
            dz = g * _activation_grad(self.activations[layer], pre[layer], post[layer + 1])
            dw = dz.T @ post[layer]
            db = dz.sum(axis=0)
            grads.insert(0, db)
            grads.insert(0, dw)
            g = dz @ self.weights[layer]
        input_grad = g[0] if cache["squeeze"] else g
        return grads, input_grad

    def clone(self) -> "DenseNet":
        twin = DenseNet.__new__(DenseNet)
        twin.layer_sizes = list(self.layer_sizes)
        twin.activations = list(self.activations)
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin


def soft_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """Polyak update: target <- (1 - tau) * target + tau * online."""
    if target.layer_sizes != online.layer_sizes:
        raise ShapeError("target/online architectures differ")
    for tp, op in zip(target.params(), online.params()):
        tp *= 1.0 - tau
        tp += tau * op


def hard_update(target: DenseNet, online: DenseNet) -> None:
    soft_update(target, online, 1.0)


class Adam:
    """Adam over an in-place-updated list of parameter arrays."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        if len(params) != len(self.m):
            raise ShapeError("parameter list length changed under the optimizer")
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise TrainingError(
                    f"non-finite gradient in parameter {i} (shape {g.shape})"
                )
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


@dataclass
class Transition:
    state: np.ndarray
    action: object  # int bin array (value-based) or float vector (policy-based)
    reward: float
    next_state: np.ndarray
    done: bool

    def __post_init__(self):
        if np.shape(self.state) != np.shape(self.next_state):
            raise ShapeError("state and next_state dimensions differ")


class ReplayBuffer:
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


def save_weights(net: DenseNet, path) -> None:
    payload = {
        "version": WEIGHTS_FORMAT_VERSION,
        "layer_sizes": net.layer_sizes,
        "activations": net.activations,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_weights(path) -> DenseNet:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != WEIGHTS_FORMAT_VERSION:
        raise ValueError(f"unsupported weights format version {payload.get('version')}")
    net = DenseNet.__new__(DenseNet)
    net.layer_sizes = list(payload["layer_sizes"])
    net.activations = list(payload["activations"])
    net.weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
    net.biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
    for w, (fan_out, fan_in) in zip(
        net.weights, zip(net.layer_sizes[1:], net.layer_sizes[:-1])
    ):
        if w.shape != (fan_out, fan_in):
            raise ShapeError(f"weight shape {w.shape} != ({fan_out}, {fan_in})")
    return net
