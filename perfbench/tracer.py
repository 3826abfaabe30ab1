"""Span tracer for the benchmark's traced run.

`Tracer.installed()` wraps public functions of pricebench's layers at the
names where the package looks them up (a module global, or a class
attribute for methods), so nothing under src/ knows it is traced. Each call
records one span (name, parent span, start, end) in `array` columns kept
in memory; `dump()` writes them once, after the run.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("trace.untraced_weeks_per_s", "weeks/s", "higher"),
    ("trace.traced_weeks_per_s", "weeks/s", "higher"),
    ("trace.overhead_weeks_per_s", "weeks/s", "higher"),
    ("harness.build_agents.calls", "count", "lower"),
    ("harness.build_agents.self_s", "s", "lower"),
    ("harness.execute_run.calls", "count", "lower"),
    ("harness.execute_run.total_s", "s", "lower"),
    ("harness.execute_run.self_s", "s", "lower"),
    ("environment.run_episode.self_s", "s", "lower"),
    ("environment.step.calls", "count", "lower"),
    ("environment.step.self_s", "s", "lower"),
    ("environment.write_history_csv.self_s", "s", "lower"),
    ("environment.clamp_ratio", "ratio", "lower"),
    ("features.build_feature_vector.calls", "count", "lower"),
    ("features.build_feature_vector.self_s", "s", "lower"),
    ("demand.sample_demand.calls", "count", "lower"),
    ("demand.sample_demand.self_s", "s", "lower"),
    ("rule_agents.propose_prices.calls", "count", "lower"),
    ("rule_agents.propose_prices.self_s", "s", "lower"),
    ("marl.common.encode_state.calls", "count", "lower"),
    ("marl.common.encode_state.self_s", "s", "lower"),
    ("nn.forward_act.calls", "count", "lower"),
    ("nn.forward_act.self_s", "s", "lower"),
    ("nn.forward_batch.calls", "count", "lower"),
    ("nn.forward_batch.self_s", "s", "lower"),
    ("nn.backward.calls", "count", "lower"),
    ("nn.backward.self_s", "s", "lower"),
    ("nn.dense.flop", "flop", "lower"),
    ("nn.dense.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.adam_step.calls", "count", "lower"),
    ("nn.adam_step.self_s", "s", "lower"),
    ("nn.adam_step.params", "count", "lower"),
    ("nn.target_update.calls", "count", "lower"),
    ("nn.target_update.self_s", "s", "lower"),
    ("nn.replay_sample.calls", "count", "lower"),
    ("nn.replay_sample.self_s", "s", "lower"),
    ("nn.replay_sample.buffer_len_mean", "entries", "lower"),
    ("nn.replay_push.calls", "count", "lower"),
    ("nn.replay_push.self_s", "s", "lower"),
    ("marl.maddpg.learn.calls", "count", "lower"),
    ("marl.maddpg.learn.self_s", "s", "lower"),
    ("marl.maddpg.learn.steps", "count", "higher"),
    ("marl.maddpg.learn.useful_ratio", "ratio", "higher"),
    ("marl.qmix.learn.calls", "count", "lower"),
    ("marl.qmix.learn.self_s", "s", "lower"),
    ("marl.qmix.learn.steps", "count", "higher"),
    ("marl.qmix.learn.useful_ratio", "ratio", "higher"),
    ("marl.qmix.mixer.forward_s", "s", "lower"),
    ("marl.qmix.mixer.backward_s", "s", "lower"),
    ("marl.madqn.learn.calls", "count", "lower"),
    ("marl.madqn.learn.steps", "count", "higher"),
    ("marl.madqn.learn.useful_ratio", "ratio", "higher"),
    ("metrics.compute_report.calls", "count", "lower"),
    ("metrics.compute_report.self_s", "s", "lower"),
]

LEARNERS = ("marl.maddpg.learn", "marl.qmix.learn", "marl.madqn.learn")


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _dense_weights(net) -> int:
    sizes = net.layer_sizes
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


class Tracer:
    """In-memory span recorder plus the counters the layer ratios need."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.patches: list[tuple[object, str, object]] = []
        self._stack = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original); restore() undoes it."""
        original = owner.__dict__.get(attr)
        if original is None:
            print(f"tracer: {getattr(owner, '__name__', owner)}.{attr} not found, "
                  "its metrics read 0", file=sys.stderr)
            return
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self.patches.append((owner, attr, original))

    def span_at(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda fn: lambda *a, **k: self.call(name, fn, *a, **k))

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        install(self)
        try:
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "start": np.frombuffer(self.span_start, dtype=np.int64),
            "end": np.frombuffer(self.span_end, dtype=np.int64),
        }

    def self_ns(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        c = self.columns()
        dur = c["end"] - c["start"]
        nested = c["parent"] >= 0
        children = np.bincount(c["parent"][nested], weights=dur[nested], minlength=len(dur))
        return dur - children.astype(np.int64)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        c = self.columns()
        k = len(self.names)
        calls = np.bincount(c["name"], minlength=k)
        total = np.bincount(c["name"], weights=c["end"] - c["start"], minlength=k)
        own = np.bincount(c["name"], weights=self.self_ns(), minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of LAYER_METRICS, except the trace.* ones."""
        spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}, self.summary())
        ctr = self.counters
        out: dict[str, float] = {}
        for name, _, _ in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "total_s", "self_s"):
                out[name] = spans[layer][field]
        out["environment.clamp_ratio"] = _ratio(
            ctr["environment.clamp_events"], ctr["environment.prices_submitted"]
        )
        dense_s = spans["nn.forward_act"]["self_s"] + spans["nn.forward_batch"]["self_s"]
        dense_s += spans["nn.backward"]["self_s"]
        out["nn.dense.flop"] = ctr["nn.dense.flop"]
        out["nn.dense.gflop_per_s"] = _ratio(ctr["nn.dense.flop"] / 1e9, dense_s)
        out["nn.adam_step.params"] = ctr["nn.adam_step.params"]
        out["nn.replay_sample.buffer_len_mean"] = _ratio(
            ctr["nn.replay_sample.buffer_len"], spans["nn.replay_sample"]["calls"]
        )
        for learner in LEARNERS:
            steps = ctr[f"{learner}.steps"]
            out[f"{learner}.steps"] = steps
            out[f"{learner}.useful_ratio"] = _ratio(steps, spans[learner]["calls"])
        out["marl.qmix.mixer.forward_s"] = spans["marl.qmix.mixer.forward"]["total_s"]
        out["marl.qmix.mixer.backward_s"] = spans["marl.qmix.mixer.backward"]["total_s"]
        return out

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point at the name its callers look up."""
    from pricebench import demand, environment, harness, nn, rule_agents
    from pricebench.marl import maddpg, madqn, qmix

    for owner, attr, name in [
        (harness, "build_agents", "harness.build_agents"),
        (harness, "execute_run", "harness.execute_run"),
        (harness, "run_episode", "environment.run_episode"),
        (harness, "write_history_csv", "environment.write_history_csv"),
        (harness, "compute_report", "metrics.compute_report"),
        (environment, "build_feature_vector", "features.build_feature_vector"),
        (demand.ParametricDemandModel, "sample_demand", "demand.sample_demand"),
        (rule_agents.RuleAgent, "propose_prices", "rule_agents.propose_prices"),
        (maddpg, "encode_state", "marl.common.encode_state"),
        (qmix, "encode_state", "marl.common.encode_state"),
        (madqn, "encode_state", "marl.common.encode_state"),
        (maddpg, "soft_update", "nn.target_update"),
        (qmix, "hard_update", "nn.target_update"),
        (madqn, "soft_update", "nn.target_update"),
        (madqn, "hard_update", "nn.target_update"),
        (nn.ReplayBuffer, "push", "nn.replay_push"),
        (qmix.MonotonicMixer, "forward_cached", "marl.qmix.mixer.forward"),
        (qmix.MonotonicMixer, "backward", "marl.qmix.mixer.backward"),
    ]:
        tracer.span_at(owner, attr, name)

    ctr = tracer.counters
    call = tracer.call

    def step(fn):
        def traced(env, submitted, *a, **k):
            before = env.clamp_events
            result = call("environment.step", fn, env, submitted, *a, **k)
            ctr["environment.clamp_events"] += env.clamp_events - before
            ctr["environment.prices_submitted"] += sum(len(p) for p in submitted.values())
            return result
        return traced

    def forward(fn):
        def traced(net, x, *a, **k):
            rows = _rows(x)
            ctr["nn.dense.flop"] += 2 * rows * _dense_weights(net)
            name = "nn.forward_act" if rows == 1 else "nn.forward_batch"
            return call(name, fn, net, x, *a, **k)
        return traced

    def backward(fn):
        def traced(net, cache, upstream, *a, **k):
            # weight and input gradients: two products of the forward's size
            ctr["nn.dense.flop"] += 4 * _rows(upstream) * _dense_weights(net)
            return call("nn.backward", fn, net, cache, upstream, *a, **k)
        return traced

    def adam(fn):
        def traced(opt, params, *a, **k):
            ctr["nn.adam_step.calls"] += 1
            ctr["nn.adam_step.params"] += sum(np.size(p) for p in params)
            return call("nn.adam_step", fn, opt, params, *a, **k)
        return traced

    def sample(fn):
        def traced(buf, *a, **k):
            ctr["nn.replay_sample.buffer_len"] += len(buf)
            return call("nn.replay_sample", fn, buf, *a, **k)
        return traced

    def learn(name):
        # a learn call is useful when it made at least one optimizer step
        def wrap(fn):
            def traced(*a, **k):
                before = ctr["nn.adam_step.calls"]
                result = call(name, fn, *a, **k)
                if ctr["nn.adam_step.calls"] > before:
                    ctr[f"{name}.steps"] += 1
                return result
            return traced
        return wrap

    tracer.patch(environment.MarketEnvironment, "step", step)
    tracer.patch(nn.DenseNet, "forward_cached", forward)
    tracer.patch(nn.DenseNet, "backward", backward)
    tracer.patch(nn.Adam, "step", adam)
    tracer.patch(nn.ReplayBuffer, "sample", sample)
    tracer.patch(maddpg.MaddpgCoordinator, "learn", learn("marl.maddpg.learn"))
    tracer.patch(qmix.QmixCoordinator, "learn", learn("marl.qmix.learn"))
    tracer.patch(madqn.DqnCore, "learn", learn("marl.madqn.learn"))
