"""Self-tests of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from pricebench import harness
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent

# Small runs that still train: warm-up and batch lowered so that a few dozen
# weeks give optimizer steps in every learner kind.
TRAINING_PARAMS = {
    kind: {"warm_up": 8, "batch_size": 8} for kind in ("maddpg", "madqn", "qmix")
}


def small_spec(config_id: str) -> harness.ExperimentSpec:
    return harness.ExperimentSpec.from_dict({
        "config_id": config_id,
        "n_runs": 1,
        "roster_params": TRAINING_PARAMS,
        "market": {"episodes": 2, "weeks_per_episode": 8, "seed": 11},
    })


def artifacts(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for name in ("history.csv", "metrics.json")
        for p in sorted(out.rglob(name))
    }


def patched_attrs(tracer: Tracer) -> list[tuple[object, str, object]]:
    with tracer.installed():
        return list(tracer.patches)


@pytest.mark.parametrize("config_id", ["D", "H"])
def test_traced_run_writes_same_bytes(config_id, tmp_path):
    harness.run_experiment(small_spec(config_id), tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed():
        harness.run_experiment(small_spec(config_id), tmp_path / "traced")
    plain, traced = artifacts(tmp_path / "plain"), artifacts(tmp_path / "traced")
    assert plain and plain == traced
    assert tracer.layer_metrics()["nn.adam_step.calls"] > 0


def test_self_times_add_up_to_root_span(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        harness.run_experiment(small_spec("H"), tmp_path)
    cols = tracer.columns()
    names = np.asarray(tracer.names)[cols["name"]]
    own = tracer.self_ns()
    root = np.arange(len(own))
    for i, parent in enumerate(cols["parent"]):
        if parent >= 0:
            root[i] = root[parent]  # parents start, so are recorded, first
    roots = np.flatnonzero(cols["parent"] < 0)
    assert [names[r] for r in roots] == ["harness.execute_run"]
    r = roots[0]
    assert own[root == r].sum() == cols["end"][r] - cols["start"][r]
    assert (own >= 0).all()
    metrics = tracer.layer_metrics()
    assert metrics["marl.maddpg.learn.steps"] > 0 and metrics["marl.qmix.learn.steps"] > 0


def test_every_wrapped_name_is_restored():
    tracer = Tracer()
    patched = patched_attrs(tracer)
    assert len(patched) >= 20
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("fails inside the traced block")
    assert not tracer.patches
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)


def test_metrics_match_benchmark_json(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == LAYER_METRICS
    tracer = Tracer()
    with tracer.installed():
        harness.run_experiment(small_spec("A"), tmp_path)
    computed = set(tracer.layer_metrics())
    assert computed == {name for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}
