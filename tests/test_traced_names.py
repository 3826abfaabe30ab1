"""Every name that the benchmark's tracer wraps is where the tracer looks it
up: in its owner's own `__dict__`.

`perfbench/tracer.py` patches each name at its owner, a module global or a
class attribute, and a name it does not find there reads 0 in the per-layer
metrics. So `learn` stays on each learner class rather than in a shared base,
each learner class's `encode` calls its own module's `encode_state` global,
the market core keeps its traced methods on their own classes, and `harness`
calls the run's phases through its own globals. The tracer also counts the
prices submitted to `MarketEnvironment.step` as the summed `len` of the
submission's values, so those stay one sequence per agent.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from pricebench import demand, environment, harness, metrics, nn, rule_agents
from pricebench.demand import ParametricDemandModel
from pricebench.marl import common, maddpg, madqn, qmix

TRACED = [
    (maddpg, "encode_state"),
    (qmix, "encode_state"),
    (madqn, "encode_state"),
    (maddpg, "soft_update"),
    (qmix, "hard_update"),
    (madqn, "hard_update"),
    (maddpg.MaddpgCoordinator, "learn"),
    (qmix.QmixCoordinator, "learn"),
    (madqn.DqnCore, "learn"),
    (qmix.MonotonicMixer, "forward_cached"),
    (qmix.MonotonicMixer, "backward"),
    (nn.ReplayBuffer, "push"),
    (nn.ReplayBuffer, "sample"),
    (nn.Adam, "step"),
    (nn.DenseNet, "forward_cached"),
    (nn.DenseNet, "backward"),
    (environment.MarketEnvironment, "step"),
    (demand.ParametricDemandModel, "sample_demand"),
    (rule_agents.RuleAgent, "propose_prices"),
    (harness, "build_agents"),
    (harness, "execute_run"),
    (harness, "run_episode"),
    (harness, "write_history_csv"),
    (harness, "compute_report"),
]


@pytest.mark.parametrize("owner, name", TRACED, ids=[f"{o.__name__}.{n}" for o, n in TRACED])
def test_traced_name_is_in_its_owners_dict(owner, name):
    assert callable(owner.__dict__.get(name))


@pytest.mark.parametrize("module", [maddpg, qmix, madqn], ids=lambda m: m.__name__)
def test_learner_modules_encode_with_the_shared_encoder(module):
    assert module.__dict__["encode_state"] is common.encode_state


@pytest.mark.parametrize("learner, module", [
    (maddpg.MaddpgCoordinator, maddpg), (qmix.QmixCoordinator, qmix), (madqn.DqnCore, madqn),
], ids=lambda v: v.__name__)
def test_each_learner_class_encodes_through_its_own_module(learner, module):
    """A member's `encode_state` call is the global of its learner's own module."""
    assert learner.__dict__["encode"].__globals__ is module.__dict__


@pytest.mark.parametrize("name, home", [
    ("run_episode", environment),
    ("write_history_csv", environment),
    ("compute_report", metrics),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_harness_runs_the_phases_it_imports(name, home):
    """The functions the tracer wraps in `harness` are the ones their modules define."""
    assert harness.__dict__[name] is home.__dict__[name]


@pytest.mark.parametrize("config_id", sorted(harness.CONFIG_MATRIX))
def test_each_step_submits_one_price_per_slot(config_id, monkeypatch):
    """`run_episode` passes `step` a mapping whose values' `len`s sum to the
    slot count, the denominator of the tracer's clamp ratio."""
    sizes = []
    step = environment.MarketEnvironment.step

    def counting(env, submitted):
        assert isinstance(submitted, Mapping)
        sizes.append((sum(len(p) for p in submitted.values()), len(env.slots)))
        return step(env, submitted)

    monkeypatch.setattr(environment.MarketEnvironment, "step", counting)
    config = harness.desk_spec(config_id, seed=3, weeks_per_episode=3).market
    environment.run_episode(config, harness.build_agents(config),
                            ParametricDemandModel(config.demand_params))
    assert sizes == [(20, 20)] * 3
