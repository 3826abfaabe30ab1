"""Every learner-side name that the benchmark's tracer wraps is where the
tracer looks it up: in its owner's own `__dict__`.

`perfbench/tracer.py` patches each name at its owner, a module global or a
class attribute, and a name it does not find there reads 0 in the per-layer
metrics. So `learn` stays on each learner class rather than in a shared base,
and each learner module calls `encode_state` through its own global.
"""

from __future__ import annotations

import pytest

from pricebench import nn
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
]


@pytest.mark.parametrize("owner, name", TRACED, ids=[f"{o.__name__}.{n}" for o, n in TRACED])
def test_traced_name_is_in_its_owners_dict(owner, name):
    assert callable(owner.__dict__.get(name))


@pytest.mark.parametrize("module", [maddpg, qmix, madqn], ids=lambda m: m.__name__)
def test_learner_modules_encode_with_the_shared_encoder(module):
    assert module.__dict__["encode_state"] is common.encode_state
