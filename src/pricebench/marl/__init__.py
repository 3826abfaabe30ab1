"""Learning agents: independent Q-learning, deterministic policy gradients
with centralized critics, and monotonic value factorization."""

from .common import (
    N_PRICE_BINS,
    TeamMember,
    compute_reward,
    discretize_action,
    encode_state,
    state_dim,
)
from .madqn import DqnCore, DqnHyper
from .maddpg import MaddpgCoordinator, MaddpgHyper
from .qmix import MonotonicMixer, QmixCoordinator, QmixHyper

__all__ = [
    "N_PRICE_BINS",
    "TeamMember",
    "compute_reward",
    "discretize_action",
    "encode_state",
    "state_dim",
    "DqnCore",
    "DqnHyper",
    "MaddpgCoordinator",
    "MaddpgHyper",
    "MonotonicMixer",
    "QmixCoordinator",
    "QmixHyper",
]
