"""Learning agents: independent Q-learning, deterministic policy gradients
with centralized critics, and monotonic value factorization."""

from .common import (
    MarlAgentBase,
    N_PRICE_BINS,
    compute_reward,
    discretize_action,
    encode_state,
    state_dim,
)
from .madqn import DqnCore, DqnHyper, MadqnAgent, build_team as build_madqn_team
from .maddpg import MaddpgAgent, MaddpgCoordinator, MaddpgHyper, build_team as build_maddpg_team
from .qmix import (
    MonotonicMixer,
    QmixAgent,
    QmixCoordinator,
    QmixHyper,
    build_team as build_qmix_team,
)

__all__ = [
    "MarlAgentBase",
    "N_PRICE_BINS",
    "compute_reward",
    "discretize_action",
    "encode_state",
    "state_dim",
    "DqnCore",
    "DqnHyper",
    "MadqnAgent",
    "build_madqn_team",
    "MaddpgAgent",
    "MaddpgCoordinator",
    "MaddpgHyper",
    "build_maddpg_team",
    "MonotonicMixer",
    "QmixAgent",
    "QmixCoordinator",
    "QmixHyper",
    "build_qmix_team",
]
