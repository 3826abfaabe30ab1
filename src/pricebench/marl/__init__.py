"""Learning agents: independent Q-learning, deterministic policy gradients
with centralized critics, and monotonic value factorization.

The package re-exports nothing: callers import the submodule they use
(`common`, `madqn`, `maddpg` or `qmix`), so each loads only what it needs.
"""
