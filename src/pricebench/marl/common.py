"""State encoding, reward shaping and action application shared by the
learning agents."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..environment import PricingAgentBase
from ..features import demand_features, seasonal_encoding
from ..market import MarketConfig, MarketObservation, ProductSpec, from_fields

STATE_SLOTS_PER_PRODUCT = 12

N_PRICE_BINS = 21

ACTION_SMOOTHING = 0.5  # EMA weight on the previous applied change


def parse_hyper(cls, params: dict, schedule_prefix: str):
    """A `cls` hyper-parameter set from a roster entry's `params`.

    `<schedule_prefix>_start`, `_decay` and `_floor` override the default
    exploration schedule's; every other key names a field of `cls` (see
    `market.from_fields`).
    """
    schedule_keys = {f"{schedule_prefix}_{k}": k for k in ("start", "decay", "floor")}
    schedule = {schedule_keys[k]: float(v) for k, v in params.items() if k in schedule_keys}
    settings = {k: v for k, v in params.items() if k not in schedule_keys}
    return from_fields(cls, settings, f"{cls.__name__} params (besides {sorted(schedule_keys)})",
                       schedule=replace(cls.schedule, **schedule))


def epsilon_greedy(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Each head's greedy bin of `q` (heads, bins), replaced by a uniform
    random bin with probability `epsilon`; np.argmax breaks ties toward the
    lowest bin index."""
    n_heads, n_bins = q.shape
    greedy = np.argmax(q, axis=1)
    explore = rng.random(n_heads) < epsilon
    random_bins = rng.integers(0, n_bins, size=n_heads)
    return np.where(explore, random_bins, greedy)


def discretize_action(bin_index: int, n_bins: int = N_PRICE_BINS, max_change: float = 0.10) -> float:
    """Map a discrete bin onto a relative price change in [-max_change, +max_change]."""
    if not 0 <= bin_index < n_bins:
        raise ValueError(f"bin must be in 0..{n_bins - 1}, got {bin_index}")
    return -max_change + (2.0 * max_change / (n_bins - 1)) * bin_index


def compute_reward(
    prev_revenue: float,
    revenue: float,
    price_change_rel: float,
    penalty_lambda: float,
    running_mean: float,
) -> float:
    """Normalized revenue change minus a quadratic price-instability penalty."""
    if running_mean < 0:
        raise ValueError("running_mean must be >= 0")
    return (revenue - prev_revenue) / max(1.0, running_mean) - penalty_lambda * price_change_rel**2


def encode_state(agent: PricingAgentBase, observation: MarketObservation) -> np.ndarray:
    """Fixed-layout state vector: 12 slots per product, portfolio order.

    Per product: [price vs cluster avg, margin ratio, lag demand ratio,
    2-week mean ratio, 4-week mean ratio, trend ratio, volatility ratio,
    week sin, week cos, holiday, own market share, last relative price change].
    The five demand entries come from `features.demand_features`, with its
    cold-start substitutes until enough history exists.
    """
    week_sin, week_cos = seasonal_encoding(observation.week_number)
    holiday = 1.0 if observation.is_holiday else 0.0
    share = observation.market_share[agent.agent_id]
    cluster_avg = observation.cluster_avg_price
    slot_of = observation.slots
    slots: list[float] = []
    for spec in agent.product_specs:
        product = agent.portfolio[spec.product_id]
        price = product.current_price
        slots += (
            price / cluster_avg[slot_of[(agent.agent_id, spec.product_id)]],
            (price - spec.unit_cost) / price,
            *demand_features(product.demand_history, spec.baseline_demand),
            week_sin,
            week_cos,
            holiday,
            share,
            product.last_relative_change(),
        )
    state = np.asarray(slots, dtype=float)
    if not np.all(np.isfinite(state)):
        raise ValueError(f"non-finite state entries for agent {agent.agent_id}")
    return state


def state_dim(n_products: int) -> int:
    return STATE_SLOTS_PER_PRODUCT * n_products


class MarlAgentBase(PricingAgentBase):
    """Reward bookkeeping and action application shared by the learning agents."""

    def __init__(self, agent_id: str, product_specs: list[ProductSpec], config: MarketConfig):
        self._revenue_samples: list[float] = []
        self._prev_changes: dict[str, float] = {}
        super().__init__(agent_id, product_specs, config)

    def begin_episode(self, episode_index: int) -> None:
        super().begin_episode(episode_index)
        self._revenue_samples = []
        self._prev_changes = {s.product_id: 0.0 for s in self.product_specs}
        self._encoded: tuple[MarketObservation | None, np.ndarray | None] = (None, None)

    def _encode(self, observation: MarketObservation, encode) -> np.ndarray:
        """encode(self, observation), computed once per observation.

        feedback() encodes next_state from the same observation object that
        the next propose_prices() receives, and the portfolio does not change
        in between, so the second call reuses the first's state. Each learner
        passes its module's `encode_state`, where callers look that name up.
        """
        seen, state = self._encoded
        if observation is not seen:
            state = encode(self, observation)
            self._encoded = (observation, state)
        return state

    def _smoothed(self, raw) -> dict[str, float]:
        """Each product's change: an EMA of its `raw` change with its previous one."""
        return {
            spec.product_id: ACTION_SMOOTHING * self._prev_changes[spec.product_id]
            + (1.0 - ACTION_SMOOTHING) * r
            for spec, r in zip(self.product_specs, raw)
        }

    def _apply_changes(self, changes: dict[str, float]) -> dict[str, float]:
        """Prices after each relative change; the environment enforces the market rules."""
        self._prev_changes.update(changes)
        return {pid: self.portfolio[pid].current_price * (1.0 + r) for pid, r in changes.items()}

    def _reward_from(
        self, observation: MarketObservation, prev_observation: MarketObservation
    ) -> float:
        revenue = observation.agent_revenue[self.agent_id]
        prev_revenue = prev_observation.agent_revenue[self.agent_id]
        if not self._revenue_samples:
            self._revenue_samples.append(prev_revenue)
        running_mean = sum(self._revenue_samples) / len(self._revenue_samples)
        changes = [self.portfolio[s.product_id].last_relative_change() for s in self.product_specs]
        change_rms = math.sqrt(sum(c * c for c in changes) / len(changes))
        reward = compute_reward(
            prev_revenue, revenue, change_rms, self.config.reward_penalty_lambda, running_mean
        )
        self._revenue_samples.append(revenue)
        return reward
