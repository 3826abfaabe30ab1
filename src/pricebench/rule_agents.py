"""Deterministic baseline pricing strategies.

Five strategies: cost-plus markup, competitor matching with an undercut,
own-price historical anchoring, demand-responsive stepping, and seasonal
uplift pricing. Each maps (product state, market observation) to a price that
the agent submits as is; the environment caps it at the weekly change limit
and raises it to the margin floor.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .environment import PricingAgentBase
from .market import (
    ConfigError,
    MarketConfig,
    MarketObservation,
    ProductSpec,
    ProductState,
    left_sum,
)

log = logging.getLogger(__name__)

STRATEGY_KINDS = (
    "static_markup",
    "competitor_match",
    "historical_anchor",
    "demand_responsive",
    "seasonal",
)

# the default "diverse" 4-agent rule market
DIVERSE_STRATEGIES = (
    "competitor_match",
    "historical_anchor",
    "demand_responsive",
    "seasonal",
)


@dataclass(frozen=True)
class RuleStrategy:
    kind: str
    markup: float = 0.5
    undercut_fraction: float = 0.03
    anchor_window: int = 8
    response_step: float = 0.02
    seasonal_uplift: float = 0.10

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown rule strategy {self.kind!r}")
        if not 0.01 <= self.undercut_fraction <= 0.05:
            raise ConfigError("undercut_fraction must be in [0.01, 0.05]")
        if self.response_step <= 0:
            raise ConfigError("response_step must be > 0")
        if self.anchor_window < 1:
            raise ConfigError("anchor_window must be >= 1")


def static_markup_price(product: ProductState, markup: float = 0.5) -> float:
    """Cost-plus price, constant across weeks."""
    return product.spec.unit_cost * (1.0 + markup)


def competitor_prices(
    observation: MarketObservation, agent_id: str, product_id: str
) -> list[float]:
    """Prices of the same-cluster slots of other agents, in roster order
    (empty when the observation has no such slot)."""
    slot = observation.slots.get((agent_id, product_id))
    if slot is None:
        return []
    return [observation.price[j] for j in observation.competitor_slots[slot]]


def competitor_match_price(
    product: ProductState,
    observation: MarketObservation,
    agent_id: str,
    undercut_fraction: float = 0.03,
    markup: float = 0.5,
) -> float:
    """Mean competitor cluster price minus a small undercut.

    Falls back to the static markup when the cluster has no competitors.
    """
    competitors = competitor_prices(observation, agent_id, product.spec.product_id)
    if not competitors:
        log.debug("%s/%s: no competitors in cluster, using static markup",
                  agent_id, product.spec.product_id)
        return static_markup_price(product, markup)
    return (math.fsum(competitors) / len(competitors)) * (1.0 - undercut_fraction)


def historical_anchor_price(product: ProductState, anchor_window: int = 8) -> float:
    """Mean of the agent's own recently posted prices; initial price when cold."""
    history = product.price_history
    if not history:
        return product.spec.initial_price
    window = history[-anchor_window:]
    return left_sum(window) / len(window)


def demand_responsive_price(product: ProductState, response_step: float = 0.02) -> float:
    """Step price up when demand rose, down when it fell, hold on a tie."""
    demand = product.demand_history
    price = product.current_price
    if len(demand) < 2:
        return price
    if demand[-1] > demand[-2]:
        return price * (1.0 + response_step)
    if demand[-1] < demand[-2]:
        return price * (1.0 - response_step)
    return price


def seasonal_price(
    product: ProductState,
    observation: MarketObservation,
    seasonal_uplift: float = 0.10,
    markup: float = 0.5,
) -> float:
    """Cost-plus base, raised by the uplift during holiday weeks."""
    base = static_markup_price(product, markup)
    if observation.is_holiday:
        return base * (1.0 + seasonal_uplift)
    return base


class RuleAgent(PricingAgentBase):
    """Applies one fixed strategy to every product."""

    def __init__(
        self,
        agent_id: str,
        product_specs: list[ProductSpec],
        config: MarketConfig,
        strategy: RuleStrategy,
    ):
        if strategy.response_step > config.max_weekly_change:
            raise ConfigError("response_step must not exceed max_weekly_change")
        self.strategy = strategy
        super().__init__(agent_id, product_specs, config)

    def _raw_price(self, product: ProductState, observation: MarketObservation) -> float:
        s = self.strategy
        if s.kind == "static_markup":
            return static_markup_price(product, s.markup)
        if s.kind == "competitor_match":
            return competitor_match_price(
                product, observation, self.agent_id, s.undercut_fraction, s.markup
            )
        if s.kind == "historical_anchor":
            return historical_anchor_price(product, s.anchor_window)
        if s.kind == "demand_responsive":
            return demand_responsive_price(product, s.response_step)
        return seasonal_price(product, observation, s.seasonal_uplift, s.markup)

    def propose_prices(self, observation: MarketObservation) -> dict[str, float]:
        return {
            pid: self._raw_price(product, observation)
            for pid, product in self.portfolio.items()
        }
