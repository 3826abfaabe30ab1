"""Deterministic baseline pricing strategies.

Five strategies: cost-plus markup, competitor matching with an undercut,
own-price historical anchoring, demand-responsive stepping, and seasonal
uplift pricing. Each maps a product's spec and what the market observation
holds for its slot (its competitors' prices, the product's posted prices
and demands read from the episode log, the holiday flag) to a price. The
agent submits one such price per product, in portfolio order, as is; the
environment caps it at the weekly change limit and raises it to the margin
floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .environment import PricingAgentBase, recent
from .market import (
    ConfigError,
    MarketConfig,
    MarketObservation,
    ProductSpec,
    left_sum,
    require_finite,
)

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
    strategy: str = "static_markup"
    markup: float = 0.5
    undercut_fraction: float = 0.03
    anchor_window: int = 8
    response_step: float = 0.02
    seasonal_uplift: float = 0.10

    def __post_init__(self):
        if self.strategy not in STRATEGY_KINDS:
            raise ConfigError(f"unknown rule strategy {self.strategy!r}")
        require_finite(self)
        if not 0.01 <= self.undercut_fraction <= 0.05:
            raise ConfigError("undercut_fraction must be in [0.01, 0.05]")
        if self.response_step <= 0:
            raise ConfigError("response_step must be > 0")
        if self.anchor_window < 1:
            raise ConfigError("anchor_window must be >= 1")


def static_markup_price(spec: ProductSpec, markup: float) -> float:
    """Cost-plus price, constant across weeks."""
    return spec.unit_cost * (1.0 + markup)


def competitor_match_price(
    spec: ProductSpec,
    competitors: list[float],
    undercut_fraction: float,
    markup: float,
) -> float:
    """Mean competitor cluster price minus a small undercut.

    `competitors` holds the prices at the product's slot's entry of
    `MarketObservation.competitor_slots`: the same-cluster slots of other
    agents, in roster order. Falls back to the static markup when the
    cluster has no competitors.
    """
    if not competitors:
        return static_markup_price(spec, markup)
    return (math.fsum(competitors) / len(competitors)) * (1.0 - undercut_fraction)


def historical_anchor_price(window: Sequence[float], initial_price: float) -> float:
    """Mean of `window`, the product's recently posted prices oldest first;
    `initial_price` when there are none."""
    if not window:
        return initial_price
    return left_sum(window) / len(window)


def demand_responsive_price(
    price: float, demand: Sequence[float], response_step: float
) -> float:
    """Step the current `price` up when the product's demand (oldest first)
    rose last week, down when it fell; hold on a tie or before two weeks."""
    if len(demand) < 2:
        return price
    if demand[-1] > demand[-2]:
        return price * (1.0 + response_step)
    if demand[-1] < demand[-2]:
        return price * (1.0 - response_step)
    return price


def seasonal_price(
    spec: ProductSpec,
    is_holiday: bool,
    seasonal_uplift: float,
    markup: float,
) -> float:
    """Cost-plus base, raised by the uplift during holiday weeks."""
    base = static_markup_price(spec, markup)
    if is_holiday:
        return base * (1.0 + seasonal_uplift)
    return base


class RuleAgent(PricingAgentBase):
    """Applies one fixed strategy to every product, returning one price per
    product in portfolio order.

    The agent picks its strategy's portfolio method when it is built and
    keeps the prices that depend only on the specs (the static markup, and
    the seasonal prices for either holiday flag). A competitor-matching
    agent reads its slots' entries of the observation's competitor slots.
    The history strategies read their slots' last weeks from the
    observation's log.
    """

    def __init__(
        self,
        agent_id: str,
        product_specs: list[ProductSpec],
        config: MarketConfig,
        strategy: RuleStrategy,
    ):
        self.strategy = strategy
        # the class's function, not a bound method: that would make a reference
        # cycle, and the agent would outlive its run until the cyclic collector ran
        self._price_portfolio = getattr(type(self), f"_{strategy.strategy}")
        self._markup_prices = [static_markup_price(spec, strategy.markup) for spec in product_specs]
        self._seasonal_prices = {
            holiday: [
                seasonal_price(spec, holiday, strategy.seasonal_uplift, strategy.markup)
                for spec in product_specs
            ]
            for holiday in (False, True)
        }
        super().__init__(agent_id, product_specs, config)

    def propose_prices(self, observation: MarketObservation) -> list[float]:
        return self._price_portfolio(self, observation)

    def _static_markup(self, observation: MarketObservation) -> list[float]:
        return list(self._markup_prices)

    def _competitor_match(self, observation: MarketObservation) -> list[float]:
        price_at = observation.price.__getitem__
        s = self.strategy
        return [
            competitor_match_price(
                spec, list(map(price_at, competitors)), s.undercut_fraction, s.markup
            )
            for spec, competitors in zip(
                self.product_specs, observation.competitor_slots[self.slot_range(observation)]
            )
        ]

    def _historical_anchor(self, observation: MarketObservation) -> list[float]:
        windows = recent(observation, observation.log.price, self.slot_range(observation),
                         self.strategy.anchor_window)
        return [
            historical_anchor_price(window, spec.initial_price)
            for spec, window in zip(self.product_specs, windows)
        ]

    def _demand_responsive(self, observation: MarketObservation) -> list[float]:
        step = self.strategy.response_step
        span = self.slot_range(observation)
        demands = recent(observation, observation.log.demand, span, 2)
        return [
            demand_responsive_price(price, demand, step)
            for price, demand in zip(observation.price[span], demands)
        ]

    def _seasonal(self, observation: MarketObservation) -> list[float]:
        return list(self._seasonal_prices[observation.is_holiday])
