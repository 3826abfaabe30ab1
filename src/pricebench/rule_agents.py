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
    require_finite,
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


def static_markup_price(product: ProductState, markup: float = 0.5) -> float:
    """Cost-plus price, constant across weeks."""
    return product.spec.unit_cost * (1.0 + markup)


def competitor_slots(
    observation: MarketObservation, agent_id: str, product_id: str
) -> tuple[int, ...]:
    """The same-cluster slots of other agents, in roster order (empty when
    the observation has no slot for the agent's product)."""
    slot = observation.slots.get((agent_id, product_id))
    return () if slot is None else observation.competitor_slots[slot]


def competitor_match_price(
    product: ProductState,
    competitors: list[float],
    agent_id: str,
    undercut_fraction: float = 0.03,
    markup: float = 0.5,
) -> float:
    """Mean competitor cluster price minus a small undercut.

    `competitors` holds the prices at the product's `competitor_slots`. Falls
    back to the static markup when the cluster has no competitors.
    """
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
    """Applies one fixed strategy to every product.

    The agent picks its strategy's portfolio method when it is built. Each
    episode keeps the prices that depend only on the specs (the static markup,
    and the seasonal price per holiday flag), and a competitor-matching agent
    resolves its products' competitor slots at the episode's first
    observation.
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
        super().__init__(agent_id, product_specs, config)

    def begin_episode(self, episode_index: int) -> None:
        super().begin_episode(episode_index)
        self._products = list(self.portfolio.items())
        self._markup_prices = {
            pid: static_markup_price(product, self.strategy.markup)
            for pid, product in self._products
        }
        self._seasonal_prices: dict[bool, dict[str, float]] = {}
        # each product's competitor slots, read from the episode's slot tables
        self._rivals: list[tuple[str, ProductState, tuple[int, ...]]] = []
        self._rivals_of: tuple | None = None  # (slots, competitor_slots) they were read from

    def propose_prices(self, observation: MarketObservation) -> dict[str, float]:
        return self._price_portfolio(self, observation)

    def _static_markup(self, observation: MarketObservation) -> dict[str, float]:
        return dict(self._markup_prices)

    def _competitor_match(self, observation: MarketObservation) -> dict[str, float]:
        tables = (observation.slots, observation.competitor_slots)
        seen = self._rivals_of
        if seen is None or seen[0] is not tables[0] or seen[1] is not tables[1]:
            self._rivals_of = tables
            self._rivals = [
                (pid, product, competitor_slots(observation, self.agent_id, pid))
                for pid, product in self._products
            ]
        price_at = observation.price.__getitem__
        agent_id, s = self.agent_id, self.strategy
        return {
            pid: competitor_match_price(
                product, list(map(price_at, competitors)), agent_id, s.undercut_fraction, s.markup
            )
            for pid, product, competitors in self._rivals
        }

    def _historical_anchor(self, observation: MarketObservation) -> dict[str, float]:
        window = self.strategy.anchor_window
        return {pid: historical_anchor_price(product, window) for pid, product in self._products}

    def _demand_responsive(self, observation: MarketObservation) -> dict[str, float]:
        step = self.strategy.response_step
        return {pid: demand_responsive_price(product, step) for pid, product in self._products}

    def _seasonal(self, observation: MarketObservation) -> dict[str, float]:
        # seasonal_price reads only the spec and the holiday flag
        holiday = observation.is_holiday
        prices = self._seasonal_prices.get(holiday)
        if prices is None:
            s = self.strategy
            prices = self._seasonal_prices[holiday] = {
                pid: seasonal_price(product, observation, s.seasonal_uplift, s.markup)
                for pid, product in self._products
            }
        return dict(prices)
