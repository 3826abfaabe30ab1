"""Weekly-stepped market simulation: collect prices, draw demand, settle revenue.

All agents submit prices for the week before any demand is computed
(simultaneous-move). The step alone enforces the market rules: every
submission is capped at +/-max_weekly_change of last week's price and then
raised to the margin floor (`MarketConfig.allowed_price`), and each changed
submission is counted in `clamp_events`. Demand noise streams are keyed per
(agent, product, episode), so outcomes are independent of roster iteration
order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .demand import DemandOracle, DemandQuery
from .features import seasonal_encoding
from .market import (
    AgentSnapshot,
    MarketConfig,
    MarketObservation,
    ProductSnapshot,
    ProductSpec,
    ProductState,
    derive_rng,
    holiday_flag,
    month_of_week,
)

log = logging.getLogger(__name__)

HISTORY_COLUMNS = (
    "episode",
    "week",
    "agent_id",
    "product_id",
    "price",
    "demand",
    "revenue",
    "profit",
    "market_share",
)


class ProtocolError(RuntimeError):
    """An agent violated the step contract (a missing or non-finite price)."""


class PricingAgentBase:
    """Common portfolio plumbing; subclasses implement propose_prices()."""

    def __init__(self, agent_id: str, product_specs: list[ProductSpec], config: MarketConfig):
        self.agent_id = agent_id
        self.product_specs = list(product_specs)
        self.config = config
        self.portfolio: dict[str, ProductState] = {}
        self.episode_index = 0
        self.begin_episode(0)

    def begin_episode(self, episode_index: int) -> None:
        """Reset product histories; learned parameters (if any) persist."""
        self.episode_index = episode_index
        self.portfolio = {s.product_id: ProductState.fresh(s) for s in self.product_specs}

    def propose_prices(self, observation: MarketObservation) -> dict[str, float]:
        raise NotImplementedError

    def feedback(
        self,
        observation: MarketObservation,
        prev_observation: MarketObservation,
        done: bool,
    ) -> None:
        """Post-step hook; learning agents store transitions and train here."""

    def end_of_episode(self) -> None:
        """Optional hook after the final week of an episode."""


@dataclass(frozen=True)
class ProductOutcome:
    price: float
    demand: float
    revenue: float
    profit: float


@dataclass
class WeeklyRecord:
    week_index: int  # 1-based within the episode
    year: int
    week_number: int
    is_holiday: bool
    products: dict[tuple[str, str], ProductOutcome]
    agent_revenue: dict[str, float]
    market_share: dict[str, float]
    zero_revenue: bool = False


@dataclass
class SimulationState:
    """Mutable per-episode bookkeeping owned by MarketEnvironment."""

    current_week_index: int = 0
    year: int = 1
    week_number: int = 1


class MarketEnvironment:
    """One episode's market. Construct fresh per episode."""

    def __init__(
        self,
        config: MarketConfig,
        agents: list[PricingAgentBase],
        demand_model: DemandOracle,
        episode_index: int = 0,
    ):
        self.config = config
        self.agents = list(agents)
        self.demand_model = demand_model
        self.episode_index = episode_index
        self.state = SimulationState()
        self.clamp_events = 0
        self._rngs = {
            (a.agent_id, pid): derive_rng(
                config.seed, "demand", a.agent_id, pid, episode_index
            )
            for a in agents
            for pid in a.portfolio
        }

    # -- observation plumbing ---------------------------------------------

    def _price_pools(self) -> tuple[dict[int, list[tuple[str, float]]], dict[int, float]]:
        """This week's (agent_id, price) pairs grouped by cluster in roster
        order, and each cluster's mean price (own price included)."""
        pools: dict[int, list[tuple[str, float]]] = {}
        for agent in self.agents:
            for product in agent.portfolio.values():
                pools.setdefault(product.spec.cluster_id, []).append(
                    (agent.agent_id, product.current_price)
                )
        means = {c: math.fsum(p for _, p in pool) / len(pool) for c, pool in pools.items()}
        return pools, means

    def _build_observation(
        self,
        pools: dict[int, list[tuple[str, float]]],
        cluster_means: dict[int, float],
        last_demand: dict[tuple[str, str], float],
        agent_revenue: dict[str, float],
    ) -> MarketObservation:
        per_product: dict[tuple[str, str], ProductSnapshot] = {}
        for agent in self.agents:
            for pid, product in agent.portfolio.items():
                cluster = product.spec.cluster_id
                per_product[(agent.agent_id, pid)] = ProductSnapshot(
                    price=product.current_price,
                    cluster_id=cluster,
                    competitor_prices=tuple(
                        p for aid, p in pools[cluster] if aid != agent.agent_id
                    ),
                    cluster_avg_price=cluster_means[cluster],
                    last_demand=last_demand[(agent.agent_id, pid)],
                )
        total = math.fsum(agent_revenue.values())
        zero_revenue = total <= 0
        per_agent = {
            aid: AgentSnapshot(
                revenue_last_week=rev,
                market_share=(rev / total) if not zero_revenue else 1.0 / len(agent_revenue),
            )
            for aid, rev in agent_revenue.items()
        }
        return MarketObservation(
            week_number=self.state.week_number,
            year=self.state.year,
            is_holiday=holiday_flag(self.state.week_number),
            per_product=per_product,
            per_agent=per_agent,
            zero_revenue=zero_revenue,
        )

    def bootstrap_observation(self) -> MarketObservation:
        """Week-zero snapshot: initial prices, baseline demand, baseline revenue."""
        last_demand = {
            (a.agent_id, pid): p.spec.baseline_demand
            for a in self.agents
            for pid, p in a.portfolio.items()
        }
        agent_revenue = {
            a.agent_id: sum(
                p.spec.initial_price * p.spec.baseline_demand for p in a.portfolio.values()
            )
            for a in self.agents
        }
        return self._build_observation(*self._price_pools(), last_demand, agent_revenue)

    # -- stepping -----------------------------------------------------------

    def _advance_calendar(self) -> None:
        self.state.current_week_index += 1
        self.state.week_number += 1
        if self.state.week_number > 52:
            self.state.week_number = 1
            self.state.year += 1

    def step(
        self, submitted_prices: dict[str, dict[str, float]]
    ) -> tuple[WeeklyRecord, MarketObservation]:
        week = self.state.week_number
        year = self.state.year
        is_holiday = holiday_flag(week)
        week_sin = seasonal_encoding(week, month_of_week(week))[0]

        # validate every submission and apply the market rule to it
        for agent in self.agents:
            agent_prices = submitted_prices.get(agent.agent_id)
            if agent_prices is None:
                raise ProtocolError(f"agent {agent.agent_id} submitted no prices")
            for pid, product in agent.portfolio.items():
                if pid not in agent_prices:
                    raise ProtocolError(
                        f"agent {agent.agent_id} submitted no price for product {pid}"
                    )
                submitted = float(agent_prices[pid])
                if not math.isfinite(submitted):
                    raise ProtocolError(
                        f"agent {agent.agent_id} submitted non-finite price {submitted} "
                        f"for product {pid}"
                    )
                price = self.config.allowed_price(product.spec, product.current_price, submitted)
                if price != submitted:
                    log.debug(
                        "clamping %s/%s price %.4f to %.4f",
                        agent.agent_id, pid, submitted, price,
                    )
                    self.clamp_events += 1
                product.current_price = price

        pools, cluster_means = self._price_pools()

        outcomes: dict[tuple[str, str], ProductOutcome] = {}
        last_demand: dict[tuple[str, str], float] = {}
        agent_revenue: dict[str, float] = {}
        for agent in self.agents:
            revenue_total = 0.0
            for pid, product in agent.portfolio.items():
                spec = product.spec
                price = product.current_price
                history = product.demand_history
                query = DemandQuery(
                    spec=spec,
                    price=price,
                    relative_price=price / cluster_means[spec.cluster_id],
                    lag1_demand=history[-1] if history else spec.baseline_demand,
                    week_sin=week_sin,
                    holiday=is_holiday,
                    rng=self._rngs[(agent.agent_id, pid)],
                )
                demand = self.demand_model.sample_demand(query)
                revenue = price * demand
                profit = (price - spec.unit_cost) * demand
                product.record_week(price, demand)
                outcomes[(agent.agent_id, pid)] = ProductOutcome(
                    price=price,
                    demand=demand,
                    revenue=revenue,
                    profit=profit,
                )
                last_demand[(agent.agent_id, pid)] = demand
                revenue_total += revenue
            agent_revenue[agent.agent_id] = revenue_total

        total = math.fsum(agent_revenue.values())
        zero_revenue = total <= 0
        shares = {
            aid: (rev / total) if not zero_revenue else 1.0 / len(agent_revenue)
            for aid, rev in agent_revenue.items()
        }
        record = WeeklyRecord(
            week_index=self.state.current_week_index + 1,
            year=year,
            week_number=week,
            is_holiday=is_holiday,
            products=outcomes,
            agent_revenue=agent_revenue,
            market_share=shares,
            zero_revenue=zero_revenue,
        )
        self._advance_calendar()
        observation = self._build_observation(pools, cluster_means, last_demand, agent_revenue)
        return record, observation


def run_episode(
    config: MarketConfig,
    agents: list[PricingAgentBase],
    demand_model: DemandOracle,
    episode_index: int = 0,
) -> list[WeeklyRecord]:
    """Run exactly weeks_per_episode steps, driving agent act/feedback hooks."""
    for agent in agents:
        agent.begin_episode(episode_index)
    env = MarketEnvironment(config, agents, demand_model, episode_index)
    observation = env.bootstrap_observation()
    records: list[WeeklyRecord] = []
    for week in range(1, config.weeks_per_episode + 1):
        submitted = {a.agent_id: a.propose_prices(observation) for a in env.agents}
        record, new_observation = env.step(submitted)
        done = week == config.weeks_per_episode
        for agent in env.agents:
            agent.feedback(new_observation, observation, done)
        observation = new_observation
        records.append(record)
    for agent in env.agents:
        agent.end_of_episode()
    return records


def history_csv_lines(episodes: list[list[WeeklyRecord]]) -> list[str]:
    """Flatten run history into CSV lines (header included, floats at 6 dp)."""
    lines = [",".join(HISTORY_COLUMNS)]
    for ep_idx, records in enumerate(episodes, start=1):
        for record in records:
            for (agent_id, product_id), outcome in record.products.items():
                lines.append(
                    f"{ep_idx},{record.week_index},{agent_id},{product_id},"
                    f"{outcome.price:.6f},{outcome.demand:.6f},{outcome.revenue:.6f},"
                    f"{outcome.profit:.6f},{record.market_share[agent_id]:.6f}"
                )
    return lines


def write_history_csv(episodes: list[list[WeeklyRecord]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(history_csv_lines(episodes)) + "\n")
