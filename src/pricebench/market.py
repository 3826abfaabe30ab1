"""Core market domain types: products, per-slot observations, run configuration."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

HOLIDAY_WEEKS = range(47, 53)  # calendar weeks 47..52, end-of-year peak

DEFAULT_CLUSTERS = (1, 2, 3, 5, 10)
DEFAULT_COST_RATIO = 0.6  # unit cost as a fraction of the initial price


class ConfigError(ValueError):
    """Invalid configuration or constructor arguments."""


def holiday_flag(week_number: int) -> bool:
    """True for the end-of-year peak weeks (47..52). Week 53 is never a holiday."""
    if not 1 <= week_number <= 53:
        raise ConfigError(f"week_number must be in 1..53, got {week_number}")
    return week_number in HOLIDAY_WEEKS


def derive_rng(*parts: Any) -> np.random.Generator:
    """Deterministic, process-independent RNG stream keyed by the given parts.

    Streams derived from distinct keys are statistically independent, and the
    same key always yields the same stream (unlike builtin hash(), which is
    salted per process).
    """
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


@dataclass(frozen=True)
class ProductSpec:
    """Immutable description of one product in a portfolio."""

    product_id: str
    cluster_id: int
    initial_price: float
    unit_cost: float
    baseline_demand: float

    def __post_init__(self):
        if self.initial_price <= 0:
            raise ConfigError(f"{self.product_id}: initial_price must be > 0")
        if self.unit_cost < 0:
            raise ConfigError(f"{self.product_id}: unit_cost must be >= 0")
        if self.initial_price <= self.unit_cost:
            raise ConfigError(
                f"{self.product_id}: initial_price {self.initial_price} must exceed "
                f"unit_cost {self.unit_cost}"
            )
        if self.baseline_demand <= 0:
            raise ConfigError(f"{self.product_id}: baseline_demand must be > 0")


@dataclass
class ProductState:
    """One product instance inside a simulation: current price plus histories.

    Both histories stay aligned: one entry per completed week.
    """

    spec: ProductSpec
    current_price: float
    price_history: list[float] = field(default_factory=list)
    demand_history: list[float] = field(default_factory=list)

    @classmethod
    def fresh(cls, spec: ProductSpec) -> "ProductState":
        return cls(spec=spec, current_price=spec.initial_price)

    def record_week(self, price: float, demand: float) -> None:
        self.price_history.append(price)
        self.demand_history.append(demand)

    def last_relative_change(self) -> float:
        if not self.price_history:
            return 0.0
        prev = self.price_history[-2] if len(self.price_history) > 1 else self.spec.initial_price
        return (self.price_history[-1] - prev) / prev


@dataclass(frozen=True)
class MarketObservation:
    """Shared weekly snapshot broadcast to every agent.

    Market quantities (prices, demands, revenues, shares) describe the last
    completed week; the calendar fields describe the week agents price next.
    Per-product quantities are per-slot lists: a slot is one (agent_id,
    product_id) pair, and `slots` maps each pair to its position, in roster x
    portfolio order. `slots` and `competitor_slots` are built once per episode
    and shared by every observation and record of it.
    """

    week_number: int
    year: int
    is_holiday: bool
    slots: dict[tuple[str, str], int]
    competitor_slots: tuple[tuple[int, ...], ...]  # other agents' same-cluster slots, roster order
    price: list[float]
    cluster_avg_price: list[float]  # the slot's cluster mean, its own price included
    last_demand: list[float]
    agent_revenue: dict[str, float]  # last week's revenue per agent, roster order
    market_share: dict[str, float]
    zero_revenue: bool = False


@dataclass(frozen=True)
class AgentSpec:
    """One roster entry: who the agent is and how it prices."""

    agent_id: str
    agent_kind: str  # "rule" | "madqn" | "maddpg" | "qmix"
    params: dict[str, Any] = field(default_factory=dict)

    KNOWN_KINDS = ("rule", "madqn", "maddpg", "qmix")

    def __post_init__(self):
        if self.agent_kind not in self.KNOWN_KINDS:
            raise ConfigError(f"unknown agent_kind {self.agent_kind!r}")


def make_default_portfolio(
    n_products: int, clusters: list[int] | tuple[int, ...], seed: int
) -> list[ProductSpec]:
    """Build the standard portfolio every agent starts from.

    Initial prices are cluster-differentiated (5.0 + cluster), unit costs are a
    fixed fraction of the initial price, and baseline demand is drawn once from
    the seeded stream so repeated calls with the same seed agree field-for-field.
    """
    if not clusters:
        raise ConfigError("cluster list must be non-empty")
    if n_products != len(clusters):
        raise ConfigError(f"n_products {n_products} != len(clusters) {len(clusters)}")
    rng = derive_rng(seed, "portfolio")
    specs = []
    for i, cluster in enumerate(clusters):
        price = 5.0 + float(cluster) * 1.0
        baseline = float(np.round(rng.uniform(15.0, 40.0), 3))
        specs.append(
            ProductSpec(
                product_id=f"prod{i + 1}",
                cluster_id=int(cluster),
                initial_price=price,
                unit_cost=round(price * DEFAULT_COST_RATIO, 6),
                baseline_demand=baseline,
            )
        )
    return specs


@dataclass
class MarketConfig:
    """Full description of one simulated market experiment."""

    agent_roster: list[AgentSpec]
    products_per_agent: int = 5
    clusters: tuple[int, ...] = DEFAULT_CLUSTERS
    weeks_per_episode: int = 104
    episodes: int = 30
    seed: int = 12345
    min_margin: float = 0.05
    max_weekly_change: float = 0.10
    reward_penalty_lambda: float = 1.0
    demand_params: "DemandParams | None" = None  # filled by validate()

    def validate(self) -> "MarketConfig":
        from .demand import DemandParams

        if not self.agent_roster:
            raise ConfigError("agent_roster must be non-empty")
        ids = [a.agent_id for a in self.agent_roster]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate agent ids in roster: {ids}")
        if not 0 < self.max_weekly_change <= 1:
            raise ConfigError("max_weekly_change must be in (0, 1]")
        if self.weeks_per_episode < 2:
            raise ConfigError("weeks_per_episode must be >= 2")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.min_margin < 0:
            raise ConfigError("min_margin must be >= 0")
        if self.reward_penalty_lambda < 0:
            raise ConfigError("reward_penalty_lambda must be >= 0")
        if self.products_per_agent != len(self.clusters):
            raise ConfigError("products_per_agent must match the cluster list length")
        if self.demand_params is None:
            self.demand_params = DemandParams()
        self.demand_params = self.demand_params.with_clusters(self.clusters)
        return self

    def price_floor(self, spec: ProductSpec) -> float:
        return spec.unit_cost * (1.0 + self.min_margin)

    def allowed_price(self, last_price: float, price: float, floor: float) -> float:
        """The market rule: cap a move at +/-max_weekly_change of last week's
        price, then raise the result to the margin floor (`price_floor`)."""
        span = self.max_weekly_change
        capped = min(max(price, last_price * (1.0 - span)), last_price * (1.0 + span))
        return max(capped, floor)

    # -- JSON round-trip -------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "agent_roster": [
                {"agent_id": a.agent_id, "agent_kind": a.agent_kind, "params": dict(a.params)}
                for a in self.agent_roster
            ],
            "products_per_agent": self.products_per_agent,
            "clusters": list(self.clusters),
            "weeks_per_episode": self.weeks_per_episode,
            "episodes": self.episodes,
            "seed": self.seed,
            "min_margin": self.min_margin,
            "max_weekly_change": self.max_weekly_change,
            "reward_penalty_lambda": self.reward_penalty_lambda,
        }
        if self.demand_params is not None:
            d["demand_params"] = self.demand_params.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MarketConfig":
        from .demand import DemandParams

        roster = [
            AgentSpec(e["agent_id"], e["agent_kind"], dict(e.get("params", {})))
            for e in d["agent_roster"]
        ]
        params = d.get("demand_params")
        return cls(
            agent_roster=roster,
            products_per_agent=int(d.get("products_per_agent", 5)),
            clusters=tuple(d.get("clusters", DEFAULT_CLUSTERS)),
            weeks_per_episode=int(d.get("weeks_per_episode", 104)),
            episodes=int(d.get("episodes", 30)),
            seed=int(d.get("seed", 12345)),
            min_margin=float(d.get("min_margin", 0.05)),
            max_weekly_change=float(d.get("max_weekly_change", 0.10)),
            reward_penalty_lambda=float(d.get("reward_penalty_lambda", 1.0)),
            demand_params=DemandParams.from_dict(params) if params else None,
        ).validate()

    def copy_with(self, **kwargs) -> "MarketConfig":
        return replace(self, **kwargs)
