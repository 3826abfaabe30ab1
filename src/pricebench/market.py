"""Core market domain types: products, per-slot observations, run configuration,
and `from_fields`, the one parser that builds a settings dataclass from JSON."""

from __future__ import annotations

import functools
import hashlib
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Sequence

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


def from_fields(cls, d: dict, what: str | None = None, **fixed):
    """A `cls` dataclass built from `d`, one key per field.

    Each value is cast to its field's type: a nested dataclass is built from
    its own fields, a dict, list or tuple item by item, and a scalar by calling
    its type. Fields in `fixed` are the caller's and are not read from `d`.
    A key that names no other field, a missing field without a default and a
    value that does not cast raise ConfigError.
    """
    types, required = _fields_of(cls)
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    accepted = types.keys() - fixed.keys()
    unknown = sorted(d.keys() - accepted)
    if unknown:
        raise ConfigError(f"unknown {what or cls.__name__ + ' keys'} {unknown}; "
                          f"accepted: {sorted(accepted)}")
    missing = sorted(required - d.keys() - fixed.keys())
    if missing:
        raise ConfigError(f"{cls.__name__} needs {missing}")
    values = {}
    for name, value in d.items():
        try:
            values[name] = _cast(types[name], value)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return cls(**values, **fixed)


@functools.cache
def _fields_of(cls) -> tuple[dict[str, Any], frozenset[str]]:
    """`cls`'s init fields with their resolved types, and those without a default."""
    hints = typing.get_type_hints(cls)
    init = [f for f in fields(cls) if f.init]
    required = {f.name for f in init if f.default is MISSING and f.default_factory is MISSING}
    return {f.name: hints[f.name] for f in init}, frozenset(required)


def _cast(tp, value):
    if is_dataclass(tp):
        return value if isinstance(value, tp) else from_fields(tp, value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {_cast(args[0], k): _cast(args[1], v) for k, v in value.items()}
    if origin in (list, tuple):
        return origin(_cast(args[0], v) for v in value)
    return value if tp is Any else tp(value)


def _json_keys(items) -> dict:
    # a dict field's keys as JSON writes them: cluster_base's ints become strings
    return {k: {str(i): x for i, x in v.items()} if isinstance(v, dict) else v for k, v in items}


class JsonFields:
    """A dataclass that JSON holds by its fields (see `from_fields`)."""

    def to_dict(self) -> dict:
        """The fields as JSON holds them: `dataclasses.asdict`, with each dict
        field's keys as strings, so that a hash of it matches the file's."""
        return asdict(self, dict_factory=_json_keys)

    @classmethod
    def from_dict(cls, d: dict):
        return from_fields(cls, d)


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


def make_default_portfolio(clusters: Sequence[int], seed: int) -> list[ProductSpec]:
    """Build the standard portfolio every agent starts from.

    Initial prices are cluster-differentiated (5.0 + cluster), unit costs are a
    fixed fraction of the initial price, and baseline demand is drawn once from
    the seeded stream so repeated calls with the same seed agree field-for-field.
    One product per cluster in the list.
    """
    if not clusters:
        raise ConfigError("cluster list must be non-empty")
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


@dataclass(frozen=True)
class DemandParams(JsonFields):
    """Coefficients of the reference demand model."""

    elasticity: float = -0.072
    holiday_uplift: float = 1.35
    cluster_base: dict[int, float] = field(default_factory=dict)
    seasonal_amp: float = 0.15
    lag_weight: float = 0.3
    noise_sigma: float = 0.05  # std-dev of log-space noise
    competitor_weight: float = 0.5

    def __post_init__(self):
        if self.elasticity > 0:
            raise ConfigError(f"elasticity must be <= 0, got {self.elasticity}")
        if self.holiday_uplift < 1:
            raise ConfigError(f"holiday_uplift must be >= 1, got {self.holiday_uplift}")
        if not 0 <= self.lag_weight < 1:
            raise ConfigError(f"lag_weight must be in [0, 1), got {self.lag_weight}")
        if self.noise_sigma < 0 or self.seasonal_amp < 0 or self.competitor_weight < 0:
            raise ConfigError("noise_sigma, seasonal_amp and competitor_weight must be >= 0")
        if any(v <= 0 for v in self.cluster_base.values()):
            raise ConfigError("cluster_base multipliers must be > 0")

    def with_clusters(self, clusters: Sequence[int]) -> "DemandParams":
        """Copy with a multiplier entry (default 1.0) for every cluster in use."""
        base = dict(self.cluster_base)
        for c in clusters:
            base.setdefault(int(c), 1.0)
        return replace(self, cluster_base=base)


@dataclass
class MarketConfig(JsonFields):
    """Full description of one simulated market experiment: one product per
    entry of `clusters` for every agent."""

    agent_roster: list[AgentSpec]
    clusters: tuple[int, ...] = DEFAULT_CLUSTERS
    weeks_per_episode: int = 104
    episodes: int = 30
    seed: int = 12345
    min_margin: float = 0.05
    max_weekly_change: float = 0.10
    reward_penalty_lambda: float = 1.0
    demand_params: DemandParams = field(default_factory=DemandParams)

    def validate(self) -> "MarketConfig":
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
        if not self.clusters:
            raise ConfigError("clusters must be non-empty")
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

    def copy_with(self, **kwargs) -> "MarketConfig":
        return replace(self, **kwargs)
