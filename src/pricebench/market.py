"""Core market domain types: products, per-slot observations, run configuration,
the calendar table (`CALENDAR`), and `from_fields`, the one parser that builds a
settings dataclass from JSON."""

from __future__ import annotations

import functools
import hashlib
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Any, Iterable, Sequence

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


def seasonal_encoding(week: int) -> tuple[float, float]:
    """Sine/cosine decomposition of the calendar week (period 52)."""
    if not 1 <= week <= 53:
        raise ValueError(f"week must be in 1..53, got {week}")
    wa = 2.0 * math.pi * week / 52.0
    return math.sin(wa), math.cos(wa)


# Each calendar week's (holiday flag, seasonal sine, seasonal cosine): the
# market's demand terms, the learners' state and the calibration regressors
# all read it. Weeks 1..53: the market wraps week 52 to 1, ISO years reach 53.
CALENDAR = {week: (holiday_flag(week), *seasonal_encoding(week)) for week in range(1, 54)}


def from_fields(cls, d: dict, what: str | None = None):
    """A `cls` dataclass built from `d`, one key per field.

    Each value is cast to its field's type: a nested dataclass is built from
    its own fields, a dict, list or tuple item by item, and a scalar by calling
    its type. A key that names no field, a missing field without a default
    and a value that does not cast, a fractional number for an int field
    among them, raise ConfigError.
    """
    types, required = _fields_of(cls)
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(d.keys() - types.keys())
    if unknown:
        raise ConfigError(f"unknown {what or cls.__name__ + ' keys'} {unknown}; "
                          f"accepted: {sorted(types)}")
    missing = sorted(required - d.keys())
    if missing:
        raise ConfigError(f"{cls.__name__} needs {missing}")
    values = {}
    for name, value in d.items():
        try:
            values[name] = _cast(types[name], value)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return cls(**values)


def require_finite(settings) -> None:
    """Raise ConfigError naming the first float field of the dataclass
    `settings` that is NaN or infinite."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


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
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")  # int() would truncate it
    return value if tp is Any else tp(value)


def _json_form(value, string_keys: bool = False):
    """`value` as JSON holds it: a dataclass as its fields, a dict field with
    string keys (cluster_base's ints), and containers item by item."""
    names = _field_names(type(value))
    if names:
        return {name: _json_form(getattr(value, name), True) for name in names}
    if isinstance(value, dict):
        return {str(k) if string_keys else k: _json_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """A dataclass's field names; () for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()


class JsonFields:
    """A dataclass that JSON holds by its fields (see `from_fields`)."""

    def to_dict(self) -> dict:
        """The fields as JSON holds them, each dict field's keys as strings,
        so that a hash of it matches the file's."""
        return _json_form(self)

    @classmethod
    def from_dict(cls, d: dict):
        return from_fields(cls, d)


def left_sum(values: Iterable[float]) -> float:
    """The sum of `values`, added left to right in float arithmetic.

    CPython 3.11's builtin `sum` adds floats this way, but 3.12's compensates
    the rounding (`sum([0.1] * 10)` is 0.9999999999999999 on 3.11 and 1.0 on
    3.12), so the seeded path sums with this helper to write the same bytes
    on every supported interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


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


@dataclass(frozen=True)
class MarketObservation:
    """What every agent reads after a week settles.

    Market quantities (prices, revenues, shares) describe the week just
    settled (week zero is the initial prices at baseline demand); the
    calendar fields describe the week agents price next. Per-product
    quantities are per-slot lists: a slot is one (agent_id, product_id) pair,
    in roster x portfolio order, so each agent's slots are contiguous.

    The episode's record is its `log`, shared by every observation of the
    episode; `log.slots` maps each pair to its slot. `weeks` is the number
    of weeks settled (0 at week zero). Rows `[:weeks]` of `log.price` and
    `log.demand` are the history an agent reads, and later weeks never
    change them. `competitor_slots` is built once per episode and shared
    by every observation of it.
    """

    week_number: int
    is_holiday: bool
    competitor_slots: tuple[tuple[int, ...], ...]  # other agents' same-cluster slots, roster order
    log: EpisodeLog
    weeks: int
    price: list[float]
    relative_price: list[float]  # price / the slot's cluster mean, its own price included
    agent_revenue: dict[str, float]  # the week's revenue per agent, roster order
    market_share: dict[str, float]


class EpisodeLog:
    """One episode's settled weeks as float64 columns, zero until written;
    row t is week t + 1. Per slot, in `slots` order: `price` and `demand`,
    `(weeks, slots)`. Per agent, in `agent_ids` (roster) order: `revenue` and
    `share`, `(weeks, agents)`. `zero_revenue` flags each week whose market
    revenue was not positive (its shares are then 1/N). Each slot's `owner`
    indexes `agent_ids`; `unit_cost` is its product's. The log holds no
    reference to the market, its agents or its observations."""

    def __init__(self, weeks: int, slots: dict[tuple[str, str], int],
                 agent_ids: Sequence[str], unit_costs: Sequence[float]):
        self.slots, self.agent_ids = slots, tuple(agent_ids)
        self.owner = np.array([self.agent_ids.index(aid) for aid, _ in slots], dtype=np.intp)
        self.unit_cost = np.array(unit_costs, dtype=float)
        n, m = len(slots), len(self.agent_ids)
        self.price, self.demand = np.zeros((weeks, n)), np.zeros((weeks, n))
        self.revenue, self.share = np.zeros((weeks, m)), np.zeros((weeks, m))
        self.zero_revenue = np.zeros(weeks, dtype=bool)


# The agent kinds: each kind's module, relative to this package, and the
# names there of its settings class and, for a learning kind, its team
# learner class (see `harness.kind_class`, which imports them on first use).
AGENT_KINDS = {
    "rule": {"module": ".rule_agents", "settings": "RuleStrategy"},
    "madqn": {"module": ".marl.madqn", "settings": "DqnHyper", "learner": "DqnCore"},
    "maddpg": {
        "module": ".marl.maddpg", "settings": "MaddpgHyper", "learner": "MaddpgCoordinator",
    },
    "qmix": {"module": ".marl.qmix", "settings": "QmixHyper", "learner": "QmixCoordinator"},
}


@dataclass(frozen=True)
class AgentSpec:
    """One roster entry: who the agent is and how it prices."""

    agent_id: str
    agent_kind: str  # a key of AGENT_KINDS
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.agent_kind not in AGENT_KINDS:
            raise ConfigError(f"unknown agent_kind {self.agent_kind!r}")
        # history.csv writes the id unquoted between commas, one row per line,
        # and its writer drops NUL bytes
        if not self.agent_id or any(c in self.agent_id for c in ',"\r\n\0'):
            raise ConfigError(f"agent_id {self.agent_id!r} must be non-empty and hold "
                              "no comma, double quote, CR, LF or NUL")


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

    def __post_init__(self):  # each check is written so that NaN fails it
        if not -math.inf < self.elasticity <= 0:
            raise ConfigError(f"elasticity must be finite and <= 0, got {self.elasticity}")
        if not 1 <= self.holiday_uplift < math.inf:
            raise ConfigError(f"holiday_uplift must be finite and >= 1, got {self.holiday_uplift}")
        if not 0 <= self.lag_weight < 1:
            raise ConfigError(f"lag_weight must be in [0, 1), got {self.lag_weight}")
        for name in ("seasonal_amp", "noise_sigma", "competitor_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not all(0 < v < math.inf for v in self.cluster_base.values()):
            raise ConfigError("cluster_base multipliers must be finite and > 0")

    def with_clusters(self, clusters: Sequence[int]) -> "DemandParams":
        """Copy with a multiplier entry (default 1.0) for every cluster in use."""
        base = dict(self.cluster_base)
        for c in clusters:
            base.setdefault(int(c), 1.0)
        return replace(self, cluster_base=base)


@dataclass(frozen=True)
class MarketConfig(JsonFields):
    """One simulated market experiment, checked when built: one product per
    entry of `clusters` for every agent, each with a `demand_params` multiplier."""

    agent_roster: list[AgentSpec]
    clusters: tuple[int, ...] = DEFAULT_CLUSTERS
    weeks_per_episode: int = 104
    episodes: int = 30
    seed: int = 12345
    min_margin: float = 0.05
    max_weekly_change: float = 0.10
    reward_penalty_lambda: float = 1.0
    demand_params: DemandParams = field(default_factory=DemandParams)

    def __post_init__(self):  # each check is written so that NaN fails it
        if not self.agent_roster:
            raise ConfigError("agent_roster must be non-empty")
        ids = [a.agent_id for a in self.agent_roster]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate agent ids in roster: {ids}")
        if not 0 < self.max_weekly_change <= 1:
            raise ConfigError(f"max_weekly_change must be in (0, 1], got {self.max_weekly_change}")
        if not self.weeks_per_episode >= 2:
            raise ConfigError("weeks_per_episode must be >= 2")
        if not self.episodes >= 1:
            raise ConfigError("episodes must be >= 1")
        for name in ("min_margin", "reward_penalty_lambda"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not self.clusters:
            raise ConfigError("clusters must be non-empty")
        object.__setattr__(self, "demand_params", self.demand_params.with_clusters(self.clusters))

    def price_floor(self, spec: ProductSpec) -> float:
        return spec.unit_cost * (1.0 + self.min_margin)

    def allowed_prices(
        self, last_prices: Iterable[float], prices: Iterable[float], floors: Iterable[float]
    ) -> list[float]:
        """The market rule, slot by slot: cap a move at +/-max_weekly_change
        of last week's price, then raise the result to the margin floor
        (`price_floor`).

        Each comparison picks what `max(min(max(price, last * (1 - span)),
        last * (1 + span)), floor)` picks, without its three builtin calls.
        """
        down = 1.0 - self.max_weekly_change
        up = 1.0 + self.max_weekly_change
        allowed = []
        for last, price, floor in zip(last_prices, prices, floors):
            lo = last * down
            hi = last * up
            if lo > price:
                price = lo
            if hi < price:
                price = hi
            if floor > price:
                price = floor
            allowed.append(price)
        return allowed
