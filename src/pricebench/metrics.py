"""Evaluation metrics: fairness, welfare, coordination, adaptability, stability.

All statistics use population (1/N) normalization. Price-change statistics
average over the number of changes (T - 1 for a T-week series). Functions are
pure; `compute_report` assembles the full per-run report from episode
histories.

The price-series metrics (`price_volatility`, `price_cv`,
`adjustment_magnitude`, `adjustment_frequency`, `price_stability`) reduce
over the last axis: a 1-D series of T weekly prices gives a float, and an
array of such series (one row per slot, say) gives one result per row in a
single call. They reduce a C-contiguous copy of their input, whose rows
numpy sums in the same pairwise order as a 1-D call, so each row's result is
bit for bit that series' own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .environment import WeeklyRecord
from .market import JsonFields, from_fields

NASH_WINDOW_WEEKS = 12
CONVERGENCE_WINDOW_WEEKS = 8
ADJUSTMENT_THRESHOLD = 0.01


def _rows(result: np.ndarray):
    """A float for a reduction of one series, the array of row results otherwise."""
    return float(result) if np.ndim(result) == 0 else result


def _pop_std(values):
    """Population standard deviation over the last axis."""
    arr = np.ascontiguousarray(values, dtype=float)
    return _rows(np.sqrt(np.mean((arr - arr.mean(axis=-1, keepdims=True)) ** 2, axis=-1)))


def _relative_changes(prices) -> np.ndarray:
    """Week-over-week relative changes along the last axis."""
    arr = np.ascontiguousarray(prices, dtype=float)
    if arr.shape[-1] < 2:
        raise ValueError("need at least 2 weeks of prices")
    return (arr[..., 1:] - arr[..., :-1]) / arr[..., :-1]


def jain_index(revenues: Sequence[float]) -> float:
    """(sum R)^2 / (N * sum R^2); 1.0 (flagged upstream) when all revenues are zero."""
    arr = np.asarray(revenues, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one revenue")
    if np.any(arr < 0):
        raise ValueError("revenues must be >= 0")
    denom = arr.size * float(np.sum(arr**2))
    if denom == 0:
        return 1.0
    return float(np.sum(arr)) ** 2 / denom


def gini(revenues: Sequence[float]) -> float:
    """Mean absolute pairwise difference over 2N * total; 0 when all zero."""
    arr = np.asarray(revenues, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one revenue")
    if np.any(arr < 0):
        raise ValueError("revenues must be >= 0")
    total = float(arr.sum())
    if total == 0:
        return 0.0
    diffs = np.abs(arr[:, None] - arr[None, :]).sum()
    return float(diffs / (2.0 * arr.size * total))


def social_welfare(revenues: Sequence[float]) -> float:
    return float(sum(revenues)) * (1.0 - gini(revenues))


def welfare_fairness(revenues: Sequence[float]) -> float:
    """1 - gini: the welfare-retention share of total revenue."""
    return 1.0 - gini(revenues)


def nash_proximity(price_series, window: int | None = NASH_WINDOW_WEEKS) -> float:
    """1 - min(1, 10 * mean |relative weekly change|) over the trailing window.

    `price_series` holds one equally long price sequence per agent-product
    pair (a `(slots, weeks)` array); pass window=None to use every week. The
    mean is a sequential sum, series by series.
    """
    prices = np.asarray(price_series, dtype=float)
    if window is not None:
        prices = prices[..., -(window + 1):]
    if prices.size == 0 or prices.shape[-1] < 2:
        raise ValueError("need at least 2 weeks in the window")
    changes = np.abs(_relative_changes(prices)).ravel().tolist()
    mean_change = sum(changes) / len(changes)
    return 1.0 - min(1.0, 10.0 * mean_change)


def optimality_gap(agent_revenue: float, max_revenue: float) -> float:
    if max_revenue <= 0:
        raise ValueError("max_revenue must be > 0")
    return (max_revenue - agent_revenue) / max_revenue


def market_share_series(
    weekly_revenues: dict[str, Sequence[float]],
) -> tuple[dict[str, list[float]], list[int]]:
    """Per-agent weekly share sequences; zero-total weeks get uniform shares.

    Returns (series, indices of flagged zero-revenue weeks).
    """
    agents = list(weekly_revenues)
    n_weeks = len(next(iter(weekly_revenues.values())))
    shares: dict[str, list[float]] = {a: [] for a in agents}
    flagged: list[int] = []
    for t in range(n_weeks):
        total = sum(weekly_revenues[a][t] for a in agents)
        if total <= 0:
            flagged.append(t)
            for a in agents:
                shares[a].append(1.0 / len(agents))
        else:
            for a in agents:
                shares[a].append(weekly_revenues[a][t] / total)
    return shares, flagged


def market_share_volatility_pp(share_series: dict[str, Sequence[float]]) -> float:
    """Mean over agents of the population std of weekly shares, in percentage points."""
    lengths = {len(s) for s in share_series.values()}
    if min(lengths) < 2:
        raise ValueError("need at least 2 weeks of shares")
    return 100.0 * float(np.mean([_pop_std(s) for s in share_series.values()]))


def price_volatility(prices) -> dict:
    """Mean |relative weekly change|, std of the changes and max |change|, per series."""
    changes = _relative_changes(prices)
    abs_changes = np.abs(changes)
    return {
        "mean_abs_change": _rows(abs_changes.mean(axis=-1)),
        "std_change": _pop_std(changes),
        "max_change": _rows(abs_changes.max(axis=-1)),
    }


def price_cv(prices):
    """Coefficient of variation of the price level (population std / mean); 0 at mean 0."""
    arr = np.ascontiguousarray(prices, dtype=float)
    mean = arr.mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = _pop_std(arr) / mean
    return _rows(np.where(mean == 0, 0.0, cv))


def price_convergence(pooled_prices: Sequence[float]) -> float:
    """1 - population std / max over the pooled final-window prices."""
    arr = np.asarray(pooled_prices, dtype=float)
    peak = float(arr.max())
    if peak <= 0:
        raise ValueError("max price must be > 0")
    return 1.0 - _pop_std(arr) / peak


def adjustment_magnitude(prices):
    """Mean absolute relative change between consecutive weeks."""
    return _rows(np.abs(_relative_changes(prices)).mean(axis=-1))


def adjustment_frequency(prices, tau: float = ADJUSTMENT_THRESHOLD):
    """Fraction of weeks whose |relative change| strictly exceeds tau."""
    changes = np.abs(_relative_changes(prices))
    return _rows(np.mean(changes > tau, axis=-1))


def price_stability(prices):
    """1 - min(1, 10 * population std of relative weekly changes)."""
    return _rows(1.0 - np.minimum(1.0, 10.0 * _pop_std(_relative_changes(prices))))


# -- report assembly ---------------------------------------------------------


@dataclass
class AgentMetrics:
    total_revenue: float
    mean_return: float
    adjustment_magnitude: float
    adjustment_frequency: float
    price_stability: float
    price_volatility_mean_abs: float
    price_volatility_std: float
    price_volatility_max: float
    price_cv: float
    optimality_gap: float


@dataclass
class MetricsReport(JsonFields):
    """One run's metrics. metrics.json holds `agents`, `flags` and, in its
    `market` block, every other field."""

    agents: dict[str, AgentMetrics]
    jain_index: float
    gini: float
    social_welfare: float
    welfare_fairness: float
    nash_proximity: float
    mean_optimality_gap: float
    price_convergence: float
    market_share_volatility_pp: float
    final_market_share: dict[str, float]
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = super().to_dict()
        return {"agents": d.pop("agents"), "flags": d.pop("flags"), "market": d}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        d = dict(d)
        return from_fields(cls, {**d.pop("market", {}), **d})


def _agent_ids(records: list[WeeklyRecord]) -> list[str]:
    return list(records[0].agent_revenue)


def _slot_prices(records: list[WeeklyRecord]) -> np.ndarray:
    """One episode's `(slots, weeks)` price array, C-contiguous, rows in slot order."""
    return np.ascontiguousarray(np.array([record.price for record in records], dtype=float).T)


def _slot_metrics(prices: np.ndarray) -> dict[str, np.ndarray]:
    """Per-slot AgentMetrics price fields of one episode's `(slots, weeks)` prices.

    `price_volatility_mean_abs` is `adjustment_magnitude`'s mean |change|.
    """
    volatility = price_volatility(prices)
    return {
        "adjustment_magnitude": volatility["mean_abs_change"],
        "adjustment_frequency": adjustment_frequency(prices),
        "price_stability": price_stability(prices),
        "price_volatility_std": volatility["std_change"],
        "price_volatility_max": volatility["max_change"],
        "price_cv": price_cv(prices),
    }


def compute_report(episodes: list[list[WeeklyRecord]]) -> MetricsReport:
    """Build the full metric report for one run.

    Per-agent change statistics average over the agent's products and
    episodes, in (episode, product) order. Share volatility, coordination and
    convergence metrics are computed on the final episode; fairness and
    welfare use per-agent mean episode returns.
    """
    if not episodes or not episodes[0]:
        raise ValueError("need at least one completed episode")
    agent_ids = _agent_ids(episodes[0])
    flags: list[str] = []

    episode_returns = {
        aid: [sum(r.agent_revenue[aid] for r in ep) for ep in episodes] for aid in agent_ids
    }
    mean_returns = {aid: float(np.mean(v)) for aid, v in episode_returns.items()}
    totals = {aid: float(np.sum(v)) for aid, v in episode_returns.items()}

    # one metric call per episode over all slots; each agent's columns, episode by episode
    per_agent: dict[str, list[np.ndarray]] = {aid: [] for aid in agent_ids}
    for ep in episodes:
        slot_metrics = _slot_metrics(_slot_prices(ep))
        table = np.stack(list(slot_metrics.values()))  # (metrics, slots)
        columns: dict[str, list[int]] = {aid: [] for aid in agent_ids}
        for (aid, _pid), i in ep[0].slots.items():
            columns[aid].append(i)
        for aid, cols in columns.items():
            per_agent[aid].append(table[:, cols])

    max_return = max(mean_returns.values())
    if max_return <= 0:
        flags.append("non-positive-max-return")
    agents = {}
    for aid in agent_ids:
        # a C-contiguous copy: the column gathers are Fortran-ordered, and a row
        # mean sums pairwise (as np.mean of a list does) only along contiguous rows
        values = np.ascontiguousarray(np.concatenate(per_agent[aid], axis=1))
        means = dict(zip(slot_metrics, values.mean(axis=-1).tolist()))
        agents[aid] = AgentMetrics(
            total_revenue=totals[aid],
            mean_return=mean_returns[aid],
            price_volatility_mean_abs=means["adjustment_magnitude"],
            **means,
            optimality_gap=(
                optimality_gap(mean_returns[aid], max_return) if max_return > 0 else float("nan")
            ),
        )

    final = episodes[-1]
    revenue_rows = {aid: [r.agent_revenue[aid] for r in final] for aid in agent_ids}
    shares, flagged_weeks = market_share_series(revenue_rows)
    if flagged_weeks:
        flags.append(f"zero-revenue-weeks:{len(flagged_weeks)}")

    final_prices = _slot_prices(final)
    final_window = final_prices[:, -CONVERGENCE_WINDOW_WEEKS:]
    slots_of: dict[str, list[int]] = {}
    for (_aid, pid), i in final[0].slots.items():
        slots_of.setdefault(pid, []).append(i)
    convergence_values = [
        price_convergence(final_window[slots_of[pid]].ravel()) for pid in sorted(slots_of)
    ]

    returns_vector = [mean_returns[aid] for aid in agent_ids]
    if all(v == 0 for v in returns_vector):
        flags.append("all-zero-returns")

    return MetricsReport(
        agents=agents,
        jain_index=jain_index(returns_vector),
        gini=gini(returns_vector),
        social_welfare=social_welfare(returns_vector),
        welfare_fairness=welfare_fairness(returns_vector),
        nash_proximity=nash_proximity(final_prices),
        mean_optimality_gap=float(np.mean([a.optimality_gap for a in agents.values()])),
        price_convergence=float(np.mean(convergence_values)),
        market_share_volatility_pp=market_share_volatility_pp(shares),
        final_market_share={aid: shares[aid][-1] for aid in agent_ids},
        flags=flags,
    )
