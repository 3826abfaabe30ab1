"""Evaluation metrics: fairness, welfare, coordination, adaptability, stability.

All statistics use population (1/N) normalization. Price-change statistics
average over the number of changes (T - 1 for a T-week series). Functions are
pure; `compute_report` assembles the full per-run report from episode
histories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .environment import WeeklyRecord

NASH_WINDOW_WEEKS = 12
CONVERGENCE_WINDOW_WEEKS = 8
ADJUSTMENT_THRESHOLD = 0.01


def _pop_std(values: Sequence[float]) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def _relative_changes(prices: Sequence[float]) -> np.ndarray:
    arr = np.asarray(prices, dtype=float)
    if len(arr) < 2:
        raise ValueError("need at least 2 weeks of prices")
    return (arr[1:] - arr[:-1]) / arr[:-1]


def revenue_per_agent(weekly_revenues: Sequence[float]) -> float:
    if len(weekly_revenues) == 0:
        raise ValueError("history must be non-empty")
    return float(sum(weekly_revenues))


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


def nash_proximity(
    price_series: Sequence[Sequence[float]], window: int | None = NASH_WINDOW_WEEKS
) -> float:
    """1 - min(1, 10 * mean |relative weekly change|) over the trailing window.

    `price_series` holds one price sequence per agent-product pair; pass
    window=None to use every week.
    """
    changes: list[float] = []
    for series in price_series:
        series = list(series)
        if window is not None:
            series = series[-(window + 1):]
        if len(series) < 2:
            continue
        changes.extend(abs(c) for c in _relative_changes(series))
    if not changes:
        raise ValueError("need at least 2 weeks in the window")
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


def price_volatility(prices: Sequence[float]) -> dict[str, float]:
    """Mean/std/max of absolute relative weekly changes for one price series."""
    changes = _relative_changes(prices)
    abs_changes = np.abs(changes)
    return {
        "mean_abs_change": float(abs_changes.mean()),
        "std_change": _pop_std(changes),
        "max_change": float(abs_changes.max()),
    }


def price_cv(prices: Sequence[float]) -> float:
    """Coefficient of variation of the price level (population std / mean)."""
    arr = np.asarray(prices, dtype=float)
    mean = float(arr.mean())
    if mean == 0:
        return 0.0
    return _pop_std(arr) / mean


def price_convergence(pooled_prices: Sequence[float]) -> float:
    """1 - population std / max over the pooled final-window prices."""
    arr = np.asarray(pooled_prices, dtype=float)
    peak = float(arr.max())
    if peak <= 0:
        raise ValueError("max price must be > 0")
    return 1.0 - _pop_std(arr) / peak


def adjustment_magnitude(prices: Sequence[float]) -> float:
    """Mean absolute relative change between consecutive weeks."""
    return float(np.abs(_relative_changes(prices)).mean())


def adjustment_frequency(prices: Sequence[float], tau: float = ADJUSTMENT_THRESHOLD) -> float:
    """Fraction of weeks whose |relative change| strictly exceeds tau."""
    changes = np.abs(_relative_changes(prices))
    return float(np.mean(changes > tau))


def price_stability(prices: Sequence[float]) -> float:
    """1 - min(1, 10 * population std of relative weekly changes)."""
    changes = _relative_changes(prices)
    return 1.0 - min(1.0, 10.0 * _pop_std(changes))


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

    def to_dict(self) -> dict:
        return {
            "total_revenue": self.total_revenue,
            "mean_return": self.mean_return,
            "adjustment_magnitude": self.adjustment_magnitude,
            "adjustment_frequency": self.adjustment_frequency,
            "price_stability": self.price_stability,
            "price_volatility_mean_abs": self.price_volatility_mean_abs,
            "price_volatility_std": self.price_volatility_std,
            "price_volatility_max": self.price_volatility_max,
            "price_cv": self.price_cv,
            "optimality_gap": self.optimality_gap,
        }


@dataclass
class MetricsReport:
    agents: dict[str, AgentMetrics]
    jain: float
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
        return {
            "agents": {aid: m.to_dict() for aid, m in sorted(self.agents.items())},
            "market": {
                "jain_index": self.jain,
                "gini": self.gini,
                "social_welfare": self.social_welfare,
                "welfare_fairness": self.welfare_fairness,
                "nash_proximity": self.nash_proximity,
                "mean_optimality_gap": self.mean_optimality_gap,
                "price_convergence": self.price_convergence,
                "market_share_volatility_pp": self.market_share_volatility_pp,
                "final_market_share": dict(sorted(self.final_market_share.items())),
            },
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        agents = {
            aid: AgentMetrics(
                total_revenue=m["total_revenue"],
                mean_return=m["mean_return"],
                adjustment_magnitude=m["adjustment_magnitude"],
                adjustment_frequency=m["adjustment_frequency"],
                price_stability=m["price_stability"],
                price_volatility_mean_abs=m["price_volatility_mean_abs"],
                price_volatility_std=m["price_volatility_std"],
                price_volatility_max=m["price_volatility_max"],
                price_cv=m["price_cv"],
                optimality_gap=m["optimality_gap"],
            )
            for aid, m in d["agents"].items()
        }
        market = d["market"]
        return cls(
            agents=agents,
            jain=market["jain_index"],
            gini=market["gini"],
            social_welfare=market["social_welfare"],
            welfare_fairness=market["welfare_fairness"],
            nash_proximity=market["nash_proximity"],
            mean_optimality_gap=market["mean_optimality_gap"],
            price_convergence=market["price_convergence"],
            market_share_volatility_pp=market["market_share_volatility_pp"],
            final_market_share=market["final_market_share"],
            flags=list(d.get("flags", [])),
        )


def _agent_ids(records: list[WeeklyRecord]) -> list[str]:
    return list(records[0].agent_revenue)


def _price_series(records: list[WeeklyRecord]) -> dict[tuple[str, str], list[float]]:
    """Each slot's weekly prices over one episode, keyed (agent_id, product_id)."""
    columns = zip(*(record.price for record in records))
    return dict(zip(records[0].slots, map(list, columns)))


def compute_report(episodes: list[list[WeeklyRecord]]) -> MetricsReport:
    """Build the full metric report for one run.

    Per-agent change statistics average over the agent's products and
    episodes. Share volatility, coordination and convergence metrics are
    computed on the final episode; fairness and welfare use per-agent mean
    episode returns.
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

    per_agent_mag: dict[str, list[float]] = {aid: [] for aid in agent_ids}
    per_agent_freq: dict[str, list[float]] = {aid: [] for aid in agent_ids}
    per_agent_stab: dict[str, list[float]] = {aid: [] for aid in agent_ids}
    per_agent_vol: dict[str, list[dict[str, float]]] = {aid: [] for aid in agent_ids}
    per_agent_cv: dict[str, list[float]] = {aid: [] for aid in agent_ids}
    for ep in episodes:
        for (aid, _pid), prices in _price_series(ep).items():
            if len(prices) < 2:
                continue
            per_agent_mag[aid].append(adjustment_magnitude(prices))
            per_agent_freq[aid].append(adjustment_frequency(prices))
            per_agent_stab[aid].append(price_stability(prices))
            per_agent_vol[aid].append(price_volatility(prices))
            per_agent_cv[aid].append(price_cv(prices))

    max_return = max(mean_returns.values())
    if max_return <= 0:
        flags.append("non-positive-max-return")
    agents = {}
    for aid in agent_ids:
        vols = per_agent_vol[aid]
        agents[aid] = AgentMetrics(
            total_revenue=totals[aid],
            mean_return=mean_returns[aid],
            adjustment_magnitude=float(np.mean(per_agent_mag[aid])),
            adjustment_frequency=float(np.mean(per_agent_freq[aid])),
            price_stability=float(np.mean(per_agent_stab[aid])),
            price_volatility_mean_abs=float(np.mean([v["mean_abs_change"] for v in vols])),
            price_volatility_std=float(np.mean([v["std_change"] for v in vols])),
            price_volatility_max=float(np.mean([v["max_change"] for v in vols])),
            price_cv=float(np.mean(per_agent_cv[aid])),
            optimality_gap=(
                optimality_gap(mean_returns[aid], max_return) if max_return > 0 else float("nan")
            ),
        )

    final = episodes[-1]
    revenue_rows = {aid: [r.agent_revenue[aid] for r in final] for aid in agent_ids}
    shares, flagged_weeks = market_share_series(revenue_rows)
    if flagged_weeks:
        flags.append(f"zero-revenue-weeks:{len(flagged_weeks)}")

    final_prices = _price_series(final)
    product_ids = sorted({pid for (_aid, pid) in final_prices})
    convergence_values = []
    for pid in product_ids:
        pooled = []
        for (aid, p), prices in final_prices.items():
            if p == pid:
                pooled.extend(prices[-CONVERGENCE_WINDOW_WEEKS:])
        convergence_values.append(price_convergence(pooled))

    returns_vector = [mean_returns[aid] for aid in agent_ids]
    if all(v == 0 for v in returns_vector):
        flags.append("all-zero-returns")

    return MetricsReport(
        agents=agents,
        jain=jain_index(returns_vector),
        gini=gini(returns_vector),
        social_welfare=social_welfare(returns_vector),
        welfare_fairness=welfare_fairness(returns_vector),
        nash_proximity=nash_proximity(list(final_prices.values())),
        mean_optimality_gap=float(np.mean([a.optimality_gap for a in agents.values()])),
        price_convergence=float(np.mean(convergence_values)),
        market_share_volatility_pp=market_share_volatility_pp(shares),
        final_market_share={aid: shares[aid][-1] for aid in agent_ids},
        flags=flags,
    )
