"""Evaluation metrics: fairness, coordination, adaptability, stability.

All statistics use population (1/N) normalization. Price-change statistics
average over the number of changes (T - 1 for a T-week series). Functions are
pure; `compute_report` folds a run's episodes, one at a time, into its
report.

The price-series metrics (`price_volatility`, `price_cv`,
`adjustment_magnitude`, `adjustment_frequency`) reduce over the last axis: a
1-D series of T weekly prices gives a float, and an array of such series
(one row per slot, say) gives one result per row in a single call. They
reduce a C-contiguous copy of their input, whose rows numpy sums in the same
pairwise order as a 1-D call, so each row's result is bit for bit that
series' own. Price stability is `price_volatility` (`price_volatility_std` in
metrics.json), the population std of the relative weekly changes; no
rescaled copy of it is reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .market import EpisodeLog, JsonFields, from_fields, left_sum

NASH_WINDOW_WEEKS = 12
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
    top = float(arr.max())
    if 0 < top < 1e-100:  # squared, revenues this small are subnormal and lose bits
        arr = arr / top
    denom = arr.size * float(np.sum(arr**2))
    if denom == 0:
        return 1.0
    return float(np.sum(arr)) ** 2 / denom


def nash_proximity(price_series, window: int | None = NASH_WINDOW_WEEKS) -> float:
    """1 - min(1, 10 * mean |relative weekly change|) over the trailing window.

    Despite its name this scores price stability, not the distance to any
    equilibrium: the parametric demand model has no interior revenue
    optimum to be near, and prices held still score 1 at any level.

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
    mean_change = left_sum(changes) / len(changes)
    return 1.0 - min(1.0, 10.0 * mean_change)


def market_share_volatility_pp(share_series: dict[str, Sequence[float]]) -> float:
    """Mean over agents of the population std of weekly shares, in percentage points."""
    lengths = {len(s) for s in share_series.values()}
    if min(lengths) < 2:
        raise ValueError("need at least 2 weeks of shares")
    return 100.0 * float(np.mean([_pop_std(s) for s in share_series.values()]))


def price_volatility(prices):
    """Population std of the relative weekly changes (their mean |change| is
    `adjustment_magnitude`)."""
    return _pop_std(_relative_changes(prices))


def price_cv(prices):
    """Coefficient of variation of the price level (population std / mean); 0 at mean 0."""
    arr = np.ascontiguousarray(prices, dtype=float)
    mean = arr.mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = _pop_std(arr) / mean
    return _rows(np.where(mean == 0, 0.0, cv))


def adjustment_magnitude(prices):
    """Mean absolute relative change between consecutive weeks."""
    return _rows(np.abs(_relative_changes(prices)).mean(axis=-1))


def adjustment_frequency(prices, tau: float = ADJUSTMENT_THRESHOLD):
    """Fraction of weeks whose |relative change| strictly exceeds tau."""
    changes = np.abs(_relative_changes(prices))
    return _rows(np.mean(changes > tau, axis=-1))


# -- report assembly ---------------------------------------------------------


@dataclass
class AgentMetrics:
    mean_return: float
    adjustment_magnitude: float
    adjustment_frequency: float
    price_volatility_std: float
    price_cv: float


@dataclass
class MetricsReport(JsonFields):
    """One run's metrics. metrics.json holds `agents`, `flags` and, in its
    `market` block, every other field."""

    agents: dict[str, AgentMetrics]
    jain_index: float
    nash_proximity: float
    market_share_volatility_pp: float
    final_market_share: dict[str, float]
    flags: list[str] = field(default_factory=list)

    def mean_return(self) -> float:
        """The run's mean return: the mean of its agents' mean returns."""
        return np.mean([a.mean_return for a in self.agents.values()])

    def to_dict(self) -> dict:
        d = super().to_dict()
        return {"agents": d.pop("agents"), "flags": d.pop("flags"), "market": d}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        d = dict(d)
        return from_fields(cls, {**d.pop("market", {}), **d})


def _slot_metrics(prices: np.ndarray) -> dict[str, np.ndarray]:
    """Per-slot AgentMetrics price fields of one episode's `(slots, weeks)` prices."""
    return {
        "adjustment_magnitude": adjustment_magnitude(prices),
        "adjustment_frequency": adjustment_frequency(prices),
        "price_volatility_std": price_volatility(prices),
        "price_cv": price_cv(prices),
    }


def compute_report(episodes: Iterable[EpisodeLog]) -> MetricsReport:
    """Fold one run's episode logs, in order, into its metric report.

    `episodes` may be a list or a stream that settles each episode as it is
    read: the fold keeps each episode's per-agent returns and per-slot price
    metrics, and only the latest episode's log, so a run's record memory is
    one or two episodes, not all of them.

    Per-agent change statistics average over the agent's products and
    episodes, in (episode, product) order. Share volatility and coordination
    are computed on the final episode; fairness uses per-agent mean episode
    returns.
    """
    episode_returns: list[list[float]] = []
    per_agent: list[list[np.ndarray]] = []
    final = None
    for final in episodes:
        if not len(final.price):
            raise ValueError("need at least one completed episode")
        # one metric call per episode over all slots; each agent's columns, episode by episode
        prices = np.ascontiguousarray(final.price.T)
        slot_metrics = _slot_metrics(prices)
        table = np.stack(list(slot_metrics.values()))  # (metrics, slots)
        episode_returns.append([left_sum(weekly) for weekly in final.revenue.T.tolist()])
        per_agent.append([table[:, final.owner == j] for j in range(len(final.agent_ids))])
    if final is None:
        raise ValueError("need at least one completed episode")
    agent_ids = final.agent_ids
    flags: list[str] = []
    # one contiguous row per agent, summed pairwise as np.mean of its list is
    returns = np.ascontiguousarray(np.array(episode_returns).T)
    mean_returns = returns.mean(axis=-1).tolist()

    agents = {}
    for j, aid in enumerate(agent_ids):
        # a C-contiguous copy: the column gathers are Fortran-ordered, and a row
        # mean sums pairwise (as np.mean of a list does) only along contiguous rows
        values = np.ascontiguousarray(np.concatenate([ep[j] for ep in per_agent], axis=1))
        means = dict(zip(slot_metrics, values.mean(axis=-1).tolist()))
        agents[aid] = AgentMetrics(mean_return=mean_returns[j], **means)

    # the final episode's weekly shares, as the environment settled them
    shares = dict(zip(agent_ids, final.share.T))
    zero_weeks = int(final.zero_revenue.sum())
    if zero_weeks:
        flags.append(f"zero-revenue-weeks:{zero_weeks}")

    if all(v == 0 for v in mean_returns):
        flags.append("all-zero-returns")

    return MetricsReport(
        agents=agents,
        jain_index=jain_index(mean_returns),
        nash_proximity=nash_proximity(prices),
        market_share_volatility_pp=market_share_volatility_pp(shares),
        final_market_share=dict(zip(agent_ids, final.share[-1].tolist())),
        flags=flags,
    )
