"""Parametric demand oracle and the counterfactual price-elasticity sweep.

The reference model is log-linear: multiplicative baseline/cluster level,
constant own-price elasticity, a relative-price (cluster competition) term,
sinusoidal seasonality, a holiday uplift, an AR(1) demand carry-over, and
optional lognormal noise (standard-normal shocks scaled by `noise_sigma`). A
`DemandQuery` is a batch of per-slot inputs; `MarketEnvironment.step` sends
one per week, so any oracle returning one demand per slot from
`expected_demand` / `sample_demand` can be swapped in. The kernel is scalar:
numpy's log and exp round differently from `math`'s, which changes the bytes.
The coefficients, `DemandParams`, are part of the run configuration in `market`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .market import ConfigError, DemandParams, ProductSpec

ELASTICITY_SWEEP_POINTS = 41
ELASTICITY_SWEEP_RANGE = (0.5, 2.5)
SMOOTHING_WINDOW = 5


@dataclass
class DemandQuery:
    """The demand model's inputs for one week: equal-length per-slot sequences
    plus the week's calendar terms. A single product is a batch of one."""

    specs: Sequence[ProductSpec]
    prices: Sequence[float]
    relative_prices: Sequence[float]  # price / mean price of its cluster (own price included)
    lag1_demands: Sequence[float]  # last week's demand; the baseline before the first week
    shocks: Sequence[float] | None = None  # standard-normal log-noise draws, one per slot
    week_sin: float = 0.0
    holiday: bool = False


def predict_demand(query: DemandQuery, params: DemandParams) -> list[float]:
    """Weekly units per slot, with lognormal noise (sigma * shock) when noise_sigma > 0."""
    sigma = params.noise_sigma
    shocks = query.shocks
    if sigma > 0 and shocks is None:
        raise ValueError("noise_sigma > 0 requires query shocks")
    season = params.seasonal_amp * query.week_sin
    holiday = math.log(params.holiday_uplift) * query.holiday
    demands = []
    for i, (spec, price, relative, lag1) in enumerate(
        zip(query.specs, query.prices, query.relative_prices, query.lag1_demands, strict=True)
    ):
        if price <= 0:
            raise ValueError(f"price must be > 0, got {price}")
        cluster_mult = params.cluster_base.get(spec.cluster_id)
        if cluster_mult is None:
            raise ConfigError(f"no cluster_base entry for cluster {spec.cluster_id}")
        log_q = (
            math.log(spec.baseline_demand * cluster_mult)
            + params.elasticity * math.log(price / spec.initial_price)
            - params.competitor_weight * math.log(relative)
            + season
            + holiday
            + params.lag_weight * math.log(max(lag1, 1e-9) / spec.baseline_demand)
        )
        if sigma > 0:
            log_q += sigma * shocks[i]
        try:
            q = math.exp(log_q)
        except OverflowError:
            q = math.inf
        if not math.isfinite(q):
            raise ValueError(
                f"demand model produced a non-finite demand for product {spec.product_id} "
                f"(log_q={log_q})"
            )
        demands.append(q)
    return demands


class DemandOracle(Protocol):
    def expected_demand(self, query: DemandQuery) -> Sequence[float]: ...

    def sample_demand(self, query: DemandQuery) -> Sequence[float]: ...


class ParametricDemandModel:
    """Reference oracle wrapping `predict_demand` over a fixed parameter set."""

    def __init__(self, params: DemandParams):
        self.params = params

    def expected_demand(self, query: DemandQuery) -> list[float]:
        return predict_demand(query, replace(self.params, noise_sigma=0.0))

    def sample_demand(self, query: DemandQuery) -> list[float]:
        return predict_demand(query, self.params)


def price_multipliers(
    n: int = ELASTICITY_SWEEP_POINTS,
    lo: float = ELASTICITY_SWEEP_RANGE[0],
    hi: float = ELASTICITY_SWEEP_RANGE[1],
) -> np.ndarray:
    """Sweep grid: multipliers spaced evenly on the ratio (log) scale."""
    return np.geomspace(lo, hi, n)


def centered_rolling_mean(values: np.ndarray, window: int = SMOOTHING_WINDOW) -> np.ndarray:
    """Full-window centered rolling mean; output is shorter by window - 1."""
    if window % 2 == 0 or window < 1:
        raise ValueError("window must be odd and positive")
    if len(values) < window:
        raise ValueError(f"need at least {window} points, got {len(values)}")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def elasticity_sweep(
    oracle: DemandOracle | Callable[[DemandQuery], Sequence[float]],
    base_query: DemandQuery,
    scales: Sequence[float] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate expected demand over scaled prices, holding all other inputs fixed.

    Returns (prices, demands) over the sweep. Noise never enters: the oracle's
    expected_demand path is used (a bare callable is treated as deterministic).
    """
    if scales is None:
        scales = price_multipliers()
    scales = np.asarray(scales, dtype=float)
    predict = oracle.expected_demand if hasattr(oracle, "expected_demand") else oracle
    ((spec,), (price,), (relative,), (lag1,)) = (
        base_query.specs, base_query.prices, base_query.relative_prices, base_query.lag1_demands
    )
    prices = price * scales
    n = len(prices)
    sweep = replace(
        base_query, specs=[spec] * n, prices=prices.tolist(), relative_prices=[relative] * n,
        lag1_demands=[lag1] * n, shocks=None,
    )
    return prices, np.asarray(predict(sweep), dtype=float)


def estimate_elasticity(
    oracle: DemandOracle | Callable[[DemandQuery], Sequence[float]],
    base_query: DemandQuery,
    scales: Sequence[float] | np.ndarray | None = None,
) -> float:
    """Own-price elasticity from the counterfactual sweep.

    The log-demand curve is smoothed with a 5-point centered rolling mean and
    the elasticity is the least-squares slope of smoothed log demand against
    log price. On the default log-even grid the smoothing is exact for
    power-law demand, so constant-elasticity oracles are recovered to machine
    precision.
    """
    if scales is None:
        scales = price_multipliers()
    if len(scales) < SMOOTHING_WINDOW:
        raise ValueError(f"need at least {SMOOTHING_WINDOW} scale points, got {len(scales)}")
    prices, demands = elasticity_sweep(oracle, base_query, scales)
    if np.any(demands <= 0):
        raise ValueError("oracle produced non-positive demand during the sweep")
    log_p = np.log(prices)
    log_q_smooth = centered_rolling_mean(np.log(demands))
    half = SMOOTHING_WINDOW // 2
    log_p_centers = log_p[half:-half]
    slope, _ = np.polyfit(log_p_centers, log_q_smooth, 1)
    return float(slope)


def neutral_query(spec: ProductSpec) -> DemandQuery:
    """Batch of one at the initial price with every demand modifier neutral (for sweeps)."""
    return DemandQuery(
        specs=[spec], prices=[spec.initial_price], relative_prices=[1.0],
        lag1_demands=[spec.baseline_demand],
    )
