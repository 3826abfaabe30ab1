"""Parametric demand oracle and the counterfactual price-elasticity sweep.

The reference model is log-linear: multiplicative baseline/cluster level,
constant own-price elasticity, a relative-price (cluster competition) term,
sinusoidal seasonality, a holiday uplift, an AR(1) demand carry-over, and
optional lognormal noise (standard-normal shocks scaled by `noise_sigma`). A
`DemandQuery` is a batch of per-slot inputs; `MarketEnvironment.step` sends
one per week, so any oracle returning one demand per slot from
`expected_demand` / `sample_demand` can be swapped in.

The terms fixed by a slot's spec, its level log(baseline x cluster
multiplier), initial price and baseline (`slot_constants`), are computed once
per slot table: `ParametricDemandModel` keeps them while the query's specs
and the cluster multipliers stay equal, so the environment's weekly query
reuses them for the whole episode. The kernel stays scalar: numpy's log and
exp round differently from `math`'s, which changes the bytes. The
coefficients, `DemandParams`, are part of the run configuration in `market`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Protocol, Sequence

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


def slot_constants(
    specs: Sequence[ProductSpec], cluster_base: dict[int, float]
) -> tuple[list[float], list[float], list[float]]:
    """Each slot's demand level log(baseline x cluster multiplier), initial
    price and baseline demand: the terms that stay fixed while its spec does."""
    levels, initial_prices, baselines = [], [], []
    for spec in specs:
        cluster_mult = cluster_base.get(spec.cluster_id)
        if cluster_mult is None:
            raise ConfigError(f"no cluster_base entry for cluster {spec.cluster_id}")
        levels.append(math.log(spec.baseline_demand * cluster_mult))
        initial_prices.append(spec.initial_price)
        baselines.append(spec.baseline_demand)
    return levels, initial_prices, baselines


def _log_linear(
    query: DemandQuery,
    params: DemandParams,
    constants: tuple[list[float], list[float], list[float]],
    sigma: float,
) -> list[float]:
    """The kernel: weekly units per slot of `query`, given its `slot_constants`,
    with lognormal noise (sigma * shock) when sigma > 0."""
    shocks = query.shocks
    if sigma <= 0:
        shocks = repeat(0.0, len(query.prices))  # adding sigma * 0.0 leaves exp(log_q) as is
    elif shocks is None:
        raise ValueError("noise_sigma > 0 requires query shocks")
    season = params.seasonal_amp * query.week_sin
    holiday = math.log(params.holiday_uplift) * query.holiday
    elasticity, competitor_weight, lag_weight = (
        params.elasticity, params.competitor_weight, params.lag_weight
    )
    log, exp, inf = math.log, math.exp, math.inf
    levels, initial_prices, baselines = constants
    demands = []
    try:
        for level, initial, baseline, price, relative, lag1, shock in zip(
            levels, initial_prices, baselines, query.prices, query.relative_prices,
            query.lag1_demands, shocks, strict=True,
        ):
            if price <= 0:
                raise ValueError(f"price must be > 0, got {price}")
            # the lag term's max(lag1, 1e-9), without the builtin call (a NaN lag stays NaN)
            log_q = (
                level
                + elasticity * log(price / initial)
                - competitor_weight * log(relative)
                + season
                + holiday
                + lag_weight * log((1e-9 if 1e-9 > lag1 else lag1) / baseline)
            ) + sigma * shock
            q = exp(log_q)
            if not q < inf:  # inf or NaN
                break
            demands.append(q)
        else:
            return demands
    except OverflowError:  # exp(log_q) past the float range
        pass
    raise ValueError(
        f"demand model produced a non-finite demand for product "
        f"{query.specs[len(demands)].product_id} (log_q={log_q})"
    )


class DemandOracle(Protocol):
    def expected_demand(self, query: DemandQuery) -> Sequence[float]: ...

    def sample_demand(self, query: DemandQuery) -> Sequence[float]: ...


class ParametricDemandModel:
    """Reference oracle: the log-linear demand over a fixed parameter set,
    with lognormal noise (sigma * shock) in `sample_demand` when noise_sigma > 0.

    It keeps the `slot_constants` of the last slot table it was asked about,
    with the specs and cluster multipliers they came from, and rebuilds them
    when either compares unequal: an environment sends the same spec list
    every week, so the constants are built once per episode.
    """

    def __init__(self, params: DemandParams):
        self.params = params
        self._table = None  # (specs, cluster_base, their slot_constants)

    def _constants(self, specs: Sequence[ProductSpec]) -> tuple[list[float], ...]:
        cluster_base = self.params.cluster_base
        table = self._table
        # list == list compares items by identity first: 20 pointer checks a week
        if table is None or table[0] != specs or table[1] != cluster_base:
            constants = slot_constants(specs, cluster_base)
            table = self._table = (list(specs), dict(cluster_base), constants)
        return table[2]

    def expected_demand(self, query: DemandQuery) -> list[float]:
        return _log_linear(query, self.params, self._constants(query.specs), 0.0)

    def sample_demand(self, query: DemandQuery) -> list[float]:
        params = self.params
        return _log_linear(query, params, self._constants(query.specs), params.noise_sigma)


def price_multipliers() -> np.ndarray:
    """Sweep grid: multipliers spaced evenly on the ratio (log) scale."""
    return np.geomspace(*ELASTICITY_SWEEP_RANGE, ELASTICITY_SWEEP_POINTS)


def centered_rolling_mean(values: np.ndarray) -> np.ndarray:
    """Full-window centered rolling mean over SMOOTHING_WINDOW points; output
    is shorter by SMOOTHING_WINDOW - 1."""
    if len(values) < SMOOTHING_WINDOW:
        raise ValueError(f"need at least {SMOOTHING_WINDOW} points, got {len(values)}")
    kernel = np.full(SMOOTHING_WINDOW, 1.0 / SMOOTHING_WINDOW)
    return np.convolve(values, kernel, mode="valid")


def elasticity_sweep(
    oracle: DemandOracle,
    base_query: DemandQuery,
    scales: Sequence[float] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate expected demand over scaled prices, holding all other inputs fixed.

    Returns (prices, demands) over the sweep. Noise never enters: the oracle's
    expected_demand path is used.
    """
    if scales is None:
        scales = price_multipliers()
    scales = np.asarray(scales, dtype=float)
    ((spec,), (price,), (relative,), (lag1,)) = (
        base_query.specs, base_query.prices, base_query.relative_prices, base_query.lag1_demands
    )
    prices = price * scales
    n = len(prices)
    sweep = replace(
        base_query, specs=[spec] * n, prices=prices.tolist(), relative_prices=[relative] * n,
        lag1_demands=[lag1] * n, shocks=None,
    )
    return prices, np.asarray(oracle.expected_demand(sweep), dtype=float)


def estimate_elasticity(
    oracle: DemandOracle,
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


SWEEP_PRODUCT = ProductSpec(
    product_id="sweep", cluster_id=0, initial_price=10.0, unit_cost=6.0, baseline_demand=100.0
)


def sweep_reference(params: DemandParams) -> tuple[ParametricDemandModel, DemandQuery]:
    """The reference model of `params` and its neutral query on SWEEP_PRODUCT,
    alone in cluster 0: what `pricebench elasticity` sweeps."""
    return ParametricDemandModel(params.with_clusters([0])), neutral_query(SWEEP_PRODUCT)
