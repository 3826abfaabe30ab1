"""Trailing demand statistics and calendar encodings.

All functions are pure. `demand_features` reads one product's demand history
oldest-to-newest and derives every demand entry of the learners' state
(`marl.common.encode_state`) from its last four weeks in one pass, each as a
ratio to the product's baseline demand. Until a window is full its entries
take cold-start substitutes: the lag and the 2- and 4-week means read 1.0
(demand at baseline), trend and volatility read 0.0. `seasonal_encoding`
also feeds the demand model's week term and the calibration regressors.
"""

from __future__ import annotations

import math
from typing import Sequence

DEMAND_WINDOW = 4  # weeks behind the 4-week mean, the trend and the volatility


def demand_features(
    history: Sequence[float], baseline: float
) -> tuple[float, float, float, float, float]:
    """(lag, 2-week mean, 4-week mean, trend, volatility), each / `baseline`.

    Trend is the 4-week mean minus the 2-week mean (negative when demand is
    rising); volatility is the population (1/4) standard deviation of the
    last four demands. The last four demands are read by index and every sum
    adds them oldest first. Each squared deviation is a float pow, `** 2`,
    which the C library can round differently from `d * d`, so it stays a pow.
    """
    n = len(history)
    if n == 0:
        return 1.0, 1.0, 1.0, 0.0, 0.0
    q1 = history[-1]
    if n < 2:
        return q1 / baseline, 1.0, 1.0, 0.0, 0.0
    q2 = history[-2]
    mean2 = (q2 + q1) / 2
    if n < DEMAND_WINDOW:
        return q1 / baseline, mean2 / baseline, 1.0, 0.0, 0.0
    q4, q3 = history[-4], history[-3]
    mean4 = (q4 + q3 + q2 + q1) / DEMAND_WINDOW
    volatility = math.sqrt(
        ((q4 - mean4) ** 2 + (q3 - mean4) ** 2 + (q2 - mean4) ** 2 + (q1 - mean4) ** 2)
        / DEMAND_WINDOW
    )
    return (
        q1 / baseline, mean2 / baseline, mean4 / baseline, (mean4 - mean2) / baseline,
        volatility / baseline,
    )


def seasonal_encoding(week: int) -> tuple[float, float]:
    """Sine/cosine decomposition of the calendar week (period 52)."""
    if not 1 <= week <= 53:
        raise ValueError(f"week must be in 1..53, got {week}")
    wa = 2.0 * math.pi * week / 52.0
    return math.sin(wa), math.cos(wa)
