"""Rolling demand statistics and calendar encodings.

All functions are pure. Rolling statistics read history oldest-to-newest and
operate on the trailing window, raising `InsufficientHistory` when the window
is not yet full; callers (the learners' `encode_state`) choose the cold-start
substitute. `seasonal_encoding` also feeds the demand model's week term and
the calibration regressors.
"""

from __future__ import annotations

import math
from typing import Sequence

VOLATILITY_WINDOW = 4


class InsufficientHistory(ValueError):
    """Raised when a rolling feature is asked for more history than exists."""


def qrm(history: Sequence[float], k: int) -> float:
    """Mean of the last k entries (trailing quantity rolling mean)."""
    if k < 1:
        raise ValueError(f"window k must be >= 1, got {k}")
    if len(history) < k:
        raise InsufficientHistory(f"need {k} weeks of history, have {len(history)}")
    return sum(history[-k:]) / k


def trend(history: Sequence[float]) -> float:
    """4-week mean minus 2-week mean; negative when demand is rising."""
    if len(history) < 4:
        raise InsufficientHistory(f"need 4 weeks of history, have {len(history)}")
    return qrm(history, 4) - qrm(history, 2)


def rolling_volatility(history: Sequence[float], k: int) -> float:
    """Population standard deviation (1/k) over the last k entries."""
    if k < 2:
        raise ValueError(f"window k must be >= 2, got {k}")
    if len(history) < k:
        raise InsufficientHistory(f"need {k} weeks of history, have {len(history)}")
    window = history[-k:]
    mean = sum(window) / k
    return math.sqrt(sum((q - mean) ** 2 for q in window) / k)


def seasonal_encoding(week: int, month: int) -> tuple[float, float, float, float]:
    """Sine/cosine decomposition of the calendar week (period 52) and month (period 12)."""
    if not 1 <= week <= 53:
        raise ValueError(f"week must be in 1..53, got {week}")
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    wa = 2.0 * math.pi * week / 52.0
    ma = 2.0 * math.pi * month / 12.0
    return math.sin(wa), math.cos(wa), math.sin(ma), math.cos(ma)
