import math

import pytest
from hypothesis import given, strategies as st

from pricebench.features import (
    InsufficientHistory,
    qrm,
    rolling_volatility,
    seasonal_encoding,
    trend,
)

demands = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=4, max_size=40)


class TestQrm:
    def test_constant_series(self):
        assert qrm([5, 5, 5], 2) == 5

    def test_recent_mean(self):
        assert qrm([1, 2, 20, 10], 2) == 15

    def test_k1_identity(self):
        assert qrm([7], 1) == 7

    def test_insufficient(self):
        with pytest.raises(InsufficientHistory):
            qrm([1], 2)

    @given(demands, st.integers(min_value=1, max_value=4))
    def test_shift_invariance(self, history, k):
        assert qrm(history, k) == pytest.approx(sum(history[-k:]) / k)


class TestTrend:
    def test_constant_is_zero(self):
        assert trend([3, 3, 3, 3]) == 0

    def test_hand_value(self):
        # qrm4 = 2.5, qrm2 = 3.5
        assert trend([1, 2, 3, 4]) == pytest.approx(-1.0)

    def test_rising_series_negative(self):
        assert trend([1, 2, 4, 8]) < 0

    def test_insufficient(self):
        with pytest.raises(InsufficientHistory):
            trend([1, 2, 3])


class TestVolatility:
    def test_constant_is_zero(self):
        assert rolling_volatility([9, 9, 9, 9], 4) == 0

    def test_two_point(self):
        # population std of {10, 20} = sqrt((25 + 25) / 2) = 5
        assert rolling_volatility([10, 20], 2) == pytest.approx(5.0)

    def test_population_normalizer(self):
        # sample (1/(k-1)) std would give sqrt(50); population gives 5
        assert rolling_volatility([0, 10, 20], 2) != pytest.approx(math.sqrt(50))

    @given(demands)
    def test_nonnegative(self, history):
        assert rolling_volatility(history, 4) >= 0


class TestSeasonalEncoding:
    def test_full_period(self):
        ws, wc, _, _ = seasonal_encoding(52, 12)
        assert ws == pytest.approx(0.0, abs=1e-9)
        assert wc == pytest.approx(1.0, abs=1e-9)

    def test_quarter_period(self):
        ws, wc, _, _ = seasonal_encoding(13, 3)
        assert ws == pytest.approx(1.0, abs=1e-9)
        assert wc == pytest.approx(0.0, abs=1e-9)

    def test_half_year(self):
        _, _, ms, mc = seasonal_encoding(26, 6)
        assert ms == pytest.approx(0.0, abs=1e-9)
        assert mc == pytest.approx(-1.0, abs=1e-9)

    @given(st.integers(min_value=1, max_value=53), st.integers(min_value=1, max_value=12))
    def test_unit_circle(self, week, month):
        ws, wc, ms, mc = seasonal_encoding(week, month)
        assert ws * ws + wc * wc == pytest.approx(1.0, abs=1e-9)
        assert ms * ms + mc * mc == pytest.approx(1.0, abs=1e-9)
