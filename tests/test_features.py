import math

import pytest
from hypothesis import given, strategies as st

from pricebench.features import DEMAND_WINDOW, demand_features, seasonal_encoding

demands = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=4, max_size=40)


def _stats(history, baseline=1.0):
    lag, mean2, mean4, trend, volatility = demand_features(history, baseline)
    return {"lag": lag, "mean2": mean2, "mean4": mean4, "trend": trend, "volatility": volatility}


class TestQrm:
    """The 2- and 4-week trailing means and the lag."""

    def test_constant_series(self):
        stats = _stats([5.0] * 4)
        assert stats["mean2"] == stats["mean4"] == 5

    def test_recent_mean(self):
        stats = _stats([1.0, 2.0, 20.0, 10.0])
        assert stats["mean2"] == 15
        assert stats["mean4"] == 8.25

    def test_k1_identity(self):
        assert _stats([7.0])["lag"] == 7

    def test_insufficient(self):
        # a window that is not full yet reads demand at baseline
        assert _stats([3.0], baseline=2.0)["mean2"] == 1.0
        assert _stats([1.0, 2.0, 3.0])["mean4"] == 1.0

    @given(demands, st.floats(min_value=0.5, max_value=1e3))
    def test_shift_invariance(self, history, baseline):
        stats = _stats(history, baseline)
        assert stats["lag"] == history[-1] / baseline
        assert stats["mean2"] == pytest.approx(sum(history[-2:]) / 2 / baseline)
        assert stats["mean4"] == pytest.approx(sum(history[-4:]) / 4 / baseline)


class TestTrend:
    def test_constant_is_zero(self):
        assert _stats([3.0] * 4)["trend"] == 0

    def test_hand_value(self):
        # 4-week mean 2.5, 2-week mean 3.5
        assert _stats([1.0, 2.0, 3.0, 4.0])["trend"] == pytest.approx(-1.0)

    def test_rising_series_negative(self):
        assert _stats([1.0, 2.0, 4.0, 8.0])["trend"] < 0

    def test_insufficient(self):
        assert _stats([1.0, 2.0, 3.0])["trend"] == 0.0


class TestVolatility:
    def test_constant_is_zero(self):
        assert _stats([9.0] * 4)["volatility"] == 0

    def test_two_point(self):
        # population std of {10, 20, 10, 20} = 5
        assert _stats([0.0, 10.0, 20.0, 10.0, 20.0])["volatility"] == pytest.approx(5.0)

    def test_population_normalizer(self):
        # {0, 10, 20, 30}: population (1/4) variance 125, sample (1/3) variance 500/3
        volatility = _stats([0.0, 10.0, 20.0, 30.0])["volatility"]
        assert volatility == pytest.approx(math.sqrt(125))
        assert volatility != pytest.approx(math.sqrt(500 / 3))

    @given(demands)
    def test_nonnegative(self, history):
        assert _stats(history)["volatility"] >= 0


class TestVolatilityPow:
    """Volatility squares each deviation with a float pow, as the seeded bytes
    were written; in this window the C library's pow(d, 2) and the correctly
    rounded d * d differ in the last bit for d = 13.892 - mean."""

    WINDOW = [38.868, 26.957, 13.892, 39.768]

    def test_keeps_the_pow_value(self):
        mean = (self.WINDOW[0] + self.WINDOW[1] + self.WINDOW[2] + self.WINDOW[3]) / 4
        d = [q - mean for q in self.WINDOW]
        by_pow = math.sqrt((d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + d[3] ** 2) / 4)
        by_product = math.sqrt((d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3]) / 4)
        if by_pow == by_product:
            pytest.skip("this C library's pow rounds the window's squares like d * d")
        assert d[2] ** 2 != d[2] * d[2]
        assert _stats([1.0, *self.WINDOW])["volatility"] == by_pow


class TestColdStart:
    @pytest.mark.parametrize("weeks", range(DEMAND_WINDOW + 2))
    def test_substitutes_until_each_window_fills(self, weeks):
        history = [10.0 * (t + 1) for t in range(weeks)]
        lag, mean2, mean4, trend, volatility = demand_features(history, 10.0)
        assert lag == (weeks if weeks else 1.0)
        assert mean2 == ((2 * weeks - 1) / 2 if weeks >= 2 else 1.0)
        assert mean4 == ((4 * weeks - 6) / 4 if weeks >= 4 else 1.0)
        assert trend == (-1.0 if weeks >= 4 else 0.0)
        assert (volatility > 0) == (weeks >= 4)


class TestSeasonalEncoding:
    def test_full_period(self):
        ws, wc = seasonal_encoding(52)
        assert ws == pytest.approx(0.0, abs=1e-9)
        assert wc == pytest.approx(1.0, abs=1e-9)

    def test_quarter_period(self):
        ws, wc = seasonal_encoding(13)
        assert ws == pytest.approx(1.0, abs=1e-9)
        assert wc == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(min_value=1, max_value=53))
    def test_unit_circle(self, week):
        ws, wc = seasonal_encoding(week)
        assert ws * ws + wc * wc == pytest.approx(1.0, abs=1e-9)
