import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pricebench.metrics import (
    CONVERGENCE_WINDOW_WEEKS,
    MetricsReport,
    adjustment_frequency,
    adjustment_magnitude,
    compute_report,
    gini,
    jain_index,
    market_share_volatility_pp,
    nash_proximity,
    price_convergence,
    price_cv,
    price_volatility,
    social_welfare,
)

revenue_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8
).filter(lambda v: sum(v) > 0)


def brute_force_gini(values):
    total = sum(values)
    pairs = sum(abs(a - b) for a, b in itertools.product(values, values))
    return pairs / (2 * len(values) * total)


class TestJain:
    def test_perfect_equality(self):
        assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound(self):
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25, abs=1e-12)

    def test_hand_value(self):
        assert jain_index([3, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_all_zero_flagged_value(self):
        assert jain_index([0, 0]) == 1.0

    @given(revenue_vectors)
    @example([5.06e-160, 5.06e-160])  # squared, these are subnormal floats
    def test_bounds(self, v):
        j = jain_index(v)
        assert 1.0 / len(v) - 1e-9 <= j <= 1.0 + 1e-9

    @given(revenue_vectors, st.floats(min_value=0.001, max_value=1000))
    @settings(max_examples=60)
    def test_scale_invariance(self, v, c):
        assert jain_index([x * c for x in v]) == pytest.approx(jain_index(v), rel=1e-9)


class TestGini:
    def test_equality(self):
        assert gini([5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_two_point(self):
        assert gini([0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_hand_value(self):
        assert gini([1, 2, 3]) == pytest.approx(8 / 36, abs=1e-12)

    @given(revenue_vectors)
    def test_matches_brute_force(self, v):
        assert gini(v) == pytest.approx(brute_force_gini(v), abs=1e-9)

    @given(revenue_vectors)
    def test_bounds(self, v):
        g = gini(v)
        assert -1e-9 <= g <= 1.0 - 1.0 / len(v) + 1e-9

    @given(revenue_vectors, st.floats(min_value=0.001, max_value=1000))
    @settings(max_examples=60)
    def test_scale_invariance(self, v, c):
        assert gini([x * c for x in v]) == pytest.approx(gini(v), rel=1e-9, abs=1e-12)


class TestWelfare:
    def test_social_welfare_equal(self):
        assert social_welfare([1, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_social_welfare_composition(self):
        assert social_welfare([0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_all_zero(self):
        assert social_welfare([0, 0]) == 0.0

    @given(revenue_vectors)
    def test_identities(self, v):
        assert social_welfare(v) == pytest.approx(sum(v) * (1.0 - gini(v)), rel=1e-9)


class TestNashProximity:
    def test_frozen_prices(self):
        assert nash_proximity([[10.0] * 6]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # every week +5%: mean |change| = 0.05 -> 1 - 0.5
        series = [100 * 1.05**t for t in range(5)]
        assert nash_proximity([series]) == pytest.approx(0.5, abs=1e-12)

    def test_clamped_at_zero(self):
        series = [100 * 1.2**t for t in range(5)]
        assert nash_proximity([series]) == pytest.approx(0.0, abs=1e-12)

    def test_trailing_window(self):
        # huge early changes fall outside the 12-week trailing window
        series = [1.0, 100.0] + [50.0] * 13
        assert nash_proximity([series], window=12) == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=3, max_size=20),
           st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=60)
    def test_rescale_invariance(self, prices, c):
        a = nash_proximity([prices])
        b = nash_proximity([[p * c for p in prices]])
        assert a == pytest.approx(b, abs=1e-9)


class TestMarketShare:
    """The report reads each week's shares and zero-revenue flag from the
    episode's log, as the environment settled them."""

    def test_share_definition(self):
        from pricebench.harness import build_agents, desk_spec, simulate

        spec = desk_spec("A")
        config = replace(spec.market, seed=spec.market.seed + 1)  # run 1 of the desk preset
        episodes = list(simulate(config, build_agents(config)))
        report = compute_report(episodes)
        final = episodes[-1]
        assert report.final_market_share == dict(zip(final.agent_ids, final.share[-1].tolist()))
        shares = {aid: final.share[:, j].tolist() for j, aid in enumerate(final.agent_ids)}
        assert report.market_share_volatility_pp == 100.0 * float(
            np.mean([np.std(s) for s in shares.values()])
        )

    def test_single_agent(self):
        report = compute_report(_toy_episodes(agent_ids=("a",)))
        assert report.final_market_share == {"a": 1.0}
        assert report.market_share_volatility_pp == 0.0

    def test_zero_week_uniform_flagged(self):
        episodes = _toy_episodes()
        for ep, week in ((0, 3), (-1, 2), (-1, -1)):
            episodes[ep].zero_revenue[week] = True
            episodes[ep].share[week] = [0.5, 0.5]
        report = compute_report(episodes)
        assert "zero-revenue-weeks:2" in report.flags  # the final episode's weeks only
        assert report.final_market_share == {"a": 0.5, "b": 0.5}

    def test_volatility_alternating(self):
        # share alternating 0.4/0.6 -> population std 0.1 -> 10 pp
        series = {"a": [0.4, 0.6] * 5, "b": [0.6, 0.4] * 5}
        assert market_share_volatility_pp(series) == pytest.approx(10.0, abs=1e-12)

    def test_constant_shares_zero(self):
        series = {"a": [0.5] * 8, "b": [0.5] * 8}
        assert market_share_volatility_pp(series) == pytest.approx(0.0, abs=1e-12)

    def test_single_week_rejected(self):
        with pytest.raises(ValueError):
            market_share_volatility_pp({"a": [1.0]})


class TestPriceVolatility:
    def test_constant(self):
        stats = price_volatility([10.0] * 5)
        assert stats == {"std_change": 0.0, "max_change": 0.0}

    def test_two_week(self):
        stats = price_volatility([100.0, 110.0])
        assert stats["max_change"] == pytest.approx(0.10, abs=1e-12)

    def test_three_week(self):
        stats = price_volatility([100.0, 110.0, 99.0])
        assert stats["std_change"] == pytest.approx(0.10, abs=1e-12)  # +10 %, then -10 %
        assert stats["max_change"] == pytest.approx(0.10, abs=1e-12)

    def test_cv(self):
        assert price_cv([10.0, 10.0]) == 0.0
        assert price_cv([1.0, 3.0]) == pytest.approx(0.5, abs=1e-12)  # std 1, mean 2


class TestPriceConvergence:
    def test_identical(self):
        assert price_convergence([7.0, 7.0, 7.0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_point(self):
        assert price_convergence([1.0, 3.0]) == pytest.approx(1 - 1 / 3, abs=1e-12)

    def test_extreme_spread(self):
        assert price_convergence([0.0001, 10.0]) == pytest.approx(0.5, abs=1e-4)


class TestAdjustments:
    def test_magnitude_constant(self):
        assert adjustment_magnitude([5.0] * 4) == 0.0

    def test_magnitude_hand_value(self):
        assert adjustment_magnitude([10.0, 10.2, 10.2]) == pytest.approx(0.01, abs=1e-12)

    def test_frequency_constant(self):
        assert adjustment_frequency([5.0] * 4) == 0.0

    def test_frequency_threshold_count(self):
        # changes 0.02, 0.005, 0.03 -> 2 of 3 exceed 1%
        prices = [100.0, 102.0, 102.51, 105.5853]
        assert adjustment_frequency(prices) == pytest.approx(2 / 3, abs=1e-9)

    def test_frequency_boundary_is_strict(self):
        # changes binary-exact at the threshold: strictly-greater means not counted
        prices = [1.0, 1.5, 2.25]
        assert adjustment_frequency(prices, tau=0.5) == 0.0



def _episode(slots, prices, demands):
    """A toy episode's log from its `(weeks, slots)` prices and demands: each
    agent's revenue sums its slots' `price * demand`, and its share is that
    over the week's total."""
    from pricebench.market import EpisodeLog

    agent_ids = list(dict.fromkeys(aid for aid, _ in slots))
    log = EpisodeLog(len(prices), slots, agent_ids, [6.0] * len(slots))
    log.price[:], log.demand[:] = prices, demands
    for j in range(len(agent_ids)):
        log.revenue[:, j] = (log.price * log.demand)[:, log.owner == j].sum(axis=1)
    log.share[:] = log.revenue / log.revenue.sum(axis=1, keepdims=True)
    return log


def _toy_episodes(agent_ids=("a", "b"), weeks=10, episodes=2):
    slots = {(aid, "p1"): i for i, aid in enumerate(agent_ids)}
    # values tied to identity, not roster position
    prices = [[10.0 + (ord(aid) - ord("a")) + 0.1 * t for aid in agent_ids] for t in range(weeks)]
    demands = [[5.0 + (ord(aid) - ord("a")) for aid in agent_ids]] * weeks
    return [_episode(slots, prices, demands) for _ in range(episodes)]


class TestComputeReport:
    def test_report_round_trip(self):
        report = compute_report(_toy_episodes())
        clone = MetricsReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()

    def test_trained_run_report_from_its_metrics_json(self, tmp_path):
        from pricebench.harness import execute_run
        from tests.test_golden_bytes import _spec

        manifest, report = execute_run(_spec("training", "F"), 0, tmp_path)
        assert MetricsReport.from_dict(report.to_dict()) == report
        with open(tmp_path / manifest.run_id / "metrics.json") as fh:
            assert MetricsReport.from_dict(json.load(fh)) == report

    def test_agent_permutation_equivariance(self):
        fwd = compute_report(_toy_episodes(agent_ids=("a", "b")))
        rev = compute_report(_toy_episodes(agent_ids=("b", "a")))
        # a earns less than b in both runs; per-agent metrics must follow the id
        assert fwd.agents["a"].mean_return == pytest.approx(rev.agents["a"].mean_return)
        assert fwd.jain_index == pytest.approx(rev.jain_index)
        assert fwd.gini == pytest.approx(rev.gini)

    def test_json_is_stable(self):
        report = compute_report(_toy_episodes())
        assert report.to_json() == compute_report(_toy_episodes()).to_json()

    def test_stream_folds_like_a_list(self):
        episodes = _random_episodes(episodes=4)
        assert compute_report(iter(episodes)).to_json() == compute_report(episodes).to_json()

    @pytest.mark.parametrize("weeks", [None, 0], ids=["no-episode", "empty-episode"])
    def test_no_completed_episode_rejected(self, weeks):
        empty = np.zeros((weeks or 0, 1))
        episodes = [] if weeks is None else [_episode({("a", "p1"): 0}, empty, empty)]
        with pytest.raises(ValueError, match="need at least one completed episode"):
            compute_report(iter(episodes))


# one entry per price-series metric; each reduces over the last axis
PRICE_METRICS = {
    "adjustment_magnitude": adjustment_magnitude,
    "adjustment_frequency": adjustment_frequency,
    "price_cv": price_cv,
    # the mean |change| price_volatility once reported; adjustment_magnitude computes it
    "mean_abs_change": adjustment_magnitude,
    "std_change": lambda prices: price_volatility(prices)["std_change"],
    "max_change": lambda prices: price_volatility(prices)["max_change"],
}
CHANGE_METRICS = sorted(set(PRICE_METRICS) - {"price_cv"})


def _random_prices(shape, seed):
    """Random-walk prices around 10 with one constant series."""
    rng = np.random.default_rng(seed)
    prices = 10.0 * np.exp(np.cumsum(rng.normal(0.0, 0.03, size=shape), axis=-1))
    prices[(0,) * (len(shape) - 1)] = 12.5
    return prices


class TestBatchedPriceMetrics:
    @pytest.mark.parametrize("weeks", [2, 3, 9, 19, 20, 104])
    @pytest.mark.parametrize("name", sorted(PRICE_METRICS))
    def test_rows_equal_series_calls(self, name, weeks):
        metric = PRICE_METRICS[name]
        prices = _random_prices((3, 20, weeks), seed=weeks)
        batched = metric(prices)
        assert batched.shape == (3, 20)
        one_by_one = [[metric(list(series)) for series in episode] for episode in prices]
        assert all(isinstance(v, float) for row in one_by_one for v in row)
        assert np.array_equal(batched, np.array(one_by_one))

    @pytest.mark.parametrize("name", sorted(PRICE_METRICS))
    def test_non_contiguous_input_rows_equal_series_calls(self, name):
        metric = PRICE_METRICS[name]
        prices = np.asfortranarray(_random_prices((20, 37), seed=3))
        assert np.array_equal(metric(prices), np.array([metric(list(s)) for s in prices]))

    @pytest.mark.parametrize("name", CHANGE_METRICS)
    def test_series_shorter_than_two_weeks_rejected(self, name):
        with pytest.raises(ValueError):
            PRICE_METRICS[name]([5.0])
        with pytest.raises(ValueError):
            PRICE_METRICS[name](np.full((3, 1), 5.0))


def _random_episodes(n_agents=4, n_products=5, weeks=20, episodes=3, seed=11):
    agent_ids = [f"ag{i}" for i in range(n_agents)]
    slots = {(aid, f"p{j}"): i * n_products + j
             for i, aid in enumerate(agent_ids) for j in range(n_products)}
    rng = np.random.default_rng(seed)
    return [
        _episode(slots, _random_prices((len(slots), weeks), seed=seed + e).T,
                 rng.uniform(1.0, 20.0, size=(weeks, len(slots))))
        for e in range(episodes)
    ]


class TestComputeReportMatchesSeriesCalls:
    """The batched report equals one metric call per slot series, bit for bit."""

    @pytest.mark.parametrize("weeks", [2, 20, 52])
    def test_agent_and_market_price_metrics(self, weeks):
        episodes = _random_episodes(weeks=weeks)
        report = compute_report(episodes)
        series = [{key: ep.price[:, i].tolist() for key, i in ep.slots.items()} for ep in episodes]
        for aid, got in report.agents.items():
            own = [prices for ep in series for (a, _), prices in ep.items() if a == aid]
            vols = [price_volatility(p) for p in own]
            assert got.adjustment_magnitude == float(np.mean([adjustment_magnitude(p) for p in own]))
            assert got.adjustment_frequency == float(np.mean([adjustment_frequency(p) for p in own]))
            assert got.price_volatility_std == float(np.mean([v["std_change"] for v in vols]))
            assert got.price_volatility_max == float(np.mean([v["max_change"] for v in vols]))
            assert got.price_cv == float(np.mean([price_cv(p) for p in own]))
        final = series[-1]
        changes = [
            abs(c) for prices in final.values()
            for c in np.diff(prices[-13:]) / np.asarray(prices[-13:-1])
        ]
        assert report.nash_proximity == 1.0 - min(1.0, 10.0 * sum(changes) / len(changes))
        pooled = {}
        for (_, pid), prices in final.items():
            pooled.setdefault(pid, []).extend(prices[-CONVERGENCE_WINDOW_WEEKS:])
        assert report.price_convergence == float(
            np.mean([price_convergence(pooled[pid]) for pid in sorted(pooled)])
        )
