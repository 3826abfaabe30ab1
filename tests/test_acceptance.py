"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with -s to see them inline)."""

import math
import time

import numpy as np
import pytest

from pricebench.demand import (
    DemandParams,
    ParametricDemandModel,
    estimate_elasticity,
    neutral_query,
)
from pricebench.environment import run_episode
from pricebench.harness import ExperimentSpec, build_agents, execute_run, wilcoxon_signed_rank
from pricebench.market import ProductSpec, derive_rng
from pricebench.metrics import (
    adjustment_frequency,
    adjustment_magnitude,
    compute_report,
    gini,
    jain_index,
    nash_proximity,
    optimality_gap,
    price_convergence,
    social_welfare,
)
from pricebench.nn import DenseNet, ExplorationSchedule, ReplayBuffer
from pricebench.marl.qmix import MonotonicMixer


class _Timer:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        print(f"[{status}] {self.name} ({elapsed:.2f}s / limit {self.limit_s:.0f}s)")
        assert elapsed < self.limit_s, f"{self.name} exceeded {self.limit_s}s ({elapsed:.2f}s)"


def _run_config(config_id, seed, episodes, weeks, roster_params=None):
    spec = ExperimentSpec.from_dict(
        {
            "config_id": config_id,
            "n_runs": 1,
            "roster_params": roster_params or {},
            "market": {
                "episodes": episodes,
                "weeks_per_episode": weeks,
                "seed": seed,
                "demand_params": {"noise_sigma": 0.0},
            },
        }
    )
    config = spec.market
    agents = build_agents(config)
    model = ParametricDemandModel(config.demand_params)
    episodes_run = [run_episode(config, agents, model, e) for e in range(config.episodes)]
    return compute_report(episodes_run)


def test_criterion_01_metric_oracles():
    """Hand-computed fixture values reproduced to 1e-12."""
    with _Timer("criterion 1: metric oracle suite", 1.0):
        tol = 1e-12
        assert abs(jain_index([1, 1, 1, 1]) - 1.0) < tol
        assert abs(jain_index([1, 0, 0, 0]) - 0.25) < tol
        assert abs(jain_index([3, 1]) - 0.8) < tol
        assert abs(gini([5, 5, 5]) - 0.0) < tol
        assert abs(gini([0, 1]) - 0.5) < tol
        assert abs(gini([1, 2, 3]) - 8 / 36) < tol
        assert abs(social_welfare([1, 1]) - 2.0) < tol
        assert abs(social_welfare([0, 1]) - 0.5) < tol
        assert abs(social_welfare([0, 0]) - 0.0) < tol
        assert abs(nash_proximity([[10.0] * 6]) - 1.0) < tol
        drift = [100 * 1.05**t for t in range(5)]
        assert abs(nash_proximity([drift]) - 0.5) < tol
        runaway = [100 * 1.2**t for t in range(5)]
        assert abs(nash_proximity([runaway]) - 0.0) < tol
        assert abs(optimality_gap(200.0, 200.0) - 0.0) < tol
        assert abs(optimality_gap(0.0, 200.0) - 1.0) < tol
        assert abs(optimality_gap(150.0, 200.0) - 0.25) < tol
        assert abs(price_convergence([7.0, 7.0, 7.0]) - 1.0) < tol
        assert abs(price_convergence([1.0, 3.0]) - (1 - 1 / 3)) < tol
        assert abs(price_convergence([2.0, 2.0, 8.0]) - (1 - math.sqrt(8.0) / 8.0)) < tol
        assert abs(adjustment_magnitude([10.0, 10.2, 10.2]) - 0.01) < tol
        assert abs(adjustment_magnitude([5.0] * 6) - 0.0) < tol
        assert abs(adjustment_magnitude([100.0, 110.0]) - 0.1) < tol
        assert abs(adjustment_frequency([5.0] * 6) - 0.0) < tol
        assert abs(adjustment_frequency([1.0, 1.5, 2.25], tau=0.5) - 0.0) < tol
        prices = [100.0, 102.0, 102.51, 105.5853]
        assert abs(adjustment_frequency(prices) - 2 / 3) < 1e-9


def test_criterion_02_elasticity_reproduction():
    """Calibrated reference model sweeps back to -0.072 within 0.005."""
    with _Timer("criterion 2: elasticity reproduction", 1.0):
        spec = ProductSpec("p", 1, 10.0, 6.0, 100.0)
        params = DemandParams(noise_sigma=0.0).with_clusters([1])
        model = ParametricDemandModel(params)
        eps = estimate_elasticity(model, neutral_query(spec))
        assert eps == pytest.approx(-0.072, abs=0.005)


def _fd_check(net, rng, n_coords=100, h=1e-5):
    x = rng.normal(size=net.layer_sizes[0])
    upstream = rng.normal(size=net.layer_sizes[-1])
    _, cache = net.forward_cached(x)
    grads, _ = net.backward(cache, upstream)
    params = net.params()
    worst = 0.0
    for _ in range(n_coords):
        pi = rng.integers(len(params))
        flat_p, flat_g = params[pi].ravel(), grads[pi].ravel()
        i = rng.integers(flat_p.size)
        orig = flat_p[i]
        flat_p[i] = orig + h
        up = float(np.dot(net.forward(x), upstream))
        flat_p[i] = orig - h
        dn = float(np.dot(net.forward(x), upstream))
        flat_p[i] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8))
    return worst


def test_criterion_03_gradient_correctness():
    """Backprop matches central differences on every production network shape."""
    with _Timer("criterion 3: gradient correctness", 30.0):
        state = 60  # 12 slots x 5 products
        shapes = {
            "madqn_q": ([state, 128, 64, 32, 105], ["relu", "relu", "relu", "linear"]),
            "maddpg_actor": ([state, 64, 64, 5], ["relu", "relu", "tanh"]),
            "maddpg_critic": ([4 * (state + 5), 128, 64, 1], ["relu", "relu", "linear"]),
            "qmix_agent": ([state, 128, 64, 32, 105], ["relu", "relu", "relu", "linear"]),
        }
        for name, (sizes, acts) in shapes.items():
            for trial in range(10):
                rng = derive_rng(trial, "accept-fd", name)
                net = DenseNet(sizes, acts, rng)
                worst = _fd_check(net, rng)
                assert worst < 1e-4, f"{name} trial {trial}: rel err {worst}"
        # mixer: parameters and agent-utility inputs
        for trial in range(10):
            rng = derive_rng(trial, "accept-fd", "mixer")
            mixer = MonotonicMixer(4, 4 * state, 32, rng)
            qs = rng.normal(size=(1, 4))
            s = rng.normal(size=(1, 4 * state))
            _, cache = mixer.forward_cached(qs, s)
            grads, dqs = mixer.backward(cache, np.ones(1))

            def qtot():
                return float(mixer.forward(qs, s)[0])

            h = 1e-5
            worst = 0.0
            params = mixer.params()
            for _ in range(100):
                pi = rng.integers(len(params))
                flat_p, flat_g = params[pi].ravel(), grads[pi].ravel()
                i = rng.integers(flat_p.size)
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = qtot()
                flat_p[i] = orig - h
                dn = qtot()
                flat_p[i] = orig
                fd = (up - dn) / (2 * h)
                worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8))
            assert worst < 1e-4, f"mixer trial {trial}: rel err {worst}"


def test_criterion_04_qmix_monotonicity():
    """Finite-difference dQ_tot/dq_i >= -1e-8 over 1000 random samples."""
    with _Timer("criterion 4: mixing monotonicity", 10.0):
        rng = derive_rng(0, "accept-mono")
        checked = 0
        for round_idx in range(10):
            mixer = MonotonicMixer(4, 24, 32, derive_rng(round_idx, "accept-mono-net"))
            for _ in range(100):
                qs = rng.normal(size=(1, 4)) * 3
                s = rng.normal(size=(1, 24))
                h = 1e-6
                for i in range(4):
                    up_q, dn_q = qs.copy(), qs.copy()
                    up_q[0, i] += h
                    dn_q[0, i] -= h
                    partial = (mixer.forward(up_q, s) - mixer.forward(dn_q, s))[0] / (2 * h)
                    assert partial >= -1e-8
                checked += 1
        assert checked == 1000


def test_criterion_05_rule_market_stability():
    """All-rule desk market: share volatility < 0.5 pp and fairness > 0.95."""
    with _Timer("criterion 5: rule-market stability", 10.0):
        report = _run_config("A", seed=12345, episodes=1, weeks=40)
        assert report.market_share_volatility_pp < 0.5
        assert report.jain_index > 0.95


def test_criterion_06_adaptability_ordering():
    """Adjustment-frequency ordering: independent Q > factorized/policy teams > rules."""
    with _Timer("criterion 6: adaptability ordering", 900.0):
        passes = 0
        for seed in (101, 202, 303):
            freq = {}
            mag = {}
            for cid in ("A", "B", "C", "F"):
                report = _run_config(cid, seed, episodes=2, weeks=30)
                freq[cid] = np.mean([a.adjustment_frequency for a in report.agents.values()])
                mag[cid] = np.mean([a.adjustment_magnitude for a in report.agents.values()])
            ordered = (
                freq["C"] > freq["F"] > freq["A"]
                and freq["C"] > freq["B"] > freq["A"]
                and mag["C"] > mag["B"]
            )
            passes += ordered
            print(
                f"  seed {seed}: freq A={freq['A']:.3f} B={freq['B']:.3f} "
                f"C={freq['C']:.3f} F={freq['F']:.3f} ordered={ordered}"
            )
        assert passes >= 2


def test_criterion_07_revenue_direction():
    """All-MADQN desk market out-earns the all-rule baseline in >= 2 of 3 seeds."""
    with _Timer("criterion 7: revenue direction", 900.0):
        overrides = {"madqn": {"epsilon_decay": 0.45, "lr": 0.002}}
        wins = 0
        for seed in (11, 22, 33):
            rule_report = _run_config("A", seed, episodes=8, weeks=30)
            madqn_report = _run_config("C", seed, episodes=8, weeks=30, roster_params=overrides)
            mean_rule = np.mean([a.mean_return for a in rule_report.agents.values()])
            mean_madqn = np.mean([a.mean_return for a in madqn_report.agents.values()])
            wins += mean_madqn > mean_rule
            print(f"  seed {seed}: rule={mean_rule:.0f} madqn={mean_madqn:.0f}")
        assert wins >= 2


def test_criterion_08_wilcoxon_exactness():
    """Exact signed-rank p-values for the n=4 and n=5 same-sign cases."""
    with _Timer("criterion 8: exact signed-rank test", 1.0):
        r4 = wilcoxon_signed_rank([1, 2, 3, 4], [0, 1, 2, 3])
        assert r4.p_value == pytest.approx(0.125, abs=1e-12)
        r5 = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
        assert r5.p_value == pytest.approx(0.0625, abs=1e-12)


def test_criterion_09_exploration_schedules():
    """Schedule values equal the closed form at episodes {0, 1, 100, 1e6}."""
    with _Timer("criterion 9: exploration schedules", 1.0):
        greedy = ExplorationSchedule("epsilon_greedy", 1.0, 0.995, 0.05)
        noise = ExplorationSchedule("gaussian_noise", 0.2, 0.9995, 0.05)
        for schedule in (greedy, noise):
            for episode in (0, 1, 100, 10**6):
                expected = max(schedule.floor, schedule.start * schedule.decay**episode)
                assert abs(schedule.value(episode) - expected) < 1e-12


def test_criterion_10_replay_recency_bias():
    """Empirical sampling frequencies match decay^age weights within 2%."""
    with _Timer("criterion 10: replay recency bias", 5.0):
        buffer = ReplayBuffer(capacity=3, recency_decay=0.9)
        for i in range(3):
            buffer.push(i)
        draws = buffer.fields[0][buffer.sample(100_000, derive_rng(0, "accept-replay"))]
        freqs = np.bincount(draws, minlength=3) / len(draws)
        weights = np.array([0.9**2, 0.9, 1.0])
        expected = weights / weights.sum()
        assert np.all(np.abs(freqs - expected) < 0.02)


def test_criterion_11_byte_reproducibility(tmp_path):
    """Identical config+seed twice -> byte-identical history CSV and metrics JSON."""
    with _Timer("criterion 11: byte reproducibility", 120.0):
        spec_dict = {
            "config_id": "C",
            "n_runs": 1,
            "market": {"episodes": 3, "weeks_per_episode": 20, "seed": 4242},
        }
        paths = []
        for label in ("first", "second"):
            spec = ExperimentSpec.from_dict(spec_dict)
            manifest, _ = execute_run(spec, 0, tmp_path / label)
            paths.append(tmp_path / label / manifest.run_id)
        assert (paths[0] / "history.csv").read_bytes() == (paths[1] / "history.csv").read_bytes()
        assert (paths[0] / "metrics.json").read_bytes() == (paths[1] / "metrics.json").read_bytes()


def test_criterion_12_calibration_recovery():
    """Noise-free synthetic data: elasticity +/-0.01, holiday uplift +/-0.02."""
    with _Timer("criterion 12: calibration recovery", 10.0):
        from pricebench.transactions import calibrate
        from tests.test_transactions import synthetic_records

        params = calibrate(synthetic_records(elasticity=-0.3, uplift=1.2))
        assert params.elasticity == pytest.approx(-0.3, abs=0.01)
        assert params.holiday_uplift == pytest.approx(1.2, abs=0.02)


def test_criterion_13_toy_mdp_learning():
    """Q-learner recovers the value-iteration-optimal policy in >= 2 of 3 seeds."""
    with _Timer("criterion 13: toy-MDP learning sanity", 60.0):
        from tests.test_madqn import run_toy_mdp

        wins = 0
        for seed in (11, 22, 33):
            greedy, optimal = run_toy_mdp(seed, steps=5000)
            wins += greedy == list(optimal)
        assert wins >= 2
