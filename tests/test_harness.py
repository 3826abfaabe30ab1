import gc
import hashlib
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from pricebench import harness
from pricebench.harness import (
    CONFIG_MATRIX,
    ExperimentSpec,
    confidence_interval,
    config_hash,
    desk_spec,
    execute_run,
    roster_for_config,
    rule_strategy,
    run_experiment,
    summarize,
    wilcoxon_signed_rank,
    wilcoxon_vs_baseline,
    write_summary_csvs,
    write_sweep_csv,
    emit_plotdata,
)
from pricebench.market import AgentSpec, ConfigError
from pricebench.metrics import MetricsReport
from pricebench.rule_agents import RuleStrategy
from tests.test_golden_bytes import _spec as _golden_spec


class TestConfigMatrix:
    def test_letter_compositions(self):
        assert CONFIG_MATRIX["A"] == ["rule"] * 4
        assert CONFIG_MATRIX["B"] == ["maddpg"] * 4
        assert CONFIG_MATRIX["C"] == ["madqn"] * 4
        assert CONFIG_MATRIX["D"].count("maddpg") == 2 and CONFIG_MATRIX["D"].count("madqn") == 2
        assert CONFIG_MATRIX["E"].count("madqn") == 1 and CONFIG_MATRIX["E"].count("rule") == 3
        assert CONFIG_MATRIX["F"] == ["qmix"] * 4
        assert CONFIG_MATRIX["G"].count("maddpg") == 1 and CONFIG_MATRIX["G"].count("rule") == 3
        assert CONFIG_MATRIX["H"].count("maddpg") == 2 and CONFIG_MATRIX["H"].count("qmix") == 2

    def test_rule_agents_get_distinct_strategies(self):
        roster = roster_for_config("A")
        strategies = [a.params["strategy"] for a in roster]
        assert len(set(strategies)) == 4

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError):
            roster_for_config("Z")

    def test_custom_requires_roster(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"config_id": "custom"})


class TestSpecRoundTrip:
    def test_identity(self):
        spec = desk_spec("C", seed=99)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.market == spec.market

    @pytest.mark.parametrize("config_id", sorted(CONFIG_MATRIX))
    def test_desk_spec_from_its_dict(self, config_id):
        spec = desk_spec(config_id, seed=7)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_has_the_json_keys(self):
        d = desk_spec("A").to_dict()
        assert list(d["market"]["demand_params"]["cluster_base"]) == ["1", "2", "3", "5", "10"]
        assert config_hash(d) == config_hash(json.loads(json.dumps(d)))

    def test_config_hash_stable(self):
        spec = desk_spec("A")
        d = {"config_id": spec.config_id, "market": spec.market.to_dict()}
        assert config_hash(d) == config_hash(json.loads(json.dumps(d)))


class TestRosterParams:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="'madqnn'"):
            ExperimentSpec.from_dict({"config_id": "C", "roster_params": {"madqnn": {}}})

    def test_known_kind_absent_from_the_roster_accepted(self):
        spec = ExperimentSpec.from_dict({"config_id": "A", "roster_params": {"qmix": {"lr": 0.01}}})
        assert {a.agent_kind for a in spec.market.agent_roster} == {"rule"}

    def test_rejected_beside_an_explicit_roster(self):
        roster = [{"agent_id": "q0", "agent_kind": "madqn"}]
        with pytest.raises(ConfigError, match="roster_params"):
            ExperimentSpec.from_dict({
                "config_id": "C", "roster_params": {"madqn": {}}, "market": {"agent_roster": roster},
            })

    def test_checked_when_the_spec_is_validated(self):
        spec = desk_spec("C")
        spec.market.agent_roster[0] = AgentSpec("madqn-0", "madqn", {"learning_rate": 0.01})
        with pytest.raises(ConfigError, match="learning_rate"):
            spec.validate()


class TestRuleParams:
    def test_strategy_names_the_kind_and_other_keys_the_fields(self):
        params = {"strategy": "competitor_match", "undercut_fraction": 0.02, "markup": 0.4}
        assert rule_strategy(params) == RuleStrategy(
            "competitor_match", undercut_fraction=0.02, markup=0.4
        )
        assert rule_strategy({}) == RuleStrategy("static_markup")

    @pytest.mark.parametrize("params", [{"kind": "seasonal"}, {"markup_pct": 0.4}])
    def test_unknown_key_rejected(self, params):
        with pytest.raises(ConfigError, match="unknown rule params"):
            rule_strategy(params)


class TestExecuteRun:
    def test_run_writes_artifacts_and_manifest(self, tmp_path):
        spec = desk_spec("A", seed=5)
        manifest, report = execute_run(spec, 0, tmp_path)
        run_dir = tmp_path / manifest.run_id
        assert (run_dir / "history.csv").exists()
        assert (run_dir / "metrics.json").exists()
        stored = json.loads((run_dir / "manifest.json").read_text())
        assert stored["config_hash"] == config_hash(stored["config"])

    def test_manifest_hash_is_the_hash_of_its_config_on_disk(self, tmp_path):
        # the benchmark's check: cluster_base's int keys must be strings when hashed
        manifest, _ = execute_run(desk_spec("B", seed=5), 0, tmp_path)
        stored = json.loads((tmp_path / manifest.run_id / "manifest.json").read_text())
        canonical = json.dumps(stored["config"], sort_keys=True, separators=(",", ":"))
        assert stored["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert stored == json.loads(json.dumps(manifest.to_dict()))

    def test_clusters_alone_set_the_portfolio(self, tmp_path):
        manifest, _ = execute_run(desk_spec("A", clusters=[1, 2]), 0, tmp_path)
        with open(tmp_path / manifest.run_id / "history.csv") as fh:
            products = {row.split(",")[3] for row in list(fh)[1:]}
        assert products == {"prod1", "prod2"}

    def test_seeds_offset_by_run_index(self, tmp_path):
        spec = desk_spec("A", seed=100)
        m0, _ = execute_run(spec, 0, tmp_path)
        m1, _ = execute_run(spec, 1, tmp_path)
        assert m0.seed == 100
        assert m1.seed == 101
        assert m0.run_id != m1.run_id

    def test_byte_reproducibility(self, tmp_path):
        spec = desk_spec("C", seed=42)
        spec.market = spec.market.copy_with(weeks_per_episode=10, episodes=2).validate()
        m1, _ = execute_run(spec, 0, tmp_path / "first")
        m2, _ = execute_run(spec, 0, tmp_path / "second")
        h1 = (tmp_path / "first" / m1.run_id / "history.csv").read_bytes()
        h2 = (tmp_path / "second" / m2.run_id / "history.csv").read_bytes()
        assert h1 == h2
        j1 = (tmp_path / "first" / m1.run_id / "metrics.json").read_bytes()
        j2 = (tmp_path / "second" / m2.run_id / "metrics.json").read_bytes()
        assert j1 == j2

    def test_run_experiment_returns_all_runs(self, tmp_path):
        spec = desk_spec("A", seed=1)
        spec.n_runs = 2
        results = run_experiment(spec, tmp_path)
        assert len(results) == 2
        assert {m.seed for m, _ in results} == {1, 2}

    def test_unwritable_directory_fails_before_simulating(self, tmp_path):
        spec = desk_spec("A")
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(OSError):
            run_experiment(spec, blocker / "runs")

    def test_checkpoints_written(self, tmp_path, monkeypatch):
        """At the training scale, where every learner takes gradient steps, each
        ep<N>.npz holds every learner's online nets exactly as they stood after
        episode N."""
        online_nets = {
            "B": {"actor": lambda a: a.actor, "critic": lambda a: a.critic},
            "C": {"q": lambda a: a.core.net},
            "F": {"q": lambda a: a.net},
        }
        snapshots = []
        run_episode = harness.run_episode

        def snapshotting(config, agents, *args):
            records = run_episode(config, agents, *args)
            snapshots.append({
                f"{a.agent_id}.{role}": net_of(a).flat.copy()
                for a in agents for role, net_of in roles.items()
            })
            return records

        monkeypatch.setattr(harness, "run_episode", snapshotting)
        for config_id, roles in online_nets.items():
            snapshots.clear()
            spec = _golden_spec("training", config_id)
            spec.checkpoint_every = 1
            manifest, _ = execute_run(spec, 0, tmp_path / config_id)
            run_dir = tmp_path / config_id / manifest.run_id
            assert sorted(p.name for p in run_dir.glob("*.npz")) == ["ep1.npz", "ep2.npz"]
            assert len(snapshots) == 2
            for episode, expected in enumerate(snapshots, start=1):
                with np.load(run_dir / f"ep{episode}.npz") as saved:
                    assert sorted(saved.files) == sorted(expected)
                    for key, flat in expected.items():
                        assert np.array_equal(saved[key], flat), (config_id, episode, key)
            # the second episode trained the nets past the first checkpoint
            assert not any(np.array_equal(snapshots[0][k], snapshots[1][k]) for k in snapshots[0])

    @pytest.mark.parametrize("config_id", ["B", "F", "H"])
    def test_finished_team_run_freed_by_refcounting(self, config_id, tmp_path, monkeypatch):
        """No reference cycle keeps a team alive: with the cyclic collector off,
        each coordinator and member net is gone once execute_run returns."""
        refs = []
        build_agents = harness.build_agents

        def recording(config):
            agents = build_agents(config)
            for agent in agents:
                refs.append(weakref.ref(agent.coordinator))
                refs.append(weakref.ref(getattr(agent, "actor", None) or agent.net))
            return agents

        monkeypatch.setattr(harness, "build_agents", recording)
        gc.collect()
        gc.disable()
        try:
            execute_run(desk_spec(config_id), 0, tmp_path)
            alive = [ref for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert len(refs) == 8
        assert alive == []


class TestWilcoxon:
    def test_n4_same_sign(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4], [0, 1, 2, 3])
        assert result.p_value == pytest.approx(0.125, abs=1e-12)
        assert result.n_effective == 4

    def test_n5_same_sign(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
        assert result.p_value == pytest.approx(0.0625, abs=1e-12)

    def test_identical_samples_flagged(self):
        result = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert math.isnan(result.p_value)
        assert "all-differences-zero" in result.flags

    def test_zero_differences_dropped(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 9], [1, 1, 2, 3, 8])
        assert result.n_effective == 4

    def test_matches_exhaustive_enumeration(self):
        # independent oracle: enumerate all sign assignments directly
        import itertools

        diffs = np.array([0.7, -1.3, 2.1, 0.4, -0.2, 1.8])
        ranks = np.argsort(np.argsort(np.abs(diffs))) + 1.0
        w_plus = ranks[diffs > 0].sum()
        universe = [
            sum(r for r, s in zip(ranks, signs) if s)
            for signs in itertools.product([False, True], repeat=len(diffs))
        ]
        lo = sum(1 for w in universe if w <= w_plus) / len(universe)
        hi = sum(1 for w in universe if w >= w_plus) / len(universe)
        expected = min(1.0, 2 * min(lo, hi))
        result = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
        assert result.p_value == pytest.approx(expected, abs=1e-12)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(list(range(30)), [0] * 30)

    def test_vs_baseline_excludes_mixed_configs(self):
        reports = {
            "A": [_fake_report(100.0)],
            "C": [_fake_report(400.0)],
            "D": [_fake_report(300.0)],  # mixed: must not be tested
        }
        results = wilcoxon_vs_baseline(reports)
        assert set(results) == {"C"}
        # four agent slots, all improved -> the n=4 same-sign exact p
        assert results["C"].p_value == pytest.approx(0.125, abs=1e-12)

    def test_vs_baseline_without_baseline(self):
        assert wilcoxon_vs_baseline({"C": [_fake_report(1.0)]}) == {}


def _fake_report(mean_return, jain=0.9, share=0.25):
    from pricebench.metrics import AgentMetrics

    agents = {
        f"a{i}": AgentMetrics(
            total_revenue=mean_return * 3,
            mean_return=mean_return,
            adjustment_magnitude=0.01,
            adjustment_frequency=0.3,
            price_stability=0.9,
            price_volatility_mean_abs=0.01,
            price_volatility_std=0.005,
            price_volatility_max=0.05,
            price_cv=0.02,
            optimality_gap=0.0,
        )
        for i in range(4)
    }
    return MetricsReport(
        agents=agents, jain_index=jain, gini=1 - jain, social_welfare=mean_return,
        welfare_fairness=jain, nash_proximity=0.8, mean_optimality_gap=0.1,
        price_convergence=0.7, market_share_volatility_pp=1.0,
        final_market_share={f"a{i}": share for i in range(4)},
    )


class TestSummaries:
    def test_delta_vs_baseline(self):
        tables = summarize({"A": [_fake_report(100.0)], "C": [_fake_report(400.0)]})
        rows = {r["config_id"]: r for r in tables["returns"]}
        assert rows["A"]["delta_vs_A_pct"] == pytest.approx(0.0)
        assert rows["C"]["delta_vs_A_pct"] == pytest.approx(300.0)

    def test_single_run_std_zero(self):
        tables = summarize({"A": [_fake_report(100.0)]})
        assert tables["returns"][0]["std_return"] == 0.0

    def test_csv_emission(self, tmp_path):
        tables = summarize({"A": [_fake_report(100.0)]})
        written = write_summary_csvs(tables, tmp_path)
        assert len(written) == 3
        header = Path(written[0]).read_text().splitlines()[0]
        assert "config_id" in header

    def test_ci_formula(self):
        # sample std of {.2,.3,.2,.3} = 0.057735; 1.96 * std / sqrt(4) = 0.0565805
        mean, half = confidence_interval([0.2, 0.3, 0.2, 0.3])
        assert mean == pytest.approx(0.25)
        assert half == pytest.approx(1.96 * np.std([0.2, 0.3, 0.2, 0.3], ddof=1) / 2)
        assert half == pytest.approx(0.05658, abs=1e-4)

    def test_single_run_ci_zero(self):
        _, half = confidence_interval([0.4])
        assert half == 0.0

    def test_plotdata_files(self, tmp_path):
        from pricebench.demand import DemandParams

        reports = {"A": [_fake_report(100.0), _fake_report(120.0)]}
        written = emit_plotdata(reports, tmp_path, demand_params=DemandParams())
        names = {Path(w).name for w in written}
        assert "final_market_share.csv" in names
        assert "price_demand_curve.csv" in names
        curve = (tmp_path / "price_demand_curve.csv").read_text().splitlines()
        assert len(curve) == 42  # header + 41 grid points

    def test_single_run_ci_flagged(self, tmp_path):
        emit_plotdata({"A": [_fake_report(100.0)]}, tmp_path)
        rows = (tmp_path / "final_market_share.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",single-run") for row in rows)
        assert all(",0.000000,1," in row for row in rows)  # zero CI width, n=1

    def test_sweep_csv_rows(self, tmp_path):
        from pricebench.demand import DemandParams

        path = tmp_path / "curve.csv"
        write_sweep_csv(DemandParams(), path)
        rows = path.read_text().splitlines()
        assert len(rows) == 42
        assert rows[0] == "multiplier,price,expected_demand"
