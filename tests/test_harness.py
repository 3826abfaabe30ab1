import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from pricebench import harness
from pricebench.harness import (
    CONFIG_MATRIX,
    ExperimentSpec,
    RunManifest,
    confidence_interval,
    config_hash,
    desk_spec,
    execute_run,
    roster_for_config,
    roster_settings,
    run_experiment,
    run_values,
    summarize,
    wilcoxon_signed_rank,
    wilcoxon_vs_baseline,
    write_summary_csv,
    write_sweep_csv,
    emit_plotdata,
)
from pricebench.market import AGENT_KINDS, AgentSpec, ConfigError, from_fields
from pricebench.metrics import MetricsReport
from pricebench.rule_agents import RuleStrategy


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

    def test_spec_and_its_market_are_frozen(self):
        spec = desk_spec("A")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_runs = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.market.episodes = 3

    def test_copies_are_checked_as_they_are_built(self):
        spec = desk_spec("A")
        with pytest.raises(ConfigError, match="n_runs"):
            dataclasses.replace(spec, n_runs=0)
        with pytest.raises(ConfigError, match="weeks_per_episode"):
            dataclasses.replace(spec.market, weeks_per_episode=1)


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

    def test_a_kind_is_one_table_entry(self, monkeypatch):
        # a new kind needs only its AGENT_KINDS entry for a roster or its params to name it
        with pytest.raises(ConfigError, match="'tabular_q'"):
            AgentSpec("t0", "tabular_q")
        monkeypatch.setitem(AGENT_KINDS, "tabular_q", {"module": ".rule_agents", "settings": "X"})
        assert AgentSpec("t0", "tabular_q").agent_kind == "tabular_q"
        assert ExperimentSpec.from_dict({"config_id": "A", "roster_params": {"tabular_q": {}}})

    def test_known_kind_absent_from_the_roster_accepted(self):
        spec = ExperimentSpec.from_dict({"config_id": "A", "roster_params": {"qmix": {"lr": 0.01}}})
        assert {a.agent_kind for a in spec.market.agent_roster} == {"rule"}

    def test_rejected_beside_an_explicit_roster(self):
        roster = [{"agent_id": "q0", "agent_kind": "madqn"}]
        with pytest.raises(ConfigError, match="roster_params"):
            ExperimentSpec.from_dict({
                "config_id": "C", "roster_params": {"madqn": {}}, "market": {"agent_roster": roster},
            })

    def test_checked_when_the_spec_is_built(self):
        market = desk_spec("C").market
        roster = [AgentSpec("madqn-0", "madqn", {"learning_rate": 0.01}), *market.agent_roster[1:]]
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentSpec("C", dataclasses.replace(market, agent_roster=roster))


def _rule(params):
    """A rule agent's settings from its roster `params`."""
    return roster_settings([AgentSpec("r0", "rule", params)], 0.10)["r0"]


class TestRuleParams:
    def test_strategy_names_the_kind_and_other_keys_the_fields(self):
        params = {"strategy": "competitor_match", "undercut_fraction": 0.02, "markup": 0.4}
        assert _rule(params) == RuleStrategy(
            "competitor_match", undercut_fraction=0.02, markup=0.4
        )
        assert _rule({}) == RuleStrategy("static_markup")

    @pytest.mark.parametrize("params", [{"kind": "seasonal"}, {"markup_pct": 0.4}])
    def test_unknown_key_rejected(self, params):
        with pytest.raises(ConfigError, match="unknown rule params"):
            _rule(params)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_settings_defaults_round_trip_through_json(kind):
    cls = harness.kind_class(kind, "settings")
    assert from_fields(cls, json.loads(json.dumps(dataclasses.asdict(cls())))) == cls()


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

    def test_manifest_times_each_phase_within_the_run(self, tmp_path):
        started = time.perf_counter()
        manifest, _ = execute_run(desk_spec("C", seed=5), 0, tmp_path)
        wall = time.perf_counter() - started
        timings = manifest.timings
        assert list(timings) == [
            "build_agents", "simulate", "compute_report", "history_csv", "metrics_json"
        ]
        assert all(seconds >= 0 for seconds in timings.values())
        assert sum(timings.values()) <= wall
        stored = json.loads((tmp_path / manifest.run_id / "manifest.json").read_text())
        assert stored["timings"] == timings

    def test_manifest_without_timings_still_parses(self, tmp_path):
        manifest, _ = execute_run(desk_spec("A", seed=5), 0, tmp_path)
        stored = json.loads((tmp_path / manifest.run_id / "manifest.json").read_text())
        del stored["timings"]
        assert RunManifest.from_dict(stored).timings == {}

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
        spec = desk_spec("C", seed=42, weeks_per_episode=10, episodes=2)
        m1, _ = execute_run(spec, 0, tmp_path / "first")
        m2, _ = execute_run(spec, 0, tmp_path / "second")
        h1 = (tmp_path / "first" / m1.run_id / "history.csv").read_bytes()
        h2 = (tmp_path / "second" / m2.run_id / "history.csv").read_bytes()
        assert h1 == h2
        j1 = (tmp_path / "first" / m1.run_id / "metrics.json").read_bytes()
        j2 = (tmp_path / "second" / m2.run_id / "metrics.json").read_bytes()
        assert j1 == j2

    def test_run_experiment_returns_all_runs(self, tmp_path):
        spec = dataclasses.replace(desk_spec("A", seed=1), n_runs=2)
        results = run_experiment(spec, tmp_path)
        assert len(results) == 2
        assert {m.seed for m, _ in results} == {1, 2}

    def test_parallel_runs_return_the_serial_results(self, tmp_path):
        spec = desk_spec("D", seed=3, weeks_per_episode=6, episodes=2)
        serial = run_experiment(spec, tmp_path / "serial")
        parallel = run_experiment(spec, tmp_path / "parallel", jobs=2)
        assert [r.to_dict() for _, r in parallel] == [r.to_dict() for _, r in serial]
        for (m_par, _), (m_ser, _) in zip(parallel, serial, strict=True):
            assert (m_par.run_id, m_par.config_hash, m_par.config) == (
                m_ser.run_id, m_ser.config_hash, m_ser.config
            )

    def test_unwritable_directory_fails_before_simulating(self, tmp_path):
        spec = desk_spec("A")
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(OSError):
            run_experiment(spec, blocker / "runs")

    @staticmethod
    def _alive_at_report_and_after(config_id, refs_of, tmp_path, monkeypatch):
        """Run `config_id` once with the cyclic collector off, holding weak
        references to `refs_of(agent)` for each agent built. Returns them, the
        ones alive when compute_report returns (it consumes the run's episode
        stream, which holds the agents until the last episode ends), and the
        ones alive once execute_run returns."""
        refs, at_report = [], []
        build_agents, compute_report = harness.build_agents, harness.compute_report

        def recording(config):
            agents = build_agents(config)
            refs.extend(weakref.ref(obj) for agent in agents for obj in refs_of(agent))
            return agents

        def checking(episodes):
            report = compute_report(episodes)
            at_report.append([ref for ref in refs if ref() is not None])
            return report

        monkeypatch.setattr(harness, "build_agents", recording)
        monkeypatch.setattr(harness, "compute_report", checking)
        gc.collect()
        gc.disable()
        try:
            execute_run(desk_spec(config_id), 0, tmp_path)
            after = [ref for ref in refs if ref() is not None]
        finally:
            gc.enable()
        return refs, at_report, after

    @pytest.mark.parametrize("config_id", ["B", "C", "F", "H"])
    def test_finished_team_run_freed_by_refcounting(self, config_id, tmp_path, monkeypatch):
        """No reference cycle keeps a team alive: with the cyclic collector off,
        each coordinator and member net is gone once the report is computed."""
        refs, at_report, after = self._alive_at_report_and_after(
            config_id, lambda agent: (agent.learner, agent.learner.views[agent.index]),
            tmp_path, monkeypatch,
        )
        assert len(refs) == 8
        assert at_report == [[]]
        assert after == []

    def test_finished_rule_run_freed_by_refcounting(self, tmp_path, monkeypatch):
        """No reference cycle keeps a rule agent alive past its run's simulation."""
        refs, at_report, after = self._alive_at_report_and_after(
            "A", lambda agent: (agent,), tmp_path, monkeypatch
        )
        assert len(refs) == 4
        assert at_report == [[]]
        assert after == []


class TestStreamedRun:
    """A run appends each episode to the history and folds it into the report
    as it ends, then drops it."""

    def test_failed_run_leaves_no_history_csv(self, tmp_path, monkeypatch):
        run_episode = harness.run_episode

        def failing(config, agents, model, episode_index):
            if episode_index == 1:
                raise RuntimeError("episode 2 failed")
            return run_episode(config, agents, model, episode_index)

        monkeypatch.setattr(harness, "run_episode", failing)
        with pytest.raises(RuntimeError, match="episode 2 failed"):
            execute_run(desk_spec("A", seed=5), 0, tmp_path)
        run_dir = tmp_path / "A-seed5-run00"
        assert run_dir.is_dir()
        assert not (run_dir / "history.csv").exists()

    @pytest.mark.parametrize("config_id", ["A", "C", "H"])
    def test_episode_records_freed_two_episodes_on(self, config_id, tmp_path, monkeypatch):
        """With the cyclic collector off, the log of episode k is gone before
        episode k + 2 starts: the run holds one or two episodes."""
        run_episode = harness.run_episode
        refs: list[weakref.ref] = []
        weeks: list[int] = []
        alive_at_start: list[bool] = []

        def recording(config, agents, model, episode_index):
            if episode_index >= 2:
                alive_at_start.append(refs[episode_index - 2]() is not None)
            log = run_episode(config, agents, model, episode_index)
            refs.append(weakref.ref(log))
            weeks.append(len(log.price))
            return log

        monkeypatch.setattr(harness, "run_episode", recording)
        gc.collect()
        gc.disable()
        try:
            execute_run(desk_spec(config_id, episodes=5, weeks_per_episode=8), 0, tmp_path)
            after = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert weeks == [8] * 5
        assert alive_at_start == [False] * 3
        assert after == 0

    @staticmethod
    def _traced_peak(episodes: int, out: Path) -> int:
        spec = desk_spec("A", seed=5, episodes=episodes, weeks_per_episode=52)
        tracemalloc.start()
        try:
            execute_run(spec, 0, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run_memory_does_not_grow_with_episodes(self, tmp_path):
        """The traced peak of a 16-episode run is within 1.25x that of a
        4-episode run: a run keeps one or two episodes' records, not all."""
        self._traced_peak(4, tmp_path / "warm-up")
        four = self._traced_peak(4, tmp_path / "four")
        sixteen = self._traced_peak(16, tmp_path / "sixteen")
        assert sixteen < 1.25 * four, (four, sixteen)


ROOT = Path(__file__).resolve().parent.parent


def _run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run python with `args` in a fresh process that imports pricebench from src/."""
    paths = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


RUNS_THREADS = """
import os
before = len(os.listdir("/proc/self/task"))
import tempfile
from pathlib import Path
from pricebench.harness import CONFIG_MATRIX, desk_spec, run_experiment
from tests.test_golden_bytes import _spec
with tempfile.TemporaryDirectory() as tmp:
    for config_id in CONFIG_MATRIX:
        run_experiment(desk_spec(config_id), Path(tmp) / config_id)
    run_experiment(_spec("training", "B"), Path(tmp) / "training-B")
print(before, len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts the threads in /proc")
def test_import_and_runs_start_no_thread():
    """Importing pricebench, the desk preset of A-H and B at the training scale,
    whose learn steps run the largest team passes, start no thread (Python's,
    numpy's or the BLAS's)."""
    run = _run_python(["-c", RUNS_THREADS], ROOT)
    assert run.returncode == 0, run.stderr
    before, after = map(int, run.stdout.split())
    assert after == before


# prints, after `body` has run in a fresh interpreter, the learner modules it
# loaded and whether it loaded the process pool
LOADED = """
import sys
{body}
loaded = sorted(m for m in sys.modules if m == "pricebench.nn" or m.startswith("pricebench.marl"))
print(" ".join(loaded), "|", "concurrent.futures" in sys.modules)
"""


def _loaded_after(body: str, cwd: Path) -> tuple[set[str], bool]:
    run = _run_python(["-c", LOADED.format(body=body)], cwd)
    assert run.returncode == 0, run.stderr
    modules, pool = run.stdout.splitlines()[-1].split("|")
    return set(modules.split()), pool.strip() == "True"


class TestLazyLearners:
    """A kind's module loads the first time a roster names the kind
    (`market.AGENT_KINDS`), so a process loads only the learners it builds."""

    def test_rule_only_simulation_loads_no_learner(self, tmp_path):
        loaded, pool = _loaded_after(
            "from pricebench.harness import build_agents, desk_spec, simulate\n"
            "config = desk_spec('A').market\n"
            "assert len(list(simulate(config, build_agents(config)))) == config.episodes",
            tmp_path,
        )
        assert loaded == set() and not pool

    def test_harness_import_loads_no_logging(self, tmp_path):
        run = _run_python(
            ["-c", "import sys\nimport pricebench.harness\nprint('logging' in sys.modules)"],
            tmp_path,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"]

    def test_maddpg_roster_loads_maddpg_alone(self, tmp_path):
        loaded, _ = _loaded_after(
            "from pricebench.harness import build_agents, desk_spec\n"
            "build_agents(desk_spec('B').market)",
            tmp_path,
        )
        assert "pricebench.marl.maddpg" in loaded
        assert not loaded & {"pricebench.marl.qmix", "pricebench.marl.madqn"}

    def test_wilcoxon_loads_no_learner(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\n1\n2\n3\n")
        (tmp_path / "b.csv").write_text("x\n0\n1\n2\n")
        loaded, pool = _loaded_after(
            "from pricebench.cli import main\n"
            "assert main(['wilcoxon', '--a', 'a.csv', '--b', 'b.csv']) == 0",
            tmp_path,
        )
        assert loaded == set() and not pool

    def test_parallel_runs_write_the_serial_bytes(self, tmp_path):
        """The pool's module loads with the first jobs > 1 call, and its runs
        write what one job writes."""
        loaded, pool = _loaded_after(
            "import hashlib, sys\n"
            "from pathlib import Path\n"
            "from pricebench.harness import desk_spec, run_experiment\n"
            "spec = desk_spec('G', seed=4, weeks_per_episode=6, episodes=2)\n"
            "def digests(jobs):\n"
            "    out = Path(f'jobs{jobs}')\n"
            "    run_experiment(spec, out, jobs=jobs)\n"
            "    return [hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.glob('*/*'))\n"
            "            if f.name in ('history.csv', 'metrics.json')]\n"
            "serial = digests(1)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert len(serial) == 2 * spec.n_runs and digests(2) == serial",
            tmp_path,
        )
        assert "pricebench.marl.maddpg" in loaded and pool


def _exhaustive_p(diffs, ranks) -> float:
    """The two-sided signed-rank p-value of `diffs` under `ranks`, with every
    sign assignment enumerated directly: an oracle independent of the
    dynamic programme."""
    w_plus = ranks[diffs > 0].sum()
    universe = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product([False, True], repeat=len(diffs))
    ]
    lo = sum(1 for w in universe if w <= w_plus) / len(universe)
    hi = sum(1 for w in universe if w >= w_plus) / len(universe)
    return min(1.0, 2 * min(lo, hi))


class TestWilcoxon:
    def test_n4_same_sign(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4], [0, 1, 2, 3])
        assert result.p_value == pytest.approx(0.125, abs=1e-12)
        assert type(result.p_value) is float
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
        diffs = np.array([0.7, -1.3, 2.1, 0.4, -0.2, 1.8])
        ranks = np.argsort(np.argsort(np.abs(diffs))) + 1.0
        result = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
        assert result.p_value == pytest.approx(_exhaustive_p(diffs, ranks), abs=1e-12)

    @pytest.mark.parametrize("diffs", [
        [1.0, -1.0, 2.0, 2.0],
        [0.5, -0.5, 0.5, 1.5, -1.5, 3.0, 3.0, -3.0, 0.25],
        [2.0] * 7,
    ])
    def test_tied_differences_match_the_midrank_loop(self, diffs):
        # reference: walk the sorted |differences| run by run, giving each run
        # of equal values the mean of the ranks it spans
        diffs = np.array(diffs)
        abs_diffs = np.abs(diffs)
        order = np.argsort(abs_diffs, kind="stable")
        ranks = np.empty(len(diffs))
        i = 0
        while i < len(diffs):
            j = i
            while j + 1 < len(diffs) and abs_diffs[order[j + 1]] == abs_diffs[order[i]]:
                j += 1
            ranks[order[i : j + 1]] = (i + j) / 2 + 1
            i = j + 1
        w_plus = ranks[diffs > 0].sum()
        result = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
        assert result.w_statistic == min(w_plus, ranks.sum() - w_plus)
        assert result.p_value == pytest.approx(_exhaustive_p(diffs, ranks), abs=1e-12)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(list(range(30)), [0] * 30)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_value_rejected(self, bad, side):
        # a NaN difference has no rank: it must not be counted in n or ranked
        sample, other = [1.0, bad, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]
        pair = (sample, other) if side == "a" else (other, sample)
        with pytest.raises(ValueError, match=f"sample {side} .*at pair 1"):
            wilcoxon_signed_rank(*pair)

    def test_non_finite_value_in_both_samples_rejected(self):
        # the same infinity on both sides would have been dropped as a zero difference
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, math.inf], [2.0, math.inf])

    def test_vs_baseline_excludes_mixed_configs(self):
        reports = {
            "A": [_fake_report(100.0 + i) for i in range(8)],
            "C": [_fake_report(400.0 - i) for i in range(8)],
            "D": [_fake_report(300.0) for _ in range(8)],  # mixed: must not be tested
        }
        results = wilcoxon_vs_baseline(reports)
        assert set(results) == {"C"}
        # eight seed-matched runs, all improved -> the n=8 same-sign exact p
        assert results["C"].n_effective == 8
        assert results["C"].p_value == pytest.approx(2 / 2**8, abs=1e-12)

    def test_vs_baseline_pairs_run_i_with_run_i(self):
        # every run beats its own seed's baseline run, though not every other run
        base = [100.0, 90.0, 120.0, 80.0, 110.0]
        marl = [101.0, 92.0, 123.0, 84.0, 115.0]
        results = wilcoxon_vs_baseline({
            "A": [_fake_report(v) for v in base],
            "B": [_fake_report(v) for v in marl],
        })
        assert results["B"] == wilcoxon_signed_rank(marl, base)
        assert results["B"].p_value == pytest.approx(0.0625, abs=1e-12)

    def test_vs_baseline_unequal_run_counts_rejected(self):
        reports = {"A": [_fake_report(1.0)] * 8, "F": [_fake_report(2.0)] * 7}
        with pytest.raises(ValueError, match="F has 7 runs and A 8"):
            wilcoxon_vs_baseline(reports)

    def test_vs_baseline_without_baseline(self):
        assert wilcoxon_vs_baseline({"C": [_fake_report(1.0)]}) == {}


def _fake_report(mean_return, jain=0.9, share=0.25, volatility=0.005):
    """A run whose agents differ only in `price_cv` (0.02, 0.03, 0.04, 0.05)."""
    from pricebench.metrics import AgentMetrics

    agents = {
        f"a{i}": AgentMetrics(
            total_revenue=mean_return * 3,
            mean_return=mean_return,
            adjustment_magnitude=0.01,
            adjustment_frequency=0.3,
            price_volatility_std=volatility,
            price_volatility_max=0.05,
            price_cv=0.02 + 0.01 * i,
        )
        for i in range(4)
    }
    return MetricsReport(
        agents=agents, jain_index=jain, gini=1 - jain, social_welfare=mean_return,
        nash_proximity=0.8, price_convergence=0.7, market_share_volatility_pp=1.0 + jain,
        final_market_share={f"a{i}": share for i in range(4)},
    )


SUMMARY_KEYS = [
    "mean_return", "adjustment_magnitude", "adjustment_frequency", "price_cv",
    "price_volatility_std", "jain_index", "market_share_volatility_pp", "nash_proximity",
    "price_convergence",
]


class TestSummaries:
    def test_run_values_in_column_order(self):
        values = run_values(_fake_report(100.0, jain=0.8, volatility=0.007))
        assert list(values) == SUMMARY_KEYS
        assert values["mean_return"] == 100.0
        assert values["price_cv"] == pytest.approx(0.035)  # the mean over the run's agents
        assert values["price_volatility_std"] == pytest.approx(0.007)
        assert values["jain_index"] == 0.8
        assert values["market_share_volatility_pp"] == pytest.approx(1.8)
        assert all(isinstance(v, float) for v in values.values())

    def test_each_column_is_the_ci_over_the_runs(self):
        reports = [
            _fake_report(m, jain=j, volatility=v)
            for m, j, v in [(100.0, 0.9, 0.005), (130.0, 0.7, 0.009), (90.0, 0.8, 0.004)]
        ]
        (row,) = summarize({"C": reports})
        assert list(row) == ["config_id", "n_runs"] + [
            name for key in SUMMARY_KEYS for name in (key, f"{key}_ci")
        ]
        assert row["config_id"] == "C" and row["n_runs"] == 3
        for key in SUMMARY_KEYS:
            mean, half = confidence_interval([run_values(r)[key] for r in reports])
            assert (row[key], row[f"{key}_ci"]) == (mean, half), key
        assert row["mean_return_ci"] > 0 and row["jain_index_ci"] > 0
        assert row["price_cv_ci"] == pytest.approx(0.0, abs=1e-15)  # every run's agents agree

    def test_delta_vs_baseline(self):
        rows = summarize({"C": [_fake_report(400.0)], "A": [_fake_report(100.0)]})
        assert [row["config_id"] for row in rows] == ["A", "C"]
        assert rows[0]["delta_vs_A_pct"] == pytest.approx(0.0)
        assert rows[1]["delta_vs_A_pct"] == pytest.approx(300.0)
        assert list(rows[1])[-1] == "delta_vs_A_pct"

    @pytest.mark.parametrize("reports", [
        {"C": [_fake_report(400.0)]}, {"A": [_fake_report(0.0)], "C": [_fake_report(400.0)]},
    ], ids=["no-A", "A-earns-nothing"])
    def test_no_delta_without_a_positive_baseline(self, reports):
        assert all("delta_vs_A_pct" not in row for row in summarize(reports))

    def test_single_run_std_zero(self):
        # one run has no spread: n_runs is 1 and every CI half-width is 0
        (row,) = summarize({"A": [_fake_report(100.0)]})
        assert row["n_runs"] == 1
        assert all(row[f"{key}_ci"] == 0.0 for key in SUMMARY_KEYS)

    def test_csv_emission(self, tmp_path):
        rows = summarize({"A": [_fake_report(100.0), _fake_report(120.0)]})
        path = Path(write_summary_csv(rows, tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"] == [path.name]
        header, line = path.read_text().splitlines()
        assert header.split(",") == list(rows[0])
        assert line.startswith("A,2,110.000000,127.060000,0.010000,0.000000,")
        assert line.endswith(",0.000000")  # delta_vs_A_pct

    def test_ci_formula(self):
        # sample std of {.2,.3,.2,.3} = 0.057735; t(0.975, 3) * std / sqrt(4) = 0.0918673
        mean, half = confidence_interval([0.2, 0.3, 0.2, 0.3])
        assert mean == pytest.approx(0.25)
        assert half == pytest.approx(3.182 * np.std([0.2, 0.3, 0.2, 0.3], ddof=1) / 2)
        assert half == pytest.approx(0.09187, abs=1e-4)

    def test_ci_of_two_runs_uses_t_with_one_degree_of_freedom(self):
        # sample std of {.2,.3} = 0.0707107; 12.706 * std / sqrt(2) = 0.6353
        mean, half = confidence_interval([0.2, 0.3])
        assert mean == pytest.approx(0.25)
        assert half == pytest.approx(0.6353, abs=1e-4)

    def test_ci_quantiles_are_students_t_then_z(self):
        t = pytest.importorskip("scipy.stats").t
        for n in range(2, 32):
            _, half = confidence_interval([0.0, 1.0] * (n // 2) + [0.5] * (n % 2))
            std = np.std([0.0, 1.0] * (n // 2) + [0.5] * (n % 2), ddof=1)
            assert half * np.sqrt(n) / std == pytest.approx(t.ppf(0.975, n - 1), abs=5e-4)
        _, half = confidence_interval([0.0, 1.0] * 16)
        assert half == pytest.approx(1.96 * np.std([0.0, 1.0] * 16, ddof=1) / np.sqrt(32))

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
