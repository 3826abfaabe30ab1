import concurrent.futures
import json

import pytest

from pricebench.cli import main
from pricebench.demand import DemandParams
from pricebench.harness import desk_spec
from tests.test_harness import ROOT, _run_python
from tests.test_transactions import HEADER, synthetic_records


def _experiment_file(tmp_path, config_id="A", episodes=1, weeks=6, seed=9):
    path = tmp_path / "experiment.json"
    path.write_text(
        json.dumps(
            {
                "config_id": config_id,
                "n_runs": 1,
                "market": {"episodes": episodes, "weeks_per_episode": weeks, "seed": seed},
            }
        )
    )
    return path


class TestSimulate:
    def test_end_to_end(self, tmp_path, capsys):
        config = _experiment_file(tmp_path)
        out = tmp_path / "runs"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert list(out.glob("*/history.csv"))
        assert "wrote 1 run(s)" in capsys.readouterr().out

    def test_overrides(self, tmp_path):
        config = _experiment_file(tmp_path)
        out = tmp_path / "runs"
        code = main(
            ["simulate", "--config", str(config), "--out", str(out),
             "--runs", "2", "--weeks", "4", "--episodes", "1", "--seed", "77"]
        )
        assert code == 0
        assert len(list(out.glob("*/metrics.json"))) == 2

    def test_size_flags_override_full_scale(self, tmp_path):
        config = _experiment_file(tmp_path, episodes=2, weeks=6, seed=9)
        out = tmp_path / "runs"
        code = main(["simulate", "--config", str(config), "--out", str(out), "--full-scale",
                     "--runs", "1", "--episodes", "1", "--seed", "77"])
        assert code == 0
        (manifest,) = out.glob("*/manifest.json")
        market = json.loads(manifest.read_text())["config"]["market"]
        assert (market["episodes"], market["weeks_per_episode"], market["seed"]) == (1, 104, 77)

    def test_invalid_config_id_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"config_id": "Z"}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_missing_flag_exits_1(self):
        assert main(["simulate", "--out", "/tmp/x"]) == 1

    def test_jobs_parallel_matches_serial(self, tmp_path):
        config = _experiment_file(tmp_path, weeks=4)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["simulate", "--config", str(config), "--out", str(serial), "--runs", "2"]) == 0
        assert main(
            ["simulate", "--config", str(config), "--out", str(parallel), "--runs", "2",
             "--jobs", "2"]
        ) == 0
        for run_dir in serial.iterdir():
            twin = parallel / run_dir.name
            assert (run_dir / "history.csv").read_bytes() == (twin / "history.csv").read_bytes()

    def test_jobs_parallel_matches_serial_on_trained_runs(self, tmp_path):
        # the training preset of B: every run takes optimizer steps (see the
        # `training` table of tests/golden_bytes.json)
        config = tmp_path / "experiment.json"
        spec = desk_spec("B", episodes=2, weeks_per_episode=52)
        config.write_text(json.dumps(spec.to_dict()))
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["simulate", "--config", str(config), "--out", str(serial)]) == 0
        assert main(
            ["simulate", "--config", str(config), "--out", str(parallel), "--jobs", "2"]
        ) == 0
        run_dirs = sorted(serial.iterdir())
        assert len(run_dirs) == spec.n_runs == 2
        for run_dir in run_dirs:
            twin = parallel / run_dir.name
            for name in ("history.csv", "metrics.json"):
                assert (run_dir / name).read_bytes() == (twin / name).read_bytes()

    def test_checkpoint_every_is_an_unknown_key_exits_1(self, tmp_path, capsys):
        # runs write no checkpoints, so the key that asked for them names no field
        config = _experiment_file(tmp_path, config_id="C", weeks=4)
        spec = json.loads(config.read_text())
        spec["checkpoint_every"] = 1
        config.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "unknown" in (err := capsys.readouterr().err) and "'checkpoint_every'" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        config = _experiment_file(tmp_path, weeks=4)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", [
        "min_margin", "reward_penalty_lambda", "elasticity", "holiday_uplift", "seasonal_amp",
        "noise_sigma", "competitor_weight", "cluster_base",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_market_number_exits_1(self, tmp_path, capsys, key, value):
        # json writes these as NaN, Infinity and -Infinity, and its reader takes them
        config = _experiment_file(tmp_path, weeks=4)
        spec = json.loads(config.read_text())
        if key in ("min_margin", "reward_penalty_lambda"):
            spec["market"][key] = value
        else:
            spec["market"]["demand_params"] = {key: {"1": value} if key == "cluster_base" else value}
        config.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,config_id", [
        ("maddpg", "B"), ("madqn", "C"), ("qmix", "F"), ("rule", "A"),
    ])
    def test_unknown_params_key_exits_1(self, tmp_path, capsys, kind, config_id):
        config = _experiment_file(tmp_path, config_id=config_id, weeks=4)
        spec = json.loads(config.read_text())
        spec["roster_params"] = {kind: {"learning_rate": 0.01}}  # a misspelt key
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # rejected before any run directory is made

    @pytest.mark.parametrize("config_id,kind,key,value", [
        ("B", "maddpg", "noise_start", float("nan")),
        ("C", "madqn", "epsilon_start", float("nan")),
        ("A", "rule", "seasonal_uplift", float("inf")),
        ("A", "rule", "markup", float("nan")),
        ("C", "madqn", "lr", float("nan")),
        ("F", "qmix", "gamma", float("inf")),
    ])
    def test_non_finite_params_value_exits_1(self, tmp_path, capsys, config_id, kind, key, value):
        config = _experiment_file(tmp_path, config_id=config_id, weeks=4)
        spec = json.loads(config.read_text())
        spec["roster_params"] = {kind: {key: value}}
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config_id,kind,key,value", [
        ("B", "maddpg", "noise_start", [1]),
        ("C", "madqn", "epsilon_floor", None),
    ])
    def test_schedule_value_that_is_not_a_number_exits_1(
        self, tmp_path, capsys, config_id, kind, key, value
    ):
        config = _experiment_file(tmp_path, config_id=config_id, weeks=4)
        spec = json.loads(config.read_text())
        spec["roster_params"] = {kind: {key: value}}
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert f"{key}: float() argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config_id,kind,key,value", [
        ("C", "madqn", "target_update_every", 0),
        ("F", "qmix", "target_update_every", -1),
        ("C", "madqn", "hidden", [0]),
        ("B", "maddpg", "critic_hidden", [0]),
        ("C", "madqn", "batch_size", 0),
        ("B", "maddpg", "batch_size", 0),
        ("F", "qmix", "mixing_dim", 0),
        ("C", "madqn", "buffer_capacity", 0),
        ("B", "maddpg", "recency_decay", 0),
        ("C", "madqn", "gamma", 1.5),
        ("B", "maddpg", "gamma", 1.5),
        ("F", "qmix", "gamma", -0.2),
        ("B", "maddpg", "tau", 2.0),
        ("B", "maddpg", "tau", -0.5),
        ("C", "madqn", "lr", -0.01),
        ("B", "maddpg", "critic_lr", -0.001),
    ])
    def test_learner_value_out_of_range_exits_1(
        self, tmp_path, capsys, config_id, kind, key, value
    ):
        config = _experiment_file(tmp_path, config_id=config_id, weeks=4)
        spec = json.loads(config.read_text())
        spec["roster_params"] = {kind: {key: value}}
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # rejected before any run directory is made

    def test_response_step_above_the_weekly_cap_exits_1(self, tmp_path, capsys):
        config = _experiment_file(tmp_path, config_id="A", weeks=4, seed=3)
        spec = json.loads(config.read_text())
        spec["roster_params"] = {"rule": {"response_step": 0.5}}  # the cap is 0.10
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "rule-0: response_step 0.5 must not exceed max_weekly_change 0.1" in err
        assert not (tmp_path / "o").exists()  # rejected before any run directory is made

    def test_team_members_with_different_params_exit_1(self, tmp_path, capsys):
        # a team trains under one params dict: a second member's must not be dropped
        roster = [
            {"agent_id": "m0", "agent_kind": "maddpg", "params": {"actor_lr": 0.001}},
            {"agent_id": "m1", "agent_kind": "maddpg", "params": {"actor_lr": 0.002}},
        ]
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "config_id": "custom", "n_runs": 1,
            "market": {"agent_roster": roster, "episodes": 1, "weeks_per_episode": 4},
        }))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "['m1']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_demand_overflow_exits_1(self, tmp_path, capsys):
        # a log demand past math.exp's range is the same model error as a NaN one
        config = _experiment_file(tmp_path, weeks=4)
        spec = json.loads(config.read_text())
        spec["market"]["demand_params"] = {"elasticity": -10000.0}
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "non-finite demand for product" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's `max_workers` and
    runs the pool's work in this process, so no worker is started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool_sizes(monkeypatch):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    return sizes


class TestPoolSize:
    def test_simulate_starts_no_more_workers_than_runs(self, tmp_path, pool_sizes):
        config = _experiment_file(tmp_path, weeks=4)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--runs", "2",
                     "--jobs", "8"]) == 0
        assert pool_sizes == [2]
        assert len(list(out.glob("*/metrics.json"))) == 2

    def test_matrix_builds_one_pool_for_every_config(self, tmp_path, pool_sizes):
        assert main(["matrix", "--configs", "ACF", "--jobs", "2", "--out", str(tmp_path)]) == 0
        assert pool_sizes == [2]
        assert len(list(tmp_path.glob("*/metrics.json"))) == 3 * 2

    @pytest.mark.parametrize("runs,jobs", [("2", "1"), ("1", "9")])
    def test_one_job_or_one_run_starts_no_pool(self, tmp_path, pool_sizes, runs, jobs):
        config = _experiment_file(tmp_path, weeks=4)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--runs", runs, "--jobs", jobs]) == 0
        assert pool_sizes == []


def _matrix(out, *flags) -> None:
    assert main(["matrix", "--configs", "AB", "--out", str(out), *flags]) == 0


def _printed_summary(out, printed: str) -> dict[str, list[str]]:
    """`out/summary.csv`'s columns by name, after checking that `printed`
    holds its every line, header included, as the file has it."""
    lines = (out / "summary.csv").read_text().splitlines()
    assert "\n".join(lines) in printed
    header, *rows = (line.split(",") for line in lines)
    for key in ("mean_return", "price_cv", "price_volatility_std", "jain_index",
                "market_share_volatility_pp"):
        assert key in header and f"{key}_ci" in header, key
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


class TestMatrix:
    def test_jobs_match_serial(self, tmp_path):
        """matrix writes its summaries, and its runs' bytes do not depend on --jobs."""
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            _matrix(out, "--jobs", jobs)
            assert (out / "summary.csv").exists(), "no summary CSV written"
        artifacts = sorted(
            p.relative_to(outs["1"]) for name in ("history.csv", "metrics.json")
            for p in outs["1"].glob(f"*/{name}")
        )
        assert len(artifacts) == 2 * 2 * 2  # configs x runs x artifacts
        for rel in artifacts:
            assert (outs["2"] / rel).read_bytes() == (outs["1"] / rel).read_bytes(), rel

    def test_report_over_its_out_writes_the_same_tables(self, tmp_path):
        runs = tmp_path / "runs"
        _matrix(runs)
        assert main(["report", "--in", str(runs), "--out", str(tmp_path / "report")]) == 0
        tables = sorted(runs.glob("*.csv"))
        assert [path.name for path in tables] == [
            "final_market_share.csv", "price_demand_curve.csv", "summary.csv",
        ]
        for path in tables:
            assert (tmp_path / "report" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_prints_the_summary_as_written(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        _matrix(runs)
        assert _printed_summary(runs, capsys.readouterr().out)["config_id"] == ["A", "B"]
        assert main(["report", "--in", str(runs), "--out", str(tmp_path / "report")]) == 0
        printed = capsys.readouterr().out
        assert _printed_summary(tmp_path / "report", printed)["n_runs"] == ["2", "2"]

    def test_prints_each_p_with_its_floor(self, tmp_path, capsys):
        # the desk preset's 2 seed-matched pairs cannot go below p = 2/2^2
        _matrix(tmp_path)
        assert "B vs A: W=0 n=2 p=0.5 p_floor=0.5" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--configs", "AA"], ["--configs", ""], ["--configs", "AZ"], ["--runs", "2"],
        ["--weeks", "4"], ["--episodes", "1"],
    ])
    def test_bad_flags_exit_1_and_run_nothing(self, tmp_path, flags):
        out = tmp_path / "o"
        assert main(["matrix", "--out", str(out), *flags]) == 1
        assert not out.exists()


def _simulate_edited(tmp_path, edit):
    config = _experiment_file(tmp_path, weeks=4)
    spec = json.loads(config.read_text())
    edit(spec)
    config.write_text(json.dumps(spec))
    return ["simulate", "--config", str(config), "--out", str(tmp_path / "o")]


def _custom_roster(spec):
    spec["config_id"] = "custom"
    spec["market"]["agent_roster"] = [{"agent_id": "r0", "agent_kind": "rule", "param": {}}]


def _report_of_edited_metrics(tmp_path):
    runs = tmp_path / "runs"
    config = _experiment_file(tmp_path, weeks=4)
    assert main(["simulate", "--config", str(config), "--out", str(runs)]) == 0
    (metrics,) = runs.glob("*/metrics.json")
    report = json.loads(metrics.read_text())
    report["market"]["jain"] = report["market"]["jain_index"]
    metrics.write_text(json.dumps(report))
    return ["report", "--in", str(runs), "--out", str(tmp_path / "report")]


def _elasticity_of_edited_params(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"elasticity": -0.072, "noise_sigmaa": 0.0}))
    return ["elasticity", "--params", str(params), "--out", str(tmp_path / "curve.csv")]


MISSPELT_KEYS = {
    "n_run": lambda t: _simulate_edited(t, lambda s: s.update(n_run=2)),
    "weeks": lambda t: _simulate_edited(t, lambda s: s["market"].update(weeks=20)),
    "elasticty": lambda t: _simulate_edited(
        t, lambda s: s["market"].update(demand_params={"elasticty": -2.0})
    ),
    "param": lambda t: _simulate_edited(t, _custom_roster),
    "madqnn": lambda t: _simulate_edited(t, lambda s: s.update(roster_params={"madqnn": {}})),
    "jain": _report_of_edited_metrics,
    "noise_sigmaa": _elasticity_of_edited_params,
}


class TestMisspeltKeys:
    @pytest.mark.parametrize("key", MISSPELT_KEYS)
    def test_exits_1_and_names_the_key(self, tmp_path, capsys, key):
        argv = MISSPELT_KEYS[key](tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", [
        [{"config_id": "A"}],
        {"config_id": "A", "market": [1]},
        {"config_id": "A", "roster_params": {"rule": 5}},
        {"config_id": "A", "roster_params": ["rule"]},
    ])
    def test_objects_of_the_wrong_shape_exit_1(self, tmp_path, spec):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_roster_params_beside_an_explicit_roster_exit_1(self, tmp_path, capsys):
        def edit(spec):
            spec["market"]["agent_roster"] = [{"agent_id": "q0", "agent_kind": "madqn"}]
            spec["roster_params"] = {"madqn": {"lr": 0.01}}

        assert main(_simulate_edited(tmp_path, edit)) == 1
        assert "roster_params" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _learner_param(spec):
    spec["config_id"] = "C"
    spec["roster_params"] = {"madqn": {"batch_size": 64.5}}


FRACTIONAL_INTS = {
    "n_runs": lambda s: s.update(n_runs=2.9),
    "weeks_per_episode": lambda s: s["market"].update(weeks_per_episode=4.7),
    "episodes": lambda s: s["market"].update(episodes=1.5),
    "seed": lambda s: s["market"].update(seed=9.5),
    "batch_size": _learner_param,
}


class TestFractionalInts:
    @pytest.mark.parametrize("field", FRACTIONAL_INTS)
    def test_exits_1_and_names_the_field(self, tmp_path, capsys, field):
        capsys.readouterr()
        assert main(_simulate_edited(tmp_path, FRACTIONAL_INTS[field])) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_runs(self, tmp_path):
        argv = _simulate_edited(tmp_path, lambda s: s["market"].update(weeks_per_episode=4.0))
        assert main(argv) == 0
        (history,) = (tmp_path / "o").glob("*/history.csv")
        assert len(history.read_text().splitlines()) == 1 + 4 * 20  # header, 4 weeks of 20 slots


def _two_rule_agents(first_id):
    def edit(spec):
        spec["config_id"] = "custom"
        spec["market"]["agent_roster"] = [
            {"agent_id": first_id, "agent_kind": "rule"},
            {"agent_id": "shop-south", "agent_kind": "rule"},
        ]
    return edit


class TestAgentIds:
    @pytest.mark.parametrize(
        "agent_id", ["shop,north", 'shop"north', "shop\rnorth", "shop\nnorth", "shop\0north", ""]
    )
    def test_id_that_breaks_a_history_row_exits_1(self, tmp_path, capsys, agent_id):
        capsys.readouterr()
        assert main(_simulate_edited(tmp_path, _two_rule_agents(agent_id))) == 1
        assert "agent_id" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("agent_id", ["shop north.1", "rule-0", "maddpg-1"])
    def test_other_ids_write_one_field_per_column(self, tmp_path, agent_id):
        assert main(_simulate_edited(tmp_path, _two_rule_agents(agent_id))) == 0
        (history,) = (tmp_path / "o").glob("*/history.csv")
        header, *rows = history.read_text().splitlines()
        assert len(rows) == 4 * 2 * 5  # 4 weeks of 2 agents x 5 products
        assert {len(line.split(",")) for line in [header, *rows]} == {len(header.split(","))}
        assert sum(line.split(",")[2] == agent_id for line in rows) == 4 * 5


class TestCalibrate:
    def test_fit_from_csv(self, tmp_path, capsys):
        # one transaction per week, dated to match the synthetic aggregates
        import datetime

        rows = [HEADER]
        start = datetime.datetime(2010, 1, 4)
        for t, rec in enumerate(synthetic_records(weeks=80)):
            date = start + datetime.timedelta(weeks=t)
            rows.append(
                f"i,prodX,DESC,{rec.total_quantity},{date:%Y-%m-%d %H:%M:%S},"
                f"{rec.mean_price},c1,UK"
            )
        csv_path = tmp_path / "tx.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "params.json"
        assert main(["calibrate", "--csv", str(csv_path), "--out", str(out)]) == 0
        params = json.loads(out.read_text())
        assert params["elasticity"] == pytest.approx(-0.3, abs=0.01)

    def test_fit_from_make_transactions_script(self, tmp_path):
        csv_path = tmp_path / "tx.csv"
        run = _run_python([str(ROOT / "scripts" / "make_transactions.py"), "--out", str(csv_path)],
                          tmp_path)
        assert run.returncode == 0, run.stderr
        out = tmp_path / "params.json"
        assert main(["calibrate", "--csv", str(csv_path), "--out", str(out)]) == 0
        params = DemandParams.from_dict(json.loads(out.read_text()))
        assert params.elasticity < 0  # the script draws its demand at elasticity -0.25

    def test_missing_column_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("InvoiceNo,StockCode\n1,2\n")
        assert main(["calibrate", "--csv", str(bad), "--out", str(tmp_path / "p.json")]) == 1


class TestElasticity:
    def test_curve_and_value(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"elasticity": -0.072, "noise_sigma": 0.0}))
        out = tmp_path / "curve.csv"
        assert main(["elasticity", "--params", str(params_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 42
        assert "-0.072" in capsys.readouterr().out


class TestReport:
    def test_summary_from_runs(self, tmp_path):
        config = _experiment_file(tmp_path, weeks=5)
        runs = tmp_path / "runs"
        assert main(["simulate", "--config", str(config), "--out", str(runs), "--runs", "2"]) == 0
        out = tmp_path / "report"
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "final_market_share.csv").exists()
        assert not list(out.glob("summary_*.csv"))

    def test_empty_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1

    def test_runs_without_metrics_exit_1_and_write_nothing(self, tmp_path, capsys):
        config = _experiment_file(tmp_path, weeks=5)
        runs = tmp_path / "runs"
        assert main(["simulate", "--config", str(config), "--out", str(runs), "--runs", "2"]) == 0
        metrics = sorted(runs.glob("*/metrics.json"))
        assert len(metrics) == 2 and len(list(runs.glob("*/manifest.json"))) == 2
        for path in metrics:
            path.unlink()
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        assert str(runs) in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_json_with_a_dropped_key_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # metrics.json as runs wrote it while it still held the duplicate keys
        config = _experiment_file(tmp_path, weeks=5)
        runs = tmp_path / "runs"
        assert main(["simulate", "--config", str(config), "--out", str(runs)]) == 0
        (metrics,) = runs.glob("*/metrics.json")
        report = json.loads(metrics.read_text())
        report["market"]["welfare_fairness"] = 1.0 - report["market"]["gini"]
        metrics.write_text(json.dumps(report))
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        assert "'welfare_fairness'" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_json_with_price_stability_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # an agent block as runs wrote it while it still held 1 - min(1, 10 x volatility std)
        config = _experiment_file(tmp_path, weeks=5)
        runs = tmp_path / "runs"
        assert main(["simulate", "--config", str(config), "--out", str(runs)]) == 0
        (metrics,) = runs.glob("*/metrics.json")
        report = json.loads(metrics.read_text())
        for block in report["agents"].values():
            block["price_stability"] = 1.0 - min(1.0, 10.0 * block["price_volatility_std"])
        metrics.write_text(json.dumps(report))
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        assert "'price_stability'" in capsys.readouterr().err
        assert not out.exists()


class TestWilcoxonCommand:
    def test_paired_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("value\n1\n2\n3\n4\n")
        b.write_text("value\n0\n1\n2\n3\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 0
        assert "p=0.125" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, bad):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(f"1\n{bad}\n3\n4\n")
        b.write_text("2\n2\n2\n2\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_non_numeric_line_exits_1_and_names_it(self, tmp_path, capsys):
        # dropping each file's bad line on its own would pair a's line 3 with b's line 2
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1\nN/A\n3\n4\n5\n")
        b.write_text("2\n2\nN/A\n2\n2\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{a}, line 2" in captured.err

    @pytest.mark.parametrize("text", ["1\n2\n\n4\n", "value\n1\nvalue\n3\n"])
    def test_blank_or_second_header_line_exits_1(self, tmp_path, capsys, text):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(text)
        b.write_text("0\n0\n0\n0\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 1
        assert f"{a}, line 3" in capsys.readouterr().err

    def test_missing_row_exits_1_and_names_the_short_file(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("value\n1\n2\n3\n4\n")
        b.write_text("value\n0\n1\n2\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 1
        assert f"{b}, line 5" in capsys.readouterr().err

    def test_one_header_line_in_either_file_pairs_rows_in_order(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("value\n1\n2\n3\n4\n")
        b.write_text("0\n1\n2\n3\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 0
        assert "W=0 n=4 p=0.125 p_floor=0.125" in capsys.readouterr().out

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1
