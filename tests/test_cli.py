import json

import pytest

from pricebench.cli import main
from pricebench.harness import desk_spec
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

    def test_negative_checkpoint_every_exits_1(self, tmp_path, capsys):
        # with a learner config, (ep + 1) % -1 == 0 would checkpoint every episode
        config = _experiment_file(tmp_path, config_id="C", weeks=4)
        spec = json.loads(config.read_text())
        spec["checkpoint_every"] = -1
        config.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "checkpoint_every" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        config = _experiment_file(tmp_path, weeks=4)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
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
        assert (out / "summary_returns.csv").exists()
        assert (out / "final_market_share.csv").exists()

    def test_empty_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1


class TestWilcoxonCommand:
    def test_paired_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("value\n1\n2\n3\n4\n")
        b.write_text("value\n0\n1\n2\n3\n")
        assert main(["wilcoxon", "--a", str(a), "--b", str(b)]) == 0
        assert "p=0.125" in capsys.readouterr().out

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1
