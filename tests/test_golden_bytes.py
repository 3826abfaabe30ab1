"""Pinned artifact bytes: seeded runs of configs A-H at three scales.

`golden_bytes.json` holds the SHA-256 of every run's `history.csv` and
`metrics.json` in three tables:

- `desk`: the desk preset of every config A-H, whose learners never pass
  warm-up;
- `training`: B, C and F at 2 episodes x 52 weeks, where every learner takes
  gradient steps, so the bytes also pin the nets, Adam and the target updates;
- `long`: A, D, E, G and H at 1 episode x 104 weeks, which reaches the
  holiday weeks 47-52 with rule agents, crosses into a second year and pins
  the mixed rosters (every learner among them takes gradient steps).

The hashes are those of one BLAS thread, which importing pricebench pins
(the last bits of a float64 matrix product depend on the thread count).
A refactor that keeps these hashes keeps the simulator's numbers; a change
that alters them on purpose re-captures the file with

    PYTHONPATH=src python -m tests.test_golden_bytes

which first prints each hash that moved (scale/run/artifact, old -> new),
one count line per artifact name (`history.csv: 0 moved, 32 unchanged`) and
the total count. With `--check` it prints the same lines,
leaves the file as it is and exits 1 if any hash moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pricebench import BLAS_THREAD_VARS, harness, nn
from pricebench.harness import CONFIG_MATRIX, desk_spec, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_bytes.json")
ARTIFACTS = ("history.csv", "metrics.json")
SCALES = {
    "desk": (tuple(CONFIG_MATRIX), {}),
    "training": (("B", "C", "F"), {"episodes": 2, "weeks_per_episode": 52}),
    "long": (("A", "D", "E", "G", "H"), {"episodes": 1, "weeks_per_episode": 104}),
}


def _assert_learners_stepped(agents):
    """Every agent with a learner saw that learner take a gradient step."""
    learners = [agent.learner for agent in agents if hasattr(agent, "learner")]
    assert learners and all(learner.learn_calls > 0 for learner in learners)


def artifact_hashes(spec, out: Path) -> dict[str, str]:
    """SHA-256 of each artifact of the spec's runs, keyed run_id/name."""
    hashes = {}
    for manifest, _ in run_experiment(spec, out):
        for name in ARTIFACTS:
            data = (out / manifest.run_id / name).read_bytes()
            hashes[f"{manifest.run_id}/{name}"] = hashlib.sha256(data).hexdigest()
    return hashes


def _golden(scale: str, config_id: str) -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[scale][config_id]


def _spec(scale: str, config_id: str):
    return desk_spec(config_id, **SCALES[scale][1])


@pytest.mark.parametrize("config_id", SCALES["desk"][0])
def test_desk_artifacts_match_golden(config_id, tmp_path):
    assert artifact_hashes(_spec("desk", config_id), tmp_path) == _golden("desk", config_id)


def _hashes_and_steps(
    scale: str, config_id: str, out: Path, monkeypatch
) -> tuple[dict, int, list]:
    """Artifact hashes of the scale's runs, the optimizer steps they took and
    the agents they built."""
    steps = 0
    adam_step = nn.Adam.step
    build_agents = harness.build_agents
    agents = []

    def counting(opt, *args, **kwargs):
        nonlocal steps
        steps += 1
        return adam_step(opt, *args, **kwargs)

    def keeping(config):
        built = build_agents(config)
        agents.extend(built)
        return built

    monkeypatch.setattr(nn.Adam, "step", counting)
    monkeypatch.setattr(harness, "build_agents", keeping)
    return artifact_hashes(_spec(scale, config_id), out), steps, agents


@pytest.mark.parametrize("config_id", SCALES["training"][0])
def test_training_artifacts_match_golden(config_id, tmp_path, monkeypatch):
    hashes, steps, agents = _hashes_and_steps("training", config_id, tmp_path, monkeypatch)
    assert steps > 0, "the training-scale runs took no optimizer step"
    _assert_learners_stepped(agents)
    assert hashes == _golden("training", config_id)


@pytest.mark.parametrize("config_id", SCALES["long"][0])
def test_long_artifacts_match_golden(config_id, tmp_path, monkeypatch):
    hashes, steps, agents = _hashes_and_steps("long", config_id, tmp_path, monkeypatch)
    if set(CONFIG_MATRIX[config_id]) != {"rule"}:
        assert steps > 0, "the long runs' learners took no optimizer step"
        _assert_learners_stepped(agents)
    assert hashes == _golden("long", config_id)


# long/H is the table entry whose bytes moved with the BLAS thread count
# before importing pricebench pinned it.
HASHES_IN_FRESH_PROCESS = """
import json, tempfile
from pathlib import Path
from tests.test_golden_bytes import _spec, artifact_hashes
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(artifact_hashes(_spec("long", "H"), Path(tmp))))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_thread_count_set_outside_does_not_change_bytes(threads):
    env = dict(os.environ, **{var: str(threads) for var in BLAS_THREAD_VARS})
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    run = subprocess.run(
        [sys.executable, "-c", HASHES_IN_FRESH_PROCESS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == _golden("long", "H")


def hash_moves(old: dict, new: dict) -> tuple[list[str], int, dict[str, list[int]]]:
    """Lines naming each hash of `new` that differs from `old`'s (one that
    `old` lacks reads "none", as does one that `new` dropped), the count of
    hashes that did not move, and per artifact name its [moved, unchanged]
    counts."""
    moved, unchanged, by_name = [], 0, {}
    for scale in sorted(old.keys() | new.keys()):
        before = {k: h for table in old.get(scale, {}).values() for k, h in table.items()}
        after = {k: h for table in new.get(scale, {}).values() for k, h in table.items()}
        for key in sorted(before.keys() | after.keys()):
            same = before.get(key) == after.get(key)
            by_name.setdefault(key.rsplit("/", 1)[-1], [0, 0])[same] += 1  # [moved, unchanged]
            if same:
                unchanged += 1
            else:
                moved.append(f"{scale}/{key}: {before.get(key, 'none')} -> {after.get(key, 'none')}")
    return moved, unchanged, by_name


def test_hash_moves_names_each_moved_hash():
    old = {"desk": {"A": {"A-run00/history.csv": "1", "A-run00/metrics.json": "2"}}}
    new = {"desk": {"A": {"A-run00/history.csv": "1", "A-run00/metrics.json": "3"}},
           "long": {"H": {"H-run00/history.csv": "4"}}}
    assert hash_moves(old, new) == (
        ["desk/A-run00/metrics.json: 2 -> 3", "long/H-run00/history.csv: none -> 4"], 1,
        {"history.csv": [1, 1], "metrics.json": [1, 0]},
    )
    assert hash_moves(new, new) == ([], 3, {"history.csv": [0, 2], "metrics.json": [0, 1]})


def test_check_mode_reports_a_moved_hash_and_leaves_the_file(tmp_path, monkeypatch, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = {"desk": {"A": dict(golden["desk"]["A"])}}
    key = sorted(table["desk"]["A"])[0]
    table["desk"]["A"][key] = "0" * 64
    stale = tmp_path / "golden_bytes.json"
    stale.write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setitem(globals(), "GOLDEN", stale)
    monkeypatch.setitem(globals(), "SCALES", {"desk": (("A",), {})})
    before = stale.read_bytes()
    assert main(["--check"]) == 1
    assert stale.read_bytes() == before
    out = capsys.readouterr().out
    assert f"moved desk/{key}: {'0' * 64} -> " in out
    assert f"{key.rsplit('/', 1)[1]}: 1 moved, {len(table['desk']['A']) // 2 - 1} unchanged\n" in out
    assert f"1 moved, {len(table['desk']['A']) - 1} unchanged" in out


def main(argv: list[str] | None = None) -> int:
    """Compute every table and print each hash that moved; rewrite the file,
    or with --check leave it and exit 1 if any hash moved."""
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Re-capture or check golden_bytes.json.")
    parser.add_argument("--check", action="store_true",
                        help="compare only: leave the file as it is, exit 1 if a hash moved")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            scale: {cid: artifact_hashes(_spec(scale, cid), Path(tmp) / scale / cid) for cid in configs}
            for scale, (configs, _) in SCALES.items()
        }
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    moved, unchanged, by_name = hash_moves(old, table)
    for line in moved:
        print(f"moved {line}")
    for name, (name_moved, name_unchanged) in sorted(by_name.items()):
        print(f"{name}: {name_moved} moved, {name_unchanged} unchanged")
    print(f"{len(moved)} moved, {unchanged} unchanged")
    if args.check:
        return 1 if moved else 0
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
