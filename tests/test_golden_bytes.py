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
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pricebench import BLAS_THREAD_VARS, nn
from pricebench.harness import CONFIG_MATRIX, desk_spec, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_bytes.json")
ARTIFACTS = ("history.csv", "metrics.json")
SCALES = {
    "desk": (tuple(CONFIG_MATRIX), {}),
    "training": (("B", "C", "F"), {"episodes": 2, "weeks_per_episode": 52}),
    "long": (("A", "D", "E", "G", "H"), {"episodes": 1, "weeks_per_episode": 104}),
}


def artifact_hashes(spec, out: Path, jobs: int = 1) -> dict[str, str]:
    """SHA-256 of each artifact of the spec's runs, keyed run_id/name."""
    hashes = {}
    for manifest, _ in run_experiment(spec, out, jobs=jobs):
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


def _hashes_and_steps(scale: str, config_id: str, out: Path, monkeypatch) -> tuple[dict, int]:
    """Artifact hashes of the scale's runs and the optimizer steps they took."""
    steps = 0
    adam_step = nn.Adam.step

    def counting(opt, *args, **kwargs):
        nonlocal steps
        steps += 1
        return adam_step(opt, *args, **kwargs)

    monkeypatch.setattr(nn.Adam, "step", counting)
    return artifact_hashes(_spec(scale, config_id), out), steps


@pytest.mark.parametrize("config_id", SCALES["training"][0])
def test_training_artifacts_match_golden(config_id, tmp_path, monkeypatch):
    hashes, steps = _hashes_and_steps("training", config_id, tmp_path, monkeypatch)
    assert steps > 0, "the training-scale runs took no optimizer step"
    assert hashes == _golden("training", config_id)


@pytest.mark.parametrize("config_id", SCALES["long"][0])
def test_long_artifacts_match_golden(config_id, tmp_path, monkeypatch):
    hashes, steps = _hashes_and_steps("long", config_id, tmp_path, monkeypatch)
    if set(CONFIG_MATRIX[config_id]) != {"rule"}:
        assert steps > 0, "the long runs' learners took no optimizer step"
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {
            scale: {cid: artifact_hashes(_spec(scale, cid), Path(tmp) / scale / cid) for cid in configs}
            for scale, (configs, _) in SCALES.items()
        }
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
