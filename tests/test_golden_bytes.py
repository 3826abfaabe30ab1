"""Pinned artifact bytes: the seeded desk runs of configs A, C and F.

`golden_bytes.json` holds the SHA-256 of every run's `history.csv` and
`metrics.json`. A refactor that keeps these hashes keeps the simulator's
numbers; a change that alters them on purpose re-captures the file with

    PYTHONPATH=src python -m tests.test_golden_bytes
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pricebench.harness import desk_spec, run_experiment

GOLDEN = Path(__file__).with_name("golden_bytes.json")
CONFIGS = ("A", "C", "F")
ARTIFACTS = ("history.csv", "metrics.json")


def artifact_hashes(config_id: str, out: Path) -> dict[str, str]:
    """SHA-256 of each artifact of the config's desk runs, keyed run_id/name."""
    hashes = {}
    for manifest, _ in run_experiment(desk_spec(config_id), out):
        for name in ARTIFACTS:
            data = (out / manifest.run_id / name).read_bytes()
            hashes[f"{manifest.run_id}/{name}"] = hashlib.sha256(data).hexdigest()
    return hashes


@pytest.mark.parametrize("config_id", CONFIGS)
def test_desk_artifacts_match_golden(config_id, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[config_id]
    assert artifact_hashes(config_id, tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {cid: artifact_hashes(cid, Path(tmp) / cid) for cid in CONFIGS}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
