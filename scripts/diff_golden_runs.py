"""Compare the golden-byte runs of another checkout with this one's, key by key.

    python scripts/diff_golden_runs.py OTHER_CHECKOUT [DROPPED_KEY ...]

Runs every scale and config that `tests/test_golden_bytes.py` pins, once
with OTHER_CHECKOUT's code and once with this checkout's, each in its own
process. Then it checks that each run's `history.csv` bytes are the same and
that each `metrics.json` of this checkout is the other's with every
DROPPED_KEY removed, re-dumped as `MetricsReport.to_json` writes it. A key is
`agents.<name>` (taken out of every agent block) or `market.<name>`. Prints
one count line per artifact name and exits 1 if any run differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

WRITE_RUNS = """
import sys
from pathlib import Path
from pricebench.harness import run_experiment
from tests.test_golden_bytes import SCALES, _spec
for scale, (configs, _) in SCALES.items():
    for config_id in configs:
        run_experiment(_spec(scale, config_id), Path(sys.argv[1]) / scale)
"""


def write_runs(checkout: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", WRITE_RUNS, str(out)], cwd=checkout, env=env, check=True)


def without(metrics: dict, dropped: list[str]) -> dict:
    for key in dropped:
        block, name = key.split(".", 1)
        for target in metrics["agents"].values() if block == "agents" else [metrics[block]]:
            del target[name]
    return metrics


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    other, dropped = Path(argv[0]).resolve(), argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp, "other"), Path(tmp, "this")
        write_runs(other, old)
        write_runs(HERE, new)
        runs = sorted(p.parent.relative_to(new) for p in new.glob("*/*/metrics.json"))
        if runs != sorted(p.parent.relative_to(old) for p in old.glob("*/*/metrics.json")):
            print("the two checkouts wrote different runs", file=sys.stderr)
            return 1
        differ = {"history.csv": [], "metrics.json": []}
        for run in runs:
            if (old / run / "history.csv").read_bytes() != (new / run / "history.csv").read_bytes():
                differ["history.csv"].append(run)
            expected = without(json.loads((old / run / "metrics.json").read_text()), dropped)
            if json.dumps(expected, sort_keys=True, indent=2) + "\n" != (
                new / run / "metrics.json"
            ).read_text():
                differ["metrics.json"].append(run)
    for name, runs_differ in differ.items():
        print(f"{name}: {len(runs_differ)} differ, {len(runs) - len(runs_differ)} as expected")
        for run in runs_differ:
            print(f"  differs: {run}/{name}")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
