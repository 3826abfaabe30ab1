"""pricebench benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in its own process (perfbench/workload.py) against the
checkout's src/, with every BLAS/OpenMP pool fixed at one thread. With
--trace 0 it first starts SETUP_PROBES fresh processes that only measure
set-up, and reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of a traced run instead. The last line of stdout is the
JSON result; the lines before it give the environment, each run's artifact
hashes and a readable table. Exits non-zero, printing no result, when the
program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 150

UNITS = {"weeks_per_s": "weeks/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The workload process could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run workload.py; relay its output and return its last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKLOAD), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pricebench benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pricebench" / "__init__.py").is_file():
        print(f"no pricebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [] if args.trace else [
            run_child(common + ["--setup-only"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)
        ]
        result = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            WORKER_TIMEOUT_S,
        )
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = dict(result["environment"], workload=args.workload, seed=args.seed,
               experiments=result["experiments"])
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        units = result["units"]
        values = result["metrics"]
    else:
        units = UNITS
        values = dict(result["metrics"])
        for key in ("setup_s", "raw_setup_s"):
            values[key] = statistics.median(probe[key] for probe in setup)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        raw = values.get(f"raw_{name}")
        raw = "" if raw is None else f"   ({raw:.6g} {m['unit']} before rescaling to the reference CPU)"
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}{raw}")
    print(f"{'failed_run_ratio':40s} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
