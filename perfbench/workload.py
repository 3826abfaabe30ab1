"""One benchmark workload in one process.

Builds the workload's ExperimentSpecs from a seed, times
`harness.run_experiment(spec, out, jobs=1)` on them, checks every artifact
the runs write, and prints one JSON line with the result. `run.py` starts
this file with the BLAS/OpenMP thread count fixed at one and PYTHONPATH set
to the checkout's src/, so both hold before numpy is first imported.

    python3 perfbench/workload.py --workload NAME --seed N --setup-only
    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

# Every matrix config has 4 agents with 5 products each: one history row
# per product-week.
ROWS_PER_WEEK = 20

HISTORY_HEADER = "episode,week,agent_id,product_id,price,demand,revenue,profit,market_share"

PROBE_LOOPS = 6000
PROBE_MATMULS = 8
PROBE_REF_S = 0.0022  # one probe sample's time on the reference CPU (see README.md)
PROBE_EVERY_S = 0.15


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]  # one experiment runs each config once, in order
    n_runs: int
    episodes: int
    weeks: int
    trains: bool  # the learners must take optimizer steps (and must not when False)
    trace_experiments: int  # fixed work of a traced run, so its counts repeat


WORKLOADS = {
    # Config A only: environment, features, demand, rule agents, history CSV
    # and compute_report; the nn stack does nothing.
    "rules-long": Workload(("A",), n_runs=1, episodes=8, weeks=104, trains=False,
                           trace_experiments=6),
    # Config B with 1040 weeks in one run: the joint replay buffer passes
    # warm_up = 64 and reaches 1040 entries; dense nets, Adam, soft updates
    # and replay dominate.
    "maddpg-train": Workload(("B",), n_runs=1, episodes=10, weeks=104, trains=True,
                             trace_experiments=1),
    # Config F at the same scale: the only workload with the monotonic mixer,
    # the single joint Adam and hard target copies.
    "qmix-train": Workload(("F",), n_runs=1, episodes=10, weeks=104, trains=True,
                           trace_experiments=1),
    # All eight configs at the desk preset (2 runs of 3 x 20 weeks): learners
    # never pass warm-up, so set-up, batch-1 acting, reports and IO dominate.
    "desk-matrix": Workload(tuple("ABCDEFGH"), n_runs=2, episodes=3, weeks=20, trains=False,
                            trace_experiments=3),
}


def experiment_seeds(name: str, seed: int):
    """Market seeds of a workload's experiments, a pure function of (name, seed)."""
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.randrange(1, 2**31 - 1)


class SpeedProbe:
    """CPU speed samples: how fast a fixed piece of work runs right now.

    On shared machines the speed a process gets drifts by tens of percent
    over seconds (frequency, contention on shared cores), in phases longer
    than one experiment. Each timing is therefore rescaled to the reference
    speed with the samples taken during it: a sample at its start and end,
    and one every PROBE_EVERY_S while `ticking()`, from a timer signal. The
    time spent sampling is subtracted from the timing it interrupts.

    A sample is a fixed piece of work in both halves of the simulator: a
    Python loop of dict lookups and float math, and small matmuls shaped
    like a MADDPG critic's first layer. It is the benchmark's own code, so
    no change to pricebench moves it. A pure integer loop or a memory walk
    tracked the slow phases worse, and no probe tracked them fully (see
    README.md).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._table = {i: float(i) for i in range(4096)}
        self._x = rng.random((64, 260))
        self._w = rng.random((260, 128))
        self.took: list[float] = []  # sample durations
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        table, x, w = self._table, self._x, self._w
        t0 = time.perf_counter()
        total = 0.0
        for i in range(PROBE_LOOPS):
            total += math.sqrt(table[(i * 7) & 4095]) * 1.5
        for _ in range(PROBE_MATMULS):
            total += float((x @ w).clip(0.0).sum())
        took = time.perf_counter() - t0
        self.took.append(took)
        self.spent += took
        self._busy = False

    def speed_since(self, first: int) -> float:
        """Speed relative to the reference CPU over took[first:]; < 1 is slower."""
        return PROBE_REF_S / statistics.mean(self.took[first:])

    @contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def spec_dict(config_id: str, w: Workload, market_seed: int) -> dict:
    return {
        "config_id": config_id,
        "n_runs": w.n_runs,
        "market": {"episodes": w.episodes, "weeks_per_episode": w.weeks, "seed": market_seed},
    }


def measure_setup(w: Workload, market_seed: int) -> dict:
    """Import the package, build and validate each spec, build its agents once."""
    t0 = time.perf_counter()
    from pricebench import harness

    for cid in w.configs:
        spec = harness.ExperimentSpec.from_dict(spec_dict(cid, w, market_seed))
        harness.build_agents(spec.market)
    raw = time.perf_counter() - t0
    probe = SpeedProbe()  # only now: numpy's import belongs to set-up
    for _ in range(3):
        probe.sample()
    return {"setup_s": raw * probe.speed_since(0), "raw_setup_s": raw}


# -- output checks --------------------------------------------------------------


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_run(spec_d: dict, run_index: int, run_dir: Path) -> tuple[list[str], str]:
    """Problems found in one run directory, and its artifact hash line."""
    problems = []
    market = spec_d["market"]
    history = (run_dir / "history.csv").read_bytes()
    metrics = (run_dir / "metrics.json").read_bytes()

    lines = history.decode().split("\n")
    expected_rows = market["episodes"] * market["weeks_per_episode"] * ROWS_PER_WEEK
    if lines[0] != HISTORY_HEADER or lines[-1] != "" or len(lines) - 2 != expected_rows:
        problems.append(f"history.csv: {len(lines) - 2} rows, expected {expected_rows}")

    try:
        report = json.loads(metrics)  # NaN and Infinity parse to floats
        if not report or not _all_finite(report):
            problems.append("metrics.json: empty or non-finite value")
    except ValueError as exc:
        problems.append(f"metrics.json: {exc}")

    manifest = json.loads((run_dir / "manifest.json").read_bytes())
    config = manifest["config"]
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    expected_seed = market["seed"] + run_index
    if manifest["config_hash"] != hashlib.sha256(canonical).hexdigest():
        problems.append("manifest: config_hash does not match its config")
    if (
        config["config_id"] != spec_d["config_id"]
        or manifest["seed"] != expected_seed
        or config["market"]["seed"] != expected_seed
        or config["market"]["episodes"] != market["episodes"]
        or config["market"]["weeks_per_episode"] != market["weeks_per_episode"]
    ):
        problems.append("manifest: config does not match the spec")

    hashes = (
        f"sha256 {run_dir.name} history.csv {hashlib.sha256(history).hexdigest()}"
        f" metrics.json {hashlib.sha256(metrics).hexdigest()}"
    )
    return [f"{run_dir.name}: {p}" for p in problems], hashes


@dataclass
class Experiment:
    weeks: int = 0
    seconds: float = 0.0  # wall time inside run_experiment, less probe samples
    speed: float = 1.0  # mean probe speed during the experiment
    attempted: int = 0
    failed: int = 0
    hashes: list[str] = field(default_factory=list)

    @property
    def ref_seconds(self) -> float:
        """`seconds` rescaled to the reference CPU speed."""
        return self.seconds * self.speed


def _rate(weeks: float, seconds: float) -> float:
    return weeks / seconds if seconds else 0.0


def run_experiment(w: Workload, market_seed: int, probe: SpeedProbe) -> Experiment:
    """Run each of the workload's configs once with jobs=1, then check the output."""
    from pricebench import harness

    exp = Experiment()
    probe.sample()
    first_sample = len(probe.took) - 1
    for cid in w.configs:
        spec_d = spec_dict(cid, w, market_seed)
        spec = harness.ExperimentSpec.from_dict(spec_d)
        out = Path(tempfile.mkdtemp(dir=WORK_DIR))
        exp.attempted += w.n_runs
        failed = 0
        try:
            spent = probe.spent
            t0 = time.perf_counter()
            results = harness.run_experiment(spec, out, jobs=1)
            exp.seconds += time.perf_counter() - t0 - (probe.spent - spent)
            exp.weeks += w.n_runs * w.episodes * w.weeks
            if len(results) != w.n_runs:
                raise RuntimeError(f"{len(results)} results for {w.n_runs} runs")
            for i, (manifest, _) in enumerate(results):
                problems, hashes = check_run(spec_d, i, out / manifest.run_id)
                exp.hashes.append(hashes)
                if problems:
                    failed += 1
                    print("\n".join(problems), file=sys.stderr)
        except Exception:
            # a broken program must be reported as failed runs, not end the benchmark
            traceback.print_exc()
            failed = w.n_runs
        finally:
            shutil.rmtree(out, ignore_errors=True)
        exp.failed += failed
    probe.sample()
    exp.speed = probe.speed_since(first_sample)
    return exp


# -- measurement ------------------------------------------------------------------


def environment_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    tasks = Path("/proc/self/task")
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": len(os.listdir(tasks)) if tasks.is_dir() else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def measure_untraced(w: Workload, seeds, seconds: float) -> tuple[list[Experiment], dict]:
    """Run experiments until the next one would end after `seconds`; at least one."""
    experiments = []
    probe = SpeedProbe()
    start = time.perf_counter()
    last = 0.0
    with probe.ticking():
        while not experiments or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            experiments.append(run_experiment(w, next(seeds), probe))
            last = time.perf_counter() - t0
            if len(experiments) == 1:
                # the first experiment's peak: later ones add allocator slack
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "weeks_per_s": statistics.median(_rate(e.weeks, e.ref_seconds) for e in experiments),
        "raw_weeks_per_s": statistics.median(_rate(e.weeks, e.seconds) for e in experiments),
        "peak_rss_mb": peak_rss_mb,
    }
    return experiments, metrics


def measure_traced(w: Workload, seeds, trace_path: Path) -> tuple[list[Experiment], dict]:
    """The same fixed experiments untraced, then traced; per-layer metrics."""
    from tracer import Tracer

    market_seeds = [next(seeds) for _ in range(w.trace_experiments)]
    # no timer samples here: they would land inside spans
    probe = SpeedProbe()
    untraced = [run_experiment(w, s, probe) for s in market_seeds]
    tracer = Tracer()
    with tracer.installed():
        traced = [run_experiment(w, s, probe) for s in market_seeds]
    tracer.dump(trace_path)

    metrics = tracer.layer_metrics()
    plain = _rate(sum(e.weeks for e in untraced), sum(e.ref_seconds for e in untraced))
    with_trace = _rate(sum(e.weeks for e in traced), sum(e.ref_seconds for e in traced))
    metrics["trace.untraced_weeks_per_s"] = plain
    metrics["trace.traced_weeks_per_s"] = with_trace
    metrics["trace.overhead_weeks_per_s"] = with_trace - plain

    for a, b in zip(untraced, traced):
        if a.hashes != b.hashes:
            print("traced run wrote different artifact bytes", file=sys.stderr)
            b.failed = b.attempted
    adam_steps = metrics["nn.adam_step.calls"]
    if (adam_steps > 0) != w.trains:
        print(f"{adam_steps:.0f} Adam steps, expected {'some' if w.trains else 'none'}",
              file=sys.stderr)
        for e in traced:
            e.failed = e.attempted
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    seeds = experiment_seeds(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(measure_setup(w, next(seeds))))
        return 0

    import pricebench

    src = ROOT / "src"
    if src not in Path(pricebench.__file__).resolve().parents:
        print(f"pricebench imported from {pricebench.__file__}, not {src}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    result = {}
    if args.trace:
        from tracer import LAYER_METRICS

        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        experiments, metrics = measure_traced(w, seeds, trace_path)
        result["units"] = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        experiments, metrics = measure_untraced(w, seeds, args.seconds)
    for e in experiments:
        print("\n".join(e.hashes))
    attempted = sum(e.attempted for e in experiments)
    failed = sum(e.failed for e in experiments)
    result.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        experiments=len(experiments),
        environment=environment_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
