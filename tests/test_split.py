"""Team passes and Adam steps split over two threads give the serial bytes.

`nn` splits a large team pass by member halves, and a large Adam step by
element halves, between the caller and one worker thread.
Each half issues the same BLAS calls and ufuncs on the same data as the
serial pass, so every test here compares the two paths bit for bit. The
split is forced on or off through the module's CPU count and thresholds.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from pricebench import nn
from pricebench.market import derive_rng
from pricebench.nn import CHUNK, Adam, DenseNet, TrainingError
from tests.test_golden_bytes import _golden, _spec, artifact_hashes

ROOT = Path(__file__).resolve().parent.parent
# the back-off tests need the worker to take halves, which it does only on a second CPU
needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")


def _force(monkeypatch, split: bool) -> None:
    """Every pass that can split splits (split=True), or none does."""
    monkeypatch.setattr(nn, "_cpus", 2 if split else 1)
    for name in ("SPLIT_MIN_PASS", "SPLIT_MIN_ADAM"):
        monkeypatch.setattr(nn, name, 0)


def _compute(seconds: float) -> None:
    """Keep this thread's CPU busy for `seconds`, mostly outside the interpreter lock."""
    a = np.ones((96, 96))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ a


def _pass(mine, theirs) -> None:
    """One pass as the nets run it: in halves on two threads when nn says so."""
    if nn._splits(1, 0):
        nn._in_halves(mine, theirs)
    else:
        mine()
        theirs()


def _use_fresh_worker(monkeypatch) -> None:
    """A fresh worker that the nets' passes use, its back-offs a minute long."""
    worker = nn._Worker()
    monkeypatch.setattr(worker, "BACKOFF_S", 60.0)
    monkeypatch.setattr(nn, "_worker", worker)
    monkeypatch.setattr(nn, "_cpus", 2)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _team(sizes, acts, members, seed=0):
    rng = derive_rng(seed, "split-team")
    return DenseNet.team([DenseNet(sizes, acts, rng) for _ in range(members)])


NETS = {
    "maddpg_critic": ([260, 128, 64, 1], ["relu", "relu", "linear"]),
    "maddpg_actor": ([60, 64, 64, 5], ["relu", "relu", "tanh"]),
    "q_net": ([60, 128, 64, 32, 105], ["relu", "relu", "relu", "linear"]),
    "tanh-linear-relu": ([9, 7, 6, 3], ["tanh", "linear", "relu"]),
}


def _passes(monkeypatch, split, net_name, members, shared, params, inputs, batch=37):
    """Output, cache, grads and input grad of one forward and one backward."""
    _force(monkeypatch, split)
    sizes, acts = NETS[net_name]
    team = _team(sizes, acts, members)
    rng = derive_rng(21, "split-pass", net_name, members, shared)
    x = rng.normal(size=(batch, sizes[0]) if shared else (members, batch, sizes[0])) * 2.0
    up = rng.normal(size=(members, batch, sizes[-1]))
    up[..., 0] = -0.0  # a signed zero meets dead relu units and linear layers
    y, cache = team.forward_cached(x)
    grads, input_grad = team.backward(cache, up, params=params, inputs=inputs)
    copy = lambda a: None if a is None else a.copy()  # noqa: E731
    return (y.copy(), [a.copy() for a in cache["post"]],
            None if grads is None else team.grad.copy(), copy(input_grad))


@pytest.mark.parametrize("net_name", NETS)
@pytest.mark.parametrize("members", [4, 3])  # 3: the halves hold 1 and 2 members
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-member"])
@pytest.mark.parametrize("params", [True, False])
@pytest.mark.parametrize("inputs", [True, False])
def test_team_passes_split_equal_serial(monkeypatch, net_name, members, shared, params, inputs):
    serial = _passes(monkeypatch, False, net_name, members, shared, params, inputs)
    split = _passes(monkeypatch, True, net_name, members, shared, params, inputs)
    for a, b in zip(serial, split):
        if isinstance(a, list):
            assert all(_same_bits(x, y) for x, y in zip(a, b))
        else:
            assert (a is None and b is None) or _same_bits(a, b)


def _adam_run(monkeypatch, split, sizes, steps=4):
    _force(monkeypatch, split)
    rng = derive_rng(22, "split-adam")
    params = [rng.normal(size=n) for n in sizes]
    opt = Adam(params)
    for _ in range(steps):
        opt.step(params, [rng.normal(size=n) for n in sizes], lr=0.01)
    return params + opt.m + opt.v


@pytest.mark.parametrize(
    "sizes",
    [
        (4 * 21_609, 46_513),  # QMIX's [nets.flat, mixer.flat]
        (2 * CHUNK + 7, 3 * CHUNK + 1),  # odd, and not a multiple of CHUNK
        (5, 1),
    ],
)
def test_adam_split_equals_serial(monkeypatch, sizes):
    serial = _adam_run(monkeypatch, False, sizes)
    split = _adam_run(monkeypatch, True, sizes)
    assert all(_same_bits(a, b) for a, b in zip(serial, split))


@pytest.mark.parametrize("config_id", ["B", "C", "F"])
@pytest.mark.parametrize("split", [False, True], ids=["split-off", "split-on"])
def test_training_bytes_with_split_off_and_on(monkeypatch, tmp_path, config_id, split):
    _force(monkeypatch, split)
    assert artifact_hashes(_spec("training", config_id), tmp_path) == _golden("training", config_id)


class TestWorker:
    def test_worker_error_is_raised_on_the_caller_after_both_halves(self, monkeypatch):
        _force(monkeypatch, True)
        done = []

        def mine():
            time.sleep(0.01)
            done.append("mine")

        def theirs():
            raise ValueError("from the worker's half")

        for _ in range(3):  # the worker thread takes the half or the caller does
            with pytest.raises(ValueError, match="worker's half"):
                nn._in_halves(mine, theirs)
            assert done.pop() == "mine"
        ran = []
        nn._in_halves(lambda: ran.append(1), lambda: ran.append(2))
        assert sorted(ran) == [1, 2]

    @needs_two_cpus
    def test_a_lagging_worker_is_left_out_for_a_while(self, monkeypatch):
        _use_fresh_worker(monkeypatch)
        on_caller = []

        def theirs():  # ends later than the caller could have run both halves
            time.sleep(0.006)
            on_caller.append(threading.current_thread() is threading.main_thread())

        for _ in range(48):
            _pass(lambda: _compute(0.002), theirs)
        assert on_caller.count(False) >= 32, "the worker took too few halves to show its lag"
        assert all(on_caller[-10:]), "the caller kept handing halves to a lagging worker"

    @needs_two_cpus
    def test_a_worker_on_a_shared_cpu_costs_no_time(self, monkeypatch):
        # On a CPU it shares, the thread runs most halves at full speed and
        # stalls for a time slice now and then: here every fourth of its
        # halves takes 8x as long. Most of its halves still end before the
        # caller's, so only the time they cost shows the stalls.
        _use_fresh_worker(monkeypatch)
        half_s, taken = 0.002, []

        def mine():
            _compute(half_s)

        def theirs():
            on_worker = threading.current_thread() is not threading.main_thread()
            taken.append(on_worker)
            stalled = on_worker and taken.count(True) % 4 == 0
            time.sleep(half_s * (8 if stalled else 1))

        start = time.perf_counter()
        for _ in range(256):
            mine()
            theirs()
        serial_s = time.perf_counter() - start
        taken.clear()
        start = time.perf_counter()
        for _ in range(256):
            _pass(mine, theirs)
        split_s = time.perf_counter() - start
        assert taken.count(True) >= 32, "the worker took too few halves to show its stalls"
        assert not any(taken[-64:]), "the caller kept the split on"
        # the 32 splits the rule needs before it may back off cost about 6 %;
        # kept on, the split would take about 1.4x the serial time
        assert split_s < 1.15 * serial_s, f"split {split_s:.3f} s against serial {serial_s:.3f} s"

    @needs_two_cpus
    def test_a_caller_on_a_shared_cpu_is_left_serial(self, monkeypatch):
        # When every CPU is oversubscribed (two split runs on two CPUs), the
        # caller's half runs at part speed too, and the halves end together.
        # Here the caller computes for half of its half's wall time.
        _use_fresh_worker(monkeypatch)
        taken = []

        def mine():
            _compute(0.001)
            time.sleep(0.001)

        def theirs():
            taken.append(threading.current_thread() is not threading.main_thread())
            time.sleep(0.002)

        for _ in range(96):
            _pass(mine, theirs)
        assert taken.count(True) >= 32, "the worker took too few halves to show the sharing"
        assert not any(taken[-32:]), "the caller kept the split on"

    def test_every_half_runs_once_under_contention(self, monkeypatch):
        monkeypatch.setattr(nn, "_worker", None)  # the callers race to start the worker
        ran = []  # list.append is atomic, so a lost or doubled half shows in the tally

        def caller(k):
            for i in range(300):
                nn._in_halves(lambda: ran.append((k, i, 0)), lambda: ran.append((k, i, 1)))

        def workers():
            return sum(thread.name == "pricebench-nn" for thread in threading.enumerate())

        before = workers()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(4)]  # > CPUs
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(previous)
        assert sorted(ran) == sorted((k, i, half) for k in range(4) for i in range(300) for half in (0, 1))
        assert workers() == before + 1, "racing callers started more than one worker"

    def test_non_finite_gradient_in_the_second_half(self, monkeypatch):
        _force(monkeypatch, True)
        rng = derive_rng(23, "split-nan")
        sizes = (4 * 21_609, 46_513)
        params = [rng.normal(size=n) for n in sizes]
        reference = [p.copy() for p in params]
        opt, ref_opt = Adam(params), Adam(reference)
        before = [a.copy() for a in params + opt.m + opt.v]
        grads = [rng.normal(size=n) for n in sizes]
        bad = [g.copy() for g in grads]
        bad[0][-3] = np.nan  # in the worker's element half
        with pytest.raises(TrainingError):
            opt.step(params, bad, lr=0.01)
        assert opt.t == 0
        assert all(_same_bits(a, b) for a, b in zip(before, params + opt.m + opt.v))
        opt.step(params, grads, lr=0.01)  # the next step works
        monkeypatch.setattr(nn, "_cpus", 1)
        ref_opt.step(reference, grads, lr=0.01)
        assert all(_same_bits(a, b) for a, b in zip(params + opt.m, reference + ref_opt.m))


class TestProcesses:
    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        _force(monkeypatch, True)
        nn._in_halves(lambda: None, lambda: None)  # the parent's worker is running
        assert nn._worker is not None
        pid = os.fork()
        if pid == 0:  # child: no worker inherited, and a split completes
            ok = nn._worker is None
            ran = []
            nn._in_halves(lambda: ran.append(1), lambda: ran.append(2))
            os._exit(0 if ok and sorted(ran) == [1, 2] else 1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its split")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_jobs_after_in_process_training(self, monkeypatch, tmp_path):
        # the parent trains B first, so its worker thread exists when the pool forks
        monkeypatch.setattr(nn, "_cpus", 2)
        children = tmp_path / "children.txt"
        parent = os.getpid()
        split = nn._in_halves

        def recording(mine, theirs):
            if os.getpid() != parent:
                with open(children, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
            split(mine, theirs)

        monkeypatch.setattr(nn, "_in_halves", recording)
        assert artifact_hashes(_spec("training", "B"), tmp_path / "serial") == _golden("training", "B")
        assert nn._worker is not None

        def timeout(signum, frame):
            raise TimeoutError("run_experiment(jobs=2) did not finish")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(300)
        try:
            hashes = artifact_hashes(_spec("training", "B"), tmp_path / "jobs", jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert hashes == _golden("training", "B")
        assert not children.exists(), "a --jobs child split a pass over a second thread"


DESK_THREADS = """
import threading
before = threading.active_count()
import tempfile
from pathlib import Path
from pricebench.harness import CONFIG_MATRIX, desk_spec, run_experiment
with tempfile.TemporaryDirectory() as tmp:
    for config_id in CONFIG_MATRIX:
        run_experiment(desk_spec(config_id), Path(tmp) / config_id)
print(before, threading.active_count())
"""


def test_import_and_desk_matrix_start_no_thread():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run(
        [sys.executable, "-c", DESK_THREADS], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    before, after = map(int, run.stdout.split())
    assert after == before
