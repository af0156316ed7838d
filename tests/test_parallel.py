"""Rolling on a worker pool: the episodes and the file bytes written from
them equal the serial path's, errors reach the caller, an interrupted or
failed write leaves no partial file, and the CPU count does not show in the
output."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from riskhorizon import envs, parallel
from riskhorizon.envs import (
    ChainWorld,
    ChainWorldSpec,
    CorridorWorld,
    CorridorWorldSpec,
    generate_episodes,
    world_fingerprint,
)
from riskhorizon.episodes import save_episodes

CORRIDOR_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "corridor_default.json"

CHAIN = ChainWorldSpec(
    n_states=3,
    hazard=(0.05, 0.1, 0.3),
    transition=((0.6, 0.4, 0.0), (0.3, 0.4, 0.3), (0.0, 0.5, 0.5)),
    start_distribution=(0.5, 0.3, 0.2),
)

WORLDS = {
    "chain": (lambda: ChainWorld(CHAIN, max_steps=30, stack_frames=2), 60),
    "corridor": (lambda: CorridorWorld(CorridorWorldSpec(max_steps=120), stack_frames=3), 12),
}


class WorkerFailure(RuntimeError):
    """Raised inside a worker; must reach the caller as itself."""


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(parallel, "POOL_MIN_ROWS", 10**12)


@pytest.fixture
def pool(monkeypatch):
    """Every job goes to a two-worker pool, whatever its size or the host."""

    monkeypatch.setattr(parallel, "POOL_MIN_ROWS", 0)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


@pytest.fixture
def ran_in_workers(monkeypatch, tmp_path_factory):
    """Whether rolling ran only outside this process since the last call.
    The patched function leaves one file per process it ran in; it is
    patched before any pool forks, so workers inherit the patch."""

    seen = tmp_path_factory.mktemp("pids")

    def tagged(fn):
        def run(*args):
            (seen / str(os.getpid())).touch()
            return fn(*args)

        return run

    monkeypatch.setattr(envs, "run_episode", tagged(envs.run_episode))

    def check() -> bool:
        pids = set()
        for p in seen.iterdir():
            pids.add(int(p.name))
            p.unlink()
        return bool(pids) and os.getpid() not in pids

    return check


def roll(kind, seed=3):
    make, count = WORLDS[kind]
    world = make()
    return generate_episodes(world, count, seed), world_fingerprint(world)


def assert_same_corpus(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.seed == b.seed and a.terminal is b.terminal
        assert a.observations.shape == b.observations.shape
        assert a.observations.tobytes() == b.observations.tobytes()


@pytest.mark.parametrize("kind", sorted(WORLDS))
def test_pool_rolls_the_serial_episodes(kind, request, ran_in_workers):
    request.getfixturevalue("serial")
    (want, want_summary), _ = roll(kind)
    assert not ran_in_workers()
    request.getfixturevalue("pool")
    (got, got_summary), _ = roll(kind)
    assert ran_in_workers()
    assert_same_corpus(got, want)
    assert got_summary == want_summary


@pytest.mark.parametrize("kind", sorted(WORLDS))
def test_pool_writes_the_serial_bytes(kind, tmp_path, request, ran_in_workers):
    request.getfixturevalue("serial")
    (corpus, _), fp = roll(kind)
    save_episodes(tmp_path / "serial.jsonl", corpus, fp)
    assert not ran_in_workers()
    request.getfixturevalue("pool")
    (corpus, _), fp = roll(kind)
    save_episodes(tmp_path / "pool.jsonl", corpus, fp)
    assert ran_in_workers()
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


def test_map_ranges_yields_every_range_in_order(pool):
    for n in (1, 2, 7, 16, 17, 100):
        got = []
        parallel.map_ranges(lambda lo, hi: list(range(lo, hi)), n, 0, got.extend)
        assert got == list(range(n))


def test_pool_workers_ignore_sigint(pool):
    # In this process SIGINT raises KeyboardInterrupt, so True means a worker.
    got = []
    parallel.map_ranges(lambda lo, hi: [signal.getsignal(signal.SIGINT) == signal.SIG_IGN],
                        4, 0, got.extend)
    assert got == [True] * 4


def exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def test_pool_workers_die_on_sigterm_whatever_the_caller_handles(pool):
    # Stopping a pool sends SIGTERM to workers that may still be exiting; one
    # that inherited this handler raised inside its exit and could hang there.
    previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        got = []
        parallel.map_ranges(lambda lo, hi: [signal.getsignal(signal.SIGTERM) == signal.SIG_DFL],
                            4, 0, got.extend)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert got == [True] * 4


# A pool stopped while its second worker is still starting up: the first
# worker does all the work, then stopping the pool sends SIGTERM to a worker
# that has not yet set its own handlers, under a caller's handler that raises.
STOPPED_DURING_STARTUP = """
import os, signal, time
from riskhorizon import parallel

parallel.POOL_MIN_ROWS = 0
parallel.usable_cpus = lambda: 2

def exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)

forks = 0

def count_forks():
    global forks
    forks += 1

def second_worker_starts_slowly():
    if forks == 2:
        time.sleep(1)

os.register_at_fork(before=count_forks, after_in_child=second_worker_starts_slowly)
signal.signal(signal.SIGTERM, exit_on_sigterm)
got = []
parallel.map_ranges(lambda lo, hi: list(range(lo, hi)), 4, 0, got.extend)
print(got)
"""


def test_a_pool_stopped_while_a_worker_starts_up_does_not_wait_on_it():
    proc = subprocess.Popen([sys.executable, "-c", STOPPED_DURING_STARTUP],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        # A hung run leaves workers behind: stop the whole process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert out.strip() == "[0, 1, 2, 3]", err
    assert err == ""


def test_a_rolling_error_in_a_worker_reaches_the_caller(pool):
    class FailingWorld:
        max_steps = 10

        def reset(self, seed):
            raise WorkerFailure(f"seed {seed} in process {os.getpid()}")

    with pytest.raises(WorkerFailure) as info:
        generate_episodes(FailingWorld(), 8, 1)
    assert f"process {os.getpid()}" not in str(info.value)


def roll_in_this_process(kind):
    (corpus, _), _ = roll(kind)
    return os.getpid(), corpus


def test_rolling_inside_a_pool_worker_stays_in_that_worker(pool):
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(1) as outer:
        pid, got = outer.apply(roll_in_this_process, ("corridor",))
    assert pid != os.getpid()
    assert_same_corpus(got, roll_in_this_process("corridor")[1])


@pytest.mark.parametrize("mode", ["serial", "pool"])
def test_a_failed_write_keeps_the_existing_file(mode, tmp_path, request):
    request.getfixturevalue(mode)
    (corpus, _), fp = roll("chain")
    path = tmp_path / "eps.jsonl"
    save_episodes(path, corpus[:5], fp)
    before = path.read_bytes()
    corpus[-1].seed = "not a seed"  # int() fails while the seeds are packed
    with pytest.raises(ValueError, match="not a seed"):
        save_episodes(path, corpus, fp)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eps.jsonl"]


# A process that interrupts itself the way Ctrl-C does: SIGINT to its whole
# process group while the observations of a corpus rolled on a pool are
# written.
INTERRUPTED_SAVE = """
import os, signal, sys, time
import numpy as np
from riskhorizon import episodes, parallel
from riskhorizon.envs import ChainWorld, ChainWorldSpec, generate_episodes

parallel.POOL_MIN_ROWS = 0
parallel.usable_cpus = lambda: 2
spec = ChainWorldSpec(n_states=2, hazard=(0.1, 0.2), transition=((0.5, 0.5), (0.5, 0.5)),
                      start_distribution=(0.5, 0.5))
corpus, _ = generate_episodes(ChainWorld(spec, max_steps=20), 64, 1)
write_header = np.lib.format.write_array_header_1_0

def interrupting(fp, header):
    if len(header["shape"]) == 2:
        os.killpg(os.getpgid(0), signal.SIGINT)
        time.sleep(5)
    return write_header(fp, header)

np.lib.format.write_array_header_1_0 = interrupting
try:
    episodes.save_episodes(sys.argv[1], corpus, "abc")
except KeyboardInterrupt:
    print("interrupted")
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_an_interrupted_save_leaves_no_file_and_no_worker_tracebacks(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_SAVE, str(tmp_path / "eps.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        # A hung run leaves workers behind: stop the whole process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert out.strip() == "interrupted", err
    assert "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == []


# gen as the CLI runs it, with every job sent to a pool where more than one
# CPU is usable; "pin" first restricts the process to one CPU by its own
# affinity mask, which leaves the serial path.
GEN = (
    "import os, sys; from riskhorizon import parallel; from riskhorizon.cli import main; "
    "parallel.POOL_MIN_ROWS = 0; "
    "sys.argv[1] == 'pin' and os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    "raise SystemExit(main(sys.argv[2:]))"
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_gen_pinned_to_one_cpu_writes_the_same_bytes(tmp_path):
    args = ["gen", "--config", str(CORRIDOR_CONFIG), "--episodes", "12", "--out"]
    for mode in ("pin", "free"):
        result = subprocess.run([sys.executable, "-c", GEN, mode, *args, str(tmp_path / mode)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "pin").read_bytes() == (tmp_path / "free").read_bytes()
