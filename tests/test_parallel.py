"""Rolling seeds together: the episodes and the file bytes written from a
pool of seeds rolled in one lockstep batch equal those of each seed rolled on
its own, rolling works inside a caller's own worker process, an interrupted
or failed write leaves no partial file, and the CPU count does not show in
the output."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from riskhorizon import envs
from riskhorizon.envs import (
    ChainWorld,
    CorridorWorld,
    generate_episodes,
    world_fingerprint,
)
from riskhorizon.episodes import save_episodes

CORRIDOR_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "corridor_default.json"

WORLDS = {
    "chain": (ChainWorld(n_states=3, hazard=(0.05, 0.1, 0.3),
                         transition=((0.6, 0.4, 0.0), (0.3, 0.4, 0.3), (0.0, 0.5, 0.5)),
                         start_distribution=(0.5, 0.3, 0.2), max_steps=30, stack_frames=2), 60),
    "corridor": (CorridorWorld(max_steps=120, spawn_rate=3.0, stack_frames=3), 12),
}


@pytest.fixture
def serial(monkeypatch):
    """Every seed is rolled on its own."""

    monkeypatch.setattr(envs, "ROLLOUT_BATCH", 1)


@pytest.fixture
def pool(monkeypatch):
    """Every seed of a corpus is rolled in one lockstep batch."""

    monkeypatch.setattr(envs, "ROLLOUT_BATCH", envs.MAX_EPISODES)


def roll(kind, seed=3):
    world, count = WORLDS[kind]
    return generate_episodes(world, count, seed), world_fingerprint(world)


def assert_same_corpus(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.seed == b.seed and a.terminal is b.terminal
        assert a.observations.shape == b.observations.shape
        assert a.observations.tobytes() == b.observations.tobytes()


@pytest.mark.parametrize("kind", sorted(WORLDS))
def test_pool_rolls_the_serial_episodes(kind, request):
    request.getfixturevalue("serial")
    (want, want_summary), _ = roll(kind)
    request.getfixturevalue("pool")
    (got, got_summary), _ = roll(kind)
    # The episodes end on different steps, so the pool's batch shrinks as it rolls.
    assert len({ep.steps for ep in got}) > 1
    assert_same_corpus(got, want)
    assert got_summary == want_summary


@pytest.mark.parametrize("kind", sorted(WORLDS))
def test_pool_writes_the_serial_bytes(kind, tmp_path, request):
    request.getfixturevalue("serial")
    (corpus, _), fp = roll(kind)
    save_episodes(tmp_path / "serial.jsonl", corpus, fp)
    request.getfixturevalue("pool")
    (corpus, _), fp = roll(kind)
    save_episodes(tmp_path / "pool.jsonl", corpus, fp)
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


def roll_in_this_process(kind):
    (corpus, _), _ = roll(kind)
    return os.getpid(), corpus


def test_rolling_inside_a_pool_worker_stays_in_that_worker():
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
# process group while the observations of a corpus are written.
INTERRUPTED_SAVE = """
import os, signal, sys, time
import numpy as np
from riskhorizon import episodes
from riskhorizon.envs import ChainWorld, generate_episodes

world = ChainWorld(n_states=2, hazard=(0.1, 0.2), transition=((0.5, 0.5), (0.5, 0.5)),
                   start_distribution=(0.5, 0.5), max_steps=20)
corpus, _ = generate_episodes(world, 64, 1)
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
        # A hung run would be left behind: stop the whole process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert out.strip() == "interrupted", err
    assert "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == []


# gen as the CLI runs it; "pin" first restricts the process to one CPU by its
# own affinity mask.
GEN = (
    "import os, sys; from riskhorizon.cli import main; "
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
