"""Artifact writing: canonical JSON, the versioned table layout, and writes
that replace a file only once complete, checked for every writer."""

import errno
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from riskhorizon.artifacts import canonical_json, write_json, write_table


def test_canonical_json_sorts_keys_and_drops_whitespace():
    assert canonical_json({"b": [1, 2.5], "a": {"d": None, "c": "x"}}) == (
        '{"a":{"c":"x","d":null},"b":[1,2.5]}'
    )


def test_write_table_formats_integers_in_decimal_and_floats_as_twelve_digits(tmp_path):
    rows = [(1, 0.1, np.int64(7), np.float64(1 / 3)), (10**13, 2.0, -0, float("nan"))]
    write_table(tmp_path / "t.tsv", "demo", ["a", "b", "c", "d"], rows)
    assert (tmp_path / "t.tsv").read_text() == (
        "# riskhorizon-demo v1\n"
        "a\tb\tc\td\n"
        "1\t0.1\t7\t0.333333333333\n"
        "10000000000000\t2\t0\tnan\n"
    )


def test_write_table_with_no_rows_keeps_both_header_lines(tmp_path):
    write_table(tmp_path / "t.tsv", "demo", ["a"], [])
    assert (tmp_path / "t.tsv").read_text() == "# riskhorizon-demo v1\na\n"


def test_replacing_replaces_a_symlink_instead_of_writing_through_it(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("kept\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_json(link, {"a": 1})
    assert not link.is_symlink()
    assert link.read_text() == '{"a":1}\n'
    assert target.read_text() == "kept\n"


# Every artifact writer, called once on small inputs in a process whose file
# size limit is FULL_DISK_BYTES, as on a disk that fills up mid-write. SIGXFSZ
# is ignored, so an oversize write fails with an OSError instead of killing
# the process. Prints {writer: error message} as JSON.
FULL_DISK_BYTES = 16
FULL_DISK = """
import json, resource, signal, sys
from pathlib import Path

import numpy as np

from riskhorizon.envs import ChainWorld, ChainWorldSpec, generate_episodes
from riskhorizon.episodes import save_episodes
from riskhorizon.evaluation import (
    CharacteristicCurves, DetectionTable, EvalReport, write_characteristic, write_detection,
    write_head_metrics, write_oracle_errors, write_summary,
)
from riskhorizon.network import (
    AdamState, Checkpoint, EpochMetrics, EstimatorConfig, LossWeights, MultiHeadEstimator,
    save_checkpoint,
)
from riskhorizon.oracle import dp_cumulative, write_oracle_table
from riskhorizon.returns import HorizonConfig
from riskhorizon.training import write_metric_log

root, limit = Path(sys.argv[1]), int(sys.argv[2])
spec = ChainWorldSpec(n_states=2, hazard=(0.1, 0.3), transition=((0.5, 0.5), (0.5, 0.5)),
                      start_distribution=(0.5, 0.5))
corpus, _ = generate_episodes(ChainWorld(spec, max_steps=10), 4, 1)
horizon = HorizonConfig(delta_t=0.1, n_heads=2, lam=0.5, trunc_n=2)
estimator = MultiHeadEstimator(EstimatorConfig(input_dim=2, n_heads=2, backbone_layers=(4,),
                                               head_layers=(2, 1)))
epoch = EpochMetrics(epoch=0, lr=1e-3, loss=0.5, loss_mse=0.25, loss_interval=0.125,
                     loss_chain=0.0625, acc_per_head=(0.1, 0.2), pes_mean=-0.01)
report = EvalReport(acc=np.array([0.1, 0.2]), pes=np.array([0.0, -0.1]), counts=np.array([3, 2]))
curves = CharacteristicCurves(offsets_s=np.array([0.2, 0.1]), per_episode=np.zeros((0, 2)),
                              mean=np.array([0.3, 0.4]), skipped=0)
detection = DetectionTable((0.1,), ((0.0, 0.4),), np.array([[0.5]]), 2)
writers = {
    "episodes": lambda p: save_episodes(p, corpus, "abc"),
    "checkpoint": lambda p: save_checkpoint(p, Checkpoint(
        estimator, horizon, LossWeights(), AdamState.zeros(estimator), epochs_completed=1,
        sampler=np.random.PCG64(1).state, metrics=[epoch])),
    "metric_log": lambda p: write_metric_log(p, [epoch], 2),
    "head_metrics": lambda p: write_head_metrics(p, report),
    "characteristic": lambda p: write_characteristic(p, curves),
    "detection": lambda p: write_detection(p, detection),
    "oracle_errors": lambda p: write_oracle_errors(p, np.full((2, 2), 0.25)),
    "summary": lambda p: write_summary(p, {"episodes": 4, "acc_per_head": [0.1, 0.2]}),
    "oracle_table": lambda p: write_oracle_table(p, dp_cumulative(spec, 2)),
}
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
errors = {}
for name, write in writers.items():
    try:
        write(root / name / "artifact")
        errors[name] = ""
    except OSError as exc:
        errors[name] = str(exc)
print(json.dumps(errors))
"""
WRITERS = ["episodes", "checkpoint", "metric_log", "head_metrics", "characteristic",
           "detection", "oracle_errors", "summary", "oracle_table"]
PREVIOUS = b"bytes of the previous run\n"


@pytest.fixture(scope="module")
def full_disk(tmp_path_factory):
    root = tmp_path_factory.mktemp("full-disk")
    for name in WRITERS:
        (root / name).mkdir()
        (root / name / "artifact").write_bytes(PREVIOUS)
    result = subprocess.run([sys.executable, "-c", FULL_DISK, str(root), str(FULL_DISK_BYTES)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return root, json.loads(result.stdout)


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs POSIX file size limits")
@pytest.mark.parametrize("writer", WRITERS)
def test_a_full_disk_keeps_the_existing_artifact(full_disk, writer):
    root, errors = full_disk
    assert os.strerror(errno.EFBIG) in errors[writer]
    assert (root / writer / "artifact").read_bytes() == PREVIOUS
    assert sorted(p.name for p in (root / writer).iterdir()) == ["artifact"]
