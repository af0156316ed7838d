"""End-to-end command line checks, run through subprocesses like a user
would: exit codes, printed summaries, and the files each command leaves
behind. Exit codes for malformed input are checked through `cli.main` in
this process, which prints what a subprocess would print."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskhorizon
from riskhorizon.cli import main
from riskhorizon.episodes import Terminal
from riskhorizon.network import EstimatorConfig, param_layout

CHAIN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "chain_small.json"
CORRIDOR_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "corridor_default.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "riskhorizon", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def run_main(capsys, *args):
    """(exit code, stderr) of `riskhorizon *args` run in this process."""

    code = main([str(a) for a in args])
    return code, capsys.readouterr().err


def listing(directory):
    """Every file name in `directory`, hidden temporary files included."""

    return sorted(p.name for p in directory.iterdir())


class Whole(dict):
    """A config section that replaces the base section instead of merging into it."""


def write_config(path, overrides=None):
    """chain_small.json shrunk to seconds of work; overrides merge per section
    unless wrapped in `Whole`."""

    doc = json.loads(CHAIN_CONFIG.read_text())
    doc["gen"]["count"] = 30
    doc["horizon"].update({"n_heads": 3, "trunc_n": 2})
    doc["estimator"] = {"backbone_layers": [8], "head_layers": [4, 1]}
    doc["train"].update(
        {"epochs": 2, "samples_per_epoch": 200, "batch_size": 16,
         "lr_start": 3e-3, "lr_end": 3e-4}
    )
    for section, fields in (overrides or {}).items():
        if isinstance(fields, dict) and not isinstance(fields, Whole):
            doc.setdefault(section, {}).update(fields)
        else:
            doc[section] = fields
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen -> train -> eval run shared by the happy-path assertions."""

    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root / "cfg.json")
    gen = run_cli("gen", "--config", cfg, "--out", root / "eps.jsonl")
    train = run_cli(
        "train", "--config", cfg, "--episodes", root / "eps.jsonl", "--out", root / "run"
    )
    ev = run_cli(
        "eval",
        "--checkpoint", root / "run" / "checkpoint.json",
        "--episodes", root / "eps.jsonl",
        "--out", root / "reports",
        "--config", cfg,
    )
    return {"root": root, "cfg": cfg, "gen": gen, "train": train, "eval": ev}


# --- global interface -------------------------------------------------------


def test_help_exits_clean():
    result = run_cli("--help")
    assert result.returncode == 0
    for command in ("gen", "train", "eval", "oracle"):
        assert command in result.stdout


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.startswith("riskhorizon ")


def test_every_exported_name_resolves():
    assert sorted(set(riskhorizon.__all__)) == sorted(riskhorizon.__all__)
    for name in riskhorizon.__all__:
        assert getattr(riskhorizon, name) is not None, name


def test_missing_subcommand_is_a_usage_error():
    result = run_cli()
    assert result.returncode == 1
    assert "error" in result.stderr


def test_unknown_flag_is_a_usage_error(tmp_path):
    result = run_cli("gen", "--config", "x.json", "--out", "y", "--frobnicate")
    assert result.returncode == 1


# --- gen ---------------------------------------------------------------------


def test_gen_reports_corpus_shape(pipeline):
    assert pipeline["gen"].returncode == 0
    assert "wrote 30 episodes" in pipeline["gen"].stdout
    assert "fraction" in pipeline["gen"].stdout


def test_gen_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    for name in ("a.jsonl", "b.jsonl"):
        assert run_cli("gen", "--config", cfg, "--out", tmp_path / name).returncode == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert listing(tmp_path) == ["a.jsonl", "b.jsonl", "cfg.json"]


def test_gen_seed_override_changes_the_corpus(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    run_cli("gen", "--config", cfg, "--out", tmp_path / "a.jsonl")
    run_cli("gen", "--config", cfg, "--seed", 999, "--out", tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


def test_gen_episode_count_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    result = run_cli("gen", "--config", cfg, "--episodes", 12, "--out", tmp_path / "e.jsonl")
    assert result.returncode == 0
    assert "wrote 12 episodes" in result.stdout
    header = json.loads((tmp_path / "e.jsonl").read_text().splitlines()[0])
    assert header["h"]["episodes"] == 12


def test_gen_on_a_hazard_free_chain_reports_zero_collisions(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"env": {"hazard": [0.0, 0.0, 0.0, 0.0]}}
    )
    result = run_cli("gen", "--config", cfg, "--out", tmp_path / "e.jsonl")
    assert result.returncode == 0
    assert "(0 collisions" in result.stdout


def test_gen_rejects_a_missing_config():
    result = run_cli("gen", "--config", "/nonexistent/cfg.json", "--out", "e.jsonl")
    assert result.returncode == 2


def test_gen_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli("gen", "--config", bad, "--out", tmp_path / "e.jsonl")
    assert result.returncode == 2


def test_gen_rejects_unknown_config_keys(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"env": {"typo_field": 3}})
    result = run_cli("gen", "--config", cfg, "--out", tmp_path / "e.jsonl")
    assert result.returncode == 2
    assert "typo_field" in result.stderr


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"master_seed": "x"}, "master_seed"),
        ({"estimator": {"backbone_layers": "ab"}}, "estimator.backbone_layers"),
        ({"env": {"hazard": 5}}, "env.hazard"),
        ({"train": {"epochs": "ten"}}, "train.epochs"),
        ({"gen": {"count": "many"}}, "gen.count"),
        ({"env": {"stack_frames": "three"}}, "env.stack_frames"),
        # Values the constructors reject, named by section.
        pytest.param({"train": {"epochs": -1}}, "train: epochs must be >= 0",
                     id="train-epochs-negative"),
        pytest.param({"train": {"batch_size": 0}}, "train: batch_size must be >= 1",
                     id="train-batch-size-zero"),
        pytest.param({"train": {"lr_end": 0.1}}, "train: need 0 < lr_end <= lr_start",
                     id="train-lr-end-above-start"),
        pytest.param({"train": {"eval_fraction": 1.0}}, "train: eval_fraction",
                     id="train-eval-fraction-one"),
        pytest.param({"env": {"stack_frames": 0}}, "env: stack_frames must be >= 1",
                     id="env-stack-frames-zero"),
        pytest.param({"env": {"max_steps": 0}}, "env: max_steps must be >= 1",
                     id="env-max-steps-zero"),
        pytest.param({"estimator": {"activation": "swish"}},
                     "estimator: unknown activation 'swish'", id="estimator-swish"),
        pytest.param({"estimator": {"init_seed": -1}}, "estimator: init_seed must be >= 0",
                     id="init-seed-negative"),
        pytest.param({"eval": {"intervals": [[0.5, 0.1]]}}, "eval: intervals",
                     id="eval-interval-reversed"),
        pytest.param({"eval": {"intervals": [[-0.1, 0.1]]}}, "eval: intervals",
                     id="eval-interval-negative"),
        pytest.param({"eval": {"intervals": [[0.1]]}}, "eval.intervals[0]",
                     id="eval-interval-one-end"),
        pytest.param({"eval": {"thresholds": []}}, "eval: need at least one threshold",
                     id="eval-thresholds-empty"),
        pytest.param({"eval": {"intervals": []}}, "one interval", id="eval-intervals-empty"),
        pytest.param({"master_seed": -1}, "config.master_seed: must be >= 0",
                     id="master-seed-negative"),
        # Values of the wrong JSON type, which int() or float() would coerce.
        pytest.param({"gen": {"count": 3.9}}, "gen.count", id="count-float"),
        pytest.param({"gen": {"count": True}}, "gen.count", id="count-bool"),
        pytest.param({"env": {"max_steps": "7"}}, "env.max_steps", id="max-steps-string"),
        pytest.param({"env": Whole({"kind": "corridor", "reaction_delay_steps": 2.5})},
                     "env.reaction_delay_steps", id="reaction-delay-float"),
        pytest.param({"estimator": {"init_seed": None}}, "estimator.init_seed",
                     id="init-seed-null"),
        pytest.param({"loss": {"p_collision": True}}, "loss.p_collision",
                     id="p-collision-bool"),
        pytest.param({"loss": {"c_interval": float("nan")}}, "loss.c_interval",
                     id="c-interval-nan"),
        pytest.param({"horizon": {"delta_t": float("inf")}}, "horizon.delta_t",
                     id="delta-t-infinity"),
        pytest.param({"version": True}, "config.version", id="version-bool"),
    ],
)
def test_gen_maps_malformed_config_values_to_the_data_code(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path / "cfg.json", overrides)
    code, err = run_main(capsys, "gen", "--config", cfg, "--out", tmp_path / "e.jsonl")
    assert code == 2
    assert "Traceback" not in err
    assert key in err
    assert not (tmp_path / "e.jsonl").exists()


def test_a_negative_seed_override_is_a_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code, err = run_main(capsys, "gen", "--config", cfg, "--out", tmp_path / "e.jsonl",
                         "--seed", "-1")
    assert code == 2
    assert "Traceback" not in err
    assert "--seed" in err
    assert not (tmp_path / "e.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "eval", "oracle"])
def test_every_command_validates_the_whole_config(pipeline, tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", {"train": {"batch_size": 0}})
    args = {
        "train": ["--episodes", pipeline["root"] / "eps.jsonl", "--out", tmp_path / "run"],
        "eval": ["--checkpoint", pipeline["root"] / "run" / "checkpoint.json",
                 "--episodes", pipeline["root"] / "eps.jsonl", "--out", tmp_path / "reports"],
        "oracle": ["--out", tmp_path / "table.tsv"],
    }[command]
    code, err = run_main(capsys, command, "--config", cfg, *args)
    assert code == 2
    assert "Traceback" not in err
    assert "train: batch_size must be >= 1" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_gen_into_a_directory_is_a_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    out.mkdir()
    code, err = run_main(capsys, "gen", "--config", cfg, "--out", out)
    assert code == 2
    assert "Traceback" not in err
    assert str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert not any(out.iterdir())


# --- train -------------------------------------------------------------------


def test_train_writes_checkpoint_and_metric_log(pipeline):
    assert pipeline["train"].returncode == 0
    assert "trained 2 epochs (2 total)" in pipeline["train"].stdout
    run = pipeline["root"] / "run"
    assert listing(run) == ["checkpoint.json", "metrics.tsv"]
    lines = (run / "metrics.tsv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#") and line[0].isdigit()]
    assert len(data) == 2


def test_train_resume_at_target_is_a_noop(pipeline):
    root = pipeline["root"]
    result = run_cli(
        "train",
        "--config", pipeline["cfg"],
        "--episodes", root / "eps.jsonl",
        "--out", root / "resume",
        "--checkpoint", root / "run" / "checkpoint.json",
    )
    assert result.returncode == 0
    assert "no epochs to run" in result.stdout


def test_train_periodic_checkpoints(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"train": {"checkpoint_every": 1}})
    run_cli("gen", "--config", cfg, "--out", tmp_path / "e.jsonl")
    result = run_cli(
        "train", "--config", cfg, "--episodes", tmp_path / "e.jsonl", "--out", tmp_path / "run"
    )
    assert result.returncode == 0
    assert listing(tmp_path / "run") == [
        "checkpoint.json", "checkpoint_epoch0001.json", "checkpoint_epoch0002.json", "metrics.tsv",
    ]


def tiny_corridor_config(path, train):
    """corridor_default.json shrunk to a second of work, with `train` merged in."""

    doc = json.loads(CORRIDOR_CONFIG.read_text())
    doc["gen"]["count"] = 12
    doc["horizon"].update({"n_heads": 4, "trunc_n": 2})
    doc["estimator"] = {"backbone_layers": [8], "head_layers": [4, 1]}
    doc["train"].update({"samples_per_epoch": 100, "batch_size": 16, "lr_start": 1e-3,
                         "lr_end": 1e-4, **train})
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("world", ["chain", "corridor"])
def test_a_resumed_run_writes_the_bytes_of_an_uninterrupted_one(tmp_path, world):
    train = {"epochs": 4, "checkpoint_every": 2}
    if world == "chain":
        cfg = write_config(tmp_path / "cfg.json", {"train": train})
    else:
        cfg = tiny_corridor_config(tmp_path / "cfg.json", train)
    assert run_cli("gen", "--config", cfg, "--out", tmp_path / "e.jsonl").returncode == 0
    args = ["train", "--config", cfg, "--episodes", tmp_path / "e.jsonl"]
    whole = run_cli(*args, "--out", tmp_path / "whole")
    assert whole.returncode == 0, whole.stderr
    resumed = run_cli(*args, "--out", tmp_path / "resumed",
                      "--checkpoint", tmp_path / "whole" / "checkpoint_epoch0002.json")
    assert resumed.returncode == 0, resumed.stderr
    assert "trained 2 epochs (4 total)" in resumed.stdout
    for name in ("checkpoint.json", "checkpoint_epoch0004.json", "metrics.tsv"):
        assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def as_version_1(doc):
    """A version 2 checkpoint document as the version 1 writer wrote the same
    state: no sampler state or metric history, and the parameter layout listed."""

    doc = {k: v for k, v in doc.items() if k not in ("sampler", "metrics")}
    layout, offset = [], 0
    for name, shape in param_layout(EstimatorConfig(**doc["estimator"])):
        size = int(np.prod(shape))
        layout.append({"name": name, "shape": list(shape), "offset": offset, "size": size})
        offset += size
    return {**doc, "version": 1, "layout": layout}


def test_a_version_1_checkpoint_still_resumes_with_a_warning(pipeline, tmp_path):
    doc = json.loads((pipeline["root"] / "run" / "checkpoint.json").read_text())
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(as_version_1(doc)))
    cfg = write_config(tmp_path / "cfg.json", {"train": {"epochs": 3}})
    result = run_cli("train", "--config", cfg, "--episodes", pipeline["root"] / "eps.jsonl",
                     "--out", tmp_path / "run", "--checkpoint", v1)
    assert result.returncode == 0, result.stderr
    assert "trained 1 epochs (3 total)" in result.stdout
    assert "replay restarts from the configured seed" in result.stderr
    # Without a metric history, the log lists only the epoch this run trained.
    rows = (tmp_path / "run" / "metrics.tsv").read_text().splitlines()[2:]
    assert [row.split("\t")[0] for row in rows] == ["2"]


def test_train_rejects_mismatched_observation_width(pipeline, tmp_path):
    # same chain but stacked twice: the expected width doubles
    stacked = write_config(tmp_path / "stacked.json", {"env": {"stack_frames": 2}})
    result = run_cli(
        "train",
        "--config", stacked,
        "--episodes", pipeline["root"] / "eps.jsonl",
        "--out", tmp_path / "run",
    )
    assert result.returncode == 2
    assert "obs_dim" in result.stderr


def test_train_numeric_blowup_exits_with_the_numeric_code(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"train": {"lr_start": 1e200, "lr_end": 1e200}}
    )
    run_cli("gen", "--config", cfg, "--out", tmp_path / "e.jsonl")
    result = run_cli(
        "train", "--config", cfg, "--episodes", tmp_path / "e.jsonl", "--out", tmp_path / "run"
    )
    assert result.returncode == 3
    assert "numerical failure" in result.stderr


def test_train_rejects_an_unknown_activation(pipeline, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"estimator": {"activation": "swish"}})
    code, err = run_main(
        capsys, "train", "--config", cfg, "--episodes", pipeline["root"] / "eps.jsonl",
        "--out", tmp_path / "run",
    )
    assert code == 2
    assert "Traceback" not in err
    assert "swish" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_directory_as_the_episode_file_is_a_data_error(pipeline, tmp_path, capsys, command):
    if command == "train":
        args = ["--config", pipeline["cfg"], "--out", tmp_path / "run"]
    else:
        args = ["--checkpoint", pipeline["root"] / "run" / "checkpoint.json",
                "--out", tmp_path / "reports"]
    code, err = run_main(capsys, command, *args, "--episodes", tmp_path)
    assert code == 2
    assert "Traceback" not in err
    assert str(tmp_path) in err


# --- eval --------------------------------------------------------------------


def test_eval_writes_the_report_suite(pipeline):
    assert pipeline["eval"].returncode == 0
    reports = pipeline["root"] / "reports"
    assert listing(reports) == [
        "collision_characteristic.tsv",
        "detection_rate.tsv",
        "head_metrics.tsv",
        "oracle_errors.tsv",
        "summary.json",
    ]
    summary = json.loads((reports / "summary.json").read_text())
    assert summary["episodes"] == 30
    assert summary["n_heads"] == 3
    assert "oracle_max_abs_error" in summary
    assert len(summary["acc_per_head"]) == 3


def test_eval_without_config_skips_the_oracle_table(pipeline, tmp_path):
    result = run_cli(
        "eval",
        "--checkpoint", pipeline["root"] / "run" / "checkpoint.json",
        "--episodes", pipeline["root"] / "eps.jsonl",
        "--out", tmp_path / "reports",
    )
    assert result.returncode == 0
    assert listing(tmp_path / "reports") == [
        "collision_characteristic.tsv", "detection_rate.tsv", "head_metrics.tsv", "summary.json",
    ]
    summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
    assert "oracle_max_abs_error" not in summary


def test_a_version_1_checkpoint_evaluates_to_the_same_reports(pipeline, tmp_path):
    doc = json.loads((pipeline["root"] / "run" / "checkpoint.json").read_text())
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(as_version_1(doc)))
    result = run_cli("eval", "--checkpoint", v1, "--episodes", pipeline["root"] / "eps.jsonl",
                     "--out", tmp_path / "reports", "--config", pipeline["cfg"])
    assert result.returncode == 0, result.stderr
    reports = pipeline["root"] / "reports"
    assert listing(tmp_path / "reports") == listing(reports)
    for name in listing(reports):
        assert (tmp_path / "reports" / name).read_bytes() == (reports / name).read_bytes()


def test_eval_rejects_mismatched_episode_width(pipeline, tmp_path):
    stacked = write_config(tmp_path / "stacked.json", {"env": {"stack_frames": 2}})
    run_cli("gen", "--config", stacked, "--out", tmp_path / "wide.jsonl")
    result = run_cli(
        "eval",
        "--checkpoint", pipeline["root"] / "run" / "checkpoint.json",
        "--episodes", tmp_path / "wide.jsonl",
        "--out", tmp_path / "reports",
    )
    assert result.returncode == 2
    assert "obs_dim" in result.stderr


def test_eval_rejects_a_garbage_checkpoint(pipeline, tmp_path):
    bad = tmp_path / "ckpt.json"
    bad.write_text('{"format": "something-else"}')
    result = run_cli(
        "eval",
        "--checkpoint", bad,
        "--episodes", pipeline["root"] / "eps.jsonl",
        "--out", tmp_path / "reports",
    )
    assert result.returncode == 2


def _set_params_to_bad_base64(doc):
    doc["params"] = "not*base64!"


def _set_n_heads_to_a_word(doc):
    doc["estimator"]["n_heads"] = "five"


def _set_layout_to_a_number(doc):
    doc["layout"] = 5


def _set_epochs_completed_negative(doc):
    doc["epochs_completed"] = -3


def _set_epochs_completed_to_a_float(doc):
    doc["epochs_completed"] = 2.0


def _set_adam_step_negative(doc):
    doc["adam"]["step"] = -1


def _set_adam_step_to_a_string(doc):
    doc["adam"]["step"] = "7"


def _set_sampler_to_another_generator(doc):
    doc["sampler"]["bit_generator"] = "MT19937"


def _set_sampler_state_beyond_128_bits(doc):
    doc["sampler"]["state"]["state"] = 2**200


def _drop_the_sampler_increment(doc):
    del doc["sampler"]["state"]["inc"]


def _set_a_metric_to_a_string(doc):
    doc["metrics"][1]["loss"] = "0.5"


def _drop_a_head_from_the_metrics(doc):
    doc["metrics"][0]["acc_per_head"].pop()


def _set_the_metrics_to_an_object(doc):
    doc["metrics"] = {"epoch": 0}


def _drop_the_metrics(doc):
    del doc["metrics"]


def _set_the_loss_section_to_a_list(doc):
    doc["loss"] = [1.0]


@pytest.mark.parametrize(
    "tamper",
    [_set_params_to_bad_base64, _set_n_heads_to_a_word, _set_layout_to_a_number,
     _set_epochs_completed_negative, _set_epochs_completed_to_a_float, _set_adam_step_negative,
     _set_adam_step_to_a_string, _set_sampler_to_another_generator,
     _set_sampler_state_beyond_128_bits, _drop_the_sampler_increment, _set_a_metric_to_a_string,
     _drop_a_head_from_the_metrics, _set_the_metrics_to_an_object, _drop_the_metrics,
     _set_the_loss_section_to_a_list],
    ids=["bad-base64", "n-heads-word", "layout-number", "epochs-negative", "epochs-float",
         "step-negative", "step-string", "sampler-generator", "sampler-state-wide",
         "sampler-inc-missing", "metric-string", "metric-heads-short", "metrics-object",
         "metrics-missing", "loss-list"],
)
def test_eval_maps_malformed_checkpoint_fields_to_the_data_code(pipeline, tmp_path, tamper):
    doc = json.loads((pipeline["root"] / "run" / "checkpoint.json").read_text())
    tamper(doc)
    bad = tmp_path / "ckpt.json"
    bad.write_text(json.dumps(doc))
    result = run_cli(
        "eval",
        "--checkpoint", bad,
        "--episodes", pipeline["root"] / "eps.jsonl",
        "--out", tmp_path / "reports",
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr


@pytest.mark.parametrize(
    "tamper", [_set_epochs_completed_negative, _set_adam_step_negative],
    ids=["epochs-negative", "step-negative"],
)
def test_train_resume_rejects_a_negative_counter_without_a_traceback(pipeline, tmp_path, tamper):
    # Unchecked, epochs_completed -3 fails in the lr schedule and step -1
    # divides by zero in Adam once the remaining epoch runs.
    doc = json.loads((pipeline["root"] / "run" / "checkpoint.json").read_text())
    doc["epochs_completed"] = 1
    tamper(doc)
    bad = tmp_path / "ckpt.json"
    bad.write_text(json.dumps(doc))
    result = run_cli(
        "train", "--config", pipeline["cfg"], "--episodes", pipeline["root"] / "eps.jsonl",
        "--out", tmp_path / "run", "--checkpoint", bad,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr


@pytest.mark.parametrize(
    "value", ["abc", None, [0.0]], ids=["string", "null", "nested-list"]
)
def test_eval_rejects_non_numeric_observations_naming_the_line(pipeline, tmp_path, value):
    lines = (pipeline["root"] / "eps.jsonl").read_text().splitlines(keepends=True)
    step = json.loads(lines[2])
    step["s"][0] = value
    lines[2] = json.dumps(step) + "\n"
    bad = tmp_path / "eps.jsonl"
    bad.write_text("".join(lines))
    result = run_cli(
        "eval",
        "--checkpoint", pipeline["root"] / "run" / "checkpoint.json",
        "--episodes", bad,
        "--out", tmp_path / "reports",
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert f"{bad}:3:" in result.stderr


EDITS = ("flip-flag", "swap-terminal", "drop-step", "duplicate-step", "change-steps")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eval_on_an_edited_episode_file_exits_0_or_2_without_a_traceback(
    pipeline, tmp_path_factory, data
):
    # One edit to one line of a saved corpus. Only swapping one truncation
    # reason for another leaves a valid file; every other edit contradicts
    # a step count or the flags the terminal implies, and must exit 2.
    lines = (pipeline["root"] / "eps.jsonl").read_text().splitlines(keepends=True)
    step_lines = [k for k, line in enumerate(lines) if line.startswith('{"s"')]
    episode_lines = [k for k, line in enumerate(lines) if line.startswith('{"e"')]
    edit = data.draw(st.sampled_from(EDITS))
    k = data.draw(st.sampled_from(episode_lines if edit in ("swap-terminal", "change-steps")
                                  else step_lines))
    doc = json.loads(lines[k])
    expected = 2
    if edit == "flip-flag":
        doc["c"] = 1 - doc["c"]
    elif edit == "swap-terminal":
        old = doc["e"]["terminal"]
        new = data.draw(st.sampled_from([t.value for t in Terminal if t.value != old]))
        doc["e"]["terminal"] = new
        if Terminal.COLLISION.value not in (old, new):
            expected = 0
    elif edit == "change-steps":
        doc["e"]["steps"] = data.draw(st.integers(0, 60).filter(lambda n: n != doc["e"]["steps"]))
    lines[k] = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if edit == "drop-step":
        del lines[k]
    elif edit == "duplicate-step":
        lines.insert(k, lines[k])
    root = tmp_path_factory.mktemp("edited")
    (root / "eps.jsonl").write_text("".join(lines))

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(pipeline["root"] / "run" / "checkpoint.json"),
                     "--episodes", str(root / "eps.jsonl"), "--out", str(root / "reports")])
    assert "Traceback" not in err.getvalue()
    assert code == expected, (edit, lines[k], err.getvalue())
    if code == 0:
        summary = json.loads((root / "reports" / "summary.json").read_text())
        assert summary["episodes"] == len(episode_lines)


def leaves(doc, path=()):
    """The path of every leaf of a JSON document: each value that is not a
    nonempty object or list."""

    if isinstance(doc, (dict, list)) and doc:
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from leaves(value, (*path, key))
    else:
        yield path


def replace_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# What replaces a leaf: null, a bool, a string, a negative or huge number, a
# list or an object.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.sampled_from([-1, -2.5, 10**30, -(10**30), 1e300, -1e300]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


def quiet_main(*args):
    """(exit code, stderr) of `riskhorizon *args` run in this process."""

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def resumable(pipeline, tmp_path_factory):
    """A checkpoint after the first of two epochs, so resuming it trains."""

    root = tmp_path_factory.mktemp("resumable")
    cfg = write_config(root / "cfg.json", {"train": {"checkpoint_every": 1}})
    code, err = quiet_main("train", "--config", cfg, "--episodes", pipeline["root"] / "eps.jsonl",
                           "--out", root / "run")
    assert code == 0, err
    return {"cfg": cfg, "checkpoint": root / "run" / "checkpoint_epoch0001.json"}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_checkpoint_with_one_leaf_replaced_exits_0_or_2_without_a_traceback(
    pipeline, resumable, tmp_path_factory, data
):
    doc = json.loads(resumable["checkpoint"].read_text())
    path = data.draw(st.sampled_from(list(leaves(doc))))
    replace_leaf(doc, path, data.draw(JSON_VALUES))
    root = tmp_path_factory.mktemp("checkpoint-leaf")
    (root / "ckpt.json").write_text(json.dumps(doc))
    episodes = pipeline["root"] / "eps.jsonl"
    for command, out, args in (
        ("eval", "reports", ()),
        ("train", "run", ("--config", resumable["cfg"])),
    ):
        # An uncaught exception would fail the test with its traceback.
        code, err = quiet_main(command, "--checkpoint", root / "ckpt.json",
                               "--episodes", episodes, "--out", root / out, *args)
        assert code in (0, 2), (path, err)
        assert (root / out).exists() == (code == 0), (path, err)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_config_with_one_leaf_replaced_exits_0_or_2_without_a_traceback(
    pipeline, tmp_path_factory, data
):
    root = tmp_path_factory.mktemp("config-leaf")
    doc = json.loads(write_config(root / "cfg.json").read_text())
    path = data.draw(st.sampled_from(list(leaves(doc))))
    replace_leaf(doc, path, data.draw(JSON_VALUES))
    (root / "cfg.json").write_text(json.dumps(doc))
    # gen rolls --episodes, not gen.count: a valid count of 10**30 episodes
    # would run for ever.
    code, err = quiet_main("gen", "--config", root / "cfg.json", "--out", root / "e.jsonl",
                           "--episodes", 6)
    assert code in (0, 2), (path, err)
    assert (root / "e.jsonl").exists() == (code == 0), (path, err)
    code, err = quiet_main("eval", "--config", root / "cfg.json",
                           "--checkpoint", pipeline["root"] / "run" / "checkpoint.json",
                           "--episodes", pipeline["root"] / "eps.jsonl", "--out", root / "reports")
    assert code in (0, 2), (path, err)
    assert (root / "reports").exists() == (code == 0), (path, err)


# --- oracle ------------------------------------------------------------------


def test_oracle_cross_check_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    result = run_cli(
        "oracle", "--config", cfg, "--out", tmp_path / "table.tsv", "--cross-check"
    )
    assert result.returncode == 0
    assert "cross-check max deviation" in result.stdout
    assert listing(tmp_path) == ["cfg.json", "table.tsv"]
    lines = (tmp_path / "table.tsv").read_text().splitlines()
    assert lines[0].startswith("#")


def test_oracle_needs_a_chain_environment(tmp_path):
    result = run_cli(
        "oracle", "--config", CORRIDOR_CONFIG, "--out", tmp_path / "table.tsv"
    )
    assert result.returncode == 2
    assert "chain" in result.stderr
