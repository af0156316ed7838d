"""Run configuration: the `--paper-parity` preset that `train` applies on top
of a config file."""

import json
from pathlib import Path

from riskhorizon.config import load_config
from riskhorizon.envs import world_fingerprint
from riskhorizon.network import LossWeights
from riskhorizon.returns import HorizonConfig

CHAIN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "chain_small.json"

PRESET_HORIZON = HorizonConfig(delta_t=0.1, n_heads=20, lam=0.8, trunc_n=10)
PRESET_LOSS = LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025)


def assert_preset_train(train):
    assert (train.epochs, train.samples_per_epoch) == (50, 6000)
    assert (train.lr_start, train.lr_end) == (1e-5, 1e-6)
    assert train.horizon == PRESET_HORIZON and train.loss == PRESET_LOSS


def test_paper_parity_pins_horizon_loss_and_train_and_keeps_env_and_architecture():
    plain = load_config(CHAIN_CONFIG)
    parity = load_config(CHAIN_CONFIG, paper_parity=True)
    assert plain.horizon != PRESET_HORIZON
    assert parity.horizon == PRESET_HORIZON
    assert parity.loss == PRESET_LOSS
    assert_preset_train(parity.train)
    # Train keys the preset does not name keep the file's values.
    assert parity.train.batch_size == plain.train.batch_size == 32
    assert parity.train.eval_fraction == plain.train.eval_fraction
    assert parity.train.master_seed == plain.train.master_seed == plain.master_seed
    # The environment and the estimator architecture are the file's; only
    # the head count follows the preset horizon.
    assert world_fingerprint(parity.world) == world_fingerprint(plain.world)
    for field in ("input_dim", "backbone_layers", "head_layers", "activation", "init_seed"):
        assert getattr(parity.estimator, field) == getattr(plain.estimator, field), field
    assert parity.estimator.n_heads == 20
    assert (parity.thresholds, parity.intervals) == (plain.thresholds, plain.intervals)


def test_paper_parity_supplies_a_train_section_a_config_lacks(tmp_path):
    doc = json.loads(CHAIN_CONFIG.read_text())
    del doc["train"]
    path = tmp_path / "no_train.json"
    path.write_text(json.dumps(doc))
    assert load_config(path).train is None
    train = load_config(path, paper_parity=True).train
    assert_preset_train(train)
    assert (train.batch_size, train.eval_fraction, train.checkpoint_every) == (8, 0.2, 0)
