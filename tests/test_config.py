"""Config key tables against the classes their sections build: a field added
to a class but not to its table could not be set from a config file."""

from dataclasses import fields

import pytest

from riskhorizon.config import (
    CHAIN_ENV_KEYS,
    CORRIDOR_ENV_KEYS,
    ESTIMATOR_KEYS,
    HORIZON_KEYS,
    LOSS_KEYS,
    TRAIN_KEYS,
)
from riskhorizon.envs import ChainWorld, CorridorWorld
from riskhorizon.network import EstimatorConfig, LossWeights
from riskhorizon.returns import HorizonConfig
from riskhorizon.training import TrainConfig


def keys_of(cls, renamed=None, derived=(), extra=()):
    """The config keys that set `cls`'s fields: each field by its key, less
    the fields a config derives from other sections, plus `extra`."""

    renamed = renamed or {}
    names = {renamed.get(f.name, f.name) for f in fields(cls)}
    assert set(derived) <= names
    return (names - set(derived)) | set(extra)


TABLES = {
    "horizon": (HORIZON_KEYS, keys_of(HorizonConfig, renamed={"lam": "lambda"})),
    "loss": (LOSS_KEYS, keys_of(LossWeights)),
    "estimator": (ESTIMATOR_KEYS, keys_of(EstimatorConfig, derived=("input_dim", "n_heads"))),
    "train": (TRAIN_KEYS, keys_of(TrainConfig, derived=("horizon", "loss", "master_seed"))),
    "chain env": (CHAIN_ENV_KEYS, keys_of(ChainWorld, extra=("kind",))),
    "corridor env": (CORRIDOR_ENV_KEYS, keys_of(CorridorWorld, extra=("kind",))),
}


@pytest.mark.parametrize("section", sorted(TABLES))
def test_each_key_table_names_exactly_the_fields_of_its_class(section):
    table, want = TABLES[section]
    assert set(table) == want
