"""Multi-horizon collision-risk estimation from episodic rollouts.

A bank of prediction heads shares one backbone; head i outputs the
probability that a collision happens within the next i control steps.
Targets come from truncated lambda returns over recorded episodes, exact
dynamic-programming tables serve as oracles on small chain worlds, and a
kinematic corridor world provides the scaled-up benchmark.
"""

from .config import ConfigError, RunConfig, load_config
from .envs import (
    ChainWorld,
    ChainWorldSpec,
    CorridorWorld,
    CorridorWorldSpec,
    chain_observation,
    generate_episodes,
    run_episode,
)
from .episodes import Episode, SchemaError, Terminal, load_episodes, save_episodes
from .evaluation import collision_characteristic, detection_rate, evaluate, oracle_errors
from .network import (
    AdamState,
    Checkpoint,
    CheckpointError,
    EstimatorConfig,
    LossWeights,
    MultiHeadEstimator,
    NonFiniteUpdateError,
    batch_loss_and_grad,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .oracle import OracleTable, brute_force_cumulative, dp_cumulative
from .replay import build_index, sample
from .returns import (
    HorizonConfig,
    TargetMatrix,
    lambda_weights,
    targets_from_estimates,
)
from .training import DegenerateCorpusError, TrainConfig, lr_schedule, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ChainWorld",
    "ChainWorldSpec",
    "Checkpoint",
    "CheckpointError",
    "ConfigError",
    "CorridorWorld",
    "CorridorWorldSpec",
    "DegenerateCorpusError",
    "Episode",
    "EstimatorConfig",
    "HorizonConfig",
    "LossWeights",
    "MultiHeadEstimator",
    "NonFiniteUpdateError",
    "OracleTable",
    "RunConfig",
    "SchemaError",
    "TargetMatrix",
    "Terminal",
    "TrainConfig",
    "batch_loss_and_grad",
    "brute_force_cumulative",
    "build_index",
    "chain_observation",
    "collision_characteristic",
    "detection_rate",
    "dp_cumulative",
    "evaluate",
    "generate_episodes",
    "lambda_weights",
    "load_checkpoint",
    "load_config",
    "load_episodes",
    "lr_schedule",
    "optimizer_step",
    "oracle_errors",
    "run_episode",
    "sample",
    "save_checkpoint",
    "save_episodes",
    "targets_from_estimates",
    "train",
]
