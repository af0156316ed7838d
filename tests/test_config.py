"""Config and checkpoint sections read from the classes they build: each
field of a class is a key of its section, of the JSON type of its
annotation, and required when it has no default."""

import json
from dataclasses import MISSING, asdict, fields, make_dataclass

import pytest

from riskhorizon.config import ConfigError, _load, load_config, saved_sections, to_section
from riskhorizon.envs import ChainWorld, CorridorWorld
from riskhorizon.evaluation import DetectionGrid
from riskhorizon.network import EstimatorConfig, LossWeights
from riskhorizon.returns import HorizonConfig
from riskhorizon.training import TrainConfig

# Every field away from its default, so that a key that did not reach its
# field would show.
CHAIN = ChainWorld(n_states=2, hazard=(0.25, 0.5), transition=((0.5, 0.5), (0.25, 0.75)),
                   start_distribution=(0.75, 0.25), max_steps=9, stack_frames=2)
CORRIDOR = CorridorWorld(lane_length=300.0, target_speed=11.0, brake_decel=3.0,
                         reaction_delay_steps=1, check_horizon_s=1.5, spawn_rate=0.25,
                         speed_min=1.0, speed_max=7.0, delta_t=0.2, max_steps=200,
                         blocked_timeout_s=4.0, stack_frames=2)
HORIZON = HorizonConfig(delta_t=0.2, n_heads=4, lam=0.5, trunc_n=2)
LOSS = LossWeights(c_interval=0.5, c_chain=2.0, p_collision=0.5, p_noncollision=0.125)
TRAIN = TrainConfig(horizon=HORIZON, loss=LOSS, epochs=3, samples_per_epoch=50, batch_size=4,
                    lr_start=0.01, lr_end=0.001, eval_fraction=0.25, master_seed=3,
                    checkpoint_every=2)
# The estimator's seed is the one load_config derives from master_seed.
ESTIMATOR = EstimatorConfig(input_dim=CHAIN.obs_dim, n_heads=HORIZON.n_heads,
                            backbone_layers=(8, 6), head_layers=(3, 1),
                            init_seed=(TRAIN.master_seed * 2654435761 + 17) % 2**31)
GRID = DetectionGrid(thresholds=(0.05, 0.3), intervals=((0.0, 0.5), (0.5, 1.5)))
# Fields a config derives from other sections rather than sets by key.
DERIVED = {EstimatorConfig: ("input_dim", "n_heads", "init_seed"),
           TrainConfig: ("horizon", "loss", "master_seed")}


def section(obj) -> dict:
    """The keys that set `obj`'s fields, less those a config derives."""

    derived = DERIVED.get(type(obj), ())
    return {key: value for key, value in to_section(obj).items() if key not in derived}


def document(world) -> dict:
    return {"version": 1, "master_seed": TRAIN.master_seed,
            "env": {"kind": "chain" if world is CHAIN else "corridor", **asdict(world)},
            "horizon": section(HORIZON), "loss": section(LOSS),
            "estimator": section(ESTIMATOR), "train": section(TRAIN), "eval": section(GRID)}


def loaded(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


# Each section's class: (its instance, the world of the document, the
# RunConfig attribute it loads to).
SECTIONS = {
    "eval": (GRID, CHAIN, "detection"),
    "chain env": (CHAIN, CHAIN, "world"),
    "corridor env": (CORRIDOR, CORRIDOR, "world"),
    "horizon": (HORIZON, CHAIN, "horizon"),
    "loss": (LOSS, CHAIN, "loss"),
    "estimator": (ESTIMATOR, CHAIN, "estimator"),
    "train": (TRAIN, CHAIN, "train"),
}
# The key of each section whose RunConfig attribute is named otherwise.
KEY_OF_ATTR = {"world": "env", "detection": "eval"}


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_a_section_setting_every_key_loads_to_the_instance_it_was_written_from(tmp_path, name):
    obj, world, attr = SECTIONS[name]
    assert all(getattr(obj, f.name) != f.default for f in fields(obj))
    assert getattr(loaded(tmp_path, document(world)), attr) == obj


# Every name a section could be mistaken to take: each field of each section's
# class and each key.
NAMES = {f.name for cls in (ChainWorld, CorridorWorld, HorizonConfig, LossWeights,
                            EstimatorConfig, TrainConfig, DetectionGrid)
         for f in fields(cls)} | {"lambda"}


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_each_key_table_names_exactly_the_fields_of_its_class(tmp_path, name):
    """A section takes the keys of its class's fields and no other name: not a
    derived field, `lam` for `lambda`, nor a field of another section."""

    obj, world, attr = SECTIONS[name]
    key = KEY_OF_ATTR.get(attr, attr)
    doc = document(world)
    assert set(doc[key]) == set(section(obj)) | ({"kind"} if key == "env" else set())
    assert getattr(loaded(tmp_path, doc), attr) == obj
    for other in sorted(NAMES - set(doc[key])):
        doc = document(world)
        doc[key][other] = 1
        with pytest.raises(ConfigError, match=f"^{key}.{other}: unknown key$"):
            loaded(tmp_path, doc)


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_a_section_of_only_its_required_keys_loads_the_class_defaults(tmp_path, name):
    obj, world, attr = SECTIONS[name]
    doc = document(world)
    key = KEY_OF_ATTR.get(attr, attr)
    required = {f.name for f in fields(obj)
                if f.default is MISSING and f.default_factory is MISSING}
    doc[key] = {k: v for k, v in doc[key].items()
                if k == "kind" or {"lambda": "lam"}.get(k, k) in required}
    if attr == "world":
        doc["horizon"]["delta_t"] = CorridorWorld.delta_t  # a corridor's must equal it
    got = getattr(loaded(tmp_path, doc), attr)
    skipped = required | set(DERIVED.get(type(obj), ()))
    for f in fields(obj):
        if f.name not in skipped:
            assert getattr(got, f.name) == f.default, f.name


REQUIRED = [("env", "n_states"), ("env", "hazard"), ("env", "transition"),
            ("env", "start_distribution"), ("horizon", "delta_t"), ("horizon", "n_heads"),
            ("horizon", "lambda"), ("horizon", "trunc_n"), ("train", "epochs"),
            ("train", "samples_per_epoch")]


@pytest.mark.parametrize("path, key", REQUIRED)
def test_a_section_without_a_field_that_has_no_default_is_refused(tmp_path, path, key):
    doc = document(CHAIN)
    del doc[path][key]
    with pytest.raises(ConfigError, match=f"^{path}.{key}: required key is missing$"):
        loaded(tmp_path, doc)


def saved_document() -> dict:
    """The sections of a checkpoint of ESTIMATOR, HORIZON and LOSS, as read from JSON."""

    return json.loads(json.dumps({"estimator": to_section(ESTIMATOR),
                                  "horizon": to_section(HORIZON), "loss": to_section(LOSS)}))


def test_saved_sections_read_back_what_to_section_writes():
    assert saved_sections(saved_document()) == [ESTIMATOR, HORIZON, LOSS]


@pytest.mark.parametrize("path, key", [(path, key) for path, obj in
                                       (("estimator", ESTIMATOR), ("horizon", HORIZON),
                                        ("loss", LOSS)) for key in to_section(obj)])
def test_a_checkpoint_section_requires_every_key(path, key):
    doc = saved_document()
    del doc[path][key]
    with pytest.raises(ConfigError, match=f"^{path}.{key}: required key is missing$"):
        saved_sections(doc)


@pytest.mark.parametrize("annotation", [dict, int | None, bool, list[int], tuple[int, int]],
                         ids=["dict", "optional-int", "bool", "list", "pair"])
def test_a_field_annotated_without_a_json_type_raises_type_error(annotation):
    odd = make_dataclass("Odd", [("value", annotation)])
    with pytest.raises(TypeError, match="^Odd.value: a field annotated .* has no JSON type$"):
        _load({"value": 1}, "odd", odd)
