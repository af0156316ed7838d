"""Exact-probability tables: frozen hand values, brute-force agreement,
monotonicity, and the size guard."""

import numpy as np
import pytest

from helpers import oracle_at
from riskhorizon.envs import ChainWorld
from riskhorizon.oracle import (
    BRUTE_FORCE_MAX_HORIZON,
    BRUTE_FORCE_MAX_STATES,
    InstanceTooLargeError,
    brute_force_cumulative,
    dp_cumulative,
    write_oracle_table,
)


def self_loop(h: float) -> ChainWorld:
    return ChainWorld(
        n_states=1, hazard=(h,), transition=((1.0,),), start_distribution=(1.0,)
    )


def random_chain(rng: np.random.Generator, n_states: int) -> ChainWorld:
    rows = rng.dirichlet(np.ones(n_states), size=n_states)
    start = rng.dirichlet(np.ones(n_states))
    hazard = rng.uniform(0.0, 1.0, size=n_states)
    return ChainWorld(
        n_states=n_states,
        hazard=tuple(hazard),
        transition=tuple(tuple(row) for row in rows),
        start_distribution=tuple(start),
    )


def test_self_loop_two_step_value():
    # Survive-then-collide arithmetic: 0.1 + 0.9 * 0.1.
    table = dp_cumulative(self_loop(0.1), 2)
    assert oracle_at(table, 0, 1) == pytest.approx(0.1, abs=1e-15)
    assert oracle_at(table, 0, 2) == pytest.approx(0.19, abs=1e-15)


def test_two_state_cycle_hand_value():
    world = ChainWorld(
        n_states=2,
        hazard=(0.5, 0.0),
        transition=((0.0, 1.0), (1.0, 0.0)),
        start_distribution=(1.0, 0.0),
    )
    table = dp_cumulative(world, 2)
    # From s0: collide now (0.5) or land in the hazard-free state.
    assert oracle_at(table, 0, 2) == pytest.approx(0.5, abs=1e-15)
    # From s1: guaranteed move into s0, then its one-step hazard.
    assert oracle_at(table, 1, 1) == 0.0
    assert oracle_at(table, 1, 2) == pytest.approx(0.5, abs=1e-15)


def test_two_state_stochastic_hand_value():
    world = ChainWorld(
        n_states=2,
        hazard=(0.2, 0.4),
        transition=((0.5, 0.5), (0.3, 0.7)),
        start_distribution=(0.5, 0.5),
    )
    table = dp_cumulative(world, 3)
    assert oracle_at(table, 0, 2) == pytest.approx(0.44, abs=1e-12)
    assert oracle_at(table, 1, 2) == pytest.approx(0.604, abs=1e-12)
    assert oracle_at(table, 0, 3) == pytest.approx(0.6176, abs=1e-12)


def test_zero_horizon_column_is_zero():
    rng = np.random.default_rng(3)
    table = dp_cumulative(random_chain(rng, 4), 5)
    assert np.all(table.probabilities[:, 0] == 0.0)


def test_zero_hazard_never_collides():
    world = ChainWorld(
        n_states=2,
        hazard=(0.0, 0.0),
        transition=((0.5, 0.5), (0.5, 0.5)),
        start_distribution=(1.0, 0.0),
    )
    assert np.all(dp_cumulative(world, 6).probabilities == 0.0)
    assert np.all(brute_force_cumulative(world, 6).probabilities == 0.0)


def test_unit_hazard_certain_collision():
    table = dp_cumulative(self_loop(1.0), 4)
    assert np.all(table.probabilities[:, 1:] == 1.0)
    brute = brute_force_cumulative(self_loop(1.0), 4)
    assert np.all(brute.probabilities[:, 1:] == 1.0)


def test_dp_matches_brute_force_on_random_chains():
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        n_states = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 7))
        world = random_chain(rng, n_states)
        dp = dp_cumulative(world, horizon)
        brute = brute_force_cumulative(world, horizon)
        assert np.abs(dp.probabilities - brute.probabilities).max() <= 1e-12


def test_tables_monotone_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(20):
        table = dp_cumulative(random_chain(rng, int(rng.integers(1, 7))), 10)
        probs = table.probabilities
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        assert np.all(np.diff(probs, axis=1) >= -1e-15)


def test_brute_force_size_guard():
    rng = np.random.default_rng(5)
    big = random_chain(rng, BRUTE_FORCE_MAX_STATES + 1)
    with pytest.raises(InstanceTooLargeError):
        brute_force_cumulative(big, 2)
    small = random_chain(rng, 2)
    with pytest.raises(InstanceTooLargeError):
        brute_force_cumulative(small, BRUTE_FORCE_MAX_HORIZON + 1)


def test_table_file_format(tmp_path):
    table = dp_cumulative(self_loop(0.1), 2)
    out = tmp_path / "table.tsv"
    write_oracle_table(out, table)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and "oracle-table" in lines[0]
    assert lines[1].split("\t") == ["state", "horizon_step", "probability"]
    rows = [line.split("\t") for line in lines[2:]]
    parsed = {(int(s), int(i)): float(p) for s, i, p in rows}
    assert parsed[(0, 0)] == 0.0
    assert parsed[(0, 2)] == pytest.approx(0.19, abs=1e-12)
