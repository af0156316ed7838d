"""Stratified sampling: window classification, acceptance arithmetic,
importance factors, and the unbiasedness identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskhorizon.episodes import Episode, Terminal
from riskhorizon.network import LossWeights
from riskhorizon.replay import build_index, sample
from riskhorizon.returns import HorizonConfig


def episode(steps, collides, seed=0, dim=2):
    rewards = np.zeros(steps, dtype=np.int64)
    if collides:
        rewards[-1] = 1
    return Episode(
        observations=np.zeros((steps, dim)),
        rewards=rewards,
        terminal=Terminal.COLLISION if collides else Terminal.TIME_LIMIT,
        seed=seed,
    )


def horizon(n_heads, trunc_n=None):
    return HorizonConfig(delta_t=0.1, n_heads=n_heads, lam=0.8, trunc_n=trunc_n or n_heads)


def test_thirty_step_episode_window():
    # The 20 timesteps nearest the collision are collision-related.
    index = build_index([episode(30, True)], horizon(20, trunc_n=10))
    assert len(index) == 30
    assert index.collision_related.sum() == 20
    related = sorted(index.timestep[index.collision_related])
    assert related == list(range(10, 30))


def test_all_collision_short_episodes_fully_related():
    eps = [episode(5, True, seed=s) for s in range(3)]
    index = build_index(eps, horizon(20, trunc_n=10))
    assert index.collision_related.sum() == len(index) == 15


def test_no_collision_corpus_has_no_related_entries():
    eps = [episode(8, False, seed=s) for s in range(4)]
    index = build_index(eps, horizon(5))
    assert len(index) == 32
    assert index.collision_related.sum() == 0


def test_every_timestep_indexed_once():
    eps = [episode(6, True), episode(9, False, seed=1)]
    index = build_index(eps, horizon(4))
    pairs = set(zip(index.episode.tolist(), index.timestep.tolist()))
    assert len(pairs) == len(index) == 15
    assert all(0 <= t < (6 if e == 0 else 9) for e, t in pairs)


def test_sample_importance_factors():
    # The loss weights accepted collision-related rows by p_nc / p_c.
    weights = LossWeights(p_collision=0.25, p_noncollision=0.025)
    assert weights.collision_mse_factor == pytest.approx(0.1)


def test_equal_probabilities_are_uniform():
    weights = LossWeights(p_collision=0.05, p_noncollision=0.05)
    assert weights.collision_mse_factor == 1.0


def test_sample_reproducible():
    eps = [episode(12, True), episode(12, False, seed=1)]
    index = build_index(eps, horizon(6))
    a = sample(index, 32, np.random.default_rng(9), 0.25, 0.025)
    b = sample(index, 32, np.random.default_rng(9), 0.25, 0.025)
    assert a.tolist() == b.tolist()


def test_a_batch_is_a_sequence_of_records():
    eps = [episode(10, True), episode(10, False, seed=1)]
    index = build_index(eps, horizon(5))
    batch = sample(index, 64, np.random.default_rng(0), p_collision=0.25, p_noncollision=0.025)
    assert len(batch) == 64
    for k, ref in enumerate(batch):
        assert ref.episode in (0, 1)
        assert 0 <= ref.timestep < 10
        assert ref.collision_related == (ref.episode == 0 and ref.timestep >= 5)
        assert (ref.episode, ref.timestep) == (batch.episode[k], batch.timestep[k])
    assert sum(ref.collision_related for ref in batch) == batch.collision_related.sum()


def reference_sample(index, batch_size, rng, p_collision, p_noncollision):
    """Proposal-by-proposal acceptance: the loop `sample` must reproduce.

    Returns (episode, timestep, collision_related) tuples."""

    out = []
    chunk = max(batch_size * 4, 64)
    while len(out) < batch_size:
        proposals = rng.integers(0, len(index), size=chunk)
        accept = rng.random(chunk)
        for j, u in zip(proposals, accept):
            related = bool(index.collision_related[j])
            threshold = p_collision if related else p_noncollision
            if u < threshold:
                out.append((int(index.episode[j]), int(index.timestep[j]), related))
                if len(out) == batch_size:
                    break
    return out


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 30), st.booleans()), min_size=1, max_size=6),
    n_heads=st.integers(1, 8),
    batch_size=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
    p_collision=st.floats(0.05, 1.0),
    ratio=st.floats(0.05, 1.0),
)
def test_sample_matches_scalar_reference(shapes, n_heads, batch_size, seed, p_collision, ratio):
    eps = [episode(steps, collides, seed=k) for k, (steps, collides) in enumerate(shapes)]
    index = build_index(eps, horizon(n_heads))
    p_noncollision = p_collision * ratio
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample(index, batch_size, rng, p_collision, p_noncollision)
    columns = list(zip(got.episode.tolist(), got.timestep.tolist(),
                       got.collision_related.tolist()))
    assert columns == reference_sample(index, batch_size, ref_rng, p_collision, p_noncollision)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_rejects_empty_index():
    index = build_index([episode(5, False)], horizon(3))
    empty = index[np.zeros(len(index), dtype=bool)]
    with pytest.raises(ValueError):
        sample(empty, 4, np.random.default_rng(0), 0.25, 0.025)


def test_accepted_batch_class_fraction():
    # Half the entries collision-related, acceptance 0.5 vs 0.05: the
    # accepted stream should be collision-related 10/11 of the time.
    eps = [episode(50, True), episode(50, False, seed=1)]
    index = build_index(eps, horizon(50))
    assert index.collision_related.sum() == 50
    rng = np.random.default_rng(3)
    batch = sample(index, 100_000, rng, p_collision=0.5, p_noncollision=0.05)
    frac = np.mean(batch.collision_related)
    assert frac == pytest.approx(10 / 11, abs=0.01)


def test_stratified_expectation_matches_uniform_times_pnc():
    # E[accepted * importance * g] per proposal draw = p_nc * E_uniform[g].
    rng = np.random.default_rng(17)
    eps = [episode(20, True), episode(20, False, seed=1)]
    index = build_index(eps, horizon(8))
    g = rng.normal(size=len(index))  # an arbitrary per-entry statistic

    p_c, p_nc = 0.25, 0.025
    uniform_mean = g.mean()

    draws = 200_000
    proposals = rng.integers(0, len(index), size=draws)
    accept_u = rng.random(draws)
    p_accept = np.where(index.collision_related[proposals], p_c, p_nc)
    accepted = accept_u < p_accept
    weight = np.where(index.collision_related[proposals], p_nc / p_c, 1.0)
    contribution = np.where(accepted, weight * g[proposals], 0.0)
    got = contribution.mean()
    want = p_nc * uniform_mean
    assert got == pytest.approx(want, rel=0.02)
