"""Tests for the benchmark instance generators."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from mdpaccel.generators import (
    GeneratorFamily,
    GeneratorSpec,
    generate,
)
from mdpaccel.model import (
    RewardMode,
    absorbing_states,
    initial_feasible_point_total_reward,
    models_identical,
    validate_model,
)

from test_model import action_row, num_actions


class TestSpecValidation:
    def test_uniform_requires_density(self):
        with pytest.raises(ValueError, match="density"):
            GeneratorSpec(family="uniform", num_states=10)

    def test_uniform_rejects_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            GeneratorSpec(family="uniform", num_states=10, density=0.5, bandwidth=3)

    def test_band_requires_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            GeneratorSpec(family="band", num_states=10)
        with pytest.raises(ValueError, match="bandwidth"):
            GeneratorSpec(family="band", num_states=10, bandwidth=10)

    def test_band_rejects_density(self):
        with pytest.raises(ValueError, match="density"):
            GeneratorSpec(family="band", num_states=10, bandwidth=3, density=0.5)

    def test_density_bounds(self):
        with pytest.raises(ValueError, match="density"):
            GeneratorSpec(family="uniform", num_states=10, density=0.0)
        with pytest.raises(ValueError, match="density"):
            GeneratorSpec(family="uniform", num_states=10, density=1.1)
        with pytest.raises(ValueError, match="empty"):
            GeneratorSpec(family="uniform", num_states=100, density=0.001)

    def test_total_reward_discount_pinned(self):
        with pytest.raises(ValueError, match="undiscounted"):
            GeneratorSpec(family="total_reward_positive", num_states=5, discount=0.9)

    @pytest.mark.parametrize("family, extra, discount", [
        ("total_reward_positive", {}, 1.0),
        ("uniform", {"density": 0.5}, 0.9),
        ("band", {"bandwidth": 3}, 0.9),
    ])
    def test_discount_defaults_by_family(self, family, extra, discount):
        assert GeneratorSpec(family=family, num_states=5, **extra).discount == discount

    def test_total_reward_needs_positive_rewards(self):
        with pytest.raises(ValueError, match="positive"):
            GeneratorSpec(
                family="total_reward_positive",
                num_states=5,
                discount=1.0,
                reward_range=(0.0, 10.0),
            )

    def test_discounted_families_reject_discount_one(self):
        with pytest.raises(ValueError, match="discount"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, discount=1.0)

    def test_action_range(self):
        with pytest.raises(ValueError, match="action"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, action_range=(0, 3))
        with pytest.raises(ValueError, match="action"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, action_range=(5, 3))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, seed=-1)

    @pytest.mark.parametrize("rewards", [(1.0, math.inf), (-1e308, 1e308)], ids=["inf", "wide"])
    def test_reward_range_width_must_be_finite(self, rewards):
        with pytest.raises(ValueError, match="finite width"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, reward_range=rewards)


def small(family="uniform", **kw):
    base = dict(num_states=12, action_range=(2, 5), seed=7)
    if family == "uniform":
        base["density"] = 0.5
    elif family == "band":
        base["bandwidth"] = 5
    else:
        base.update(discount=1.0)
    base.update(kw)
    return GeneratorSpec(family=family, **base)


class TestDeterminism:
    @pytest.mark.parametrize("family", ["uniform", "band", "total_reward_positive"])
    def test_same_seed_same_bytes(self, family):
        a = generate(small(family))
        b = generate(small(family))
        assert models_identical(a, b)

    def test_different_seed_differs(self):
        a = generate(small(seed=7))
        b = generate(small(seed=8))
        assert not models_identical(a, b)


def model_digest(m):
    """SHA-256 over the five stored arrays (little-endian bytes) and the metadata.

    The columns are hashed widened to int64, so a digest pins their values,
    not the width they are stored in.
    """
    h = hashlib.sha256()
    for a in (m.state_ptr, m.rewards, m.row_ptr, m.cols.astype(np.int64), m.probs):
        h.update(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())
    h.update(json.dumps(m.metadata, sort_keys=True).encode())
    return h.hexdigest()


STREAM_SPECS = {
    "uniform-sparse": dict(family="uniform", num_states=15, density=0.4),
    "uniform-dense": dict(family="uniform", num_states=15, density=1.0),
    "band": dict(family="band", num_states=15, bandwidth=5),
    "total-dense": dict(family="total_reward_positive", num_states=15, discount=1.0),
    "total-sparse": dict(family="total_reward_positive", num_states=15, density=0.3, discount=1.0),
}

# Digests of the instances as first generated, through per-action draws and
# nested (column, probability) lists; any change to the draw order, the
# weight normalization or the assembled arrays moves them.
STREAM_DIGESTS = {
    ("uniform-sparse", 0): "57a9e943bf2db226024e9c5d6a6323b3a394f9f67003dbd7406420020f5da7b4",
    ("uniform-sparse", 42): "9ea53c6c7dd7a5a19025b625ca81e9911282ede818e555eae8d9f1c9094f4ea4",
    ("uniform-dense", 0): "5743695b3c392718c83bc04f01e1f19638dc3338e157adae0d9e749a9bbc008e",
    ("uniform-dense", 42): "d1f928f6d04a694ab829082fd3ca146958c143f4f19612b206ef461f586ee55d",
    ("band", 0): "cb4fc3778bfe3fe14d797a205da49fe0b891166e25c96b1b2f70f1e4cad81389",
    ("band", 42): "8c5855a986dd498616516c0341afb2655654fbb197117de39e36cc09cf1fe7c1",
    ("total-dense", 0): "f20518e8f8da865d013f4ec03565f208af92b9846af8e0c8d67290195480d36d",
    ("total-dense", 42): "ab500cf35edd21ec4b97ac3d4b4943102f72997a62b67150b8aef2dcf498f616",
    ("total-sparse", 0): "84e3721d0b469aac899878aa2b79514af3055f2d47d6b0c96e1ab1f340bf2a5e",
    ("total-sparse", 42): "94322fb77253d9dcc6d22fe561989f0a28e916b725117c98d5dfd5adbb027cc8",
}


# Digests at benchmark scale, taken from the per-row support draws before
# they were batched into per-state blocks: the sparse-gs workload's shape
# and a sparse total-reward model, whose rows end in the terminal column.
SCALE_SPECS = {
    "sparse-gs": dict(family="uniform", num_states=100, density=0.2, discount=0.9,
                      action_range=(45, 56), seed=100),
    "total-sparse-40": dict(family="total_reward_positive", num_states=40, density=0.2,
                            discount=1.0, action_range=(2, 6), seed=100),
}
SCALE_DIGESTS = {
    "sparse-gs": "3d9c95ed5e23e52702f141386ace09dbac88b662861ed4df567780983e1b072f",
    "total-sparse-40": "9e011cd0a22cf79233d6329e3e5f71e1947483632f67f239a6739f9ca292238b",
}


class TestStreamPinned:
    @pytest.mark.parametrize("name,seed", sorted(STREAM_DIGESTS), ids=lambda x: str(x))
    def test_digest(self, name, seed):
        spec = GeneratorSpec(seed=seed, action_range=(2, 6), **STREAM_SPECS[name])
        assert model_digest(generate(spec)) == STREAM_DIGESTS[name, seed]

    @pytest.mark.parametrize("name", sorted(SCALE_DIGESTS))
    def test_digest_at_benchmark_scale(self, name):
        m = generate(GeneratorSpec(**SCALE_SPECS[name]))
        assert model_digest(m) == SCALE_DIGESTS[name]

    def test_digest_sees_one_probability_bit(self):
        m = generate(GeneratorSpec(seed=0, action_range=(2, 6), **STREAM_SPECS["band"]))
        m.probs[7] = np.nextafter(m.probs[7], 2.0)
        assert model_digest(m) != STREAM_DIGESTS["band", 0]


class TestUniformFamily:
    def test_valid_and_sized(self):
        m = generate(small())
        assert validate_model(m) == []
        assert m.num_states == 12
        counts = np.diff(m.state_ptr)
        assert np.all((counts >= 2) & (counts <= 5))

    def test_support_size_follows_density(self):
        m = generate(GeneratorSpec(family="uniform", num_states=20, density=0.25, seed=1))
        nnz = np.diff(m.row_ptr)
        assert np.all(nnz == 5)

    def test_full_density_is_dense(self):
        m = generate(GeneratorSpec(family="uniform", num_states=9, density=1.0, seed=1))
        nnz = np.diff(m.row_ptr)
        assert np.all(nnz == 9)

    def test_rewards_within_range(self):
        m = generate(small(reward_range=(5.0, 6.0)))
        assert np.all((m.rewards >= 5.0) & (m.rewards <= 6.0))

    def test_metadata_recorded(self):
        m = generate(small())
        assert m.metadata["family"] == "uniform"
        assert m.metadata["density"] == 0.5
        assert m.metadata["seed"] == 7
        assert m.metadata["prng"] == "numpy-pcg64"


class TestBandFamily:
    def test_columns_stay_in_window(self):
        spec = GeneratorSpec(family="band", num_states=30, bandwidth=7, seed=3)
        m = generate(spec)
        assert validate_model(m) == []
        half = 7 // 2
        for i in range(m.num_states):
            for a in range(num_actions(m, i)):
                cols, _ = action_row(m, i, a)
                assert cols.min() >= max(0, i - half)
                assert cols.max() <= min(m.num_states - 1, i + half)

    def test_interior_rows_use_whole_window(self):
        spec = GeneratorSpec(family="band", num_states=30, bandwidth=7, seed=3)
        m = generate(spec)
        half = 7 // 2
        i = 15
        cols, _ = action_row(m, i, 0)
        np.testing.assert_array_equal(cols, np.arange(i - half, i + half + 1))

    def test_metadata_has_bandwidth(self):
        m = generate(GeneratorSpec(family="band", num_states=10, bandwidth=3, seed=0))
        assert m.metadata["bandwidth"] == 3
        assert "density" not in m.metadata


class TestTotalRewardFamily:
    def test_structure(self):
        m = generate(small("total_reward_positive"))
        assert validate_model(m) == []
        assert m.mode is RewardMode.TOTAL_REWARD
        assert m.discount == 1.0
        np.testing.assert_array_equal(absorbing_states(m), [m.num_states - 1])

    def test_every_transient_row_reaches_terminal(self):
        m = generate(small("total_reward_positive"))
        terminal = m.num_states - 1
        for i in range(terminal):
            for a in range(num_actions(m, i)):
                cols, probs = action_row(m, i, a)
                assert cols[-1] == terminal
                assert probs[-1] > 0.0

    def test_dominating_start_exists(self):
        m = generate(small("total_reward_positive"))
        v = initial_feasible_point_total_reward(m)
        assert v[-1] == 0.0
        assert np.all(v[:-1] > 0.0)

    def test_transient_rewards_positive(self):
        m = generate(small("total_reward_positive"))
        terminal_row = m.state_ptr[m.num_states - 1]
        assert np.all(m.rewards[:terminal_row] > 0.0)
        assert m.rewards[terminal_row] == 0.0

    def test_partial_density(self):
        spec = GeneratorSpec(
            family="total_reward_positive", num_states=20, density=0.25, discount=1.0, seed=2
        )
        m = generate(spec)
        nnz = np.diff(m.row_ptr)[:-1]  # transient rows
        assert np.all(nnz == 5)
        assert validate_model(m) == []


class TestWeightProperties:
    def test_weights_never_zero_and_sum_to_one(self):
        m = generate(small(seed=123))
        assert np.all(m.probs > 0.0)
        sums = np.add.reduceat(m.probs, m.row_ptr[:-1])
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)
