"""Tests for the benchmark instance generators."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from mdpaccel import generators
from mdpaccel.generators import (
    GeneratorFamily,
    GeneratorSpec,
    _SparseRows,
    generate,
)
from mdpaccel.model import (
    RewardMode,
    absorbing_states,
    initial_feasible_point_total_reward,
    load_model,
    models_identical,
    save_model,
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

    @pytest.mark.parametrize("num_states", [1, 0, -3])
    def test_fewer_than_two_states(self, num_states):
        with pytest.raises(ValueError, match="need at least 2 states"):
            GeneratorSpec(family="uniform", num_states=num_states, density=1.0)

    def test_reward_range_low_above_high(self):
        with pytest.raises(ValueError, match=r"bad reward range \(5.0, 1.0\)"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, reward_range=(5.0, 1.0))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, seed=-1)

    @pytest.mark.parametrize("rewards", [(1.0, math.inf), (-1e308, 1e308)], ids=["inf", "wide"])
    def test_reward_range_width_must_be_finite(self, rewards):
        with pytest.raises(ValueError, match="finite width"):
            GeneratorSpec(family="uniform", num_states=5, density=0.5, reward_range=rewards)

    @pytest.mark.parametrize("field, value", [
        ("num_states", 5.0), ("num_states", True), ("seed", 1.0), ("seed", np.True_),
        ("action_range", (2.5, 3)), ("action_range", (2, True)),
        ("bandwidth", 2.0), ("bandwidth", True),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        kw = dict(family="band", num_states=5, bandwidth=2)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            GeneratorSpec(**kw)

    @pytest.mark.parametrize("field, value", [
        ("density", True), ("density", "0.5"), ("density", np.True_),
        ("discount", False), ("discount", "0.9"),
        ("reward_range", (True, 5)), ("reward_range", (1.0, "5")), ("reward_range", (1.0, None)),
    ])
    def test_rates_and_rewards_must_be_numbers(self, field, value):
        kw = dict(family="uniform", num_states=4, density=0.5)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a number, got"):
            GeneratorSpec(**kw)

    @pytest.mark.parametrize("field, value", [
        ("reward_range", 5), ("action_range", 5), ("reward_range", (1.0, 2.0, 3.0)),
        ("action_range", (2,)), ("reward_range", "ab"), ("action_range", None),
    ])
    def test_ranges_must_be_pairs(self, field, value):
        kw = dict(family="uniform", num_states=4, density=0.5)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a \\(low, high\\) pair, got"):
            GeneratorSpec(**kw)

    def test_list_ranges_are_stored_as_hashable_tuples(self):
        spec = GeneratorSpec(family="uniform", num_states=4, density=0.5,
                             reward_range=[1, 2.5], action_range=[2, 3])
        assert spec.reward_range == (1, 2.5) and spec.action_range == (2, 3)
        assert hash(spec) == hash(GeneratorSpec(family="uniform", num_states=4, density=0.5,
                                                reward_range=(1, 2.5), action_range=(2, 3)))
        # the values are kept as given, so the metadata is unchanged
        assert spec.metadata()["reward_range"] == [1, 2.5]
        assert type(spec.metadata()["reward_range"][0]) is int

    def test_numpy_integers_are_taken_as_ints(self):
        spec = GeneratorSpec(family="band", num_states=np.int64(6), bandwidth=np.int32(3),
                             seed=np.uint64(4), action_range=(np.int16(2), np.int64(3)))
        assert spec == GeneratorSpec(family="band", num_states=6, bandwidth=3, seed=4,
                                     action_range=(2, 3))
        assert json.loads(json.dumps(spec.metadata()))["action_range"] == [2, 3]

    def test_numpy_float_metadata_is_python_numbers_and_round_trips(self, tmp_path):
        spec = GeneratorSpec(family="uniform", num_states=4, density=np.float32(0.5),
                             reward_range=(1, np.float32(2)), discount=np.float32(0.9), seed=1)
        meta = spec.metadata()
        numbers = [meta["num_states"], *meta["action_range"], *meta["reward_range"],
                   meta["discount"], meta["seed"], meta["density"]]
        assert all(type(x) in (int, float) for x in numbers)
        assert type(meta["reward_range"][0]) is int
        assert meta["discount"] == float(np.float32(0.9)) and meta["density"] == 0.5
        m = generate(spec)
        path = tmp_path / "m.json"
        save_model(m, path)
        assert models_identical(load_model(path), m)


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
# at the benchmark's seeds 100-104 and a sparse total-reward model, whose
# rows end in the terminal column.
SPARSE_GS = dict(family="uniform", num_states=100, density=0.2, discount=0.9,
                 action_range=(45, 56))
SCALE_SPECS = {
    "sparse-gs": dict(SPARSE_GS, seed=100),
    **{f"sparse-gs-{seed}": dict(SPARSE_GS, seed=seed) for seed in range(101, 105)},
    "total-sparse-40": dict(family="total_reward_positive", num_states=40, density=0.2,
                            discount=1.0, action_range=(2, 6), seed=100),
}
SCALE_DIGESTS = {
    "sparse-gs": "3d9c95ed5e23e52702f141386ace09dbac88b662861ed4df567780983e1b072f",
    "sparse-gs-101": "e97dac697db320242c1b8b12d10c622d978c7947c0e40ca236171a3b23f9cfc3",
    "sparse-gs-102": "fdaa3931fad25e538b447ce1934c3c0c07a808931d6c8f5a9d59b205a26ff1ec",
    "sparse-gs-103": "de0dc55c725b56b0216a45ae1d221e33d11f1d60248f33f3f7c233bb35ece361",
    "sparse-gs-104": "f426557cc214ea26d1c9273b224d591061551d548ac14ddc20d66e6783630e1f",
    "total-sparse-40": "9e011cd0a22cf79233d6329e3e5f71e1947483632f67f239a6739f9ca292238b",
}


# Models with states of one to three rows, digests taken while every state
# of them read its supports in bulk.
FEW_ROWS_SPECS = {
    "one-row": dict(family="uniform", num_states=300, density=0.05, action_range=(1, 1), seed=100),
    "one-to-three-rows": dict(family="uniform", num_states=300, density=0.05, action_range=(1, 3),
                              seed=101),
    "total-one-row": dict(family="total_reward_positive", num_states=300, density=0.05,
                          action_range=(1, 1), seed=102),
}
FEW_ROWS_DIGESTS = {
    "one-row": "9deaa0b9936733d974c2f65eabf75f622c24232db2e8995273cda69ccaa8069c",
    "one-to-three-rows": "7e6e243782e257f01a0657f8855392c806c3e823759017bcb0e97f873be7e5cb",
    "total-one-row": "b6fbc243049509def38773f396dbcd2a30a930543df42c90b8b426750428aea5",
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


def choice_rows(rng, k, population, size, tail=None):
    """Reference sparse rows, drawn as first written: per row a
    ``choice(population, size, replace=False)``, sorted and followed by the
    tail column, then ``random`` weights, normalized."""
    cols, probs = [], []
    for _ in range(k):
        c = np.sort(rng.choice(population, size, replace=False))
        w = 1.0 - rng.random(size + (tail is not None))
        cols.append(c if tail is None else np.append(c, tail))
        probs.append(w / w.sum())
    return np.concatenate(cols), np.concatenate(probs)


def bulk_rows(rng, k, population, size, tail=None):
    rows = _SparseRows(population, size, tail, max_rows=k)
    cols, probs = rows.draw(rng, k)
    rows.flush()
    return cols, probs


def twin_generators(seed, prefix):
    """Two generators in one state: seeded alike, then ``prefix`` 32-bit draws each,
    so an odd prefix leaves half a raw word buffered."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        for _ in range(prefix):
            rng.integers(0, 10)
    return pair


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    np.testing.assert_array_equal(a.integers(0, 1000, 5), b.integers(0, 1000, 5))
    np.testing.assert_array_equal(a.random(3), b.random(3))


def refuse_fallback(*args):
    raise AssertionError("a state fell back to per-row choice draws")


# (k, population, size): every size from 1 to population - 1 on small
# populations, and the sparse-gs row shape.
BULK_CASES = [(k, pop, size) for k in (1, 2, 5) for pop in (2, 3, 6) for size in range(1, pop)] + [
    (1, 100, 20), (4, 100, 20), (7, 100, 99), (3, 257, 128), (56, 100, 20), (9, 10_000, 7),
]


class TestBulkSparseDraws:
    @pytest.mark.parametrize("tail", [None, 999], ids=["no-tail", "tail"])
    @pytest.mark.parametrize("prefix", [0, 1, 3])
    def test_matches_per_row_choice(self, monkeypatch, tail, prefix):
        monkeypatch.setattr(generators, "_choice_rows", refuse_fallback)
        # the read itself, at every row count: generate reads one-row states per row
        monkeypatch.setattr(generators, "_BULK_MIN_ROWS", 1)
        for i, (k, population, size) in enumerate(BULK_CASES):
            a, b = twin_generators(i, prefix)
            got, want = bulk_rows(a, k, population, size, tail), choice_rows(b, k, population, size, tail)
            case = f"k={k} population={population} size={size}"
            np.testing.assert_array_equal(got[0], want[0], err_msg=case)
            np.testing.assert_array_equal(got[1], want[1], err_msg=case)
            assert_same_stream(a, b)

    def test_tail_shuffle_branch_declined_without_drawing(self):
        rng = np.random.default_rng(5)
        rows = _SparseRows(20_000, 500, None, max_rows=2)
        before = rng.bit_generator.state
        assert rows._read(rng, np.empty((2, 500), dtype=np.int32)) is None
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("prefix", [0, 1])
    def test_rejected_draw_falls_back_from_the_entry_state(self, prefix):
        a, b = twin_generators(11, prefix)
        rows = _SparseRows(100, 20, None, max_rows=6)
        rows.reject_below = np.full_like(rows.reject_below, 2**32 - 1)
        cols, probs = rows.draw(a, 6)
        rows.flush()
        want = choice_rows(b, 6, 100, 20)
        np.testing.assert_array_equal(cols, want[0])
        np.testing.assert_array_equal(probs, want[1])
        assert_same_stream(a, b)

    def test_forced_rejections_keep_the_model(self, monkeypatch):
        """Every third state's read meets a rejection, so fallback rows sit between
        rows whose columns wait for a block; the model keeps its pinned digest."""
        read, choice = _SparseRows._read, generators._choice_rows
        reads, fallbacks = [], []

        def rejecting_read(self, rng, out):
            reads.append(len(out))
            if len(reads) % 3:
                return read(self, rng, out)
            floor = self.reject_below
            self.reject_below = np.full_like(floor, 2**32 - 1)
            try:
                return read(self, rng, out)
            finally:
                self.reject_below = floor

        def counted_choice(*args):
            fallbacks.append(args[1])
            return choice(*args)

        monkeypatch.setattr(_SparseRows, "_read", rejecting_read)
        monkeypatch.setattr(generators, "_choice_rows", counted_choice)
        m = generate(GeneratorSpec(**SCALE_SPECS["sparse-gs"]))
        assert model_digest(m) == SCALE_DIGESTS["sparse-gs"]
        assert len(fallbacks) == len(reads) // 3 > 0
        assert fallbacks == reads[2::3]

    @pytest.mark.parametrize("name", sorted(FEW_ROWS_DIGESTS))
    def test_one_row_states_draw_per_row_and_keep_the_model(self, monkeypatch, name):
        choice, fallbacks = generators._choice_rows, []

        def counted_choice(*args):
            fallbacks.append(args[1])
            return choice(*args)

        monkeypatch.setattr(generators, "_choice_rows", counted_choice)
        m = generate(GeneratorSpec(**FEW_ROWS_SPECS[name]))
        assert model_digest(m) == FEW_ROWS_DIGESTS[name]
        drawn = np.diff(m.state_ptr)[:-1] if m.mode is RewardMode.TOTAL_REWARD else np.diff(m.state_ptr)
        assert fallbacks.count(1) == np.count_nonzero(drawn == 1) > 0

    @pytest.mark.parametrize("name", ["sparse-gs"] + [f"sparse-gs-{s}" for s in range(101, 105)])
    def test_benchmark_seeds_read_every_state_in_bulk(self, monkeypatch, name):
        monkeypatch.setattr(generators, "_choice_rows", refuse_fallback)
        m = generate(GeneratorSpec(**SCALE_SPECS[name]))
        assert model_digest(m) == SCALE_DIGESTS[name]

    def test_transient_memory_stays_near_the_model(self):
        """The waiting rows' draws stay small beside the model: ``generate``'s
        traced peak is the chunks plus their concatenation, about 2.16 times
        the columns and weights it returns."""
        spec = GeneratorSpec(**SCALE_SPECS["sparse-gs"])
        tracemalloc.start()
        try:
            m = generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * (m.cols.nbytes + m.probs.nbytes)
