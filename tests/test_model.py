"""Tests for the model layer: construction, validation, IO, feasible starts."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mdpaccel import model as model_module
from mdpaccel.generators import GeneratorSpec, generate
from mdpaccel.model import (
    SHOWN_CHARS,
    MdpModel,
    ModelFormatError,
    ModelValidationError,
    RewardMode,
    absorbing_states,
    adjust_rewards_nonnegative,
    initial_feasible_point,
    initial_feasible_point_total_reward,
    load_model,
    models_identical,
    save_model,
    shown,
    validate_model,
)


def two_state_swap(r1=1.0, r2=1.0, discount=0.9):
    """Two states, one action each, deterministic swap."""
    return MdpModel.from_rows(
        [
            [(r1, [(1, 1.0)])],
            [(r2, [(0, 1.0)])],
        ],
        discount=discount,
    )


def num_actions(m, state):
    """Number of actions of ``state``."""
    return int(m.state_ptr[state + 1] - m.state_ptr[state])


def action_reward(m, state, action):
    """Reward of one (state, action) row."""
    return float(m.rewards[m.state_ptr[state] + action])


def action_row(m, state, action):
    """(columns, probabilities) of one (state, action) row."""
    k = m.state_ptr[state] + action
    lo, hi = m.row_ptr[k], m.row_ptr[k + 1]
    return m.cols[lo:hi], m.probs[lo:hi]


def random_model(rng, num_states=8, max_actions=4, density=0.6, discount=0.9):
    states = []
    for i in range(num_states):
        actions = []
        for _ in range(int(rng.integers(1, max_actions + 1))):
            nnz = max(1, int(round(density * num_states)))
            cols = np.sort(rng.choice(num_states, size=nnz, replace=False))
            w = 1.0 - rng.uniform(0.0, 1.0, size=nnz)
            w /= w.sum()
            actions.append((float(rng.uniform(0.0, 10.0)), list(zip(cols.tolist(), w.tolist()))))
        states.append(actions)
    return MdpModel.from_rows(states, discount=discount)


class TestConstruction:
    def test_from_rows_layout(self):
        m = MdpModel.from_rows(
            [
                [(1.0, [(0, 0.5), (1, 0.5)]), (2.0, [(1, 1.0)])],
                [(3.0, [(0, 1.0)])],
            ],
            discount=0.9,
        )
        assert m.num_states == 2
        assert m.num_rows == 3
        assert num_actions(m, 0) == 2
        assert num_actions(m, 1) == 1
        np.testing.assert_array_equal(m.state_ptr, [0, 2, 3])
        np.testing.assert_array_equal(m.row_ptr, [0, 2, 3, 4])
        np.testing.assert_array_equal(m.cols, [0, 1, 1, 0])
        assert action_reward(m, 1, 0) == 3.0
        cols, probs = action_row(m, 0, 0)
        np.testing.assert_array_equal(cols, [0, 1])
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_row_state_and_self_loops(self):
        m = MdpModel.from_rows(
            [
                [(0.0, [(0, 1.0)]), (0.0, [(1, 1.0)])],
                [(0.0, [(0, 0.3), (1, 0.7)])],
            ],
            discount=0.5,
        )
        np.testing.assert_array_equal(m.row_state, [0, 0, 1])
        np.testing.assert_allclose(m.self_loop_probs, [1.0, 0.0, 0.7])

    def test_row_statistics(self):
        m = MdpModel.from_rows(
            [
                [(-4.0, [(0, 0.25), (1, 0.75 + 1e-10)]), (1.0, [(1, 1.0)])],
                [(2.5, [(0, 0.1), (1, 0.2), (2, 0.7)])],
                [(0.0, [(2, 1.0)])],
            ],
            discount=0.5,
        )
        assert m.max_row_nnz == 3
        assert m.max_abs_reward == 4.0
        assert 1e-10 <= m.row_sum_deviation < 1.1e-10
        assert m.row_sum_deviation is m.row_sum_deviation  # built once
        negative = dataclasses.replace(m, probs=np.where(m.probs == 0.1, -0.1, m.probs))
        assert negative.row_sum_deviation == np.inf

    def test_row_matrix_matches_dense(self):
        rng = np.random.default_rng(7)
        m = random_model(rng)
        dense = m.row_matrix.toarray()
        assert dense.shape == (m.num_rows, m.num_states)
        for i in range(m.num_states):
            for a in range(num_actions(m, i)):
                cols, probs = action_row(m, i, a)
                row = np.zeros(m.num_states)
                row[cols] = probs
                np.testing.assert_array_equal(dense[m.state_ptr[i] + a], row)


    def test_row_counts_spread_like_the_row_state_gather(self):
        m = random_model(np.random.default_rng(11), num_states=9, max_actions=5)
        assert m.row_counts.tolist() == [num_actions(m, i) for i in range(m.num_states)]
        assert m.row_counts is m.row_counts  # built once
        x = np.arange(m.num_states) * 1.5
        assert np.array_equal(np.repeat(x, m.row_counts), x[m.row_state])

    def test_replace_copy_starts_without_derived_views(self):
        m = random_model(np.random.default_rng(9))
        m.row_matrix, m.self_loop_probs, m.max_abs_reward
        fresh = dataclasses.replace(m)
        assert fresh._views == {} and fresh._views is not m._views
        assert fresh._row_matrix is None
        views = {"row_matrix", "row_state", "self_loop_probs", "row_counts", "max_abs_reward"}
        assert not views & vars(fresh).keys()


def reference_entry_violations(m):
    """The probability, column and order violations, located through a per-entry owner array."""
    owner = np.repeat(np.arange(m.num_rows), np.diff(m.row_ptr))
    out = []

    def named(rule, rows):
        for k in np.unique(rows):
            s = int(np.searchsorted(m.state_ptr, k, side="right") - 1)
            out.append(f"{rule} at state {s} action {int(k - m.state_ptr[s])}")

    named("probability-range", owner[~((m.probs > 0.0) & (m.probs <= 1.0))])
    bad_cols = owner[(m.cols < 0) | (m.cols >= m.num_states)]
    named("column-range", bad_cols)
    if bad_cols.size == 0:
        increasing = np.ones(m.cols.size, dtype=bool)
        increasing[1:] = np.diff(m.cols) > 0
        increasing[m.row_ptr[:-1]] = True
        named("column-order", owner[~increasing])
    return out


class TestValidation:
    def test_valid_model_has_no_violations(self):
        assert validate_model(two_state_swap()) == []

    def test_row_sum_violation(self):
        m = MdpModel.from_rows([[(1.0, [(0, 0.98)])]], discount=0.9)
        v = validate_model(m)
        assert len(v) == 1
        assert v[0].rule == "row-sum"
        assert (v[0].state, v[0].action) == (0, 0)

    def test_row_sum_within_tolerance_accepted(self):
        m = MdpModel.from_rows([[(1.0, [(0, 0.5 + 2e-10), (0, 0.5)])]], discount=0.9)
        # column-order breaks here, but row-sum must not:
        rules = {v.rule for v in validate_model(m)}
        assert "row-sum" not in rules

    def test_probability_range(self):
        m = MdpModel.from_rows([[(1.0, [(0, 0.0), (1, 1.0)])]], discount=0.9)
        assert "probability-range" in {v.rule for v in validate_model(m)}
        m = MdpModel.from_rows([[(1.0, [(0, -0.2), (1, 1.2)])]], discount=0.9)
        assert "probability-range" in {v.rule for v in validate_model(m)}

    def test_nan_probability_is_flagged(self):
        m = MdpModel.from_rows([[(1.0, [(0, float("nan"))])]], discount=0.9)
        assert "probability-range" in {v.rule for v in validate_model(m)}

    def test_column_order_and_range(self):
        second = [(1.0, [(0, 1.0)])]
        m = MdpModel.from_rows([[(1.0, [(1, 0.5), (0, 0.5)])], second], discount=0.9)
        assert "column-order" in {v.rule for v in validate_model(m)}
        m = MdpModel.from_rows([[(1.0, [(0, 0.5), (0, 0.5)])], second], discount=0.9)
        assert "column-order" in {v.rule for v in validate_model(m)}
        m = MdpModel.from_rows([[(1.0, [(5, 1.0)])]], discount=0.9)
        assert "column-range" in {v.rule for v in validate_model(m)}

    def test_no_actions(self):
        m = MdpModel.from_rows([[(1.0, [(0, 1.0)])], []], discount=0.9)
        v = validate_model(m)
        assert [x.rule for x in v] == ["no-actions"]
        assert v[0].state == 1

    def test_empty_row(self):
        m = MdpModel.from_rows([[(1.0, [(0, 1.0)]), (2.0, [])], [(1.0, [])]], discount=0.9)
        v = validate_model(m)
        assert [(x.rule, x.state, x.action) for x in v] == [("empty-row", 0, 1), ("empty-row", 1, 0)]

    def test_discount_mode_coupling(self):
        m = two_state_swap(discount=1.0)
        assert "discount-mode" in {v.rule for v in validate_model(m)}
        m = MdpModel.from_rows(
            [[(0.0, [(0, 1.0)])]], discount=0.9, mode=RewardMode.TOTAL_REWARD
        )
        assert "discount-mode" in {v.rule for v in validate_model(m)}

    def test_discount_out_of_range(self):
        assert "discount-range" in {v.rule for v in validate_model(two_state_swap(discount=1.5))}
        assert "discount-range" in {v.rule for v in validate_model(two_state_swap(discount=-0.1))}

    def test_reward_finite(self):
        m = MdpModel.from_rows([[(float("inf"), [(0, 1.0)])]], discount=0.9)
        assert "reward-finite" in {v.rule for v in validate_model(m)}

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_violations_name_the_rows_a_per_entry_owner_array_names(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, num_states=12, max_actions=4, density=0.5)
        probs, cols = m.probs.copy(), m.cols.astype(np.int64)
        for at in rng.choice(probs.size, size=6, replace=False):
            probs[at] = rng.choice([0.0, -0.5, 1.5, np.nan])
        if seed % 2:  # column faults hide the order check, so plant them on odd seeds
            cols[rng.choice(cols.size, size=3, replace=False)] = [-1, m.num_states, 2**40]
        else:
            at = rng.choice(np.flatnonzero(np.diff(m.row_ptr) > 1), size=3, replace=False)
            cols[m.row_ptr[at] + 1] = cols[m.row_ptr[at]]
        bad = dataclasses.replace(m, probs=probs, cols=cols)
        got = [str(v) for v in validate_model(bad) if v.rule != "row-sum"]
        assert got and got == reference_entry_violations(bad)

    @pytest.mark.parametrize("broken", [
        lambda m: dict(state_ptr=np.append(m.state_ptr[:-1], m.num_rows + 1)),
        lambda m: dict(state_ptr=m.state_ptr[:-1]),
        lambda m: dict(state_ptr=m.state_ptr + 1),
        lambda m: dict(rewards=np.append(m.rewards, 1.0)),
        lambda m: dict(row_ptr=m.row_ptr[:-1]),
        lambda m: dict(row_ptr=np.append(m.row_ptr[:-1], m.cols.size + 1)),
        lambda m: dict(cols=np.append(m.cols, 0)),
        lambda m: dict(probs=m.probs[:-1]),
        lambda m: dict(probs=np.append(m.probs, 0.5)),
    ], ids=[
        "state-ptr-past-the-rows", "state-ptr-one-short", "state-ptr-from-1", "rewards-too-long",
        "row-ptr-one-short", "row-ptr-past-the-entries", "cols-too-long", "probs-too-short", "probs-too-long",
    ])
    def test_layout_is_checked_before_the_arrays_are_indexed(self, broken):
        m = random_model(np.random.default_rng(4))
        assert validate_model(m) == []
        violations = validate_model(dataclasses.replace(m, **broken(m)))
        assert [v.rule for v in violations] == ["layout"]

    def test_violation_str_mentions_location(self):
        m = MdpModel.from_rows([[(1.0, [(0, 0.98)])]], discount=0.9)
        text = str(validate_model(m)[0])
        assert "row-sum" in text and "state 0" in text


# Columns past int32's range, on both sides; each must fail ``column-range``
# rather than wrap into a valid index when stored.
WIDE_COLUMNS = [2**31, 2**32 + 1, 2**40, -(2**31) - 1]


class TestColumnWidth:
    """Columns are stored in int32 when they fit, and ``row_matrix`` adopts them."""

    @pytest.mark.parametrize("column", WIDE_COLUMNS)
    def test_model_with_a_wide_column_fails_column_range(self, column):
        m = MdpModel.from_rows([[(1.0, [(column, 1.0)])], [(1.0, [(0, 1.0)])]], discount=0.9)
        assert m.cols.dtype == np.int64 and m.cols[0] == column
        assert [str(v) for v in validate_model(m)] == ["column-range at state 0 action 0"]

    @pytest.mark.parametrize("column", WIDE_COLUMNS)
    def test_file_with_a_wide_column_fails_column_range(self, tmp_path, column):
        p = tmp_path / "m.json"
        p.write_text(model_text_with_entry(f"[{column}, 0.25]", 1, 1, 0))
        with pytest.raises(ModelValidationError) as exc:
            load_model(p)
        assert [str(v) for v in exc.value.violations] == ["column-range at state 1 action 1"]

    def test_columns_that_fit_are_int32_and_shared_with_the_row_matrix(self, tmp_path):
        generated = generate(GeneratorSpec(family="band", num_states=20, bandwidth=5, seed=2))
        p = tmp_path / "m.json"
        save_model(generated, p)
        models = {
            "generated": generated,
            "loaded": load_model(p),
            "from_rows": two_state_swap(),
            "shifted": adjust_rewards_nonnegative(random_model(np.random.default_rng(5)))[0],
            "int64-given": dataclasses.replace(generated, cols=generated.cols.astype(np.int64)),
        }
        for name, m in models.items():
            assert m.cols.dtype == np.int32, name
            assert np.shares_memory(m.row_matrix.indices, m.cols), name


class TestRewardShift:
    def test_offset_is_max_abs(self):
        m = MdpModel.from_rows(
            [
                [(-3.0, [(1, 1.0)])],
                [(5.0, [(0, 1.0)])],
            ],
            discount=0.9,
        )
        shifted, offset = adjust_rewards_nonnegative(m)
        assert offset == 5.0
        np.testing.assert_array_equal(shifted.rewards, [2.0, 10.0])
        assert shifted.probs is m.probs  # transitions shared, not copied

    def test_shift_shares_built_derived_views(self):
        m = random_model(np.random.default_rng(10))
        shifted, _ = adjust_rewards_nonnegative(m)
        # nothing built on the input, and the shift builds nothing on it
        assert m._row_matrix is None
        assert shifted._row_matrix is None
        m.row_matrix, m.self_loop_probs
        shifted, _ = adjust_rewards_nonnegative(m)
        assert shifted.row_matrix is m.row_matrix
        assert shifted.row_state is m.row_state
        assert shifted.row_counts is m.row_counts
        assert shifted.self_loop_probs is m.self_loop_probs

    def test_shift_shares_the_transition_statistics_not_the_reward_bound(self):
        m = random_model(np.random.default_rng(12))
        m.jacobi_denominator, m.row_sum_deviation, m.max_abs_reward
        shifted, offset = adjust_rewards_nonnegative(m)
        assert shifted._views is m._views
        assert shifted.jacobi_denominator is m.jacobi_denominator
        assert shifted._views["row_sum_deviation"] == m.row_sum_deviation
        assert shifted._views["max_row_nnz"] == m.max_row_nnz
        assert "max_abs_reward" not in vars(shifted) and "max_abs_reward" not in shifted._views
        assert shifted.max_abs_reward == float(np.abs(m.rewards + offset).max())

    def test_a_view_built_on_the_copy_serves_the_input(self):
        m = random_model(np.random.default_rng(13))
        shifted, _ = adjust_rewards_nonnegative(m)
        again, _ = adjust_rewards_nonnegative(m)
        assert shifted.self_loop_probs is m.self_loop_probs is again.self_loop_probs
        assert m.row_matrix is again.row_matrix
        assert shifted.state_rows is not m.state_rows
        assert shifted.state_rows[0][3].base is shifted.rewards

    def test_shift_applied_even_when_nonnegative(self):
        m = two_state_swap(1.0, 2.0)
        shifted, offset = adjust_rewards_nonnegative(m)
        assert offset == 2.0
        np.testing.assert_array_equal(shifted.rewards, [3.0, 4.0])

    def test_total_reward_rejected(self):
        m = MdpModel.from_rows(
            [[(0.0, [(0, 1.0)])]], discount=1.0, mode=RewardMode.TOTAL_REWARD
        )
        with pytest.raises(ValueError):
            adjust_rewards_nonnegative(m)


class TestFeasibleStart:
    def test_constant_dominates_backup(self):
        m = two_state_swap(1.0, 2.0)
        v = initial_feasible_point(m)
        np.testing.assert_allclose(v, 20.0)
        # v >= r + discount * P v in both rows
        backup = m.rewards + m.discount * (m.row_matrix @ v)
        assert np.all(v[m.row_state] >= backup - 1e-12)

    def test_negative_rewards_rejected(self):
        m = two_state_swap(-1.0, 1.0)
        with pytest.raises(ValueError):
            initial_feasible_point(m)

    def test_total_reward_rejected(self):
        with pytest.raises(ValueError, match="requires a discounted model"):
            initial_feasible_point(chain_to_absorbing())


def chain_to_absorbing():
    """0 -> 1 -> 2(absorbing), rewards 3 then 1 then 0."""
    return MdpModel.from_rows(
        [
            [(3.0, [(1, 0.5), (2, 0.5)])],
            [(1.0, [(2, 1.0)])],
            [(0.0, [(2, 1.0)])],
        ],
        discount=1.0,
        mode=RewardMode.TOTAL_REWARD,
    )


class TestTotalRewardStart:
    def test_absorbing_detection(self):
        np.testing.assert_array_equal(absorbing_states(chain_to_absorbing()), [2])

    def test_level_and_zeros(self):
        m = chain_to_absorbing()
        v = initial_feasible_point_total_reward(m)
        # M = max(3/0.5, 1/1.0) = 6, absorbing state pinned to 0
        np.testing.assert_allclose(v, [6.0, 6.0, 0.0])
        backup = m.rewards + m.row_matrix @ v
        assert np.all(v[m.row_state] >= backup - 1e-12)

    def test_no_absorbing_state_raises(self):
        m = MdpModel.from_rows(
            [
                [(1.0, [(1, 1.0)])],
                [(1.0, [(0, 1.0)])],
            ],
            discount=1.0,
            mode=RewardMode.TOTAL_REWARD,
        )
        with pytest.raises(ValueError, match="absorbing"):
            initial_feasible_point_total_reward(m)

    def test_unreachable_absorbing_raises(self):
        m = MdpModel.from_rows(
            [
                [(1.0, [(1, 1.0)])],
                [(1.0, [(0, 1.0)])],
                [(0.0, [(2, 1.0)])],
            ],
            discount=1.0,
            mode=RewardMode.TOTAL_REWARD,
        )
        with pytest.raises(ValueError, match="state 0"):
            initial_feasible_point_total_reward(m)

    def test_discounted_model_rejected(self):
        with pytest.raises(ValueError):
            initial_feasible_point_total_reward(two_state_swap())


def reference_save_model(m, path):
    """The per-row JSON writer the per-state writer replaced.

    Kept as the byte reference ``save_model`` must reproduce: one write per
    fragment, every row reached through ``action_row``/``action_reward``.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"mode": %s, "discount": %r' % (json.dumps(m.mode.value), m.discount))
        if m.metadata is not None:
            f.write(', "generator": %s' % json.dumps(m.metadata, allow_nan=False))
        f.write(', "states": [')
        for i in range(m.num_states):
            f.write("," if i else "")
            f.write('{"actions": [')
            for a in range(num_actions(m, i)):
                cols, probs = action_row(m, i, a)
                body = ",".join("[%d,%r]" % (c, p) for c, p in zip(cols.tolist(), probs.tolist()))
                f.write("," if a else "")
                f.write('{"reward": %r, "transitions": [%s]}' % (action_reward(m, i, a), body))
            f.write("]}")
        f.write("]}\n")


def model_text_with_entry(entry, state, action, index):
    """A three-state document, two actions per state and three transition
    entries per action, with ``entry`` in place of one entry."""
    states = []
    for i in range(3):
        actions = []
        for a in range(2):
            trans = ["[0, 0.25]", "[1, 0.25]", "[2, 0.5]"]
            if (i, a) == (state, action):
                trans[index] = entry
            actions.append('{"reward": 1.0, "transitions": [%s]}' % ", ".join(trans))
        states.append('{"actions": [%s]}' % ", ".join(actions))
    return '{"mode": "discounted", "discount": 0.9, "states": [%s]}' % ", ".join(states)


# The path ``load_model`` names for a number past float range in each field.
HUGE_NUMBER_PATHS = {"reward": "states[0].actions[0].reward", "discount": "discount"}


def model_text_with_huge_number(field):
    """A one-state document whose ``field`` is an integer of 401 digits, past float range."""
    number = {"reward": "1.0", "discount": "0.9", field: "1" + "0" * 400}
    return ('{"mode": "discounted", "discount": %s, "states": [{"actions": '
            '[{"reward": %s, "transitions": [[0, 1.0]]}]}]}' % (number["discount"], number["reward"]))


# Every position a bad entry is planted at: the first state's first action,
# and a later state, action and entry.
BAD_ENTRY_POSITIONS = [(0, 0, 1), (1, 1, 2)]


def bad_entry_path(state, action, index):
    return rf"states\[{state}\]\.actions\[{action}\]\.transitions\[{index}\] "


class TestSerialization:
    def test_round_trip_bit_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        m = random_model(rng)
        m.metadata = {"family": "uniform", "seed": 11}
        p = tmp_path / "m.json"
        save_model(m, p)
        back = load_model(p)
        assert models_identical(m, back)

    def test_round_trip_awkward_floats(self, tmp_path):
        m = MdpModel.from_rows(
            [[(0.1 + 0.2, [(0, 1.0 / 3.0), (1, 2.0 / 3.0)])], [(1e-17, [(1, 1.0)])]],
            discount=0.9,
        )
        p = tmp_path / "m.json"
        save_model(m, p)
        back = load_model(p)
        assert models_identical(m, back)

    def test_saved_document_shape(self, tmp_path):
        m = two_state_swap(1.0, 2.0)
        p = tmp_path / "m.json"
        save_model(m, p)
        doc = json.loads(p.read_text())
        assert doc["mode"] == "discounted"
        assert doc["discount"] == 0.9
        assert doc["states"][1]["actions"][0]["reward"] == 2.0
        assert doc["states"][0]["actions"][0]["transitions"] == [[1, 1.0]]

    def test_save_refuses_invalid(self, tmp_path):
        m = MdpModel.from_rows([[(1.0, [(0, 0.98)])]], discount=0.9)
        with pytest.raises(ModelValidationError):
            save_model(m, tmp_path / "m.json")

    def test_load_reports_json_error_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"mode": "discounted",\n "discount": }\n')
        with pytest.raises(ModelFormatError, match="line 2"):
            load_model(p)

    @pytest.mark.parametrize("text", [
        '{"mode": ' + "[" * 200_000,
        '{"mode": "discounted", "discount": 0.9, "states": ' + "[" * 100_000,
    ], ids=["in-a-field", "in-states"])
    def test_load_refuses_nesting_deeper_than_the_decoder_recurses(self, tmp_path, text):
        p = tmp_path / "deep.json"
        p.write_text(text)
        with pytest.raises(ModelFormatError, match="nested too deeply to decode"):
            load_model(p)

    @pytest.mark.parametrize("text", [
        '{"mode": "discounted", "discount": 1' + "0" * 5_000 + "}",
        '{"mode": "discounted", "discount": 0.9, "states": '
        '[{"actions": [{"reward": 1.0, "transitions": [[1' + "0" * 5_000 + ", 1.0]]}]}]}",
    ], ids=["in-a-field", "in-states"])
    def test_load_refuses_integers_past_the_digit_limit(self, tmp_path, text):
        p = tmp_path / "long.json"
        p.write_text(text)
        with pytest.raises(ModelFormatError, match="digits, the longest decoded"):
            load_model(p)

    def test_load_locates_bytes_that_are_not_utf8(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'{"mode": \xff\xfe}')
        with pytest.raises(ModelFormatError, match="byte 9: not UTF-8"):
            load_model(p)

    def test_load_rejects_generator_metadata_that_is_not_an_object(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"mode": "discounted", "discount": 0.9, "states": [], "generator": [1]}')
        with pytest.raises(ModelFormatError, match="generator"):
            load_model(p)

    def test_load_rejects_nan_token(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": NaN, "transitions": [[0, 1.0]]}]}]}'
        )
        with pytest.raises(ModelFormatError, match="NaN"):
            load_model(p)

    def test_load_names_missing_field(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"mode": "discounted", "states": []}')
        with pytest.raises(ModelFormatError, match="discount"):
            load_model(p)

    def test_load_names_transitions_that_are_not_an_array(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": 1.0, "transitions": [[0, 1.0]]}, '
            '{"reward": 1.0, "transitions": {"0": 1.0}}]}]}'
        )
        with pytest.raises(ModelFormatError, match=r"^states\[0\]\.actions\[1\]\.transitions must be an array$"):
            load_model(p)

    def test_load_names_bad_transition_field(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": 1.0, "transitions": [[0.5, 1.0]]}]}]}'
        )
        with pytest.raises(ModelFormatError, match=r"states\[0\].actions\[0\]"):
            load_model(p)
        for where in BAD_ENTRY_POSITIONS:
            p.write_text(model_text_with_entry("[1.5, 0.25]", *where))
            with pytest.raises(ModelFormatError, match=bad_entry_path(*where) + "column 1.5 "):
                load_model(p)

    @pytest.mark.parametrize(
        "entry",
        ['[1, "1.0"]', '["1", 1.0]', "[true, 1.0]", "[1, null]", "null", "[1, [1.0]]", "[1, 0.5, 0]", "1"],
    )
    def test_load_locates_non_numeric_transition_entry(self, tmp_path, entry):
        p = tmp_path / "m.json"
        p.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": 1.0, "transitions": [[0, 0.5], %s]}]}, '
            '{"actions": [{"reward": 1.0, "transitions": [[1, 1.0]]}]}]}' % entry
        )
        with pytest.raises(ModelFormatError, match=r"states\[0\]\.actions\[0\]\.transitions\[1\] "):
            load_model(p)
        for where in BAD_ENTRY_POSITIONS:
            p.write_text(model_text_with_entry(entry, *where))
            with pytest.raises(ModelFormatError, match=bad_entry_path(*where) + "must be"):
                load_model(p)

    @pytest.mark.parametrize(
        "column", ["1e300", "-1e300", "1" + "0" * 400], ids=["1e300", "-1e300", "int-1e400"]
    )
    def test_load_rejects_huge_column_without_warning(self, tmp_path, column):
        p = tmp_path / "m.json"
        p.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": 1.0, "transitions": [[0, 0.5], [%s, 0.5]]}]}]}' % column
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFormatError, match=r"states\[0\]\.actions\[0\]\.transitions"):
                load_model(p)
            for where in BAD_ENTRY_POSITIONS:
                p.write_text(model_text_with_entry(f"[{column}, 0.25]", *where))
                with pytest.raises(ModelFormatError, match=bad_entry_path(*where)):
                    load_model(p)

    @pytest.mark.parametrize("field", HUGE_NUMBER_PATHS)
    def test_load_rejects_an_integer_past_float_range(self, tmp_path, field):
        p = tmp_path / "m.json"
        p.write_text(model_text_with_huge_number(field))
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert str(exc.value) == f"{HUGE_NUMBER_PATHS[field]} has a number too large for a float"

    def test_load_validates(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": 1.0, "transitions": [[0, 0.98]]}]}]}'
        )
        with pytest.raises(ModelValidationError) as exc:
            load_model(p)
        assert exc.value.violations[0].rule == "row-sum"

    def test_metadata_round_trip(self, tmp_path):
        m = two_state_swap()
        m.metadata = {"family": "uniform", "num_states": 2, "seed": 0}
        p = tmp_path / "m.json"
        save_model(m, p)
        assert load_model(p).metadata == m.metadata

    def test_bad_mode_token(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"mode": "avg", "discount": 0.9, "states": []}')
        with pytest.raises(ModelFormatError, match="mode"):
            load_model(p)

    def test_long_values_are_cut_in_errors(self, tmp_path):
        long = "x" * 1_000_000
        p = tmp_path / "m.json"
        p.write_text('{"mode": "%s", "discount": 0.9, "states": []}' % long)
        with pytest.raises(ModelFormatError, match="^mode must be one of") as exc:
            load_model(p)
        assert len(str(exc.value)) < 200
        p.write_text(model_text_with_entry('["%s", 0.5]' % long, 1, 1, 2))
        with pytest.raises(ModelFormatError, match=bad_entry_path(1, 1, 2) + "must be") as exc:
            load_model(p)
        assert len(str(exc.value)) < 200

    def test_shown_cuts_a_value(self):
        assert shown("ab") == "'ab'"
        assert shown("x" * 1_000_000) == "'" + "x" * (SHOWN_CHARS - 1) + "..."
        assert shown([[0, "x" * 1_000_000]], json.dumps).startswith('[[0, "xx')

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "text",
        [
            None,
            '{"mode": "discounted",\n "discount": }\n',
            '{"mode": "discounted", "discount": 0.9, "states": [{"actions": 3}]}',
            '{"mode": ' + "[" * 200_000,
        ],
        ids=["valid", "json-error", "format-error", "too-deep"],
    )
    def test_load_leaves_collector_state_as_found(self, tmp_path, collecting, text):
        p = tmp_path / "m.json"
        if text is None:
            save_model(two_state_swap(), p)
        else:
            p.write_text(text)
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            if text is None:
                load_model(p)
            else:
                with pytest.raises(ModelFormatError):
                    load_model(p)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()


ONE_STATE = '{"actions": [{"reward": 1.0, "transitions": [[0, 1.0]]}]}'
SPLIT_STATE = '{"actions": [{"reward": 2.0, "transitions": [[0, 0.5], [1, 0.5]]}]}'
HEAD = '{"mode": "discounted", "discount": 0.9, '

# Stands for the error a whole-document ``json.loads`` names, which the
# JSON reader reported as ``line L column C: message``.
JSON_FAULT = "json.loads"

# Edge documents with what the whole-document reader reported for each: an
# error class and its message, or the rewards of the model.
LOAD_PARITY = {
    "syntax-in-last-state": (
        HEAD + '"states": [%s, %s, {"actions": [{"reward": 1.0 "transitions": []}]}]}' % (ONE_STATE, SPLIT_STATE),
        ModelFormatError, JSON_FAULT,
    ),
    "duplicate-states": (
        HEAD + '"states": [%s], "states": [%s, %s]}' % (ONE_STATE, SPLIT_STATE, SPLIT_STATE), None, [2.0, 2.0],
    ),
    "duplicate-states-first-malformed": (
        HEAD + '"states": [{"actions": 3}], "states": [%s, %s]}' % (SPLIT_STATE, SPLIT_STATE), None, [2.0, 2.0],
    ),
    "duplicate-states-last-malformed": (
        HEAD + '"states": [%s, %s], "states": [{"actions": 3}]}' % (SPLIT_STATE, SPLIT_STATE),
        ModelFormatError, "states[0].actions must be an array",
    ),
    "trailing-data": (HEAD + '"states": [%s]}\n{}' % ONE_STATE, ModelFormatError, JSON_FAULT),
    "bom": ("\ufeff" + HEAD + '"states": [%s]}' % ONE_STATE, ModelFormatError, JSON_FAULT),
    "states-number": (HEAD + '"states": 5}', ModelFormatError, "states must be an array"),
    "states-empty": (HEAD + '"states": []}', ModelValidationError, "invalid model: num-states: got 0"),
    "trailing-comma-in-states": (HEAD + '"states": [%s,]}' % ONE_STATE, ModelFormatError, JSON_FAULT),
    "fault-after-states": (
        HEAD + '"states": [{"actions": 3}], "mode": "avg"}',
        ModelFormatError, "mode must be one of ['discounted', 'total_reward'], got 'avg'",
    ),
    "syntax-fault-after-a-shape-fault": (
        HEAD + '"states": [{"actions": 3}, {"actions": []] }', ModelFormatError, JSON_FAULT,
    ),
    "non-finite-after-a-shape-fault": (
        HEAD + '"states": [{"actions": 3}, NaN]}', ModelFormatError, "non-finite number 'NaN' is not permitted",
    ),
}


def text_with_two_faults_in_states():
    """A bad entry in the first state, then a reward that is no number in the last."""
    before, last = model_text_with_entry('"x"', 0, 1, 2).rsplit('{"actions"', 1)
    return before + '{"actions"' + last.replace('"reward": 1.0', '"reward": "y"', 1)


def whole_parse_fault(text):
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    return f"line {exc.value.lineno} column {exc.value.colno}: {exc.value.msg}"


@pytest.fixture(scope="module")
def dense_pa_file(tmp_path_factory):
    """A model of dense-pa's shape: 80 dense states of about 107 KB each, over eight chunks."""
    spec = GeneratorSpec(family="uniform", num_states=80, density=1.0, action_range=(45, 56), seed=100)
    p = tmp_path_factory.mktemp("dense-pa") / "m.json"
    save_model(generate(spec), p)
    return p


class TestLoadWalk:
    """``load_model`` walks the document and converts transition entries in blocks."""

    @pytest.mark.parametrize("case", LOAD_PARITY.values(), ids=LOAD_PARITY.keys())
    def test_edge_documents_load_as_a_whole_document_parse_did(self, tmp_path, case):
        text, error, expected = case
        if expected == JSON_FAULT:
            expected = whole_parse_fault(text)
        p = tmp_path / "m.json"
        p.write_text(text, encoding="utf-8")
        if error is None:
            assert load_model(p).rewards.tolist() == expected
        else:
            with pytest.raises(error) as exc:
                load_model(p)
            assert str(exc.value) == expected

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_round_trip_across_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(model_module, "_BLOCK_ENTRIES", block)
        m = random_model(np.random.default_rng(block), num_states=9, max_actions=4, density=0.4)
        p = tmp_path / "m.json"
        save_model(m, p)
        assert models_identical(m, load_model(p))

    @pytest.mark.parametrize("block", [1, 2, 4, 5])
    def test_bad_entry_in_a_later_block_is_located(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(model_module, "_BLOCK_ENTRIES", block)
        p = tmp_path / "m.json"
        for where in BAD_ENTRY_POSITIONS:
            p.write_text(model_text_with_entry("[1.5, 0.25]", *where))
            with pytest.raises(ModelFormatError, match=bad_entry_path(*where) + "column 1.5 "):
                load_model(p)

    def test_of_two_faults_in_states_the_earlier_is_reported(self, tmp_path):
        # a whole-document parse checked every state's shape before any entry
        p = tmp_path / "m.json"
        p.write_text(text_with_two_faults_in_states())
        with pytest.raises(ModelFormatError, match=bad_entry_path(0, 1, 2) + "must be"):
            load_model(p)

    def test_traced_peak_is_bounded_by_the_file_size(self, tmp_path):
        spec = GeneratorSpec(family="uniform", num_states=80, density=1.0, action_range=(10, 12), seed=1)
        p = tmp_path / "m.json"
        save_model(generate(spec), p)
        size = p.stat().st_size
        tracemalloc.start()
        try:
            m = load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.cols.size > 4 * model_module._BLOCK_ENTRIES
        # the text, one block and the arrays; a whole-document parse held 6.7 times the file
        assert peak <= 2.5 * size, f"traced peak {peak} bytes for a {size}-byte file"

    def test_traced_peak_through_the_window_is_about_the_file_size(self, dense_pa_file):
        size = dense_pa_file.stat().st_size
        assert size >= 8 * model_module._CHUNK_BYTES
        tracemalloc.start()
        try:
            load_model(dense_pa_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one or two chunks of text, one state, one block, and int32 columns
        assert peak <= 1.1 * size, f"traced peak {peak} bytes for a {size}-byte file"

    @pytest.mark.parametrize("state", [0, 79], ids=["first-state", "last-state"])
    def test_a_located_fault_has_a_traced_peak_about_the_file_size(self, tmp_path, dense_pa_file, state):
        head, *states = dense_pa_file.read_text().split('{"actions": ')
        # every row is dense, so the column 79 is its last entry
        states[state] = states[state].replace("[79,", "[1.5,", 1)
        p = tmp_path / "m.json"
        p.write_text('{"actions": '.join([head, *states]))
        del head, states
        size = p.stat().st_size
        assert size >= 8 * model_module._CHUNK_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=bad_entry_path(state, 0, 79) + "column 1.5 "):
                load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the fault is named from the window, with no second read of the file
        assert peak <= 1.1 * size, f"traced peak {peak} bytes for a {size}-byte file"

    def test_a_state_longer_than_the_window_takes_logarithmically_many_decodes(self, tmp_path, monkeypatch):
        chunk = 1024
        monkeypatch.setattr(model_module, "_CHUNK_BYTES", chunk)
        m = MdpModel.from_rows([[(float(a), [(0, 1.0)]) for a in range(2_000)]], discount=0.9)
        p = tmp_path / "m.json"
        save_model(m, p)
        chunks = p.stat().st_size / chunk
        assert chunks >= 64

        calls = []

        class CountingDecoder(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                calls.append(idx)
                return super().raw_decode(s, idx)

        monkeypatch.setattr(model_module, "_DECODER", CountingDecoder(parse_constant=model_module._reject_constant))
        assert models_identical(load_model(p), m)
        # the window doubles on each failed decode of the state; the other
        # five decodes are the three keys and the two short values
        assert len(calls) <= math.log2(chunks) + 2 + 5, calls


# Malformed and edge documents.  Through a window of any size, each must
# load as one window holding the whole file loads it: the same model, or the
# same error and message.
MALFORMED = {
    **{name: text for name, (text, _, _) in LOAD_PARITY.items()},
    "syntax-line-2": '{"mode": "discounted",\n "discount": }\n',
    "not-an-object": "[1, 2]",
    "empty": "",
    "unclosed-top": HEAD + '"states": [%s]' % ONE_STATE,
    "format-error": HEAD + '"states": [{"actions": 3}]}',
    "too-deep-in-a-field": '{"mode": ' + "[" * 200_000,
    "too-deep-in-states": HEAD + '"states": ' + "[" * 100_000,
    "digits-in-a-field": '{"mode": "discounted", "discount": 1' + "0" * 5_000 + "}",
    "digits-in-states": HEAD + '"states": [{"actions": [{"reward": 1.0, "transitions": [[1' + "0" * 5_000 + ", 1.0]]}]}]}",
    # a window that cuts this float before its fraction holds an integer past the digit limit
    "long-float": HEAD + '"states": [{"actions": [{"reward": 1' + "0" * 10_000 + '.5, "transitions": [[0, 1.0]]}]}]}',
    "nan-token": HEAD + '"states": [{"actions": [{"reward": NaN, "transitions": [[0, 1.0]]}]}]}',
    "generator-array": HEAD + '"states": [%s], "generator": [1]}' % ONE_STATE,
    "missing-discount": '{"mode": "discounted", "states": [%s]}' % ONE_STATE,
    "bad-mode": '{"mode": "avg", "discount": 0.9, "states": [%s]}' % ONE_STATE,
    "repeated-mode": '{"mode": "avg", "discount": 0.9, "states": [%s], "mode": "discounted"}' % ONE_STATE,
    "bad-entry-early": model_text_with_entry("[1.5, 0.25]", 0, 0, 1),
    "bad-entry-late": model_text_with_entry('[1, "1.0"]', 1, 1, 2),
    "two-faults-in-states": text_with_two_faults_in_states(),
    "row-sum": HEAD + '"states": [{"actions": [{"reward": 1.0, "transitions": [[0, 0.98]]}]}]}',
    "wide-column": model_text_with_entry("[4294967297, 0.25]", 2, 0, 0),
}
MALFORMED_BYTES = {
    "not-utf8": b'{"mode": \xff\xfe}',
    "not-utf8-later": (HEAD + '"states": [%s, ' % ONE_STATE).encode() + b'"\xc3\x28"]}',
    "cut-utf8-at-the-end": (HEAD + '"states": [%s], "note": "' % ONE_STATE).encode() + b"\xe2\x82",
}


def one_window_outcome(monkeypatch, p):
    """What ``load_model`` gives for ``p`` when one window holds the whole file."""
    with monkeypatch.context() as patch:
        patch.setattr(model_module, "_CHUNK_BYTES", p.stat().st_size + 1)
        return load_outcome(p)


def load_outcome(p):
    try:
        return "model", load_model(p).rewards.tolist()
    except (ModelFormatError, ModelValidationError) as exc:
        return type(exc).__name__, str(exc)


GENERATED_SPECS = {
    "uniform-sparse": dict(family="uniform", num_states=12, density=0.4),
    "uniform-dense": dict(family="uniform", num_states=12, density=1.0),
    "band": dict(family="band", num_states=15, bandwidth=5),
    "total-reward": dict(family="total_reward_positive", num_states=10, density=0.5, discount=1.0),
}
# Characters a mutation inserts, and byte sequences that are not UTF-8.
MUTATION_CHARS = b'{}[],:" 0123456789.-eE\n\\'
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xed\xa0\x80"]
# What a mutation puts in place of a number: non-finite constants, values of
# other types, and numbers no column, probability or discount may be.
NUMBER_STAND_INS = [b"NaN", b"Infinity", b"-Infinity", b'"x"', b"[]", b"{}", b"null", b"true", b"1.5", b"1e400", b"-1"]
JSON_NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")


def mutated_documents(tmp_path, count, seed):
    """``count`` small model files, each with one or two seeded faults.

    A fault deletes, inserts or replaces a character, inserts bytes that
    are not UTF-8, or puts one of ``NUMBER_STAND_INS`` in place of a number.
    """
    rng = np.random.default_rng(seed)
    base = tmp_path / "base.json"
    bases = []
    for i, spec in enumerate([
        dict(family="uniform", num_states=3, density=0.7),
        dict(family="band", num_states=4, bandwidth=2),
        dict(family="total_reward_positive", num_states=3, density=0.5, discount=1.0),
    ]):
        save_model(generate(GeneratorSpec(seed=seed + i, action_range=(1, 2), **spec)), base)
        bases.append(base.read_text())
    bases.append(json.dumps(json.loads(bases[0]), indent=2))
    bases.append(LOAD_PARITY["duplicate-states"][0])
    bases = [text.encode() for text in bases]
    for _ in range(count):
        doc = bytearray(bases[rng.integers(len(bases))])
        for _ in range(1 + rng.integers(2)):
            at, kind = int(rng.integers(len(doc))), rng.integers(5)
            if kind == 0:
                del doc[at]
            elif kind == 1:
                doc.insert(at, MUTATION_CHARS[rng.integers(len(MUTATION_CHARS))])
            elif kind == 2:
                doc[at] = MUTATION_CHARS[rng.integers(len(MUTATION_CHARS))]
            elif kind == 3:
                doc[at:at] = BAD_BYTES[rng.integers(len(BAD_BYTES))]
            else:
                numbers = list(JSON_NUMBER.finditer(doc))
                hit = numbers[rng.integers(len(numbers))]
                doc[hit.start():hit.end()] = NUMBER_STAND_INS[rng.integers(len(NUMBER_STAND_INS))]
        yield bytes(doc)


class TestChunkBoundaries:
    """Every chunk size loads every document as one window holding the whole file does."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("spec", GENERATED_SPECS.values(), ids=GENERATED_SPECS.keys())
    @pytest.mark.parametrize("metadata", [True, False], ids=["metadata", "no-metadata"])
    def test_generated_models_load_identical(self, tmp_path, monkeypatch, chunk, spec, metadata):
        monkeypatch.setattr(model_module, "_CHUNK_BYTES", chunk)
        m = generate(GeneratorSpec(seed=chunk, action_range=(1, 4), **spec))
        if not metadata:
            m.metadata = None
        p = tmp_path / "m.json"
        save_model(m, p)
        assert models_identical(load_model(p), m)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_characters_split_across_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(model_module, "_CHUNK_BYTES", chunk)
        m = random_model(np.random.default_rng(3), num_states=5)
        m.metadata = {"note": "\u00e9\u20ac\U0001d11e" * 9, "seed": 3}
        p = tmp_path / "m.json"
        save_model(m, p)
        assert models_identical(load_model(p), m)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("name", [*MALFORMED, *MALFORMED_BYTES])
    def test_edge_documents_load_as_the_whole_text_does(self, tmp_path, monkeypatch, chunk, name):
        p = tmp_path / "m.json"
        if name in MALFORMED:
            p.write_text(MALFORMED[name], encoding="utf-8")
        else:
            p.write_bytes(MALFORMED_BYTES[name])
        expected = one_window_outcome(monkeypatch, p)
        monkeypatch.setattr(model_module, "_CHUNK_BYTES", chunk)
        assert load_outcome(p) == expected

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_mutated_documents_load_as_one_window_does(self, tmp_path, monkeypatch, chunk):
        p = tmp_path / "m.json"
        for doc in mutated_documents(tmp_path, 300, seed=chunk):
            p.write_bytes(doc)
            expected = one_window_outcome(monkeypatch, p)
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "_CHUNK_BYTES", chunk)
                assert load_outcome(p) == expected, doc

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("spec", GENERATED_SPECS.values(), ids=GENERATED_SPECS.keys())
    @pytest.mark.parametrize("metadata", [True, False], ids=["metadata", "no-metadata"])
    def test_valid_documents_load_through_the_window_alone(self, tmp_path, monkeypatch, chunk, spec, metadata):
        def whole_text(path):
            raise AssertionError("a valid document was read again")

        monkeypatch.setattr(model_module, "_utf8_text", whole_text)
        monkeypatch.setattr(model_module, "_CHUNK_BYTES", chunk)
        m = generate(GeneratorSpec(seed=1, action_range=(1, 4), **spec))
        if not metadata:
            m.metadata = None
        p, indented = tmp_path / "m.json", tmp_path / "indented.json"
        save_model(m, p)
        with open(p, encoding="utf-8") as f, open(indented, "w", encoding="utf-8") as out:
            json.dump(json.load(f), out, indent=2)
        assert models_identical(load_model(p), m)
        assert models_identical(load_model(indented), m)


class TestWriterBytes:
    """``save_model`` writes exactly the bytes of the per-row reference writer."""

    def assert_same_bytes(self, m, tmp_path):
        save_model(m, tmp_path / "m.json")
        reference_save_model(m, tmp_path / "ref.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_models(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_model(
            rng,
            num_states=int(rng.integers(1, 25)),
            max_actions=int(rng.integers(1, 6)),
            density=float(rng.uniform(0.05, 1.0)),
        )
        if seed % 2:
            m.metadata = {"family": "uniform", "seed": seed, "reward_range": [1.0, 1e-17]}
        self.assert_same_bytes(m, tmp_path)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(family="band", num_states=20, bandwidth=7),
            dict(family="total_reward_positive", num_states=12, density=0.5, discount=1.0),
        ],
        ids=["band", "total-reward"],
    )
    def test_generated_models_with_metadata(self, tmp_path, spec):
        self.assert_same_bytes(generate(GeneratorSpec(seed=3, action_range=(1, 4), **spec)), tmp_path)

    def test_awkward_floats(self, tmp_path):
        m = MdpModel.from_rows(
            [[(0.1 + 0.2, [(0, 1.0 / 3.0), (1, 2.0 / 3.0)]), (-0.0, [(1, 1.0)])], [(1e-17, [(1, 1.0)])]],
            discount=0.1 + 0.7,
        )
        self.assert_same_bytes(m, tmp_path)

    def test_golden_two_state_swap(self, tmp_path):
        m = two_state_swap(1.0, 2.0)
        m.metadata = {"family": "uniform", "num_states": 2, "seed": 0}
        save_model(m, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == (
            '{"mode": "discounted", "discount": 0.9, '
            '"generator": {"family": "uniform", "num_states": 2, "seed": 0}, "states": ['
            '{"actions": [{"reward": 1.0, "transitions": [[1,1.0]]}]},'
            '{"actions": [{"reward": 2.0, "transitions": [[0,1.0]]}]}]}\n'
        )
