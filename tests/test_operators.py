"""Tests for backup operators against hand-computed and dense-oracle values."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from mdpaccel.generators import GeneratorSpec, generate
from mdpaccel.model import (
    ROW_SUM_TOL,
    MdpModel,
    RewardMode,
    adjust_rewards_nonnegative,
    initial_feasible_point,
)
import mdpaccel.operators as operators_mod
from mdpaccel.operators import (
    GATHER_MAX_SHARE,
    OperatorKind,
    ScreenedSums,
    WeightedSums,
    apply_operator,
    drifted_sums,
    is_feasible,
    is_feasible_gs,
    membership_tolerance,
    one_step_row_values,
    row_value_error,
    sum_error,
    sup_norm,
    sweep_carries_state,
    weighted_sums,
)
from mdpaccel.solver import extract_policy

from test_model import (
    action_reward,
    action_row,
    chain_to_absorbing,
    num_actions,
    random_model,
    two_state_swap,
)


def dense_backup(m, v, jacobi=False):
    """Dense reference backup used as an oracle for the sparse kernels.

    With ``jacobi`` each row's self-loop term moves into the denominator.
    Total-reward models carry discount 1, so the same loop is their
    undiscounted backup.
    """
    best = np.full(m.num_states, -np.inf)
    for i in range(m.num_states):
        for a in range(num_actions(m, i)):
            cols, probs = action_row(m, i, a)
            s = float(probs @ v[cols])
            r = action_reward(m, i, a)
            if jacobi:
                d = float(probs[cols == i].sum())
                val = (r + m.discount * (s - d * v[i])) / (1.0 - m.discount * d)
            else:
                val = r + m.discount * s
            best[i] = max(best[i], val)
    return best


def scalar_row_sum(m, w, k):
    """Row ``k``'s weighted sum of ``w`` as one accumulator over ascending columns.

    This is the accumulation contract every kernel row sum follows.
    """
    s = 0.0
    for k_nz in range(m.row_ptr[k], m.row_ptr[k + 1]):
        s += m.probs[k_nz] * w[m.cols[k_nz]]
    return s


def reference_sweep(m, v, divide_diagonal):
    """Scalar per-row Gauss-Seidel sweep: the loop the sweep kernel replaced.

    Kept as the reference the per-state blocked sweep must match bit for
    bit: its row sums follow the accumulation contract, one scalar
    accumulator over ascending columns, and its row values take the
    kernel's formula.
    """
    w = v.astype(np.float64, copy=True)
    discount = m.discount
    state_ptr, rewards = m.state_ptr, m.rewards
    diag = m.self_loop_probs if divide_diagonal else None
    for i in range(m.num_states):
        r0, r1 = state_ptr[i], state_ptr[i + 1]
        best = -np.inf
        old = w[i]
        for k in range(r0, r1):
            s = scalar_row_sum(m, w, k)
            if divide_diagonal:
                d = diag[k]
                val = (rewards[k] + discount * (s - d * old)) / (1.0 - discount * d)
            else:
                val = rewards[k] + discount * s
            if val > best:
                best = val
        w[i] = best
    return w


class TestWeightedSums:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        m = random_model(rng)
        v = rng.normal(size=m.num_states)
        s = weighted_sums(m, v)
        np.testing.assert_allclose(s.values, m.row_matrix.toarray() @ v, rtol=0, atol=1e-12)

    def test_recomputation_is_bit_stable(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, num_states=40, density=0.3)
        v = rng.normal(size=m.num_states)
        a = weighted_sums(m, v).values
        b = weighted_sums(m, v.copy()).values
        assert np.array_equal(a, b)

    def test_matches_scalar_accumulator_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            m = random_model(
                rng,
                num_states=int(rng.integers(1, 40)),
                max_actions=int(rng.integers(1, 6)),
                density=float(rng.uniform(0.05, 1.0)),
            )
            v = rng.normal(scale=10.0, size=m.num_states)
            expected = np.array([scalar_row_sum(m, v, k) for k in range(m.num_rows)])
            assert np.array_equal(weighted_sums(m, v).values, expected)

    def test_row_subset_matches_all_rows_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            m = random_model(rng, num_states=int(rng.integers(1, 30)),
                             density=float(rng.uniform(0.05, 1.0)))
            v = rng.normal(scale=1e3, size=m.num_states)
            full = weighted_sums(m, v).values
            for rows in (
                np.arange(0),
                np.arange(m.num_rows),
                np.sort(rng.choice(m.num_rows, size=int(rng.integers(1, m.num_rows + 1)),
                                   replace=False)),
                # few enough rows to be gathered rather than taken from the all-rows pass
                np.sort(rng.choice(m.num_rows, size=max(1, m.num_rows // 16), replace=False)),
            ):
                part = weighted_sums(m, v, rows=rows)
                assert part.rows is rows and part.base is v and part.from_kernel
                assert np.array_equal(part.values, full[rows])
        assert np.array_equal(weighted_sums(m, v.tolist(), rows=rows).values, full[rows])

    def test_repeated_rows_match_all_rows_and_walk_no_other_row(self, monkeypatch):
        walked = []

        def counting_matvec(n_row, n_col, indptr, indices, data, x, out):
            walked.append(int(np.maximum(np.diff(indptr[:n_row + 1]), 0).sum()))
            csr_matvec(n_row, n_col, indptr, indices, data, x, out)

        monkeypatch.setattr(operators_mod, "csr_matvec", counting_matvec)
        rng = np.random.default_rng(32)
        m = random_model(rng, num_states=40, max_actions=4, density=0.5)
        v = rng.normal(scale=1e3, size=m.num_states)
        full = weighted_sums(m, v).values
        row_nnz = np.diff(m.row_ptr)
        for size in (3, m.num_rows // 8, 2 * m.num_rows):
            rows = np.sort(rng.integers(0, m.num_rows, size=size))
            walked.clear()
            assert np.array_equal(weighted_sums(m, v, rows=rows).values, full[rows])
            # the chosen rows' own entries, or the all-rows pass's
            assert walked in ([int(row_nnz[rows].sum())], [int(row_nnz.sum())])

    def test_descending_rows_raise_naming_the_first_descent(self):
        m = random_model(np.random.default_rng(33), num_states=40, max_actions=4, density=0.5)
        v = np.ones(m.num_states)
        for rows in ([2, 5, 5, 4, 1], np.array([2, 5, 5, 4, 1], dtype=np.uint8)):
            with pytest.raises(ValueError, match="must ascend; row 4 at position 3 follows row 5"):
                weighted_sums(m, v, rows=rows)
        # past the gather cutoff too, where the all-rows pass is taken
        many = np.arange(m.num_rows)[::-1]
        with pytest.raises(ValueError, match=f"row {m.num_rows - 2} at position 1 follows"):
            weighted_sums(m, v, rows=many)

    def test_partial_sums_rejected_where_all_rows_are_needed(self):
        m = two_state_swap()
        v = np.array([1.0, 2.0])
        part = weighted_sums(m, v, rows=np.array([1]))
        with pytest.raises(ValueError, match="only some rows"):
            apply_operator(m, v, "standard", sums=part)

    def test_mismatched_sums_rejected(self):
        m = two_state_swap()
        v = np.array([1.0, 2.0])
        s = weighted_sums(m, v)
        with pytest.raises(ValueError, match="different vector"):
            apply_operator(m, np.array([3.0, 4.0]), "standard", sums=s)

    def test_equal_valued_copy_accepted(self):
        m = two_state_swap()
        v = np.array([1.0, 2.0])
        s = weighted_sums(m, v)
        out = apply_operator(m, v.copy(), "standard", sums=s)
        np.testing.assert_allclose(out, [2.8, 1.9])


class TestKernelInputChecks:
    """Every sums path rejects what the raw kernel must not read, with one verdict."""

    @staticmethod
    def model():
        return random_model(np.random.default_rng(60), num_states=60, max_actions=3, density=0.1)

    @staticmethod
    def row_sets(m):
        """No rows given, then a set below and a set above the gather cutoff."""
        few = [3, 7]
        many = list(range(0, m.num_rows, 2))
        assert len(few) <= GATHER_MAX_SHARE * m.num_rows < len(many)
        return [None, few, many]

    @pytest.mark.parametrize("shape", [(59,), (61,), (6, 10), (60, 1), ()])
    def test_wrong_vector_shape_raises_on_every_path(self, shape):
        m = self.model()
        v = np.ones(shape)
        for rows in self.row_sets(m):
            with pytest.raises(ValueError, match=f"shape {re.escape(str(shape))}"):
                weighted_sums(m, v, rows=rows)
        for kind in ("standard", "gs", "gsj"):
            with pytest.raises(ValueError, match=f"shape {re.escape(str(shape))}"):
                apply_operator(m, v, kind)

    @pytest.mark.parametrize("bad", [-1, "past-the-end"])
    def test_row_index_outside_the_rows_raises_on_both_sides_of_the_cutoff(self, bad):
        m = self.model()
        v = np.arange(m.num_states, dtype=np.float64)
        index = m.num_rows if bad == "past-the-end" else bad
        for rows in self.row_sets(m)[1:]:
            # where the indices still ascend
            rows = [index] + rows if index < 0 else rows + [index]
            for given in (rows, np.array(rows)):
                with pytest.raises(ValueError, match=f"row index {index} outside"):
                    weighted_sums(m, v, rows=given)

    @pytest.mark.parametrize("rows", [[0.0, 1.0], [[0, 1]], [True, False]],
                             ids=["floats", "2-D", "booleans"])
    def test_non_index_rows_raise(self, rows):
        m = self.model()
        with pytest.raises(ValueError, match="row indices"):
            weighted_sums(m, np.ones(m.num_states), rows=rows)

    @pytest.mark.parametrize("dtype", ["list", np.int8, np.uint8, np.int16, np.uint16,
                                       np.int32, np.uint32, np.int64, np.uint64])
    def test_lists_and_every_integer_dtype_accepted(self, dtype):
        m = self.model()
        v = np.random.default_rng(61).normal(size=m.num_states)
        full = weighted_sums(m, v).values
        for rows in self.row_sets(m)[1:]:
            if dtype == np.int8 and max(rows) > 127:
                continue
            given = rows if dtype == "list" else np.array(rows, dtype=dtype)
            part = weighted_sums(m, v, rows=given)
            assert part.rows is given
            assert np.array_equal(part.values, full[rows])
        assert weighted_sums(m, v, rows=[]).values.shape == (0,)


class TestScipyKernelPins:
    """scipy's private matvec kernel equals its public matvec and row indexing bit for bit.

    ``operators`` calls ``csr_matvec`` directly, with row pointers that
    interleave the chosen rows with gap rows running backwards; a scipy
    release that changes the kernel or its loop fails here rather than in
    the iterates.
    """

    @staticmethod
    def matrices(index_dtype):
        rng = np.random.default_rng(62)
        for _ in range(12):
            rows, cols = int(rng.integers(1, 80)), int(rng.integers(1, 60))
            a = sp.random(rows, cols, density=float(rng.uniform(0.01, 0.9)), format="csr",
                          random_state=rng)
            a.indices = a.indices.astype(index_dtype)
            a.indptr = a.indptr.astype(index_dtype)
            yield a, rng.normal(scale=float(rng.choice([1.0, 1e3, 1e8])), size=cols), rng

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_matvec_and_interleaved_rows_equal_the_public_forms(self, index_dtype):
        for a, v, rng in self.matrices(index_dtype):
            assert a.indices.dtype == index_dtype and a.indptr.dtype == index_dtype
            n_rows, n_cols = a.shape
            out = np.zeros(n_rows)
            csr_matvec(n_rows, n_cols, a.indptr, a.indices, a.data, v, out)
            assert np.array_equal(out, a @ v)

            # weighted_sums' form: ascending rows, repeats included, named in
            # descending order, each after a gap row that runs backwards
            rows = np.sort(rng.integers(0, n_rows, size=int(rng.integers(1, 2 * n_rows))))
            down = rows[::-1]
            ptr = np.empty(2 * len(rows) + 1, dtype=index_dtype)
            ptr[0] = a.indptr[-1]
            ptr[1::2] = a.indptr[down]
            ptr[2::2] = a.indptr[down + 1]
            out = np.zeros(2 * len(rows))
            csr_matvec(len(out), n_cols, ptr, a.indices, a.data, v, out)
            gaps = out[0::2]
            assert np.array_equal(gaps, np.zeros(len(rows))) and not np.signbit(gaps).any()
            assert np.array_equal(out[::-2], a[rows] @ v)

            # the sweep's form: one row range, its indptr slice over the whole arrays
            lo = int(rng.integers(0, n_rows))
            hi = int(rng.integers(lo, n_rows)) + 1
            out = np.zeros(hi - lo)
            csr_matvec(hi - lo, n_cols, a.indptr[lo:hi + 1], a.indices, a.data, v, out)
            assert np.array_equal(out, a[lo:hi] @ v)

    def test_matvec_accumulates_into_its_output(self):
        a, v, _ = next(self.matrices(np.int32))
        start = np.linspace(-1.0, 1.0, a.shape[0])
        out = start.copy()
        csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, v, out)
        for k in range(a.shape[0]):
            acc = float(start[k])
            for jj in range(a.indptr[k], a.indptr[k + 1]):
                acc += float(a.data[jj]) * float(v[a.indices[jj]])
            assert out[k] == acc

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_weighted_sums_follow_the_row_matrix_index_dtype(self, index_dtype):
        rng = np.random.default_rng(63)
        m = random_model(rng, num_states=30, density=0.3)
        csr = m.row_matrix
        csr.indices, csr.indptr = csr.indices.astype(index_dtype), csr.indptr.astype(index_dtype)
        v = rng.normal(size=m.num_states)
        full = weighted_sums(m, v).values
        assert np.array_equal(full, csr @ v)
        for rows in ([1, 4], np.arange(0, m.num_rows, 2, dtype=np.int64)):
            assert np.array_equal(weighted_sums(m, v, rows=rows).values, full[rows])
        assert np.array_equal(apply_operator(m, v, "gs"), reference_sweep(m, v, False))


class TestStandardBackup:
    def test_swap_hand_values(self):
        m = two_state_swap()
        out = apply_operator(m, np.array([20.0, 20.0]), "standard")
        np.testing.assert_allclose(out, [19.0, 19.0])
        np.testing.assert_array_equal(extract_policy(m, np.array([20.0, 20.0])), [0, 0])

    def test_fixed_point(self):
        m = two_state_swap()
        out = apply_operator(m, np.array([10.0, 10.0]), "standard")
        np.testing.assert_allclose(out, [10.0, 10.0])

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng, num_states=int(rng.integers(2, 30)))
            v = rng.normal(scale=10.0, size=m.num_states)
            out = apply_operator(m, v, "standard")
            np.testing.assert_allclose(out, dense_backup(m, v), rtol=0, atol=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(6)
        m = random_model(rng)
        v = rng.normal(size=m.num_states)
        w = v + rng.uniform(0.0, 1.0, size=m.num_states)
        tv = apply_operator(m, v, "standard")
        tw = apply_operator(m, w, "standard")
        assert np.all(tv <= tw + 1e-12)

    def test_tie_break_picks_lowest_action(self):
        m = MdpModel.from_rows(
            [[(1.0, [(0, 1.0)]), (1.0, [(0, 1.0)]), (1.0, [(0, 1.0)])]],
            discount=0.9,
        )
        np.testing.assert_array_equal(extract_policy(m, np.zeros(1)), [0])

    def test_argmax_matches_row_values(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, num_states=12, max_actions=6)
        v = rng.normal(size=m.num_states)
        out = apply_operator(m, v, "standard")
        policy = extract_policy(m, v)
        for i in range(m.num_states):
            cols, probs = action_row(m, i, int(policy[i]))
            val = action_reward(m, i, int(policy[i])) + m.discount * float(probs @ v[cols])
            assert val == pytest.approx(out[i], abs=1e-12)


class TestJacobiBackup:
    def test_single_state_jumps_to_fixed_point(self):
        m = MdpModel.from_rows([[(5.0, [(0, 1.0)])]], discount=0.9)
        out = apply_operator(m, np.array([123.0]), "jacobi")
        np.testing.assert_allclose(out, [50.0])

    def test_no_self_loops_reduces_to_standard(self):
        m = two_state_swap()
        v = np.array([7.0, -2.0])
        np.testing.assert_array_equal(
            apply_operator(m, v, "jacobi"), apply_operator(m, v, "standard")
        )

    def test_shared_fixed_point(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, num_states=10)
        v = np.zeros(m.num_states)
        for _ in range(2000):
            v = apply_operator(m, v, "standard")
        out = apply_operator(m, v, "jacobi")
        np.testing.assert_allclose(out, v, rtol=0, atol=1e-8)

    def test_denominator_guard(self):
        m = MdpModel.from_rows([[(5.0, [(0, 1.0)])]], discount=1.0 - 1e-13)
        for kind in ("jacobi", "gsj"):
            with pytest.raises(ArithmeticError, match="guard"):
                apply_operator(m, np.array([0.0]), kind)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(12)
        for density in (0.3, 0.6, 1.0):  # denser rows carry more self-loops
            m = random_model(rng, num_states=int(rng.integers(2, 30)), density=density)
            v = rng.normal(scale=10.0, size=m.num_states)
            out = apply_operator(m, v, "jacobi")
            np.testing.assert_allclose(out, dense_backup(m, v, jacobi=True), rtol=0, atol=1e-12)

    def test_total_reward_model_rejected(self):
        m = chain_to_absorbing()
        with pytest.raises(ValueError):
            apply_operator(m, np.zeros(3), "jacobi")

    def test_matches_the_gathered_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for density in (0.3, 0.6, 1.0):
            m = random_model(rng, num_states=int(rng.integers(2, 30)), density=density)
            v = rng.normal(scale=10.0, size=m.num_states)
            s, d = weighted_sums(m, v).values, m.self_loop_probs
            rows = (m.rewards + m.discount * (s - d * v[m.row_state])) / (1.0 - m.discount * d)
            expected = np.maximum.reduceat(rows, m.state_ptr[:-1])
            assert np.array_equal(apply_operator(m, v, "jacobi"), expected)

    def test_denominator_is_one_view_shared_by_shifted_copies(self):
        m = random_model(np.random.default_rng(14), density=1.0)
        denominator, least = m.jacobi_denominator
        assert m.jacobi_denominator[0] is denominator
        assert np.array_equal(denominator, 1.0 - m.discount * m.self_loop_probs)
        assert least == denominator.min()
        shifted, _ = adjust_rewards_nonnegative(m)
        assert shifted.jacobi_denominator is m.jacobi_denominator


class TestSweeps:
    def test_gs_swap_hand_values(self):
        m = two_state_swap()
        out = apply_operator(m, np.array([20.0, 20.0]), "gs")
        np.testing.assert_allclose(out, [19.0, 18.1])

    def test_gs_uses_updated_predecessors(self):
        m = two_state_swap()
        out = apply_operator(m, np.array([100.0, 10.0]), "gs")
        np.testing.assert_allclose(out, [10.0, 10.0])

    def test_gsj_divides_self_loop(self):
        m = MdpModel.from_rows(
            [
                [(1.0, [(0, 0.5), (1, 0.5)])],
                [(2.0, [(0, 1.0)])],
            ],
            discount=0.8,
        )
        v = np.array([4.0, 4.0])
        # state 0: (1 + 0.8*(0.5*4) - 0) / (1 - 0.4) = 2.6/0.6
        # state 1: 2 + 0.8 * updated w0
        w0 = 2.6 / 0.6
        out = apply_operator(m, v, "gsj")
        np.testing.assert_allclose(out, [w0, 2.0 + 0.8 * w0])

    def test_gsj_no_self_loops_matches_gs(self):
        m = two_state_swap()
        v = np.array([3.0, 4.0])
        np.testing.assert_array_equal(apply_operator(m, v, "gsj"), apply_operator(m, v, "gs"))

    def test_sweep_dominated_by_standard_on_feasible_points(self):
        # On points dominating their own backup a sweep descends at least
        # as far as the simultaneous backup, never below the fixed point.
        rng = np.random.default_rng(9)
        m = random_model(rng, num_states=15)
        v = np.full(m.num_states, float(np.max(m.rewards)) / (1.0 - m.discount))
        t = apply_operator(m, v, "standard")
        g = apply_operator(m, v, "gs")
        assert np.all(g <= t + 1e-12)

    @pytest.mark.parametrize("kind, divide_diagonal", [("gs", False), ("gsj", True)])
    def test_matches_scalar_reference_bit_for_bit(self, kind, divide_diagonal):
        rng = np.random.default_rng(14)
        models = [
            random_model(rng, num_states=int(rng.integers(2, 30)), density=density)
            for density in (0.2, 0.6, 1.0)
        ]
        models.append(  # a pure self-loop row beside a mixed one
            MdpModel.from_rows(
                [
                    [(2.0, [(0, 1.0)]), (1.0, [(0, 0.25), (1, 0.75)])],
                    [(3.0, [(0, 0.5), (1, 0.5)])],
                ],
                discount=0.9,
            )
        )
        models.append(
            generate(GeneratorSpec(family="uniform", num_states=30, density=1.0, seed=5))
        )
        for m in models:
            assert np.any(m.self_loop_probs > 0.0)
            for _ in range(3):
                v = rng.normal(scale=10.0, size=m.num_states)
                out = apply_operator(m, v, kind)
                assert np.array_equal(out, reference_sweep(m, v, divide_diagonal))

    def test_input_not_mutated(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        apply_operator(m, v, "gs")
        np.testing.assert_array_equal(v, [20.0, 20.0])

    @pytest.mark.parametrize("kind", ["gs", "gsj"])
    def test_one_state_model(self, kind):
        m = MdpModel.from_rows([[(1.0, [(0, 1.0)]), (3.0, [(0, 1.0)])]], discount=0.5)
        v = np.array([2.0])
        expected = 6.0 if kind == "gsj" else 4.0  # 3 / (1 - 0.5) and 3 + 0.5 * 2
        np.testing.assert_array_equal(apply_operator(m, v, kind), [expected])
        assert np.array_equal(apply_operator(m, v, kind), reference_sweep(m, v, kind == "gsj"))

    @pytest.mark.parametrize("kind", ["gs", "gsj"])
    def test_single_action_state(self, kind):
        # state 1 owns one row, between states with several
        m = MdpModel.from_rows(
            [
                [(1.0, [(0, 0.5), (2, 0.5)]), (2.0, [(1, 1.0)])],
                [(0.5, [(0, 0.25), (1, 0.25), (2, 0.5)])],
                [(3.0, [(1, 1.0)]), (0.0, [(0, 0.5), (2, 0.5)]), (1.0, [(2, 1.0)])],
            ],
            discount=0.9,
        )
        rng = np.random.default_rng(16)
        for _ in range(5):
            v = rng.normal(scale=10.0, size=3)
            assert np.array_equal(apply_operator(m, v, kind), reference_sweep(m, v, kind == "gsj"))

    def test_integer_and_list_inputs(self):
        m = random_model(np.random.default_rng(17), num_states=10)
        ints = np.arange(10, dtype=np.int64) * 3 - 7
        expected = apply_operator(m, ints.astype(np.float64), "gs")
        out = apply_operator(m, ints, "gs")
        assert out.dtype == np.float64 and np.array_equal(out, expected)
        assert np.array_equal(apply_operator(m, ints.tolist(), "gs"), expected)
        np.testing.assert_array_equal(ints, np.arange(10) * 3 - 7)

    @pytest.mark.parametrize("kind", ["gs", "gsj"])
    def test_cache_free_copy_gives_identical_sweep(self, kind):
        rng = np.random.default_rng(18)
        m = random_model(rng, num_states=20, density=0.5)
        v = rng.normal(scale=10.0, size=m.num_states)
        cached = apply_operator(m, v, kind)
        assert m._row_matrix is not None
        fresh = dataclasses.replace(m)
        assert fresh._row_matrix is None
        assert np.array_equal(apply_operator(fresh, v, kind), cached)
        assert np.array_equal(apply_operator(m, v, kind), cached)

    @pytest.mark.parametrize("kind", ["gs", "gsj"])
    def test_reward_shifted_copy_sweeps_its_own_rewards(self, kind):
        # the per-state table holds reward views, so the shifted copy, which
        # shares the input's transition views, must not read the input's rewards
        rng = np.random.default_rng(20)
        m = random_model(rng, num_states=25, density=0.4)
        v = rng.normal(scale=10.0, size=m.num_states)
        assert np.array_equal(apply_operator(m, v, kind), reference_sweep(m, v, kind == "gsj"))
        shifted = adjust_rewards_nonnegative(m)[0]
        assert shifted.state_rows is not m.state_rows
        expected = reference_sweep(shifted, v, kind == "gsj")
        assert not np.array_equal(expected, reference_sweep(m, v, kind == "gsj"))
        assert np.array_equal(apply_operator(shifted, v, kind), expected)

    def test_feasible_gs_agrees_with_reference_sweep(self):
        rng = np.random.default_rng(19)
        verdicts = set()
        for trial in range(20):
            m = random_model(rng, num_states=int(rng.integers(2, 20)))
            fixed = np.zeros(m.num_states)
            for _ in range(300):
                fixed = apply_operator(m, fixed, "standard")
            # a lift above the fixed point dominates its sweep; noise mostly does not
            lift = 1.0 if trial % 2 else rng.normal(scale=1.0, size=m.num_states)
            v = fixed + lift
            tol = membership_tolerance(v)
            expected = bool(np.all(reference_sweep(m, v, False) <= v + tol))
            assert is_feasible_gs(m, v) is expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestTotalRewardBackup:
    def test_chain_hand_values(self):
        m = chain_to_absorbing()
        out = apply_operator(m, np.zeros(3), "standard")
        np.testing.assert_allclose(out, [3.0, 1.0, 0.0])

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            spec = GeneratorSpec(
                family="total_reward_positive", num_states=12, density=0.5, discount=1.0, seed=seed
            )
            m = generate(spec)
            v = rng.uniform(0.0, 50.0, size=m.num_states)
            out = apply_operator(m, v, "standard")
            np.testing.assert_allclose(out, dense_backup(m, v), rtol=0, atol=1e-12)

    def test_total_is_no_operator_kind(self):
        assert [k.value for k in OperatorKind] == ["standard", "jacobi", "gs", "gsj"]
        with pytest.raises(ValueError):
            apply_operator(chain_to_absorbing(), np.zeros(3), "total")


class TestDispatch:
    def test_all_kinds_dispatch(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        for kind in ("standard", "jacobi", "gs", "gsj"):
            out = apply_operator(m, v, kind)
            assert out.shape == (2,)
        out = apply_operator(chain_to_absorbing(), np.zeros(3), OperatorKind.STANDARD)
        np.testing.assert_allclose(out, [3.0, 1.0, 0.0])

    @pytest.mark.parametrize("kind", [k.value for k in OperatorKind])
    @pytest.mark.parametrize("form", ["list", "int-array", "int-list"])
    def test_list_and_integer_inputs(self, kind, form):
        m, v = random_model(np.random.default_rng(21), num_states=9), np.arange(9.0) * 3 - 7
        given = {"list": v.tolist(), "int-array": v.astype(np.int64), "int-list": v.astype(int).tolist()}
        out = apply_operator(m, given[form], kind)
        assert out.dtype == np.float64
        assert np.array_equal(out, apply_operator(m, v, kind))

    def test_sweeps_reject_precomputed_sums(self):
        m = two_state_swap()
        v = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="sums"):
            apply_operator(m, v, "gs", sums=weighted_sums(m, v))

    def test_sweep_carries_state(self):
        assert sweep_carries_state("gs")
        assert sweep_carries_state(OperatorKind.GAUSS_SEIDEL_JACOBI)
        assert not sweep_carries_state("standard")
        assert not sweep_carries_state(OperatorKind.JACOBI)


class TestFeasibility:
    def test_feasible_point_above_fixed_point(self):
        m = two_state_swap()
        assert is_feasible(m, np.array([20.0, 20.0]))
        assert is_feasible(m, np.array([10.0, 10.0]))  # the fixed point itself
        assert not is_feasible(m, np.array([0.0, 0.0]))

    def test_strict_feasibility(self):
        # strictly above the fixed point the backup lies strictly below the
        # point; at the fixed point it does not.
        m = two_state_swap()
        for v, strict in (([20.0, 20.0], True), ([10.0, 10.0], False)):
            v = np.array(v)
            out = apply_operator(m, v, "standard")
            assert bool(np.all(out < v - membership_tolerance(v))) is strict

    def test_sweep_dominance_is_weaker(self):
        # (100, 10) dominates its sweep but not its simultaneous backup.
        m = two_state_swap()
        v = np.array([100.0, 10.0])
        assert is_feasible_gs(m, v)
        assert not is_feasible(m, v)

    def test_total_reward_feasibility_uses_undiscounted_backup(self):
        m = chain_to_absorbing()
        assert is_feasible(m, np.array([6.0, 6.0, 0.0]))
        assert not is_feasible(m, np.array([0.0, 0.0, 0.0]))

    def test_tolerance_scales_with_magnitude(self):
        assert membership_tolerance(np.zeros(3)) == pytest.approx(1e-9)
        assert membership_tolerance(np.array([0.0, -1e6])) == pytest.approx(1e-3, rel=1e-5)

    def test_feasibility_accepts_shared_sums(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        s = weighted_sums(m, v)
        assert is_feasible(m, v, sums=s)

    def test_partial_sums_judge_only_their_rows(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            m = random_model(rng, num_states=int(rng.integers(2, 15)))
            v = rng.normal(scale=20.0, size=m.num_states)
            full = weighted_sums(m, v).values
            rows = np.sort(rng.choice(m.num_rows, size=int(rng.integers(0, m.num_rows + 1)),
                                      replace=False))
            values = m.discount * full + m.rewards
            expected = bool((values[rows] <= (v + membership_tolerance(v))[m.row_state[rows]]).all())
            assert is_feasible(m, v, sums=weighted_sums(m, v, rows=rows)) is expected
        assert is_feasible(m, v, sums=weighted_sums(m, v, rows=np.arange(m.num_rows))) is \
            is_feasible(m, v)
        with pytest.raises(ValueError, match="different vector"):
            is_feasible(m, v + 1.0, sums=weighted_sums(m, v, rows=rows))

    @pytest.mark.parametrize("check", [is_feasible, is_feasible_gs], ids=["one-step", "gs"])
    @pytest.mark.parametrize("form", ["list", "int-array", "int-list"])
    def test_list_and_integer_inputs(self, check, form):
        m = two_state_swap()
        for v in ([20, 20], [0, 0], [100, 10]):
            v = np.array(v, dtype=np.float64)
            given = {"list": v.tolist(), "int-array": v.astype(np.int64), "int-list": v.astype(int).tolist()}
            assert check(m, given[form]) is check(m, v)


class TestRowValueError:
    """The stated rounding bound holds against exact rational arithmetic."""

    @staticmethod
    def exact_row_values(m, v):
        discount = Fraction(m.discount)
        out = []
        for k in range(m.num_rows):
            lo, hi = m.row_ptr[k], m.row_ptr[k + 1]
            s = sum((Fraction(p) * Fraction(x) for p, x in zip(m.probs[lo:hi], v[m.cols[lo:hi]])),
                    Fraction(0))
            out.append(Fraction(m.rewards[k]) + discount * s)
        return out

    def assert_within_bound(self, m, v):
        # the one-step row value, evaluated as the kernels evaluate it
        computed = m.discount * weighted_sums(m, v).values + m.rewards
        e = Fraction(row_value_error(m, sup_norm(v)))
        worst = max(abs(Fraction(c) - x) for c, x in zip(computed, self.exact_row_values(m, v)))
        assert worst <= e
        exact_sums = [sum(map(Fraction, m.probs[m.row_ptr[k]:m.row_ptr[k + 1]]), Fraction(0))
                      for k in range(m.num_rows)]
        assert max(abs(s - 1) for s in exact_sums) <= Fraction(m.row_sum_deviation)
        return worst, e

    @staticmethod
    def perturbed(m, rng):
        """``m`` with every row scaled to sum to about 1 +- ROW_SUM_TOL."""
        scale = 1.0 + rng.choice([-1.0, 1.0], size=m.num_rows) * ROW_SUM_TOL
        return dataclasses.replace(m, probs=m.probs * np.repeat(scale, np.diff(m.row_ptr)))

    def test_random_models(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            m = random_model(rng, num_states=int(rng.integers(2, 25)),
                             density=float(rng.uniform(0.1, 1.0)),
                             discount=float(rng.uniform(0.0, 0.999)))
            if rng.random() < 0.5:
                m = self.perturbed(m, rng)
            magnitude = 10.0 ** rng.uniform(4.0, 6.0)
            v = rng.uniform(-1.0, 1.0, size=m.num_states) * magnitude
            self.assert_within_bound(m, v)

    def test_large_one_signed_values(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = self.perturbed(random_model(rng, num_states=20, density=1.0, discount=0.995), rng)
            self.assert_within_bound(m, rng.uniform(1e5, 1e6, size=m.num_states))

    def test_total_reward_models(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            base = random_model(rng, num_states=int(rng.integers(2, 20)), density=0.7)
            m = dataclasses.replace(base, discount=1.0, mode=RewardMode.TOTAL_REWARD)
            if rng.random() < 0.5:
                m = self.perturbed(m, rng)
            self.assert_within_bound(m, rng.uniform(1e4, 1e6, size=m.num_states))

    def test_bound_is_not_finite_where_it_cannot_hold(self):
        m = random_model(np.random.default_rng(43))
        assert not np.isfinite(row_value_error(m, np.inf))
        assert not np.isfinite(row_value_error(m, np.nan))
        assert row_value_error(m, 1e308) == np.inf  # a row value could overflow
        negative = dataclasses.replace(m, probs=np.where(np.arange(m.probs.size) == 0, -0.5, m.probs))
        assert negative.row_sum_deviation == np.inf
        assert not np.isfinite(row_value_error(negative, 1.0))


class TestScreenedBounds:
    """The bounds the screened sums rest on hold against exact rational arithmetic."""

    @staticmethod
    def exact_sums(m, v):
        return [sum((Fraction(p) * Fraction(x) for p, x in zip(m.probs[lo:hi], v[m.cols[lo:hi]])),
                    Fraction(0))
                for lo, hi in zip(m.row_ptr[:-1], m.row_ptr[1:])]

    @staticmethod
    def models(rng, count):
        for _ in range(count):
            m = random_model(rng, num_states=int(rng.integers(2, 20)),
                             density=float(rng.uniform(0.1, 1.0)),
                             discount=float(rng.choice([0.5, 0.9, 0.995])))
            yield TestRowValueError.perturbed(m, rng) if rng.random() < 0.5 else m

    def test_kernel_and_scaled_sums_within_sum_error(self):
        rng = np.random.default_rng(70)
        for m in self.models(rng, 25):
            u = rng.uniform(-1.0, 1.0, size=m.num_states) * 10.0 ** rng.uniform(0.0, 6.0)
            e = Fraction(sum_error(m, sup_norm(u)))
            kernel = weighted_sums(m, u).values
            assert max(abs(Fraction(k) - x) for k, x in zip(kernel, self.exact_sums(m, u))) <= e
            for f in (0.0, 0.3, 0.7, 1.0, *rng.uniform(size=3)):
                # the projective step's factor and the sums it carries
                scaled = f * kernel
                exact = self.exact_sums(m, f * u)
                assert max(abs(Fraction(k) - x) for k, x in zip(scaled, exact)) <= e

    def drifts(self, m, rng):
        """(x, held sums at x, y) triples: kernel sums, the zero start and scaled sums."""
        x = rng.uniform(0.5, 1.0, size=m.num_states) * 10.0 ** rng.uniform(0.0, 5.0)
        shift = float(rng.normal()) * sup_norm(x)
        for y in (x + shift, 0.99 * x, apply_operator(m, x, "standard"),
                  x + rng.normal(size=m.num_states) * sup_norm(x) * 1e-6,
                  rng.normal(size=m.num_states) * sup_norm(x)):
            yield x, weighted_sums(m, x), y
        zero = np.zeros(m.num_states)
        yield zero, WeightedSums(np.zeros(m.num_rows), zero), np.full(m.num_states, shift)
        # the projective loop: sums at u scaled to z = f * u, then a backup of z
        u = apply_operator(m, x, "standard")
        held = drifted_sums(m, weighted_sums(m, x), u)
        f = float(rng.uniform(0.3, 1.0))
        z = f * u
        yield z, held.scaled(f), apply_operator(m, z, "standard")

    def test_drift_holds_every_kernel_and_exact_sum(self):
        rng = np.random.default_rng(71)
        for m in self.models(rng, 25):
            for x, held, y in self.drifts(m, rng):
                d = drifted_sums(m, held, y)
                assert isinstance(d, ScreenedSums) and (d.lo < d.hi).all()
                kernel = weighted_sums(m, y).values
                assert (d.lo <= kernel).all() and (kernel <= d.hi).all()
                exact = self.exact_sums(m, y)
                assert all(Fraction(a) <= x <= Fraction(b) for a, x, b in zip(d.lo, exact, d.hi))

    def test_uncertified_drifts_take_the_kernel_sums(self):
        # sums derived by linearity or over some rows, and a point that is not
        # finite, certify no bound: the drift is the all-rows kernel pass at y
        rng = np.random.default_rng(74)
        m = random_model(rng, num_states=12)
        x = rng.normal(size=m.num_states) * 100.0
        y = apply_operator(m, x, "standard")
        held = weighted_sums(m, x)
        cases = [(held.scaled(0.5), y), (weighted_sums(m, x, rows=[0, 2]), y)]
        for bad in (np.nan, np.inf, -np.inf):
            point = y.copy()
            point[3] = bad
            cases.append((held, point))
        for sums, point in cases:
            d = drifted_sums(m, sums, point)
            assert isinstance(d, WeightedSums) and d.rows is None and d.base is point
            assert np.array_equal(d.values, weighted_sums(m, point).values, equal_nan=True)

    def test_scaled_sums_form_their_point_and_scale_once(self):
        rng = np.random.default_rng(73)
        m = random_model(rng, num_states=15)
        x = rng.normal(size=m.num_states) * 100.0
        u = apply_operator(m, x, "standard")
        for held in (weighted_sums(m, u), drifted_sums(m, weighted_sums(m, x), u)):
            for f in (0.0, 0.3, 1.0, *rng.uniform(size=3)):
                # bit for bit, signed zeros included
                assert held.scaled(f).base.tobytes() == (f * u).tobytes()
        screened = drifted_sums(m, weighted_sums(m, x), u)
        with pytest.raises(ValueError, match="scaled once"):
            screened.scaled(0.5).scaled(0.5)

    def test_jacobi_row_value_bounds(self):
        rng = np.random.default_rng(72)
        checked = 0
        for m in self.models(rng, 30):
            if m.jacobi_denominator[1] < 1e-12:
                continue
            for x, held, y in self.drifts(m, rng):
                d = drifted_sums(m, held, y)
                for v in (x, y):
                    own = v.repeat(m.row_counts)
                    low = operators_mod._row_values(m, OperatorKind.JACOBI, own, d.lo)
                    high = operators_mod._row_values(m, OperatorKind.JACOBI, own, d.hi)
                    # every sum between the bounds, the kernel's and the endpoints' neighbours
                    inside = [weighted_sums(m, y).values, d.lo, d.hi,
                              np.minimum(np.nextafter(d.lo, np.inf), d.hi),
                              np.maximum(np.nextafter(d.hi, -np.inf), d.lo)]
                    inside += [d.lo + rng.uniform(size=m.num_rows) * (d.hi - d.lo) for _ in range(4)]
                    for sums in inside:
                        sums = np.clip(sums, d.lo, d.hi)
                        value = operators_mod._row_values(m, OperatorKind.JACOBI, own, sums)
                        assert (low <= value).all() and (value <= high).all()
                    # in exact arithmetic, the Jacobi value of the exact sum lies
                    # between its values at the bounds
                    exact = self.exact_sums(m, y)
                    for k in range(m.num_rows):
                        den = Fraction(m.jacobi_denominator[0][k])
                        loop = Fraction(m.self_loop_probs[k]) * Fraction(own[k])
                        value = (Fraction(m.rewards[k]) + Fraction(m.discount) * (exact[k] - loop)) / den
                        at = [(Fraction(m.rewards[k]) + Fraction(m.discount) * (Fraction(b) - loop)) / den
                              for b in (d.lo[k], d.hi[k])]
                        assert at[0] <= value <= at[1]
                    checked += 1
        assert checked > 100


class TestSupNorm:
    def test_values(self):
        assert sup_norm(np.array([-3.0, 2.0])) == 3.0
        assert sup_norm(np.array([])) == 0.0


class TestOneStepRowValues:
    def test_formed_once_per_sums_and_model(self):
        rng = np.random.default_rng(64)
        m = random_model(rng, num_states=12)
        v = rng.normal(size=m.num_states)
        s = weighted_sums(m, v)
        values = one_step_row_values(m, s)
        expected = m.discount * s.values
        expected += m.rewards
        assert np.array_equal(values, expected)
        assert one_step_row_values(m, s) is values
        assert is_feasible(m, v, sums=s) is is_feasible(m, v)
        assert one_step_row_values(m, s) is values  # the check read them, formed nothing new
        # the same sums on a model with other rewards give that model's values
        shifted, _ = adjust_rewards_nonnegative(m)
        other = one_step_row_values(shifted, s)
        assert other is not values
        assert np.array_equal(other, m.discount * s.values + shifted.rewards)

    @pytest.mark.parametrize("mode", ["discounted", "total"])
    def test_backup_is_held_with_the_sums_and_handed_out_as_a_copy(self, mode):
        kind = "standard"
        if mode == "discounted":
            m = random_model(np.random.default_rng(65), num_states=12)
            v = initial_feasible_point(m)
        else:
            m, v = chain_to_absorbing(), np.array([6.0, 6.0, 0.0])
        s = weighted_sums(m, v)
        out = apply_operator(m, v, kind, sums=s)
        values = one_step_row_values(m, s)  # held since the backup formed them
        assert np.array_equal(out, np.maximum.reduceat(values, m.state_ptr[:-1]))
        assert is_feasible(m, v, sums=s)
        # the caller owns what the backup returned: changing it changes no later verdict
        backup = out.copy()
        out += 1e6
        assert is_feasible(m, v, sums=s)
        assert np.array_equal(apply_operator(m, v, kind, sums=s), backup)


class TestSumsReuseSemantics:
    def test_backup_from_reused_sums_is_identical(self):
        rng = np.random.default_rng(10)
        m = random_model(rng, num_states=25, density=0.4)
        v = rng.normal(size=m.num_states)
        s = weighted_sums(m, v)
        fresh = apply_operator(m, v, "standard")
        reused = apply_operator(m, v, "standard", sums=s)
        assert np.array_equal(fresh, reused)

    def test_scaled_sums_reuse(self):
        # sums are linear in the vector: sums(a * v) == a * sums(v).
        rng = np.random.default_rng(11)
        m = random_model(rng, num_states=20)
        v = rng.uniform(1.0, 5.0, size=m.num_states)
        s = weighted_sums(m, v)
        scaled = 0.5 * v
        manual = WeightedSums(values=0.5 * s.values, base=scaled)
        fresh = weighted_sums(m, scaled)
        np.testing.assert_allclose(manual.values, fresh.values, rtol=0, atol=1e-12)
