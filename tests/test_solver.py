"""Tests for the value-iteration driver: stopping, acceleration, caching."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

import mdpaccel.accelerators as accel_mod
import mdpaccel.operators as operators_mod
import mdpaccel.solver as solver_mod
from mdpaccel.accelerators import (
    AlreadyConvergedError,
    apply_linear_extension,
    apply_projective,
)
from mdpaccel.generators import GeneratorSpec, generate
from mdpaccel.model import (
    MdpModel,
    RewardMode,
    adjust_rewards_nonnegative,
    initial_feasible_point,
)
from mdpaccel.operators import OperatorKind, apply_operator, is_feasible, sup_norm, weighted_sums
from mdpaccel.solver import (
    SCREEN_MIN_ROW_NNZ,
    SCREEN_MIN_ROWS_PER_STATE,
    AcceleratorKind,
    SolverConfig,
    SolverConfigError,
    algorithm_label,
    extract_policy,
    screens_sums,
    solve,
    stopping_threshold,
)
from mdpaccel.verification import exact_fixed_point

from test_model import chain_to_absorbing, random_model, two_state_swap


def linear_tail_model():
    """A model whose linear-extension runs meet binding rows with slopes
    near rounding noise: a scan that skips them oversteps the dominance
    region, and with checks off LAVI and LAGS then stall at discount 0.995."""
    return generate(GeneratorSpec(family="uniform", num_states=30, density=0.5,
                                  discount=0.995, seed=3))


class TestStoppingThreshold:
    def test_reference_value(self):
        assert stopping_threshold(1e-3, 0.9) == pytest.approx(5.5555555e-5, rel=1e-6)

    def test_tightens_with_discount(self):
        assert stopping_threshold(1e-3, 0.995) < stopping_threshold(1e-3, 0.9)

    def test_rejects_undiscounted(self):
        for bad in (-0.5, 1.0, 1.5):
            with pytest.raises(ValueError):
                stopping_threshold(1e-3, bad)
        with pytest.raises(ValueError):
            stopping_threshold(0.0, 0.9)

    def test_one_backup_is_exact_at_discount_zero(self):
        assert stopping_threshold(1e-3, 0.0) == math.inf

    def test_loop_threshold_is_split_across_states(self):
        m = two_state_swap()
        res = solve(m, SolverConfig(epsilon=1e-3))
        assert res.threshold == pytest.approx(stopping_threshold(1e-3, 0.9) / 2)


class TestPlainIteration:
    def test_swap_converges_to_fixed_point(self):
        res = solve(two_state_swap())
        assert res.converged
        np.testing.assert_allclose(res.final_value, [10.0, 10.0], atol=5e-4)
        assert res.iterations > 50  # plain contraction, no shortcuts
        assert res.final_residual <= res.threshold
        assert res.fallback_count == 0

    def test_iterations_match_residual_trace(self):
        res = solve(two_state_swap())
        assert res.iterations == len(res.residuals) == len(res.alphas)
        assert all(a is None for a in res.alphas)

    def test_budget_exhaustion_reports_not_converged(self):
        res = solve(two_state_swap(), SolverConfig(max_iterations=5))
        assert not res.converged
        assert res.iterations == 5
        assert res.final_residual > res.threshold

    def test_explicit_start_descends_from_above(self):
        m = two_state_swap()
        start = np.array([20.0, 20.0])
        res = solve(m, SolverConfig(initial_point=start))
        assert res.converged
        np.testing.assert_allclose(res.final_value, [10.0, 10.0], atol=5e-4)
        np.testing.assert_array_equal(start, [20.0, 20.0])  # input untouched

    def test_policy_is_greedy_at_final_value(self):
        m = MdpModel.from_rows(
            [
                [(0.0, [(1, 1.0)]), (1.5, [(0, 1.0)])],
                [(2.0, [(1, 1.0)])],
            ],
            discount=0.5,
        )
        # state 1 loops forever at reward 2 -> value 4; from state 0,
        # looping at 1.5 is worth 3, beating the switch (0 + 0.5 * 4 = 2).
        res = solve(m)
        np.testing.assert_array_equal(res.final_policy, [1, 0])
        np.testing.assert_allclose(res.final_value, [3.0, 4.0], atol=1e-3)

    def test_extract_policy_tie_breaks_low(self):
        m = two_state_swap()
        np.testing.assert_array_equal(extract_policy(m, np.zeros(2)), [0, 0])


class TestAcceleratedRuns:
    def test_projective_swap_two_iterations(self):
        m = two_state_swap()
        cfg = SolverConfig(
            accelerator=AcceleratorKind.PROJECTIVE,
            initial_point=np.array([20.0, 20.0]),
        )
        res = solve(m, cfg)
        assert res.converged
        assert res.iterations == 2
        np.testing.assert_allclose(res.final_value, [10.0, 10.0], atol=1e-9)
        assert res.alphas[0].alpha == pytest.approx(1.0 / 1.9)
        assert res.alphas[1] is None  # converged backup is not accelerated

    def test_linear_extension_swap_two_iterations(self):
        m = two_state_swap()
        cfg = SolverConfig(
            accelerator=AcceleratorKind.LINEAR_EXTENSION,
            initial_point=np.array([20.0, 20.0]),
        )
        res = solve(m, cfg)
        assert res.converged
        assert res.iterations == 2
        np.testing.assert_allclose(res.final_value, [10.0, 10.0], atol=1e-9)
        assert res.alphas[0].alpha == pytest.approx(10.0)

    def test_auto_start_shifts_rewards_and_reports_original_units(self):
        m = two_state_swap(-3.0, 5.0)
        plain = solve(m)
        accel = solve(m, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE))
        assert accel.reward_offset == 5.0
        assert plain.reward_offset == 0.0
        np.testing.assert_allclose(accel.final_value, plain.final_value, atol=2e-3)
        np.testing.assert_allclose(accel.final_value, [1.5 / 0.19, 5 + 0.9 * 1.5 / 0.19], atol=2e-3)

    def test_all_pairings_agree_on_the_solution(self):
        spec = GeneratorSpec(family="uniform", num_states=30, density=0.4,
                             action_range=(2, 6), seed=5)
        m = generate(spec)
        reference = solve(m)
        for op in (OperatorKind.STANDARD, OperatorKind.JACOBI,
                   OperatorKind.GAUSS_SEIDEL, OperatorKind.GAUSS_SEIDEL_JACOBI):
            for accel in AcceleratorKind:
                res = solve(m, SolverConfig(operator=op, accelerator=accel))
                assert res.converged, (op, accel)
                np.testing.assert_allclose(
                    res.final_value, reference.final_value, atol=1e-3,
                    err_msg=f"{op} {accel}",
                )
                np.testing.assert_array_equal(res.final_policy, reference.final_policy)

    def test_acceleration_cuts_iterations(self):
        spec = GeneratorSpec(family="uniform", num_states=40, density=0.5,
                             action_range=(2, 8), seed=9)
        m = generate(spec)
        plain = solve(m)
        quick = solve(m, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE))
        assert quick.converged and plain.converged
        assert quick.iterations * 3 < plain.iterations

    def test_checks_do_not_change_the_trajectory(self):
        spec = GeneratorSpec(family="uniform", num_states=25, density=0.5,
                             action_range=(2, 5), seed=13)
        m = generate(spec)
        for accel in (AcceleratorKind.PROJECTIVE, AcceleratorKind.LINEAR_EXTENSION):
            on = solve(m, SolverConfig(accelerator=accel, membership_checks=True))
            off = solve(m, SolverConfig(accelerator=accel, membership_checks=False))
            assert on.iterations == off.iterations
            assert np.array_equal(on.residuals, off.residuals)
            np.testing.assert_array_equal(on.final_value, off.final_value)

    def test_infeasible_start_rejected_when_checked(self):
        m = two_state_swap()
        cfg = SolverConfig(
            accelerator=AcceleratorKind.PROJECTIVE, initial_point=np.zeros(2)
        )
        with pytest.raises(SolverConfigError, match="dominate"):
            solve(m, cfg)


class TestUncheckedLinearExtension:
    """Without checks the linear extension takes the checked run's steps."""

    @pytest.mark.parametrize("operator", ["standard", "gs"])
    def test_converges_on_the_checked_path(self, operator):
        m = linear_tail_model()
        exact = exact_fixed_point(m).exact_value
        checked, unchecked = (
            solve(m, SolverConfig(operator=operator, accelerator="linear", epsilon=1e-3,
                                  membership_checks=checks, max_iterations=2_500))
            for checks in (True, False)
        )
        for res in (checked, unchecked):
            assert res.converged
            assert np.max(np.abs(res.final_value - exact)) <= 1e-3
            assert res.fallback_count == 0
        assert np.array_equal(unchecked.residuals, checked.residuals)
        assert np.array_equal(unchecked.final_value, checked.final_value)
        assert np.array_equal(unchecked.final_policy, checked.final_policy)
        assert unchecked.alphas == checked.alphas


def reference_solve(m, cfg):
    """The solve loop on a discounted model, written with the public
    layered functions only.

    Returns the residuals, final value, policy and acceleration outcomes,
    and how many scans raised ``AlreadyConvergedError``.
    """
    accelerated = cfg.accelerator is not AcceleratorKind.NONE
    model, offset = adjust_rewards_nonnegative(m) if accelerated else (m, 0.0)
    w = initial_feasible_point(model) if accelerated else np.zeros(m.num_states)
    if cfg.initial_point is not None:
        model, offset, w = m, 0.0, np.array(cfg.initial_point, dtype=np.float64)
    threshold = stopping_threshold(cfg.epsilon, m.discount) / m.num_states
    sweep = cfg.operator in (OperatorKind.GAUSS_SEIDEL, OperatorKind.GAUSS_SEIDEL_JACOBI)
    carry = not sweep or cfg.accelerator is AcceleratorKind.LINEAR_EXTENSION
    sums = weighted_sums(model, w) if carry else None
    residuals, alphas, already = [], [], 0
    for _ in range(cfg.max_iterations):
        if sweep:
            u = apply_operator(model, w, cfg.operator)
        else:
            u = apply_operator(model, w, cfg.operator, sums=sums)
        residual = sup_norm(u - w)
        residuals.append(residual)
        if residual <= threshold or not accelerated:
            w = u
            alphas.append(None)
            if residual <= threshold:
                break
            sums = weighted_sums(model, u) if carry else None
            continue
        s_u = weighted_sums(model, u)
        if cfg.accelerator is AcceleratorKind.PROJECTIVE:
            step = apply_projective(model, u, sums=s_u, check_membership=cfg.membership_checks)
        else:
            try:
                step = apply_linear_extension(model, w, u, sums_v=sums, sums_u=s_u,
                                              check_membership=cfg.membership_checks)
            except AlreadyConvergedError:
                already += 1
                w, sums = u, (s_u if carry else None)
                alphas.append(None)
                continue
        w, sums = step.point, (step.sums if carry else None)
        alphas.append(step.alpha)
    value = w - offset / (1.0 - m.discount) if offset else w.copy()
    return np.asarray(residuals), value, extract_policy(model, w), alphas, already


def pinned_models():
    return [
        generate(GeneratorSpec(family="uniform", num_states=14, density=0.5, discount=0.95,
                               action_range=(2, 5), seed=41)),
        generate(GeneratorSpec(family="uniform", num_states=10, density=1.0, discount=0.9,
                               action_range=(2, 4), seed=42)),
        generate(GeneratorSpec(family="band", num_states=16, bandwidth=3, discount=0.97,
                               action_range=(2, 5), seed=43)),
        # dense rows: its projective runs carry screened sums
        generate(GeneratorSpec(family="uniform", num_states=SCREEN_MIN_ROW_NNZ, density=1.0,
                               discount=0.95, action_range=(5, 12), seed=44)),
    ]


@functools.cache
def criterion_9_model():
    """The model of ``test_acceptance``'s criterion 9: 24,874 rows of 500 entries."""
    return generate(GeneratorSpec(family="uniform", num_states=500, density=1.0, discount=0.9,
                                  reward_range=(0.01, 0.1), seed=0))


def assert_same_run(m, cfg, before_each=lambda: None):
    before_each()
    expected = reference_solve(m, cfg)
    before_each()
    res = solve(m, cfg)
    assert np.array_equal(res.residuals, expected[0])
    assert np.array_equal(res.final_value, expected[1])
    assert np.array_equal(res.final_policy, expected[2])
    assert res.alphas == expected[3]
    return expected


class TestIterateSequencePinned:
    """``solve`` runs the same iterates as the layered functions called plainly."""

    @pytest.mark.parametrize("checks", [True, False], ids=["checks", "nochecks"])
    @pytest.mark.parametrize("accelerator", ["none", "projective", "linear"])
    @pytest.mark.parametrize("operator", ["standard", "jacobi", "gs", "gsj"])
    def test_matches_reference_solve(self, operator, accelerator, checks):
        for m in pinned_models():
            cfg = SolverConfig(operator=operator, accelerator=accelerator, membership_checks=checks)
            assert_same_run(m, cfg)

    @pytest.mark.parametrize("checks", [True, False], ids=["checks", "nochecks"])
    @pytest.mark.parametrize("operator", ["standard", "jacobi"])
    def test_screened_runs_at_the_dense_benchmark_scale_match(self, operator, checks):
        # the dense-pa shape: 326,640 stored entries, against about 30k above
        m = generate(GeneratorSpec(family="uniform", num_states=80, density=1.0, discount=0.995,
                                   action_range=(45, 56), seed=100))
        cfg = SolverConfig(operator=operator, accelerator="projective", membership_checks=checks)
        assert screens_sums(m, cfg)
        assert_same_run(m, cfg)

    @pytest.mark.parametrize("checks", [True, False], ids=["checks", "nochecks"])
    def test_screened_runs_on_criterion_9s_model_match(self, checks):
        # its first scan keeps about 45% of the rows, and takes them by descending reach
        m = criterion_9_model()
        cfg = SolverConfig(accelerator="projective", membership_checks=checks)
        assert screens_sums(m, cfg)
        assert_same_run(m, cfg)

    @pytest.mark.parametrize("checks", [True, False], ids=["checks", "nochecks"])
    def test_budget_ending_on_a_scaled_step_gives_the_reference_policy(self, monkeypatch, checks):
        # the run ends holding screened sums scaled by its last step, so the
        # policy takes sums drifted from them to the iterate itself
        m = pinned_models()[3]
        drifted_from = []
        real = solver_mod.drifted_sums

        def drifted(m, sums, y):
            drifted_from.append(sums.from_kernel)
            return real(m, sums, y)

        monkeypatch.setattr(solver_mod, "drifted_sums", drifted)
        for budget in (1, 2, 3):
            cfg = SolverConfig(accelerator="projective", max_iterations=budget, membership_checks=checks)
            drifted_from.clear()
            res = solve(m, cfg)
            assert not res.converged and res.alphas[-1] is not None
            assert drifted_from[-1] is False
            assert np.array_equal(res.final_policy, reference_solve(m, cfg)[2])

    @pytest.mark.parametrize("operator", ["standard", "jacobi", "gs", "gsj"])
    def test_only_dense_projective_runs_screen(self, operator):
        dense = pinned_models()[-1]
        for accelerator in ("none", "projective", "linear"):
            cfg = SolverConfig(operator=operator, accelerator=accelerator)
            expected = accelerator == "projective" and operator in ("standard", "jacobi")
            assert screens_sums(dense, cfg) is expected
            assert not any(screens_sums(m, cfg) for m in pinned_models()[:-1])

    @pytest.mark.parametrize("operator", ["standard", "gs"])
    def test_degenerate_scans_and_fallbacks(self, monkeypatch, operator):
        # at epsilon 1e-8 the stopping threshold lies below the scan's
        # degeneracy guard, so late scans raise AlreadyConvergedError; no
        # output check fails on this model, so each run's third is made to
        m = generate(GeneratorSpec(family="uniform", num_states=10, density=0.5, discount=0.9,
                                   action_range=(2, 4), seed=0))
        cfg = SolverConfig(operator=operator, accelerator="linear", epsilon=1e-8)
        checked = []
        real_passes = accel_mod._output_passes

        def output_passes(*args):
            # each accelerated step checks its output once
            checked.append(None)
            return len(checked) != 3 and real_passes(*args)

        monkeypatch.setattr(accel_mod, "_output_passes", output_passes)
        alphas, already = assert_same_run(m, cfg, before_each=checked.clear)[3:]
        assert already > 0
        assert [i for i, a in enumerate(a for a in alphas if a is not None) if a.fallback_used] == [2]


def negative_state_model():
    """``pinned_models()[0]`` with state 0's rewards negated: every one of its rows is negative."""
    m = pinned_models()[0]
    rewards = m.rewards.copy()
    rewards[m.state_ptr[0]:m.state_ptr[1]] *= -1.0
    return dataclasses.replace(m, rewards=rewards)


def tied_rows_model():
    """State 0's first two rows are copies, its third is a unit in the last place
    below them in reward, and its fourth is worse by far, as is state 1's second."""
    best = (2.0, [(0, 0.5), (1, 0.5)])
    near = (float(np.nextafter(2.0, 0.0)), [(0, 0.5), (1, 0.5)])
    return MdpModel.from_rows(
        [
            [best, best, near, (0.5, [(1, 1.0)])],
            [(1.0, [(0, 1.0)]), (0.2, [(1, 1.0)])],
        ],
        discount=0.9,
    )


class TestActionElimination:
    """Plain standard runs whose first backup rises drop the rows that can
    never win again, and run the all-rows iterates bit for bit."""

    def test_rising_runs_drop_rows_and_keep_every_iterate(self):
        band = generate(GeneratorSpec(family="band", num_states=40, bandwidth=8, discount=0.995, seed=45))
        for m in [*pinned_models(), band]:
            assert_same_run(m, SolverConfig())
            res = solve(m, SolverConfig())
            assert 0 < res.rows_eliminated <= m.num_rows - m.num_states

    def test_state_with_only_negative_rewards_sums_every_row(self):
        m = negative_state_model()
        assert (m.rewards[m.state_ptr[0]:m.state_ptr[1]] < 0.0).all()
        assert_same_run(m, SolverConfig())
        assert solve(m, SolverConfig()).rows_eliminated == 0

    def test_start_above_the_fixed_point_sums_every_row(self):
        m = pinned_models()[0]
        # rewards below 100 at discount 0.95 keep every value below 2,000
        cfg = SolverConfig(initial_point=np.full(m.num_states, 1e4))
        residuals = assert_same_run(m, cfg)[0]
        assert len(residuals) > 1
        assert solve(m, cfg).rows_eliminated == 0

    def test_tied_and_nearly_tied_rows_are_kept(self):
        m = tied_rows_model()
        assert_same_run(m, SolverConfig())
        res = solve(m, SolverConfig())
        # only the two rows worse by far go; both copies and the near row stay
        assert res.rows_eliminated == 2
        assert res.final_policy[0] == 0

    @pytest.mark.parametrize("operator, accelerator", [
        ("jacobi", "none"), ("gs", "none"), ("gsj", "none"),
    ])
    def test_other_discounted_runs_report_none(self, operator, accelerator):
        res = solve(pinned_models()[0], SolverConfig(operator=operator, accelerator=accelerator))
        assert res.converged and res.rows_eliminated == 0

    def test_total_reward_runs_report_none(self):
        m = generate(GeneratorSpec(family="total_reward_positive", num_states=12, seed=3))
        res = solve(m, SolverConfig())
        assert res.converged and res.rows_eliminated == 0

    def test_drop_tests_follow_the_residual_schedule(self, monkeypatch):
        m = generate(GeneratorSpec(family="band", num_states=40, bandwidth=8, discount=0.995, seed=45))
        at, tested = [], []
        real_eliminate, real_values = solver_mod._Loop.eliminate, solver_mod.one_step_row_values

        def eliminate(loop, w, u, d, residual, sums_w, norm, drift):
            at.append(residual)
            real_eliminate(loop, w, u, d, residual, sums_w, norm, drift)

        def values(work, sums):
            # a drop test: the residual of the backup it reads
            tested.append(at[-1])
            return real_values(work, sums)

        for accelerator in ("none", "projective", "linear"):
            cfg = SolverConfig(accelerator=accelerator)
            expected = all_rows_solve(monkeypatch, m, cfg)
            at.clear()
            tested.clear()
            with monkeypatch.context() as patch:
                patch.setattr(solver_mod._Loop, "eliminate", eliminate)
                patch.setattr(solver_mod, "one_step_row_values", values)
                res = solve(m, cfg)
            assert tested[0] == at[0] and len(tested) > 1
            assert all(later <= 0.9 * earlier for earlier, later in zip(tested, tested[1:]))
            # the schedule skips most backups the loop could have tested at
            assert len(tested) < len(at) / 2
            assert 0 < res.rows_eliminated <= m.num_rows - m.num_states
            assert_same_result(res, expected)

    @pytest.mark.parametrize("accelerator", ["none", "projective", "linear"])
    def test_mode_given_as_its_value_solves_as_the_mode(self, accelerator):
        m = generate(GeneratorSpec(family="uniform", num_states=20, density=0.5, seed=1))
        cfg = SolverConfig(accelerator=accelerator, record_iterates=True)
        expected = solve(m, cfg)
        res = solve(dataclasses.replace(m, mode="discounted"), cfg)
        assert res.rows_eliminated == expected.rows_eliminated > 0
        assert_same_result(res, expected)
        assert all(np.array_equal(a, b) for a, b in zip(res.iterates, expected.iterates, strict=True))

    def test_slack_that_bounds_no_later_iterate_drops_nothing(self):
        m = pinned_models()[0]
        assert 0.0 < solver_mod._elimination_slack(m, 0.0, 1.0) < math.inf
        # at a zero iterate with a zero residual the rounding bound is all there is
        assert solver_mod._elimination_slack(m, 0.0, 0.0) == math.inf
        assert solver_mod._elimination_slack(m, 0.0, math.nan) == math.inf
        assert solver_mod._elimination_slack(m, 0.0, math.inf) == math.inf


def all_rows_solve(monkeypatch, m, cfg):
    """``solve(m, cfg)`` with action elimination forced off."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_mod._Loop, "eliminate", lambda loop, *args: None)
        return solve(m, cfg)


def assert_same_result(got, expected):
    assert np.array_equal(got.residuals, expected.residuals)
    assert got.alphas == expected.alphas
    assert np.array_equal(got.final_value, expected.final_value)
    assert np.array_equal(got.final_policy, expected.final_policy)


class TestAcceleratedElimination:
    """PAVI and LAVI runs on all-rows sums, checked or not, drop the rows
    below the MacQueen lower bound, and run the all-rows iterates bit for
    bit."""

    @pytest.mark.parametrize("checks", [True, False])
    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_all_rows_runs_drop_rows_and_keep_every_iterate(self, monkeypatch, accelerator, checks):
        band = generate(GeneratorSpec(family="band", num_states=40, bandwidth=8, discount=0.995, seed=45))
        cfg = SolverConfig(accelerator=accelerator, membership_checks=checks)
        for m in [*pinned_models(), band]:
            if screens_sums(m, cfg):
                continue
            res = solve(m, cfg)
            assert 0 < res.rows_eliminated <= m.num_rows - m.num_states
            assert res.guard_failed_at is None
            expected = all_rows_solve(monkeypatch, m, cfg)
            assert expected.rows_eliminated == 0
            assert_same_result(res, expected)
            assert_same_run(m, cfg)

    @pytest.mark.parametrize("operator, accelerator, checks", [
        ("jacobi", "projective", True), ("jacobi", "linear", True),
        ("gs", "projective", True), ("gs", "linear", True),
        ("gsj", "projective", True), ("gsj", "linear", True),
    ])
    def test_other_accelerated_runs_report_none(self, operator, accelerator, checks):
        cfg = SolverConfig(operator=operator, accelerator=accelerator, membership_checks=checks)
        res = solve(pinned_models()[0], cfg)
        assert res.converged and res.rows_eliminated == 0

    def test_screened_runs_report_none(self):
        m = pinned_models()[3]
        cfg = SolverConfig(accelerator="projective")
        assert screens_sums(m, cfg)
        assert solve(m, cfg).rows_eliminated == 0

    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_total_reward_runs_report_none(self, accelerator):
        m = generate(GeneratorSpec(family="total_reward_positive", num_states=12, seed=3))
        res = solve(m, SolverConfig(accelerator=accelerator))
        assert res.converged and res.rows_eliminated == 0

    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_tied_and_nearly_tied_rows_are_kept(self, accelerator):
        m = tied_rows_model()
        cfg = SolverConfig(accelerator=accelerator)
        assert_same_run(m, cfg)
        res = solve(m, cfg)
        # only the two rows worse by far go; both copies and the near row stay
        assert res.rows_eliminated == 2
        assert res.final_policy[0] == 0

    @pytest.mark.parametrize("checks", [True, False])
    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_forced_guard_failure_reruns_on_every_row(self, monkeypatch, accelerator, checks):
        m = pinned_models()[0]
        cfg = SolverConfig(accelerator=accelerator, membership_checks=checks, record_iterates=True)
        expected = all_rows_solve(monkeypatch, m, cfg)
        loops, steps = [], []
        real_init, real_step = solver_mod._Loop.__init__, solver_mod._Loop.step

        def recording_init(loop, *args, **kwargs):
            real_init(loop, *args, **kwargs)
            loops.append(loop)

        def recording_step(loop):
            steps.append(loop)
            return real_step(loop)

        monkeypatch.setattr(solver_mod._Loop, "__init__", recording_init)
        monkeypatch.setattr(solver_mod._Loop, "step", recording_step)
        # no margin of rounding clears a dropped row: the first guard after a drop fails
        monkeypatch.setattr(solver_mod, "_read_error", lambda *args: math.inf)
        res = solve(m, cfg)
        assert len(loops) == 2 and loops[0].rows_eliminated > 0
        assert res.rows_eliminated == 0
        # the first run's last step raised
        assert res.guard_failed_at == steps.count(loops[0]) > 1
        assert steps.count(loops[1]) == res.iterations
        # the failed run recorded every step but the one that raised; the result holds the rerun's
        first, rerun = loops
        assert len(first.residuals) == len(first.alphas) == res.guard_failed_at - 1
        assert len(first.iterates) == res.guard_failed_at
        assert np.array_equal(res.residuals, rerun.residuals)
        assert res.alphas is rerun.alphas and res.iterates is rerun.iterates
        assert_same_result(res, expected)
        assert len(res.iterates) == res.iterations + 1
        assert all(np.array_equal(a, b) for a, b in zip(res.iterates, expected.iterates))

    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_unchecked_run_from_below_its_backup_reruns_on_every_row(self, monkeypatch, accelerator):
        m = pinned_models()[0]
        zeros = np.zeros(m.num_states)
        assert not is_feasible(m, zeros)
        cfg = SolverConfig(accelerator=accelerator, membership_checks=False, initial_point=zeros)
        expected = all_rows_solve(monkeypatch, m, cfg)
        res = solve(m, cfg)
        # the iterates rise past the rows dropped at the first test
        assert res.guard_failed_at is not None
        assert res.rows_eliminated == 0
        assert_same_result(res, expected)

    @pytest.mark.parametrize("checks", [True, False])
    def test_nonnegative_projective_points_stay_below_their_backup(self, monkeypatch, checks):
        # the guard reads z for min(u, z), and 0 for the rise of z where u does not rise
        band = generate(GeneratorSpec(family="band", num_states=40, bandwidth=8, discount=0.995, seed=45))
        cfg = SolverConfig(accelerator="projective", membership_checks=checks)
        real_follow, seen = solver_mod._Loop.follow, []

        def follow(loop, w, u, d, residual, up, alpha, sums_w, norm, drift):
            assert loop.nonnegative
            if alpha is not None:
                z = loop.w
                assert (z >= 0.0).all() and (z <= u).all()
                if up == 0.0:
                    assert (z - w).max() <= 0.0
                seen.append(up == 0.0)
            return real_follow(loop, w, u, d, residual, up, alpha, sums_w, norm, drift)

        monkeypatch.setattr(solver_mod._Loop, "follow", follow)
        for m in [*pinned_models(), band]:
            if not screens_sums(m, cfg):
                solve(m, cfg)
        assert len(seen) > 50 and sum(seen) > 0.9 * len(seen)

    def test_projective_run_from_a_start_with_a_negative_entry_guards_every_rise(self, monkeypatch):
        m = pinned_models()[0]
        start = initial_feasible_point(m)
        start[0] = -1.0
        cfg = SolverConfig(accelerator="projective", membership_checks=False, initial_point=start)
        loops, real_init = [], solver_mod._Loop.__init__

        def recording_init(loop, *args, **kwargs):
            real_init(loop, *args, **kwargs)
            loops.append(loop)

        expected = all_rows_solve(monkeypatch, m, cfg)
        monkeypatch.setattr(solver_mod._Loop, "__init__", recording_init)
        res = solve(m, cfg)
        assert loops[0].falling and not loops[0].nonnegative
        assert_same_result(res, expected)

    def test_guard_refuses_a_dropped_row_that_reaches_the_iterates(self):
        m = pinned_models()[0]
        model, _ = adjust_rewards_nonnegative(m)
        loop = solver_mod._Loop(model, SolverConfig(accelerator="linear"), initial_feasible_point(model),
                                threshold=stopping_threshold(1e-3, m.discount) / m.num_states)
        while loop.bound is None:
            assert not loop.step()
        loop.step()
        # a dropped row said to be worth as much as its state's value could win
        state = int(np.flatnonzero(np.isfinite(loop.bound))[0])
        loop.bound[state] = loop.w[state]
        with pytest.raises(solver_mod._Rerun):
            loop.step()


class TestSharedRowMatrix:
    def test_rows_model_copies_the_rows_as_row_indexing_does(self):
        rng = np.random.default_rng(29)
        for m in [*pinned_models(), random_model(rng, num_states=30, max_actions=6, density=0.3)]:
            rows = np.flatnonzero(rng.random(m.num_rows) < 0.5)
            rows = np.union1d(rows, m.state_ptr[:-1])  # at least one row of every state
            work = solver_mod._rows_model(m, rows)
            expected = m.row_matrix[rows]
            for name in ("indptr", "indices", "data"):
                got, want = getattr(work.row_matrix, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert work.row_matrix.shape == expected.shape
            assert np.array_equal(work.row_ptr, expected.indptr) and work.row_ptr.dtype == np.int64
            assert work.cols is work.row_matrix.indices and work.probs is work.row_matrix.data
            assert np.array_equal(work.rewards, m.rewards[rows])
            assert np.array_equal(work.row_state, m.row_state[rows])
            v = rng.normal(size=m.num_states)
            assert np.array_equal(weighted_sums(work, v).values, weighted_sums(m, v).values[rows])

    def test_accelerated_solves_build_the_matrix_once(self, monkeypatch):
        m = generate(GeneratorSpec(family="uniform", num_states=15, density=0.5, seed=4))
        built, shifted = [], []
        getter = MdpModel.row_matrix.fget

        def counting_getter(model):
            if model._row_matrix is None:
                built.append(model)
            return getter(model)

        def recording_shift(model):
            out = adjust_rewards_nonnegative(model)
            shifted.append(out[0])
            return out

        monkeypatch.setattr(MdpModel, "row_matrix", property(counting_getter))
        monkeypatch.setattr(solver_mod, "adjust_rewards_nonnegative", recording_shift)
        for accelerator in (AcceleratorKind.PROJECTIVE, AcceleratorKind.LINEAR_EXTENSION):
            assert solve(m, SolverConfig(accelerator=accelerator)).converged
        assert len(built) == 1
        assert len(shifted) == 2
        assert all(s.row_matrix is m.row_matrix for s in shifted)

    def test_shifted_copies_share_the_inputs_row_views(self, monkeypatch):
        m = generate(GeneratorSpec(family="uniform", num_states=15, density=0.5, seed=4))
        shifted = []

        def recording_shift(model):
            out = adjust_rewards_nonnegative(model)
            shifted.append(out[0])
            return out

        monkeypatch.setattr(solver_mod, "adjust_rewards_nonnegative", recording_shift)
        for operator in ("standard", "jacobi", "gsj"):
            cfg = SolverConfig(operator=operator, accelerator=AcceleratorKind.PROJECTIVE)
            assert solve(m, cfg).converged
        assert all(s._views is m._views for s in shifted)
        for view in ("row_matrix", "row_state", "row_counts", "self_loop_probs"):
            assert view in m._views
            assert all(getattr(s, view) is m._views[view] for s in shifted)


    def test_accelerated_solves_measure_the_row_sums_once(self, monkeypatch):
        m = generate(GeneratorSpec(family="uniform", num_states=15, density=0.5, seed=4))
        shifted, measured = [], []
        view = MdpModel.__dict__["row_sum_deviation"]
        build = view.build

        def recording_shift(model):
            out = adjust_rewards_nonnegative(model)
            shifted.append(out[0])
            return out

        def counting_build(model):
            measured.append(model)
            return build(model)

        monkeypatch.setattr(solver_mod, "adjust_rewards_nonnegative", recording_shift)
        monkeypatch.setattr(view, "build", counting_build)
        for accelerator in ("projective", "linear"):
            for checks in (True, False):
                assert solve(m, SolverConfig(accelerator=accelerator, membership_checks=checks)).converged
        assert len(measured) == 1
        assert len(shifted) == 4
        assert all(s._views is m._views for s in shifted)
        assert all(s.row_sum_deviation == m._views["row_sum_deviation"] for s in shifted)


class TestTotalReward:
    def test_chain_plain(self):
        m = chain_to_absorbing()
        res = solve(m, SolverConfig())
        assert res.converged
        assert res.threshold == res.residuals[0] * 0 + 1e-3  # epsilon verbatim
        np.testing.assert_allclose(res.final_value, [3.5, 1.0, 0.0], atol=1e-9)
        assert res.iterations == 3
        np.testing.assert_allclose(res.residuals, [5.0, 2.5, 0.0])

    def test_chain_accelerated_variants(self):
        m = chain_to_absorbing()
        for accel in (AcceleratorKind.PROJECTIVE, AcceleratorKind.LINEAR_EXTENSION):
            res = solve(m, SolverConfig(accelerator=accel))
            assert res.converged
            np.testing.assert_allclose(res.final_value, [3.5, 1.0, 0.0], atol=1e-9)

    def test_generated_instance_descends(self):
        spec = GeneratorSpec(family="total_reward_positive", num_states=12,
                             discount=1.0, action_range=(2, 5), seed=3)
        m = generate(spec)
        plain = solve(m, SolverConfig(epsilon=1e-6))
        accel = solve(m, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE, epsilon=1e-6))
        assert plain.converged and accel.converged
        np.testing.assert_allclose(accel.final_value, plain.final_value, atol=1e-4)
        # iterates never pass below the fixed point on the way down
        assert np.all(accel.final_value >= plain.final_value - 1e-4)

    def test_operator_mode_coupling_enforced(self):
        for operator in ("jacobi", "gs", "gsj"):
            with pytest.raises(SolverConfigError, match="take only the standard backup"):
                solve(chain_to_absorbing(), SolverConfig(operator=operator))
        assert solve(chain_to_absorbing(), SolverConfig(operator=OperatorKind.STANDARD)).converged
        assert solve(two_state_swap(), SolverConfig(operator=OperatorKind.STANDARD)).converged


class TestConfigValidation:
    def test_epsilon_positive(self):
        with pytest.raises(SolverConfigError, match="epsilon"):
            solve(two_state_swap(), SolverConfig(epsilon=0.0))

    def test_max_iterations_positive(self):
        with pytest.raises(SolverConfigError, match="max_iterations"):
            solve(two_state_swap(), SolverConfig(max_iterations=0))

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -1.0])
    def test_epsilon_finite_and_positive(self, epsilon):
        with pytest.raises(SolverConfigError, match="epsilon"):
            solve(two_state_swap(), SolverConfig(epsilon=epsilon))

    @pytest.mark.parametrize("max_iterations", [2.5, 3.0, True])
    def test_max_iterations_integer(self, max_iterations):
        with pytest.raises(SolverConfigError, match="max_iterations"):
            solve(two_state_swap(), SolverConfig(max_iterations=max_iterations))

    def test_boundary_values_accepted(self):
        cfg = SolverConfig(accelerator="linear", max_iterations=np.int64(5), epsilon=1e300)
        assert solve(two_state_swap(), cfg).iterations >= 1

    @pytest.mark.parametrize("name", ["membership_checks", "record_iterates"])
    @pytest.mark.parametrize("value", ["no", None, 0, 1, np.bool_(True)])
    def test_flags_must_be_bool(self, name, value):
        # "no" would run with checks on and None with them off
        with pytest.raises(SolverConfigError, match=name):
            solve(two_state_swap(), SolverConfig(**{name: value}))

    def test_damping_is_not_a_setting(self):
        assert "beta" not in {f.name for f in dataclasses.fields(SolverConfig)}
        with pytest.raises(TypeError, match="beta"):
            SolverConfig(beta=0.0)

    def test_projective_start_needs_nonnegative_rewards(self, monkeypatch):
        m = MdpModel.from_rows([[(-1.0, [(1, 1.0)])], [(2.0, [(0, 1.0)])]], discount=0.9)
        start = np.full(2, 30.0)
        assert is_feasible(m, start)
        backups = []

        def recording_backup(*args, **kwargs):
            backups.append(args)
            return apply_operator(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "apply_operator", recording_backup)
        with pytest.raises(SolverConfigError, match="nonnegative rewards"):
            solve(m, SolverConfig(accelerator="projective", initial_point=start))
        assert not backups  # refused before any backup
        monkeypatch.undo()
        # the linear extension runs from the same start, as the default projective start does
        assert solve(m, SolverConfig(accelerator="linear", initial_point=start)).converged
        assert solve(m, SolverConfig(accelerator="projective")).converged

    def test_total_reward_projective_needs_nonnegative_rewards(self):
        # total-reward runs are never shifted
        m = MdpModel.from_rows([[(3.0, [(2, 1.0)])], [(-1.0, [(2, 1.0)])], [(0.0, [(2, 1.0)])]],
                               discount=1.0, mode=RewardMode.TOTAL_REWARD)
        with pytest.raises(SolverConfigError, match="nonnegative rewards"):
            solve(m, SolverConfig(accelerator="projective"))
        assert solve(m, SolverConfig(accelerator="linear")).converged

    @pytest.mark.parametrize("operator", ["jacobi", "gsj"])
    def test_self_loop_guard_is_the_operators_rule(self, operator):
        m = MdpModel.from_rows([[(5.0, [(0, 1.0)])]], discount=1.0 - 1e-13)
        with pytest.raises(ArithmeticError) as direct:
            apply_operator(m, np.zeros(1), operator)
        with pytest.raises(SolverConfigError, match=f"^the {operator} backup .*guard") as config:
            SolverConfig(operator=operator).validate_for(m)
        assert str(config.value) == str(direct.value)

    def test_mode_rule_is_the_operators_rule(self):
        model = chain_to_absorbing()
        for operator in ("jacobi", "gs", "gsj"):
            with pytest.raises(ValueError) as direct:
                apply_operator(model, np.zeros(model.num_states), operator)
            with pytest.raises(SolverConfigError, match="total-reward") as config:
                SolverConfig(operator=operator).validate_for(model)
            assert str(config.value) == str(direct.value)

    def test_initial_point_shape(self):
        with pytest.raises(SolverConfigError, match="shape"):
            solve(two_state_swap(), SolverConfig(initial_point=np.zeros(3)))

    def test_initial_point_finite(self):
        with pytest.raises(SolverConfigError, match="finite"):
            solve(two_state_swap(), SolverConfig(initial_point=np.array([np.nan, 0.0])))


class _SumsCounter:
    """Wraps the weighted-sums pass to count fresh evaluations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, m, v, rows=None):
        self.calls += 1
        return weighted_sums(m, v, rows=rows)


def counted_solve(monkeypatch, m, cfg):
    in_solver = _SumsCounter()
    in_accel = _SumsCounter()
    monkeypatch.setattr(solver_mod, "weighted_sums", in_solver)
    monkeypatch.setattr(accel_mod, "weighted_sums", in_accel)
    res = solve(m, cfg)
    return res, in_solver.calls, in_accel.calls


class TestSumsPassBudget:
    """One fresh weighted-sums pass per iteration, plus one at setup when
    the operator consumes carried sums; a checked step whose output check
    its margin does not settle costs one more, over the rows it leaves."""

    def setup_method(self):
        spec = GeneratorSpec(family="uniform", num_states=20, density=0.5,
                             action_range=(2, 5), seed=17)
        self.m = generate(spec)

    def run(self, monkeypatch, operator, accelerator, checks):
        cfg = SolverConfig(operator=operator, accelerator=accelerator,
                           membership_checks=checks, max_iterations=5)
        res, s, a = counted_solve(monkeypatch, self.m, cfg)
        assert not res.converged and res.iterations == 5
        return s, a

    def test_standard_projective(self, monkeypatch):
        s, a = self.run(monkeypatch, "standard", "projective", checks=False)
        assert (s, a) == (6, 0)  # 1 at setup + 1 per iteration

    def test_standard_projective_checked(self, monkeypatch):
        s, a = self.run(monkeypatch, "standard", "projective", checks=True)
        assert (s, a) == (6, 0)  # a certified step's output takes no validation pass

    def test_standard_linear(self, monkeypatch):
        s, a = self.run(monkeypatch, "standard", "linear", checks=False)
        assert (s, a) == (6, 0)

    def test_standard_linear_checked(self, monkeypatch):
        s, a = self.run(monkeypatch, "standard", "linear", checks=True)
        assert (s, a) == (6, 0)  # nor does the held backup of w

    def test_sweep_projective(self, monkeypatch):
        s, a = self.run(monkeypatch, "gs", "projective", checks=False)
        assert (s, a) == (5, 0)  # sweeps carry no setup sums

    def test_sweep_linear(self, monkeypatch):
        s, a = self.run(monkeypatch, "gs", "linear", checks=False)
        assert (s, a) == (6, 0)

    def test_sweep_linear_checked(self, monkeypatch):
        s, a = self.run(monkeypatch, "gs", "linear", checks=True)
        assert (s, a) == (6, 0)  # the output's carried sums settle its check

    def test_sweep_plain(self, monkeypatch):
        s, a = self.run(monkeypatch, "gs", "none", checks=False)
        assert (s, a) == (0, 0)

    def test_plain_iteration(self, monkeypatch):
        s, a = self.run(monkeypatch, "standard", "none", checks=False)
        assert (s, a) == (6, 0)

    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_checked_runs_on_a_compacted_model(self, monkeypatch, accelerator):
        # the band model drops rows and rebuilds its compacted copy on the way
        m = generate(GeneratorSpec(family="band", num_states=40, bandwidth=8, discount=0.995, seed=45))
        res, s, a = counted_solve(monkeypatch, m, SolverConfig(accelerator=accelerator))
        assert res.converged and res.rows_eliminated > 0
        steps = sum(alpha is not None for alpha in res.alphas)
        assert steps > 0
        # 1 at setup + 1 per backup that did not converge; every step's output is certified
        assert (s, a) == (1 + res.iterations - 1, 0)


class TestOneStepBackupBudget:
    """A checked standard LAVI iteration forms the one-step row values and
    their state maxima once: at the accelerated point ``z``, for the output
    check's certificate, which the backup of ``z`` in the next iteration
    reads.  The first iteration also forms them at the start, for its
    backup; neither certificate forms them at ``u``."""

    def count(self, monkeypatch):
        m = generate(GeneratorSpec(family="uniform", num_states=20, density=0.5,
                                   action_range=(2, 5), seed=17))
        cfg = SolverConfig(operator="standard", accelerator="linear", max_iterations=5)
        real_row_values, real_state_max = operators_mod._row_values, operators_mod._state_max
        step = solver_mod._Loop.step
        counts, inside = [], [False]

        def counting_row_values(model, kind, own, sums, rows=slice(None)):
            # the output check's rows are formed over some rows only
            if inside[0] and isinstance(rows, slice):
                counts[-1][0] += 1
            return real_row_values(model, kind, own, sums, rows)

        def counting_state_max(model, row_values):
            if inside[0]:
                counts[-1][1] += 1
            return real_state_max(model, row_values)

        def counting_step(loop):
            counts.append([0, 0])
            inside[0] = True
            try:
                return step(loop)
            finally:
                inside[0] = False

        monkeypatch.setattr(operators_mod, "_row_values", counting_row_values)
        monkeypatch.setattr(operators_mod, "_state_max", counting_state_max)
        monkeypatch.setattr(solver_mod._Loop, "step", counting_step)
        res = solve(m, cfg)
        monkeypatch.undo()
        assert res.iterations == 5
        assert all(a is not None and not a.fallback_used for a in res.alphas)
        return counts, res

    def test_two_formations_per_iteration(self, monkeypatch):
        counts, _ = self.count(monkeypatch)
        assert counts == [[2, 2]] + [[1, 1]] * 4

    def test_failed_certificates_form_at_u_and_take_the_same_steps(self, monkeypatch):
        _, certified = self.count(monkeypatch)
        monkeypatch.setattr(solver_mod, "_backup_excess", lambda *args: math.inf)
        monkeypatch.setattr(accel_mod, "_output_margin", lambda *args: math.inf)
        counts, screened = self.count(monkeypatch)
        # at w for the backup, at u for u's check, and at z from the all-rows pass of the output check
        assert counts == [[3, 3]] * 5
        assert np.array_equal(screened.residuals, certified.residuals)
        assert np.array_equal(screened.final_value, certified.final_value)
        assert screened.alphas == certified.alphas


class TestCertifiedMembership:
    """Every membership test that a falling run clears from a bound, its
    precondition at ``u`` or its output at ``z``, has the verdict of the
    test from fresh all-rows kernel sums at that point."""

    @staticmethod
    def models():
        rng = np.random.default_rng(28)
        draws = [
            random_model(rng, num_states=int(rng.integers(2, 25)), max_actions=int(rng.integers(1, 6)),
                         density=float(rng.uniform(0.1, 1.0)),
                         discount=float(rng.choice([0.5, 0.9, 0.995])))
            for _ in range(24)
        ]
        band = generate(GeneratorSpec(family="band", num_states=40, bandwidth=8, discount=0.995, seed=45))
        return draws + pinned_models() + [band]

    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_certified_verdicts_are_the_all_rows_ones(self, monkeypatch, accelerator):
        real_certify, real_out = solver_mod.certify_membership, accel_mod._output_passes
        certified = {"precondition": 0, "output": 0}

        def certify(m, sums, excess):
            real_certify(m, sums, excess)
            if sums._clears is not None:
                v, tol = sums.base, sums._clears[1]
                # the bound holds: the backup of v, formed from its kernel sums, exceeds v by no more
                backup = np.maximum.reduceat(m.discount * sums.values + m.rewards, m.state_ptr[:-1])
                assert float((backup - v).max()) <= excess
                assert is_feasible(m, v, tol=tol, sums=weighted_sums(m, v)) is True
                certified["precondition"] += 1

        def output_passes(m, zsums, drift, tol):
            verdict = real_out(m, zsums, drift, tol)
            assert verdict is is_feasible(m, zsums.base, tol=tol, sums=weighted_sums(m, zsums.base))
            # screened sums hold no verdict
            if getattr(zsums, "_clears", None) is not None:
                assert verdict is True and zsums._clears == (m, tol)
                certified["output"] += 1
            return verdict

        monkeypatch.setattr(solver_mod, "certify_membership", certify)
        monkeypatch.setattr(accel_mod, "_output_passes", output_passes)
        steps = 0
        for m in self.models():
            res = solve(m, SolverConfig(accelerator=accelerator))
            assert res.converged
            steps += sum(a is not None for a in res.alphas)
        # the bounds clear nearly every step's tests
        assert min(certified.values()) >= 0.9 * steps


class TestHeldVerdicts:
    """A verdict the output check held on the carried sums of ``z``,
    read by the next extension step's membership test of ``z``, is the
    verdict of the test from fresh all-rows kernel sums and from the
    carried sums themselves."""

    def test_held_verdicts_are_the_all_rows_ones(self, monkeypatch):
        real_feasible = accel_mod.is_feasible
        held = []

        def feasible(m, v, tol=None, sums=None):
            verdict = real_feasible(m, v, tol=tol, sums=sums)
            clears = getattr(sums, "_clears", None)
            if sums.rows is None and clears is not None and clears[0] is m and tol >= clears[1]:
                assert verdict is True
                assert real_feasible(m, v, tol=tol, sums=weighted_sums(m, v)) is True
                assert real_feasible(m, v, tol=tol, sums=dataclasses.replace(sums, _clears=None)) is True
                held.append(v)
            return verdict

        monkeypatch.setattr(accel_mod, "is_feasible", feasible)
        steps = 0
        for m in TestCertifiedMembership.models():
            res = solve(m, SolverConfig(accelerator="linear"))
            assert res.converged
            steps += sum(a is not None for a in res.alphas)
        # every extension step but the first reads the verdict its predecessor held
        assert len(held) >= 0.9 * steps


class TestScreenSelection:
    """Screening needs enough entries per row and enough rows per state."""

    @pytest.mark.parametrize("actions", [SCREEN_MIN_ROWS_PER_STATE - 1, SCREEN_MIN_ROWS_PER_STATE])
    def test_rows_per_state_at_the_minimum(self, actions):
        m = generate(GeneratorSpec(family="uniform", num_states=SCREEN_MIN_ROW_NNZ, density=1.0,
                                   discount=0.995, action_range=(actions, actions), seed=100))
        cfg = SolverConfig(operator="standard", accelerator="projective")
        assert screens_sums(m, cfg) is (actions >= SCREEN_MIN_ROWS_PER_STATE)

    def test_dense_model_with_two_to_four_actions_takes_all_rows(self):
        m = generate(GeneratorSpec(family="uniform", num_states=100, density=1.0, discount=0.995,
                                   action_range=(2, 4), seed=100))
        for operator in ("standard", "jacobi"):
            assert not screens_sums(m, SolverConfig(operator=operator, accelerator="projective"))

    @pytest.mark.parametrize("spec", [
        dict(num_states=80, action_range=(45, 56), discount=0.995, seed=100),  # dense-pa
        dict(num_states=500, discount=0.995, seed=0),  # criterion 4
        dict(num_states=500, discount=0.9, reward_range=(0.01, 0.1), seed=0),  # criterion 9
    ], ids=["dense-pa", "criterion-4", "criterion-9"])
    def test_benchmark_and_anchor_models_still_screen(self, spec):
        m = generate(GeneratorSpec(family="uniform", density=1.0, **spec))
        assert screens_sums(m, SolverConfig(operator="standard", accelerator="projective"))


def rows_summed_per_iteration(monkeypatch, m, cfg):
    """The solve of ``m`` under ``cfg``, and the rows its weighted sums covered at setup and at each iteration."""
    per_iteration = [0]

    def counting_sums(model, v, rows=None):
        per_iteration[-1] += model.num_rows if rows is None else len(rows)
        return weighted_sums(model, v, rows=rows)

    step = solver_mod._Loop.step

    def counting_step(loop):
        per_iteration.append(0)
        return step(loop)

    for module in (operators_mod, accel_mod, solver_mod):
        monkeypatch.setattr(module, "weighted_sums", counting_sums)
    monkeypatch.setattr(solver_mod._Loop, "step", counting_step)
    return solve(m, cfg), per_iteration


class TestScreenedRowShare:
    """A screened dense solve takes exact sums for few rows once under way."""

    @pytest.mark.parametrize("checks", [True, False], ids=["checks", "nochecks"])
    def test_criterion_9s_first_iteration_sums_at_most_a_tenth_of_the_rows(self, monkeypatch, checks):
        # its first scan keeps 11,181 of 24,874 rows, of which 1,166 reach the largest ratio
        m = criterion_9_model()
        cfg = SolverConfig(accelerator="projective", membership_checks=checks)
        res, per_iteration = rows_summed_per_iteration(monkeypatch, m, cfg)
        assert res.converged and len(per_iteration) == res.iterations + 1
        assert per_iteration[0] == 0
        assert per_iteration[1] <= m.num_rows / 10

    @pytest.mark.parametrize("checks", [True, False], ids=["checks", "nochecks"])
    @pytest.mark.parametrize("operator", ["standard", "jacobi"])
    def test_under_a_twentieth_of_the_rows_per_iteration(self, monkeypatch, operator, checks):
        m = generate(GeneratorSpec(family="uniform", num_states=64, density=1.0, discount=0.995,
                                   action_range=(30, 40), seed=7))
        cfg = SolverConfig(operator=operator, accelerator="projective", membership_checks=checks)
        assert screens_sums(m, cfg)
        res, per_iteration = rows_summed_per_iteration(monkeypatch, m, cfg)
        assert res.converged and len(per_iteration) == res.iterations + 1
        # setup takes none; from the constant start the first iteration takes more
        assert per_iteration[0] == 0
        assert max(per_iteration[2:]) < m.num_rows / 20

    @pytest.mark.parametrize("operator", ["standard", "jacobi"])
    def test_dense_pa_output_checks_make_no_kernel_call(self, monkeypatch, operator):
        # the dense-pa shape: every output passes on the scaled upper bounds of its screened sums
        m = generate(GeneratorSpec(family="uniform", num_states=80, density=1.0, discount=0.995,
                                   action_range=(45, 56), seed=100))
        calls = []

        def counting_sums(model, v, rows=None):
            calls.append(rows)
            return weighted_sums(model, v, rows=rows)

        monkeypatch.setattr(accel_mod, "weighted_sums", counting_sums)
        cfg = SolverConfig(operator=operator, accelerator="projective")
        assert screens_sums(m, cfg)
        res = solve(m, cfg)
        assert res.converged and any(alpha is not None for alpha in res.alphas)
        assert calls == []


class TestAlgorithmLabels:
    def test_labels(self):
        assert algorithm_label("standard", "none") == "VI"
        assert algorithm_label("jacobi", "none") == "J"
        assert algorithm_label("gs", "projective") == "PAGS"
        assert algorithm_label("gsj", "linear") == "LAGSJ"
        with pytest.raises(ValueError):
            algorithm_label("total", "none")
        assert algorithm_label(OperatorKind.STANDARD, AcceleratorKind.PROJECTIVE) == "PAVI"
