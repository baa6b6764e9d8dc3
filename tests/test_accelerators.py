"""Tests for the projective and linear-extension acceleration operators."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import mdpaccel.accelerators as accel_mod
import mdpaccel.operators as operators_mod
from mdpaccel.accelerators import (
    ALPHA_CAP,
    RATIO_GUARD_SCALE,
    AlphaResult,
    AlreadyConvergedError,
    FeasibilityError,
    apply_linear_extension,
    apply_projective,
    linear_extension_alpha,
    projective_alpha,
)
from mdpaccel.generators import GeneratorSpec, generate
from mdpaccel.model import MdpModel, initial_feasible_point
from mdpaccel.operators import (
    ScreenedSums,
    WeightedSums,
    apply_operator,
    drifted_sums,
    is_feasible,
    membership_tolerance,
    sup_norm,
    weighted_sums,
)
from mdpaccel.solver import SolverConfig, solve

from test_model import chain_to_absorbing, random_model, two_state_swap


def reference_location(m, row):
    state = int(m.row_state[row])
    return state, row - int(m.state_ptr[state])


def reference_projective_alpha(m, v, s):
    """The projective scan written with index and boolean gathers."""
    q = v[m.row_state] - m.discount * s
    tight = q <= 0.0
    if np.any(tight & (m.rewards > 0.0)):
        return AlphaResult(alpha=1.0, binding=None, fallback_used=True)
    valid = ~tight
    if not np.any(valid):
        return AlphaResult(alpha=0.0, binding=None)
    ratios = np.full(m.num_rows, -np.inf)
    ratios[valid] = m.rewards[valid] / q[valid]
    row = int(np.argmax(ratios))
    return AlphaResult(min(1.0, max(0.0, float(ratios[row]))), reference_location(m, row))


def reference_linear_alpha(m, v, u, sv, su):
    """The linear-extension scan written with index and boolean gathers."""
    if sup_norm(u - v) <= RATIO_GUARD_SCALE * (1.0 + sup_norm(v)):
        raise AlreadyConvergedError("coincident")
    c = v[m.row_state] - m.rewards - m.discount * sv
    d = (u - v)[m.row_state] - m.discount * (su - sv)
    binding = d < 0.0
    if not np.any(binding):
        return AlphaResult(alpha=ALPHA_CAP, binding=None, fallback_used=True)
    ratios = np.full(m.num_rows, np.inf)
    ratios[binding] = c[binding] / -d[binding]
    row = int(np.argmin(ratios))
    alpha = max(1.0, float(ratios[row]))
    if alpha >= ALPHA_CAP:
        return AlphaResult(ALPHA_CAP, reference_location(m, row), fallback_used=True)
    return AlphaResult(alpha, reference_location(m, row))


def scan_cases(seed, count):
    """Random models with dominating and arbitrary points, plus hand cases
    whose rows are tight, fall back, or bind nowhere."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = random_model(rng, num_states=int(rng.integers(2, 20)))
        v = initial_feasible_point(m) * float(rng.uniform(1.0, 2.0))
        yield m, v, apply_operator(m, v, "standard")
        yield m, rng.normal(size=m.num_states) * 10, rng.normal(size=m.num_states) * 10
    yield two_state_swap(0.0, 0.0), np.array([5.0, 5.0]), np.array([4.5, 4.5])
    yield two_state_swap(), np.array([0.0, 0.0]), np.array([1.0, 1.0])
    yield chain_to_absorbing(), np.array([6.0, 6.0, 0.0]), np.array([6.0, 1.0, 0.0])
    yield MdpModel.from_rows([[(5.0, [(0, 1.0)])]], discount=0.9), np.array([60.0]), np.array([61.0])


class TestScansMatchReference:
    """The scans give the same result, bit for bit, as the gather formulas."""

    def test_projective(self):
        for m, v, _ in scan_cases(30, 40):
            s = weighted_sums(m, v).values
            assert projective_alpha(m, v, check_membership=False) == reference_projective_alpha(m, v, s)

    def test_linear_extension(self):
        for m, v, u in scan_cases(31, 40):
            sv, su = weighted_sums(m, v).values, weighted_sums(m, u).values
            try:
                expected = reference_linear_alpha(m, v, u, sv, su)
            except AlreadyConvergedError:
                with pytest.raises(AlreadyConvergedError):
                    linear_extension_alpha(m, v, u, check_membership=False)
                continue
            assert linear_extension_alpha(m, v, u, check_membership=False) == expected

    def test_steps_carry_the_reference_points_and_sums(self):
        for m, v, u in scan_cases(32, 20):
            sv, su = weighted_sums(m, v), weighted_sums(m, u)
            p = apply_projective(m, v, sums=sv, check_membership=False)
            f = p.alpha.alpha
            assert np.array_equal(p.point, f * v)
            assert np.array_equal(p.sums.values, f * sv.values)
            try:
                e = apply_linear_extension(m, v, u, sums_v=sv, sums_u=su, check_membership=False)
            except AlreadyConvergedError:
                continue
            f = e.alpha.alpha
            assert np.array_equal(e.point, v + f * (u - v))
            assert np.array_equal(e.sums.values, sv.values + f * (su.values - sv.values))

    def test_checked_steps_apply_the_scan_factors_as_they_stand(self):
        # no damping: a kept step lands on the factor its scan returns, bit for bit
        rng = np.random.default_rng(33)
        kept = 0
        for _ in range(20):
            m = random_model(rng, num_states=int(rng.integers(2, 20)))
            v = initial_feasible_point(m) * float(rng.uniform(1.0, 2.0))
            u = apply_operator(m, v, "standard")
            p = apply_projective(m, v)
            e = apply_linear_extension(m, v, u)
            if p.alpha.fallback_used or e.alpha.fallback_used:
                continue
            kept += 1
            assert p.alpha == projective_alpha(m, v)
            assert np.array_equal(p.point, p.alpha.alpha * v)
            assert e.alpha == linear_extension_alpha(m, v, u)
            assert np.array_equal(e.point, v + e.alpha.alpha * (u - v))
        assert kept >= 10


def screened_at(m, v, rng, spread):
    """Screened sums of ``v``, drifted from the kernel sums of a point ``spread`` away."""
    x = v + rng.normal(size=m.num_states) * spread * (1.0 + sup_norm(v))
    sums = drifted_sums(m, weighted_sums(m, x), v)
    assert isinstance(sums, ScreenedSums)
    return sums


class TestScreenedScanMatchesReference:
    """From screened sums the projective scan and step are the all-rows ones, bit for bit."""

    SPREADS = (0.0, 1e-9, 1e-3, 1.0)

    def test_projective(self):
        rng = np.random.default_rng(34)
        for m, v, _ in scan_cases(34, 40):
            expected = reference_projective_alpha(m, v, weighted_sums(m, v).values)
            for spread in self.SPREADS:
                s = screened_at(m, v, rng, spread)
                assert projective_alpha(m, v, sums=s, check_membership=False) == expected

    def test_tight_rows_near_the_guard(self):
        # an absorbing zero-reward row is tight; with reward it makes the scan fall back
        rng = np.random.default_rng(35)
        for reward in (0.0, 1e-13, 1e-6, 1.0):
            m = MdpModel.from_rows(
                [[(1.0, [(0, 0.5), (1, 0.5)]), (2.0, [(1, 1.0)])], [(reward, [(1, 1.0)])]],
                discount=0.9,
            )
            for top in (0.0, 1e-13, 1e-12, 1e-11):
                v = np.array([30.0, top])
                expected = reference_projective_alpha(m, v, weighted_sums(m, v).values)
                for spread in self.SPREADS:
                    s = screened_at(m, v, rng, spread)
                    assert projective_alpha(m, v, sums=s, check_membership=False) == expected

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_precondition_row_at_the_tolerance(self, ulps):
        rng = np.random.default_rng(37 + ulps)
        for _ in range(30):
            m = random_model(rng, num_states=int(rng.integers(2, 15)), discount=0.995)
            u = descended_point(m, rng)
            a = m.discount * weighted_sums(m, u).values
            t = (u + membership_tolerance(u)).repeat(m.row_counts)
            k = int(np.argmax(a + m.rewards - t))
            target = t[k]
            for _ in range(abs(ulps)):
                target = np.nextafter(target, np.inf * ulps)
            rewards = m.rewards.copy()
            rewards[k] = reward_reaching(a[k], target)
            tight = dataclasses.replace(m, rewards=rewards)
            for spread in self.SPREADS:
                s = screened_at(tight, u, rng, spread)
                assert is_feasible(tight, u, sums=s) is is_feasible(tight, u) is (ulps <= 0)

    def test_output_check_from_screened_sums(self):
        rng = np.random.default_rng(38)
        verdicts = []
        for _ in range(40):
            m = random_model(rng, num_states=int(rng.integers(2, 25)),
                             density=float(rng.uniform(0.1, 1.0)),
                             discount=float(rng.choice([0.5, 0.9, 0.995])))
            p = descended_point(m, rng)
            u = apply_operator(m, p, "standard")
            scale = sup_norm(p)
            for spread in self.SPREADS:
                sp = screened_at(m, p, rng, spread)
                for z in (projective_alpha(m, p, sums=weighted_sums(m, p)).alpha * p,
                          p + float(rng.uniform(1.0, 50.0)) * (u - p),
                          p - rng.uniform(0.0, 1.0, size=m.num_states) * scale * 1e-6,
                          rng.normal(size=m.num_states) * scale):
                    verdict, _ = screened_verdict(m, z, sp)
                    assert verdict is full_verdict(m, z)
                    verdicts.append(verdict)
        assert 50 <= sum(verdicts) <= len(verdicts) - 50

    def test_checked_steps(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            m = random_model(rng, num_states=int(rng.integers(2, 20)),
                             discount=float(rng.choice([0.9, 0.995])))
            v = initial_feasible_point(m) * float(rng.uniform(1.0, 2.0))
            for _ in range(int(rng.integers(1, 20))):
                v = apply_operator(m, v, "standard")
            candidates = (v, v - rng.uniform(size=m.num_states) * 1e-3 * sup_norm(v))
            for u in candidates:
                all_rows = weighted_sums(m, u)
                try:
                    expected = apply_projective(m, u, sums=all_rows)
                except FeasibilityError:
                    expected = None
                for spread in self.SPREADS:
                    s = screened_at(m, u, rng, spread)
                    if expected is None:
                        with pytest.raises(FeasibilityError):
                            apply_projective(m, u, sums=s)
                        continue
                    step = apply_projective(m, u, sums=s)
                    assert step.alpha == expected.alpha
                    assert np.array_equal(step.point, expected.point)
                    every = np.arange(m.num_rows)
                    assert np.array_equal(step.sums.take(m, every), expected.sums.values)


class TestProjectiveAlpha:
    def test_swap_reaches_fixed_point_in_one_scan(self):
        m = two_state_swap()
        res = projective_alpha(m, np.array([20.0, 20.0]))
        assert res.alpha == pytest.approx(0.5)
        assert res.binding == (0, 0)
        assert not res.fallback_used

    def test_asymmetric_rewards_pin_alpha_at_one(self):
        # With rewards (1, 2) the second state's constraint already binds
        # at the start 20 = 2 + 0.9 * 20, so no downscaling is possible.
        m = two_state_swap(1.0, 2.0)
        res = projective_alpha(m, np.array([20.0, 20.0]))
        assert res.alpha == 1.0
        assert res.binding == (1, 0)

    def test_zero_rewards_scale_to_zero(self):
        m = two_state_swap(0.0, 0.0)
        res = projective_alpha(m, np.array([5.0, 5.0]))
        assert res.alpha == 0.0

    def test_every_row_tight_with_no_reward_scales_to_zero(self):
        # at the zero point every slack is 0, and no tight row has a reward to contradict it
        m = two_state_swap(0.0, 0.0)
        assert projective_alpha(m, np.zeros(2)) == AlphaResult(alpha=0.0, binding=None)

    def test_negative_rewards_rejected(self):
        m = two_state_swap(-1.0, 1.0)
        with pytest.raises(FeasibilityError, match="nonnegative"):
            projective_alpha(m, np.array([20.0, 20.0]), check_membership=False)

    def test_infeasible_point_rejected(self):
        m = two_state_swap()
        with pytest.raises(FeasibilityError, match="dominate"):
            projective_alpha(m, np.array([0.0, 0.0]))

    def test_check_can_be_skipped(self):
        m = two_state_swap()
        res = projective_alpha(m, np.array([20.0, 20.0]), check_membership=False)
        assert res.alpha == pytest.approx(0.5)

    def test_total_reward_scan(self):
        m = chain_to_absorbing()
        res = projective_alpha(m, np.array([6.0, 6.0, 0.0]))
        # state 0 sits exactly on its constraint 6 = 3 + (3 + 0): no room.
        assert res.alpha == 1.0
        assert res.binding == (0, 0)

    def test_scaled_point_stays_feasible_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = random_model(rng, num_states=int(rng.integers(3, 25)))
            v = initial_feasible_point(m) * float(rng.uniform(1.0, 3.0))
            res = projective_alpha(m, v)
            assert 0.0 <= res.alpha <= 1.0
            assert is_feasible(m, res.alpha * v)

    def test_slightly_smaller_alpha_is_infeasible(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        res = projective_alpha(m, v)
        assert not is_feasible(m, (res.alpha - 1e-6) * v)


class TestLinearExtensionAlpha:
    def test_swap_reaches_fixed_point_in_one_scan(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        u = apply_operator(m, v, "standard")
        res = linear_extension_alpha(m, v, u)
        assert res.alpha == pytest.approx(10.0)
        assert res.binding == (0, 0)
        np.testing.assert_allclose(v + res.alpha * (u - v), [10.0, 10.0])

    def test_alpha_never_below_one(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            m = random_model(rng, num_states=int(rng.integers(3, 25)))
            v = initial_feasible_point(m) * float(rng.uniform(1.0, 2.0))
            u = apply_operator(m, v, "standard")
            res = linear_extension_alpha(m, v, u)
            assert res.alpha >= 1.0
            z = v + res.alpha * (u - v)
            assert is_feasible(m, z)

    def test_extended_point_sits_on_the_boundary(self):
        rng = np.random.default_rng(23)
        m = random_model(rng, num_states=10)
        v = initial_feasible_point(m) * 1.5
        u = apply_operator(m, v, "standard")
        res = linear_extension_alpha(m, v, u)
        assert res.binding is not None
        z = v + res.alpha * (u - v)
        assert is_feasible(m, z)
        # some state touches the boundary: its backup is not strictly below it
        assert not np.all(apply_operator(m, z, "standard") < z - membership_tolerance(z))

    def test_gauss_seidel_backup_as_direction(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        u = apply_operator(m, v, "gs")
        np.testing.assert_allclose(u, [19.0, 18.1])
        res = linear_extension_alpha(m, v, u)
        # the sweep already landed state 1 on its constraint, so the ray
        # cannot extend past the sweep result itself.
        assert res.alpha == pytest.approx(1.0)

    def test_coincident_points_raise(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        with pytest.raises(AlreadyConvergedError):
            linear_extension_alpha(m, v, v.copy())

    def test_infeasible_current_point_rejected(self):
        m = two_state_swap()
        with pytest.raises(FeasibilityError, match="current point"):
            linear_extension_alpha(m, np.array([0.0, 0.0]), np.array([20.0, 20.0]))

    def test_infeasible_direction_rejected(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        with pytest.raises(FeasibilityError, match="direction"):
            linear_extension_alpha(m, v, np.array([0.0, 0.0]))

    def test_unbounded_ray_hits_cap_with_flag(self):
        # Both points dominate their backups but the direction points up,
        # so every row's slack grows along the ray and nothing binds.
        m = MdpModel.from_rows([[(5.0, [(0, 1.0)])]], discount=0.9)
        res = linear_extension_alpha(m, np.array([60.0]), np.array([61.0]))
        assert res.alpha == ALPHA_CAP
        assert res.binding is None
        assert res.fallback_used

    def test_bound_at_the_cap_keeps_its_binding_row(self):
        # at discount 0 a row's slope is -(u - v) of its state: state 0 falls by
        # 1e-3 from 1e10, so its bound c / -d is about 1e13; state 1 rises, unbound
        m = MdpModel.from_rows([[(0.0, [(0, 1.0)])], [(0.0, [(1, 1.0)])]], discount=0.0)
        v = np.array([1e10, 5.0])
        u = np.array([1e10 - 1e-3, 6.0])
        assert v[0] / (v[0] - u[0]) >= ALPHA_CAP
        res = linear_extension_alpha(m, v, u)
        assert res == AlphaResult(alpha=ALPHA_CAP, binding=(0, 0), fallback_used=True)

    def test_row_with_a_noise_level_slope_binds(self):
        # two absorbing states at their fixed point 10: state 0 sits 1e-11
        # above it, so its row's slope -d is about 1e-13, far below
        # 1e-12 * (1 + |v|); state 1 alone would allow alpha = 100
        m = MdpModel.from_rows([[(1.0, [(0, 1.0)])], [(1.0, [(1, 1.0)])]], discount=0.9)
        v = np.array([10.0 + 1e-11, 20.0])
        u = np.array([10.0 + 9e-12, 19.9])
        c = (v[0] - 1.0) - 0.9 * v[0]
        neg_d = 0.9 * (u[0] - v[0]) - (u[0] - v[0])
        assert 0.0 < neg_d <= RATIO_GUARD_SCALE * (1.0 + sup_norm(v))
        res = linear_extension_alpha(m, v, u)
        assert res == AlphaResult(alpha=c / neg_d, binding=(0, 0))
        assert 1.0 < res.alpha < 100.0

    def test_total_reward_extension(self):
        m = chain_to_absorbing()
        v = np.array([6.0, 6.0, 0.0])
        u = np.array([6.0, 1.0, 0.0])  # one undiscounted backup of v
        res = linear_extension_alpha(m, v, u)
        assert res.alpha >= 1.0
        assert is_feasible(m, v + res.alpha * (u - v))


class TestHeldQuantities:
    """What the input's membership test forms from its sums, the step reads again."""

    @pytest.mark.parametrize("accelerator", ["projective", "linear"])
    def test_screen_reads_the_row_values_the_input_check_formed(self, monkeypatch, accelerator):
        rng = np.random.default_rng(26)
        formed, screened = [], []
        real = operators_mod._row_values

        def recording_row_values(m, kind, own, sums, rows=slice(None)):
            out = real(m, kind, own, sums, rows)
            if out.size == m.num_rows:
                formed.append(out)
            return out

        def recording_screen_values(m, sums):
            out = operators_mod.one_step_row_values(m, sums)
            screened.append(out)
            return out

        monkeypatch.setattr(operators_mod, "_row_values", recording_row_values)
        monkeypatch.setattr(accel_mod, "one_step_row_values", recording_screen_values)
        for _ in range(10):
            m = random_model(rng, num_states=int(rng.integers(3, 20)))
            v = initial_feasible_point(m) * float(rng.uniform(1.0, 2.0))
            sv = weighted_sums(m, v)
            u = apply_operator(m, v, "standard", sums=sv)
            su = weighted_sums(m, u)
            formed.clear(), screened.clear()
            if accelerator == "projective":
                apply_projective(m, u, sums=su)
            else:
                # v's check reads the backup u's formation left with sv
                apply_linear_extension(m, v, u, sums_v=sv, sums_u=su)
            # one all-rows pass of row values, at the step's input u, which the screen reuses
            assert len(formed) == 1 and len(screened) == 1
            assert screened[0] is formed[0]


class TestApplyProjective:
    def test_step_carries_scaled_sums(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        s = weighted_sums(m, v)
        step = apply_projective(m, v, sums=s)
        np.testing.assert_allclose(step.point, [10.0, 10.0])
        np.testing.assert_allclose(step.point, 0.5 * v)
        np.testing.assert_allclose(step.sums.values, 0.5 * s.values)
        assert step.sums.matches(step.point)
        fresh = weighted_sums(m, step.point)
        np.testing.assert_allclose(step.sums.values, fresh.values, rtol=0, atol=1e-12)

    def test_swap_step_is_undamped(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        step = apply_projective(m, v)
        assert step.alpha.alpha == 0.5
        np.testing.assert_array_equal(step.point, [10.0, 10.0])
        assert is_feasible(m, step.point)

    @pytest.mark.parametrize("step, points", [
        (apply_projective, 1),
        (apply_linear_extension, 2),
    ], ids=["projective", "linear"])
    def test_steps_take_no_damping_factor(self, step, points):
        m = two_state_swap()
        with pytest.raises(TypeError, match="beta"):
            step(m, *[np.array([20.0, 20.0])] * points, beta=0.5)

    def test_failed_output_check_falls_back_to_input(self, monkeypatch):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        answers = iter([True, False])  # precondition holds, output check fails

        def fake_is_feasible(*args, **kwargs):
            return next(answers)

        monkeypatch.setattr(accel_mod, "is_feasible", fake_is_feasible)
        step = apply_projective(m, v)
        np.testing.assert_array_equal(step.point, v)
        assert step.point is not v
        assert step.alpha.fallback_used
        np.testing.assert_allclose(step.sums.values, weighted_sums(m, v).values)

    def test_no_checks_never_calls_feasibility(self, monkeypatch):
        m = two_state_swap()

        def boom(*args, **kwargs):
            raise AssertionError("feasibility must not be consulted")

        monkeypatch.setattr(accel_mod, "is_feasible", boom)
        step = apply_projective(m, np.array([20.0, 20.0]), check_membership=False)
        np.testing.assert_allclose(step.point, [10.0, 10.0])


class TestApplyLinearExtension:
    def test_step_carries_affine_sums(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        u = apply_operator(m, v, "standard")
        sv = weighted_sums(m, v)
        su = weighted_sums(m, u)
        step = apply_linear_extension(m, v, u, sums_v=sv, sums_u=su)
        np.testing.assert_allclose(step.point, [10.0, 10.0])
        fresh = weighted_sums(m, step.point)
        np.testing.assert_allclose(step.sums.values, fresh.values, rtol=0, atol=1e-9)

    def test_swap_step_is_undamped(self):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        u = apply_operator(m, v, "standard")
        step = apply_linear_extension(m, v, u)
        assert step.alpha.alpha == pytest.approx(10.0)
        np.testing.assert_array_equal(step.point, v + step.alpha.alpha * (u - v))
        np.testing.assert_allclose(step.point, [10.0, 10.0])

    def test_failed_output_check_falls_back_to_direction_point(self, monkeypatch):
        m = two_state_swap()
        v = np.array([20.0, 20.0])
        u = apply_operator(m, v, "standard")
        answers = iter([True, True, False])

        def fake_is_feasible(*args, **kwargs):
            return next(answers)

        monkeypatch.setattr(accel_mod, "is_feasible", fake_is_feasible)
        step = apply_linear_extension(m, v, u)
        np.testing.assert_array_equal(step.point, u)
        assert step.point is not u
        assert step.alpha.fallback_used

    def test_capped_step_is_flagged_but_kept_when_feasible(self):
        m = MdpModel.from_rows([[(5.0, [(0, 1.0)])]], discount=0.9)
        step = apply_linear_extension(m, np.array([60.0]), np.array([61.0]))
        assert step.alpha.fallback_used
        # the upward ray genuinely stays dominating, so the capped point
        # survives its output check.
        assert step.point[0] == pytest.approx(60.0 + ALPHA_CAP)


class TestDescent:
    def test_both_operators_never_go_below_the_fixed_point(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            m = random_model(rng, num_states=int(rng.integers(3, 15)))
            star = np.zeros(m.num_states)
            for _ in range(3000):
                star = apply_operator(m, star, "standard")
            v = initial_feasible_point(m)
            p = apply_projective(m, v)
            assert np.all(p.point >= star - 1e-7)
            assert np.all(p.point <= v + 1e-12)
            u = apply_operator(m, v, "standard")
            e = apply_linear_extension(m, v, u)
            assert np.all(e.point >= star - 1e-7)
            assert np.all(e.point <= u + 1e-9)


def screened_verdict(m, z, p_sums):
    rows = accel_mod._rows_to_check(m, z, membership_tolerance(z), p_sums)
    return is_feasible(m, z, sums=weighted_sums(m, z, rows=rows)), rows


def full_verdict(m, z):
    return is_feasible(m, z, sums=weighted_sums(m, z))


def descended_point(m, rng):
    """A dominating point some backups below the constant start."""
    p = initial_feasible_point(m) * float(rng.uniform(1.0, 2.0))
    for _ in range(int(rng.integers(0, 30))):
        p = apply_operator(m, p, "standard")
    return p


def reward_reaching(a, target):
    """A reward ``r`` with ``a + r == target`` in floating point."""
    r = target - a
    while a + r < target:
        r = np.nextafter(r, np.inf)
    while a + r > target:
        r = np.nextafter(r, -np.inf)
    assert a + r == target
    return r


class TestScreenedOutputCheck:
    """The output check's verdict from screened rows is the all-rows verdict."""

    def test_random_feasible_and_infeasible_points(self):
        rng = np.random.default_rng(50)
        verdicts = []
        for _ in range(60):
            m = random_model(rng, num_states=int(rng.integers(2, 25)),
                             density=float(rng.uniform(0.1, 1.0)),
                             discount=float(rng.choice([0.5, 0.9, 0.995])))
            p = descended_point(m, rng)
            sp = weighted_sums(m, p)
            u = apply_operator(m, p, "standard")
            scale = sup_norm(p)
            candidates = [
                projective_alpha(m, p, sums=sp).alpha * p,
                p + float(rng.uniform(1.0, 50.0)) * (u - p),
                p + rng.normal(size=m.num_states) * scale * 1e-3,
                p - rng.uniform(0.0, 1.0, size=m.num_states) * scale * 1e-6,
                p + rng.uniform(0.0, 1.0, size=m.num_states) * scale * 1e-9,
                rng.normal(size=m.num_states) * scale,
            ]
            for z in candidates:
                verdict, _ = screened_verdict(m, z, sp)
                assert verdict is full_verdict(m, z)
                verdicts.append(verdict)
        assert 100 <= sum(verdicts) <= len(verdicts) - 100

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_binding_row_tight_and_one_ulp_off(self, ulps):
        rng = np.random.default_rng(51 + ulps)
        for _ in range(40):
            m = random_model(rng, num_states=int(rng.integers(2, 20)), discount=0.995)
            p = descended_point(m, rng)
            sp = weighted_sums(m, p)
            z = projective_alpha(m, p, sums=sp).alpha * p
            a = m.discount * weighted_sums(m, z).values
            t = (z + membership_tolerance(z)).repeat(m.row_counts)
            k = int(np.argmax(a + m.rewards - t))
            target = t[k]
            for _ in range(abs(ulps)):
                target = np.nextafter(target, np.inf * ulps)
            rewards = m.rewards.copy()
            rewards[k] = reward_reaching(a[k], target)
            tight = dataclasses.replace(m, rewards=rewards)
            verdict, rows = screened_verdict(tight, z, sp)
            assert verdict is full_verdict(tight, z)
            if ulps >= 0:
                assert k in rows
            if ulps > 0:
                assert not verdict

    def test_non_finite_points_check_every_row(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            m = random_model(rng, num_states=int(rng.integers(2, 15)))
            p = descended_point(m, rng)
            sp = weighted_sums(m, p)
            for bad in (np.nan, np.inf, -np.inf):
                z = p.copy()
                z[int(rng.integers(m.num_states))] = bad
                with np.errstate(invalid="ignore"):
                    verdict, rows = screened_verdict(m, z, sp)
                    assert rows is None
                    assert verdict is full_verdict(m, z)

    def test_sums_derived_by_linearity_check_every_row(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            m = random_model(rng, num_states=int(rng.integers(2, 15)))
            p = descended_point(m, rng)
            derived = WeightedSums(values=0.5 * weighted_sums(m, 2.0 * p).values, base=p,
                                   from_kernel=False)
            for z in (0.99 * p, p + 1.0):
                verdict, rows = screened_verdict(m, z, derived)
                assert rows is None
                assert verdict is full_verdict(m, z)
            step = apply_projective(m, p)
            assert not step.sums.from_kernel

    @pytest.mark.parametrize("rows", [
        [(1.0, [(0, 1.0), (1, 1.0)]), (0.5, [(1, 2.0)])],
        [(1.0, [(0, 1.5), (1, -0.5)]), (0.5, [(1, 1.0)])],
    ], ids=["row-sums-2", "negative-probability"])
    def test_unvalidated_models(self, rows):
        m = MdpModel.from_rows([rows, [(2.0, [(0, 0.5), (1, 0.5)])]], discount=0.9)
        rng = np.random.default_rng(54)
        # (-100, -60) dominates its backup where rows sum to 2, so there the
        # rows pass near p and fail only where z moves them
        for _ in range(200):
            p = np.array([-100.0, -60.0]) + rng.uniform(-2.0, 2.0, size=2)
            sp = weighted_sums(m, p)
            z = p + rng.normal(size=2) * float(rng.choice([1e-9, 1e-3, 1.0, 10.0]))
            verdict, screened = screened_verdict(m, z, sp)
            assert verdict is full_verdict(m, z)
            if m.probs.min() < 0.0:
                assert screened is None

    def test_dense_model_computes_under_one_percent_of_rows(self, monkeypatch):
        m = generate(GeneratorSpec(family="uniform", num_states=40, density=1.0,
                                   discount=0.995, seed=5))
        computed = []

        def counting_sums(model, v, rows=None):
            computed.append(model.num_rows if rows is None else len(rows))
            return weighted_sums(model, v, rows=rows)

        monkeypatch.setattr(accel_mod, "weighted_sums", counting_sums)
        for accelerator in ("projective", "linear"):
            computed.clear()
            assert solve(m, SolverConfig(accelerator=accelerator)).converged
            assert computed
            assert sum(computed) < 0.01 * len(computed) * m.num_rows
