"""Tests for the exact oracle, the bisection cross-check, and the suite runner."""

from __future__ import annotations

import numpy as np
import pytest

from mdpaccel.model import MdpModel, RewardMode, models_identical
import mdpaccel.verification as verification
from mdpaccel.operators import apply_operator, is_feasible, sup_norm, weighted_sums
from mdpaccel.solver import SolverConfig, solve
from mdpaccel.verification import (
    PROPERTIES,
    OracleResult,
    SuiteReport,
    _Trial,
    bisect_alpha,
    exact_fixed_point,
    run_property_suite,
)

from test_model import chain_to_absorbing, random_model, two_state_swap


def comfortable_feasible_point(m, rng):
    """A dominating point with margins bounded away from zero.

    The constant max-reward/(1-discount) dominates its own backup; adding
    c*delta with every delta_i >= discount*max(delta) + a gap keeps the
    slack at least gap*c on every row.
    """
    lam = m.discount
    base = float(m.rewards.max()) / (1.0 - lam)
    c = float(rng.uniform(0.5, 2.0)) * (1.0 + base)
    delta = rng.uniform(lam + 0.3 * (1.0 - lam), 1.0, size=m.num_states)
    return base + c * delta


class TestExactFixedPoint:
    def test_swap_equal_rewards(self):
        res = exact_fixed_point(two_state_swap(1.0, 1.0))
        np.testing.assert_allclose(res.exact_value, [10.0, 10.0], atol=1e-9)
        np.testing.assert_array_equal(res.exact_policy, [0, 0])
        assert res.residual <= 1e-9 * 11.0

    def test_swap_unequal_rewards(self):
        # v0 = 1 + 0.9 v1, v1 = 2 + 0.9 v0  =>  v0 = 2.8/0.19, v1 = 2.9/0.19
        res = exact_fixed_point(two_state_swap(1.0, 2.0))
        np.testing.assert_allclose(
            res.exact_value, [2.8 / 0.19, 2.9 / 0.19], rtol=1e-12
        )

    def test_single_action_is_policy_evaluation(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, num_states=6, max_actions=1, density=1.0)
        res = exact_fixed_point(m)
        p = m.row_matrix.toarray()
        direct = np.linalg.solve(np.eye(6) - m.discount * p, m.rewards)
        np.testing.assert_allclose(res.exact_value, direct, rtol=1e-12)
        np.testing.assert_array_equal(res.exact_policy, np.zeros(6, dtype=np.int64))

    def test_beats_every_deterministic_policy(self):
        # Two states x two actions: brute-force all four policies.
        m = MdpModel.from_rows(
            [
                [(0.0, [(1, 1.0)]), (1.5, [(0, 1.0)])],
                [(2.0, [(1, 1.0)]), (0.5, [(0, 0.5), (1, 0.5)])],
            ],
            discount=0.5,
        )
        res = exact_fixed_point(m)
        eye = np.eye(2)
        for a0 in range(2):
            for a1 in range(2):
                rows = m.state_ptr[:-1] + np.array([a0, a1])
                p = m.row_matrix[rows].toarray()
                v_pol = np.linalg.solve(eye - 0.5 * p, m.rewards[rows])
                assert np.all(res.exact_value >= v_pol - 1e-10)

    def test_oracle_value_is_feasible_and_certified(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, num_states=12, max_actions=3, density=0.5)
        res = exact_fixed_point(m)
        assert isinstance(res, OracleResult)
        assert is_feasible(m, res.exact_value)
        assert res.residual <= 1e-9 * (1.0 + sup_norm(res.exact_value))

    def test_certificate_does_not_run_the_backup_under_test(self, monkeypatch):
        m = random_model(np.random.default_rng(11), num_states=12, max_actions=3, density=0.5)

        def backup_under_test(*args, **kwargs):
            raise AssertionError("the oracle ran the backup it checks")

        monkeypatch.setattr(verification, "apply_operator", backup_under_test)
        res = exact_fixed_point(m)
        # the same kernel sums and row values, so the same bits
        assert res.residual == sup_norm(apply_operator(m, res.exact_value, "standard") - res.exact_value)

    def test_rejects_total_reward(self):
        with pytest.raises(ValueError, match="discounted"):
            exact_fixed_point(chain_to_absorbing())

    def test_rejects_oversize(self):
        n = 2001
        m = MdpModel.from_rows(
            [[(1.0, [(i, 1.0)])] for i in range(n)], discount=0.9
        )
        with pytest.raises(ValueError, match="2000"):
            exact_fixed_point(m)

    def test_matches_long_value_iteration(self):
        rng = np.random.default_rng(29)
        m = random_model(rng, num_states=10, max_actions=4, density=0.8)
        res = exact_fixed_point(m)
        run = solve(m, SolverConfig(epsilon=1e-9, max_iterations=500_000))
        assert run.converged
        np.testing.assert_allclose(res.exact_value, run.final_value, atol=1e-7)


class TestBisectAlpha:
    def test_scale_mode_hand_value(self):
        # alpha*(20,20) dominates its backup iff 20a >= 1 + 18a, i.e. a >= 0.5.
        m = two_state_swap(1.0, 1.0)
        v = np.array([20.0, 20.0])
        assert bisect_alpha(m, v, lo=0.0, hi=1.0) == pytest.approx(0.5, abs=1e-6)

    def test_ray_mode_hand_value(self):
        # Along (20,20) -> (19,19): slack 1 per row, tightening 0.1 per unit.
        m = two_state_swap(1.0, 1.0)
        v = np.array([20.0, 20.0])
        u = np.array([19.0, 19.0])
        got = bisect_alpha(m, v, u=u, lo=1.0, hi=40.0)
        assert got == pytest.approx(10.0, abs=1e-5)

    def test_scale_mode_requires_bracket(self):
        m = two_state_swap(1.0, 1.0)
        v = np.array([20.0, 20.0])
        with pytest.raises(ValueError, match="no sign change"):
            bisect_alpha(m, v, lo=0.6, hi=1.0)  # lo already feasible
        with pytest.raises(ValueError, match="no sign change"):
            bisect_alpha(m, v, lo=0.0, hi=0.4)  # hi still infeasible

    def test_ray_mode_requires_bracket(self):
        m = two_state_swap(1.0, 1.0)
        v = np.array([20.0, 20.0])
        u = np.array([19.0, 19.0])
        with pytest.raises(ValueError, match="no sign change"):
            bisect_alpha(m, v, u=u, lo=1.0, hi=5.0)  # hi still feasible

    def test_matches_closed_form_on_random_models(self):
        from mdpaccel.accelerators import linear_extension_alpha, projective_alpha
        from mdpaccel.operators import apply_operator

        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_model(
                rng,
                num_states=int(rng.integers(4, 15)),
                max_actions=3,
                density=0.7,
            )
            v = comfortable_feasible_point(m, rng)
            probe = 1e-12 * (1.0 + sup_norm(v))
            closed = projective_alpha(m, v).alpha
            assert bisect_alpha(m, v, membership_tol=probe) == pytest.approx(
                closed, abs=1e-6
            )
            u = apply_operator(m, v, "standard")
            res = linear_extension_alpha(m, v, u)
            ray = bisect_alpha(
                m, v, u=u, lo=1.0, hi=max(8.0, 4.0 * res.alpha), membership_tol=probe
            )
            assert abs(res.alpha - ray) <= 1e-6 * max(1.0, res.alpha)


class TestPolicyAgreement:
    def test_solved_policy_matches_oracle_off_ties(self):
        # Where the best action leads by more than 2*epsilon at the exact
        # value, an epsilon-accurate solve cannot pick a different action.
        rng = np.random.default_rng(41)
        eps = 1e-3
        m = random_model(rng, num_states=10, max_actions=4, density=0.6)
        oracle = exact_fixed_point(m)
        run = solve(m, SolverConfig(epsilon=eps))
        row_values = m.rewards + m.discount * weighted_sums(m, oracle.exact_value).values
        checked = 0
        for i in range(m.num_states):
            lo, hi = m.state_ptr[i], m.state_ptr[i + 1]
            vals = np.sort(row_values[lo:hi])
            if len(vals) > 1 and vals[-1] - vals[-2] > 2 * eps:
                assert run.final_policy[i] == oracle.exact_policy[i]
                checked += 1
        assert checked > 0


class TestTrialMaterial:
    def test_trials_are_reproducible(self):
        a = _Trial(0, 7)
        b = _Trial(0, 7)
        assert models_identical(a.m, b.m)
        np.testing.assert_array_equal(a.vstar, b.vstar)

    def test_feasible_and_infeasible_samplers(self):
        t = _Trial(0, 4)
        assert is_feasible(t.m, t.feasible_point())
        assert not is_feasible(t.m, t.infeasible_point())

    def test_total_reward_start_is_feasible(self):
        t = _Trial(0, 9)
        assert t.tr_model.mode is RewardMode.TOTAL_REWARD
        assert is_feasible(t.tr_model, t.tr_feasible_point())


class TestSuiteRunner:
    def test_zero_trials_report(self):
        rep = run_property_suite(seed=0, trials=0)
        assert rep.all_passed
        assert all(r.trials == 0 and r.failures == 0 for r in rep.results)
        assert rep.to_text().splitlines()[-1].startswith("all properties passed")

    @pytest.mark.parametrize("given", [dict(trials=-3), dict(seed=-1)], ids=["trials", "seed"])
    def test_negative_argument_raises_before_any_trial(self, given):
        name, value = next(iter(given.items()))
        with pytest.raises(ValueError, match=f"{name} must be at least 0, got {value}"):
            run_property_suite(**given)

    def test_small_run_all_pass(self):
        rep = run_property_suite(seed=123, trials=8)
        assert rep.all_passed
        assert len(rep.results) == len(PROPERTIES)
        assert all(r.trials == 8 for r in rep.results)
        assert all(r.first_failure is None for r in rep.results)

    def test_report_is_deterministic(self):
        a = run_property_suite(seed=5, trials=4)
        b = run_property_suite(seed=5, trials=4)
        assert [(r.name, r.failures) for r in a.results] == [
            (r.name, r.failures) for r in b.results
        ]

    def test_csv_schema(self, tmp_path):
        rep = run_property_suite(seed=0, trials=2)
        out = tmp_path / "suite.csv"
        rep.write_csv(out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "property,trials,failures,first_failing_seed"
        assert len(lines) == 1 + len(PROPERTIES)
        for line in lines[1:]:
            name, trials, failures, seed = line.split(",")
            assert trials == "2" and failures == "0" and seed == ""

    def test_failures_are_reported_not_raised(self):
        # A property that always raises must show up as per-trial failures.
        rep = SuiteReport(results=[], elapsed_s=0.0, suite_seed=0)
        assert rep.all_passed  # vacuous, and exercises the empty case

        import mdpaccel.verification as verif

        def always_raises(_trial):
            raise RuntimeError("boom")

        original = verif.PROPERTIES
        verif.PROPERTIES = [("always-raises", always_raises)]
        try:
            got = run_property_suite(seed=0, trials=3)
        finally:
            verif.PROPERTIES = original
        assert not got.all_passed
        assert got.results[0].failures == 3
        assert got.results[0].first_failure == "0:0"
        assert "FAIL" in got.to_text()
