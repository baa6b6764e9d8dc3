"""End-to-end acceptance checks for the accelerated solver library.

Nine criteria, one test each, covering: the randomized property suite,
closed-form-vs-bisection step factors, fixed-point agreement across every
operator/accelerator combination, iteration-count and relative-speedup
anchors on dense and banded instances, the per-iteration monotone
sandwich, the sweep-region membership witness, total-reward acceleration,
and the caching overhead plus cached/cache-free iterate identity.

Each test prints exactly one ``criterion N (...): PASS|FAIL`` line before
asserting, so ``pytest -s tests/test_acceptance.py`` reads as a
checklist even when something breaks.  The dense 500-state runs at
discount 0.995 dominate the runtime (a plain value-iteration run needs
several thousand sweeps); expect a couple of minutes in total.
"""

from __future__ import annotations

import numpy as np

from mdpaccel.accelerators import (
    apply_projective,
    linear_extension_alpha,
    projective_alpha,
)
from mdpaccel.generators import GeneratorSpec, generate
from mdpaccel.model import adjust_rewards_nonnegative, initial_feasible_point
from mdpaccel.operators import (
    OperatorKind,
    apply_operator,
    is_feasible,
    is_feasible_gs,
    sup_norm,
)
from mdpaccel.solver import AcceleratorKind, SolverConfig, solve, stopping_threshold
from mdpaccel.verification import bisect_alpha, exact_fixed_point, run_property_suite

from test_model import two_state_swap

DISCOUNTED_OPS = (
    OperatorKind.STANDARD,
    OperatorKind.JACOBI,
    OperatorKind.GAUSS_SEIDEL,
    OperatorKind.GAUSS_SEIDEL_JACOBI,
)
ACCELERATORS = (
    AcceleratorKind.NONE,
    AcceleratorKind.PROJECTIVE,
    AcceleratorKind.LINEAR_EXTENSION,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_property_suite():
    report = run_property_suite(seed=0, trials=1000)
    ok = report.all_passed and report.elapsed_s < 120.0
    _report(
        1,
        "property suite",
        ok,
        f"{len(report.results)} properties x 1000 trials, zero failures "
        f"required, {report.elapsed_s:.1f}s (limit 120s)",
    )
    assert report.all_passed, "\n" + report.to_text()
    assert report.elapsed_s < 120.0


def test_criterion_02_scan_matches_bisection():
    rng = np.random.default_rng(42)
    worst_scale = 0.0
    worst_ray = 0.0
    fallbacks = 0
    for _ in range(200):
        n = int(rng.integers(5, 21))
        density = float(rng.choice([0.2, 0.5, 1.0]))
        discount = float(rng.choice([0.9, 0.98]))
        spec = GeneratorSpec(
            family="uniform",
            num_states=n,
            density=density,
            discount=discount,
            seed=int(rng.integers(1 << 31)),
            action_range=(2, 6),
        )
        m = generate(spec)
        vstar = exact_fixed_point(m).exact_value
        # Comfortable interior point: the bisection boundary shifts by
        # membership_tol over the binding-row slope, so stay away from
        # near-tangent geometry and pass a tight probe tolerance.
        floor = discount + 0.3 * (1.0 - discount)
        bump = rng.uniform(0.5, 3.0) * (1.0 + sup_norm(vstar))
        v = vstar + bump * rng.uniform(floor, 1.0, size=n)
        probe = 1e-12 * (1.0 + sup_norm(v))

        scan = projective_alpha(m, v)
        located = bisect_alpha(m, v, tol=1e-8, membership_tol=probe)
        worst_scale = max(worst_scale, abs(scan.alpha - located))
        fallbacks += scan.fallback_used

        u = apply_operator(m, v, OperatorKind.STANDARD)
        ray = linear_extension_alpha(m, v, u)
        hi = max(4.0 * ray.alpha, 8.0)
        located = bisect_alpha(m, v, u=u, hi=hi, tol=1e-8, membership_tol=probe)
        worst_ray = max(worst_ray, abs(ray.alpha - located))
        fallbacks += ray.fallback_used

    ok = worst_scale <= 1e-6 and worst_ray <= 1e-6 and fallbacks == 0
    _report(
        2,
        "closed-form vs bisection",
        ok,
        f"200 instances, worst |d-alpha| scale {worst_scale:.2e}, "
        f"ray {worst_ray:.2e} (limit 1e-6), {fallbacks} fallbacks",
    )
    assert worst_scale <= 1e-6
    assert worst_ray <= 1e-6
    assert fallbacks == 0


def test_criterion_03_fixed_point_agreement():
    eps = 1e-3
    worst_oracle = 0.0
    worst_pair = 0.0
    unconverged = 0
    for seed in range(20):
        spec = GeneratorSpec(
            family="uniform", num_states=50, density=1.0, discount=0.9, seed=seed
        )
        m = generate(spec)
        oracle = exact_fixed_point(m).exact_value
        values = []
        for op in DISCOUNTED_OPS:
            for accel in ACCELERATORS:
                result = solve(m, SolverConfig(operator=op, accelerator=accel, epsilon=eps))
                unconverged += not result.converged
                values.append(result.final_value)
                worst_oracle = max(worst_oracle, sup_norm(result.final_value - oracle))
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                worst_pair = max(worst_pair, sup_norm(values[i] - values[j]))
    ok = worst_oracle <= eps and worst_pair <= 2 * eps and unconverged == 0
    _report(
        3,
        "fixed-point agreement",
        ok,
        f"12 combinations x 20 instances, worst gap to oracle {worst_oracle:.2e} "
        f"(limit {eps}), worst pairwise {worst_pair:.2e} (limit {2 * eps})",
    )
    assert unconverged == 0
    assert worst_oracle <= eps
    assert worst_pair <= 2 * eps


def test_criterion_04_dense_iteration_anchors():
    def dense(discount):
        return generate(
            GeneratorSpec(
                family="uniform", num_states=500, density=1.0, discount=discount, seed=0
            )
        )

    m_low = dense(0.9)
    vi_low = solve(m_low, SolverConfig(epsilon=1e-3))
    fast_low = solve(
        m_low, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE, epsilon=1e-3)
    )
    m_high = dense(0.995)
    vi_high = solve(m_high, SolverConfig(epsilon=1e-3))
    fast_high = solve(
        m_high, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE, epsilon=1e-3)
    )
    wall_ratio = fast_high.wall_ms / vi_high.wall_ms
    ok = (
        171 <= vi_low.iterations <= 231
        and fast_low.iterations <= 15
        and 4594 <= vi_high.iterations <= 5614
        and fast_high.iterations <= 20
        and wall_ratio <= 0.05
    )
    _report(
        4,
        "dense iteration anchors",
        ok,
        f"discount 0.9: VI {vi_low.iterations} (expect 171..231), "
        f"accelerated {fast_low.iterations} (limit 15); "
        f"discount 0.995: VI {vi_high.iterations} (expect 4594..5614), "
        f"accelerated {fast_high.iterations} (limit 20), "
        f"wall ratio {wall_ratio:.4f} (limit 0.05)",
    )
    assert all(r.converged for r in (vi_low, fast_low, vi_high, fast_high))
    assert 171 <= vi_low.iterations <= 231
    assert fast_low.iterations <= 15
    assert 4594 <= vi_high.iterations <= 5614
    assert fast_high.iterations <= 20
    assert wall_ratio <= 0.05


def test_criterion_05_band_iteration_ratio():
    m = generate(
        GeneratorSpec(family="band", num_states=500, bandwidth=100, discount=0.995, seed=0)
    )
    vi = solve(m, SolverConfig(epsilon=1e-3))
    fast = solve(m, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE, epsilon=1e-3))
    ratio = fast.iterations / vi.iterations
    # Partial support keeps the accelerated count well above the dense
    # case's single digits but still far below the plain sweep count.
    ok = 0.05 <= ratio <= 0.25 and 9 < fast.iterations < vi.iterations
    _report(
        5,
        "banded iteration ratio",
        ok,
        f"VI {vi.iterations}, accelerated {fast.iterations}, "
        f"ratio {ratio:.3f} (accept 0.05..0.25)",
    )
    assert vi.converged and fast.converged
    assert 0.05 <= ratio <= 0.25
    assert 9 < fast.iterations < vi.iterations


def test_criterion_06_monotone_sandwich():
    rng = np.random.default_rng(6)
    streams = 0
    below_optimal = 0
    above_plain = 0
    for _ in range(50):
        n = int(rng.integers(5, 41))
        spec = GeneratorSpec(
            family="uniform",
            num_states=n,
            density=float(rng.choice([0.2, 0.5, 1.0])),
            discount=float(rng.choice([0.9, 0.98])),
            seed=int(rng.integers(1 << 31)),
            action_range=(2, 6),
        )
        m = generate(spec)
        vstar = exact_fixed_point(m).exact_value
        start = initial_feasible_point(m)
        tol = 1e-8 * (1.0 + sup_norm(start))
        for accel in (AcceleratorKind.PROJECTIVE, AcceleratorKind.LINEAR_EXTENSION):
            for op in DISCOUNTED_OPS:
                fast = solve(
                    m,
                    SolverConfig(
                        operator=op,
                        accelerator=accel,
                        epsilon=1e-3,
                        initial_point=start,
                        record_iterates=True,
                    ),
                )
                # Force the plain stream to run exactly as many backups as
                # the accelerated one so the iterates pair up one-to-one.
                plain = solve(
                    m,
                    SolverConfig(
                        operator=op,
                        epsilon=1e-16,
                        initial_point=start,
                        max_iterations=fast.iterations,
                        record_iterates=True,
                    ),
                )
                assert len(fast.iterates) == len(plain.iterates)
                streams += 1
                for w, v in zip(fast.iterates, plain.iterates):
                    below_optimal += not np.all(w >= vstar - tol)
                    above_plain += not np.all(w <= v + tol)
    ok = below_optimal == 0 and above_plain == 0
    _report(
        6,
        "monotone sandwich",
        ok,
        f"{streams} accelerated streams over 50 instances; iterates below the "
        f"fixed point: {below_optimal}, above the plain stream: {above_plain}",
    )
    assert below_optimal == 0
    assert above_plain == 0


def test_criterion_07_sweep_region_witness():
    m = two_state_swap(1.0, 1.0, discount=0.9)
    v = np.array([100.0, 10.0])
    in_sweep_region = is_feasible_gs(m, v)
    in_plain_region = is_feasible(m, v)
    ok = in_sweep_region and not in_plain_region
    _report(
        7,
        "sweep-region witness",
        ok,
        f"v=(100, 10) on the two-state swap: sweep membership {in_sweep_region}, "
        f"plain membership {in_plain_region} (want True/False)",
    )
    assert in_sweep_region
    assert not in_plain_region


def test_criterion_08_total_reward_speedup():
    worst = 0.0
    unconverged = 0
    for seed in range(80, 100):
        spec = GeneratorSpec(
            family="total_reward_positive",
            num_states=5,
            action_range=(2, 5),
            discount=1.0,
            seed=seed,
        )
        m = generate(spec)
        plain = solve(m, SolverConfig(epsilon=1e-3))
        fast = solve(m, SolverConfig(accelerator=AcceleratorKind.PROJECTIVE, epsilon=1e-3))
        unconverged += not (plain.converged and fast.converged)
        unconverged += plain.final_residual > 1e-3 or fast.final_residual > 1e-3
        worst = max(worst, fast.iterations / plain.iterations)
    ok = worst <= 0.20 and unconverged == 0
    _report(
        8,
        "total-reward speedup",
        ok,
        f"20 absorbing models, worst accelerated/plain iteration ratio "
        f"{worst:.3f} (limit 0.20)",
    )
    assert unconverged == 0
    assert worst <= 0.20


def test_criterion_09_caching_overhead_and_identity():
    # The identity bound is absolute, so keep values order-one: scaled
    # cached sums and freshly reduced 500-term sums drift apart by about
    # a hundred ulp of the iterate magnitude over a run.
    spec = GeneratorSpec(
        family="uniform",
        num_states=500,
        density=1.0,
        discount=0.9,
        reward_range=(0.01, 0.1),
        seed=0,
    )
    m = generate(spec)

    def best_of(config, runs=3):
        return min((solve(m, config) for _ in range(runs)), key=lambda r: r.wall_ms)

    vi = best_of(SolverConfig(epsilon=1e-3))
    fast = best_of(
        SolverConfig(
            accelerator=AcceleratorKind.PROJECTIVE, epsilon=1e-3, membership_checks=False
        )
    )
    per_vi = vi.wall_ms / vi.iterations
    per_fast = fast.wall_ms / fast.iterations
    overhead = per_fast / per_vi

    cached = solve(
        m,
        SolverConfig(
            accelerator=AcceleratorKind.PROJECTIVE,
            epsilon=1e-3,
            membership_checks=False,
            record_iterates=True,
        ),
    )
    # Cache-free reference: recompute every weighted sum from scratch
    # instead of scaling the cached rows, mirroring the solver's start
    # resolution (unconditional reward shift, constant feasible start).
    shifted, offset = adjust_rewards_nonnegative(m)
    correction = offset / (1.0 - m.discount)
    threshold = stopping_threshold(1e-3, m.discount) / m.num_states
    w = initial_feasible_point(shifted)
    reference = [w - correction]
    for _ in range(cached.iterations):
        u = apply_operator(shifted, w, OperatorKind.STANDARD)
        if sup_norm(u - w) <= threshold:
            w = u
        else:
            w = apply_projective(shifted, u, check_membership=False).point
        reference.append(w - correction)
    drift = max(sup_norm(a - b) for a, b in zip(cached.iterates, reference))
    same_length = len(cached.iterates) == len(reference)

    ok = overhead <= 1.5 and same_length and drift <= 1e-12
    _report(
        9,
        "caching overhead and identity",
        ok,
        f"per-iteration wall accelerated/plain {overhead:.3f} (limit 1.5, "
        f"{fast.iterations} vs {vi.iterations} iterations), cached-vs-recomputed "
        f"iterate drift {drift:.2e} (limit 1e-12)",
    )
    assert vi.converged and fast.converged and cached.converged
    assert overhead <= 1.5
    assert same_length
    assert drift <= 1e-12
