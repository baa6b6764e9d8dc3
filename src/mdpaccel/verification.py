"""Independent oracles and the randomized property suite.

The oracles deliberately avoid the code paths they check: the exact
fixed point comes from policy iteration with direct dense linear solves
(never from value iteration), and the acceleration step factors are
cross-checked by bisection over the raw dominance predicate (never from
the closed-form ratio scans).

The property suite replays the library's structural guarantees — order
preservation of the backups, invariance of the dominance region under
every operator, the set identities and inclusions between the plain and
sweep-based regions, strict decrease on fully dense models, and the two
contracts every accelerator must honor (output stays in the region,
output never exceeds the input) — over seeded random models.  Each trial
derives its own seed from (suite seed, trial index), so any failure is
reproducible from the reported seed string alone.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .accelerators import (
    apply_linear_extension,
    apply_projective,
    linear_extension_alpha,
    projective_alpha,
)
from .generators import GeneratorSpec, generate
from .model import MdpModel, RewardMode, initial_feasible_point_total_reward
from .operators import (
    apply_operator,
    is_feasible,
    is_feasible_gs,
    membership_tolerance,
    sup_norm,
    weighted_sums,
)

ORACLE_SIZE_LIMIT = 2000
# Policy-iteration rounds the exact oracle takes before it gives up.
ORACLE_MAX_ROUNDS = 1000
ORACLE_RESIDUAL_SCALE = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Exact solution of a discounted model, with its certified residual."""

    exact_value: np.ndarray
    exact_policy: np.ndarray
    residual: float


def exact_fixed_point(m: MdpModel) -> OracleResult:
    """Exact optimal value via policy iteration with dense linear solves.

    Each round evaluates the incumbent policy by solving the linear
    system ``(I - discount * P) v = r`` directly, then improves greedily;
    a state switches action only on strict improvement, so the incumbent
    policy is stable exactly at optimality.  Independent of the iterative
    solvers in every step, the residual certificate included, which is
    what makes it usable as their oracle.

    Raises:
        ValueError: total-reward models, or models above the dense-solve
            budget of 2000 states.
        RuntimeError: the computed value fails its own residual
            certificate (ill-conditioned input).
    """
    if m.mode is not RewardMode.DISCOUNTED:
        raise ValueError("the exact oracle covers discounted models only")
    if m.num_states > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"model has {m.num_states} states, dense-solve budget is {ORACLE_SIZE_LIMIT}"
        )

    n = m.num_states
    policy = np.zeros(n, dtype=np.int64)
    eye = np.eye(n)
    for _ in range(ORACLE_MAX_ROUNDS):
        rows = m.state_ptr[:-1] + policy
        p_d = m.row_matrix[rows].toarray()
        r_d = m.rewards[rows]
        v = np.linalg.solve(eye - m.discount * p_d, r_d)
        row_values = m.rewards + m.discount * (m.row_matrix @ v)
        tie_tol = 1e-10 * (1.0 + sup_norm(v))
        improved = policy.copy()
        for i in range(n):
            lo, hi = m.state_ptr[i], m.state_ptr[i + 1]
            incumbent = row_values[lo + policy[i]]
            best = int(np.argmax(row_values[lo:hi]))
            if row_values[lo + best] > incumbent + tie_tol:
                improved[i] = best
        if np.array_equal(improved, policy):
            break
        policy = improved
    else:
        raise RuntimeError("policy iteration failed to settle within its round budget")

    # certified from the round's own row values, not from the backup under test
    residual = sup_norm(np.maximum.reduceat(row_values, m.state_ptr[:-1]) - v)
    limit = ORACLE_RESIDUAL_SCALE * (1.0 + sup_norm(v))
    if residual > limit:
        raise RuntimeError(
            f"oracle residual {residual:.3e} exceeds its certification bound {limit:.3e}"
        )
    return OracleResult(exact_value=v, exact_policy=policy, residual=residual)


def bisect_alpha(m, v, u=None, lo=0.0, hi=1.0, tol=1e-8, membership_tol=None) -> float:
    """Locate an acceleration step factor by bisection on the dominance test.

    Two modes:

    * scale mode (``u`` is None): along ``alpha * v`` dominance is
      monotone increasing in ``alpha``; requires ``lo`` infeasible and
      ``hi`` feasible and returns the smallest feasible ``alpha``;
    * ray mode (``u`` given): along ``v + alpha * (u - v)`` dominance is
      monotone decreasing in ``alpha``; requires ``lo`` feasible and
      ``hi`` infeasible and returns the largest feasible ``alpha``.

    This is the slow, assumption-free cross-check for the closed-form
    scans: it consults nothing but the membership predicate.  Note the
    located boundary shifts by ``membership_tol / (binding-row slope)``,
    so comparisons against the closed forms should pass a tight
    ``membership_tol`` rather than the scale-relative default.

    Raises:
        ValueError: the bracket shows no sign change.
    """
    if u is None:
        def feasible(a):
            return is_feasible(m, a * v, tol=membership_tol)

        if feasible(lo) or not feasible(hi):
            raise ValueError(f"no sign change in [{lo}, {hi}] (scale mode)")
        infeasible_side_low = True
    else:
        def feasible(a):
            return is_feasible(m, v + a * (u - v), tol=membership_tol)

        if (not feasible(lo)) or feasible(hi):
            raise ValueError(f"no sign change in [{lo}, {hi}] (ray mode)")
        infeasible_side_low = False
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid) == infeasible_side_low:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Property suite


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class SuiteReport:
    results: list[PropertyResult]
    elapsed_s: float
    suite_seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.results), default=0)
        for r in self.results:
            status = "pass" if r.passed else f"FAIL ({r.failures}, first seed {r.first_failure})"
            lines.append(f"{r.name:<{width}}  trials={r.trials}  {status}")
        verdict = "all properties passed" if self.all_passed else "PROPERTY FAILURES PRESENT"
        lines.append(f"{verdict} in {self.elapsed_s:.1f}s (seed {self.suite_seed})")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["property", "trials", "failures", "first_failing_seed"])
            for r in self.results:
                w.writerow([r.name, r.trials, r.failures, r.first_failure or ""])


def _counterexample_model() -> MdpModel:
    """Two-state deterministic swap, unit rewards, discount 0.9."""
    return MdpModel.from_rows(
        [[(1.0, [(1, 1.0)])], [(1.0, [(0, 1.0)])]], discount=0.9
    )


class _Trial:
    """All shared per-trial material: models, exact values, sample vectors."""

    DENSITIES = (0.2, 0.5, 1.0)
    DISCOUNTS = (0.9, 0.98)

    def __init__(self, suite_seed: int, index: int):
        self.index = index
        self.seed_string = f"{suite_seed}:{index}"
        self.rng = np.random.default_rng(np.random.SeedSequence([suite_seed, index]))
        self.density = self.DENSITIES[index % 3]
        self.discount = self.DISCOUNTS[(index // 3) % 2]
        n = int(self.rng.integers(5, 51))
        self.m = generate(
            GeneratorSpec(
                family="uniform",
                num_states=n,
                density=self.density,
                action_range=(2, 6),
                discount=self.discount,
                seed=int(self.rng.integers(0, 2**62)),
            )
        )
        self.oracle = exact_fixed_point(self.m)
        self.vstar = self.oracle.exact_value
        self.scale = 1.0 + sup_norm(self.vstar)
        self._tr = None

    @property
    def tr_model(self) -> MdpModel:
        if self._tr is None:
            self._tr = generate(
                GeneratorSpec(
                    family="total_reward_positive",
                    num_states=int(self.rng.integers(4, 11)),
                    action_range=(2, 5),
                    discount=1.0,
                    seed=int(self.rng.integers(0, 2**62)),
                )
            )
        return self._tr

    def feasible_point(self, floor=None) -> np.ndarray:
        """A genuinely non-constant member of the dominance region.

        ``vstar + c * delta`` dominates its backup whenever every
        ``delta_i >= discount * max delta``; drawing ``delta`` in
        ``[floor, 1]`` with ``floor >= discount`` guarantees that, and a
        higher floor keeps the point away from the region's boundary.
        """
        lam = self.m.discount
        lo = lam if floor is None else floor
        c = float(self.rng.uniform(0.5, 3.0)) * self.scale
        delta = self.rng.uniform(lo, 1.0, size=self.m.num_states)
        return self.vstar + c * delta

    def infeasible_point(self) -> np.ndarray:
        """A point partly below the fixed point, hence outside the region."""
        lam = self.m.discount
        c = float(self.rng.uniform(0.5, 3.0)) * self.scale
        delta = self.rng.uniform((1.0 + lam) / 2.0, 1.0, size=self.m.num_states)
        return self.vstar - c * delta

    def ordered_pair(self):
        n = self.m.num_states
        v = self.rng.normal(scale=self.scale, size=n)
        u = v + self.rng.uniform(0.1, 1.0, size=n) * self.scale
        return u, v

    def has_pure_self_loop_row(self) -> bool:
        """Whether any action keeps (almost) all its mass on its own state.

        Such a row's backup under self-loop division is a constant,
        independent of the input vector; wherever that constant attains a
        state's maximum, strict order preservation degenerates to
        equality, and through a sweep the equality can propagate to other
        states.  Models free of such rows preserve strict order under
        every backup.
        """
        return bool(np.any(self.m.self_loop_probs > 1.0 - 1e-9))

    def tr_feasible_point(self) -> np.ndarray:
        m = self.tr_model
        v = initial_feasible_point_total_reward(m)
        for _ in range(int(self.rng.integers(0, 3))):
            v = apply_operator(m, v, "total")
        return v + float(self.rng.uniform(0.0, 5.0))


def _prop_monotone_backups(t: _Trial) -> bool:
    u, v = t.ordered_pair()
    tol = membership_tolerance(u)
    degenerate = t.has_pure_self_loop_row()
    for kind in ("standard", "jacobi", "gs", "gsj"):
        bu = apply_operator(t.m, u, kind)
        bv = apply_operator(t.m, v, kind)
        if not np.all(bu >= bv - tol):
            return False
        if kind in ("jacobi", "gsj") and degenerate:
            continue  # constant rows cap the strict half at equality
        if not np.all(bu > bv):
            return False
    return True


def _prop_feasible_invariant_standard(t: _Trial) -> bool:
    v = t.feasible_point()
    out = apply_operator(t.m, v, "standard")
    return is_feasible(t.m, out)


def _prop_sweep_region_invariant(t: _Trial) -> bool:
    v = t.feasible_point()  # region members are also sweep-region members
    out = apply_operator(t.m, v, "gs")
    if not is_feasible_gs(t.m, out):
        return False
    cm = _counterexample_model()
    swept = apply_operator(cm, np.array([100.0, 10.0]), "gs")
    return is_feasible_gs(cm, swept)


def _prop_jacobi_region_identity(t: _Trial) -> bool:
    for v in (t.feasible_point(), t.infeasible_point()):
        jac = apply_operator(t.m, v, "jacobi")
        in_j = bool(np.all(jac <= v + membership_tolerance(v)))
        if is_feasible(t.m, v) != in_j:
            return False
    return True


def _prop_sweep_region_contains_feasible(t: _Trial) -> bool:
    v = t.feasible_point()
    if not (is_feasible(t.m, v) and is_feasible_gs(t.m, v)):
        return False
    cm = _counterexample_model()
    witness = np.array([100.0, 10.0])
    return is_feasible_gs(cm, witness) and not is_feasible(cm, witness)


def _prop_sweep_image_in_feasible(t: _Trial) -> bool:
    v = t.feasible_point()
    out = apply_operator(t.m, v, "gs")
    if not is_feasible(t.m, out):
        return False
    cm = _counterexample_model()
    swept = apply_operator(cm, np.array([100.0, 10.0]), "gs")
    return is_feasible(cm, swept)


def _prop_splittings_preserve_feasible(t: _Trial) -> bool:
    v = t.feasible_point()
    for kind in ("jacobi", "gs", "gsj"):
        out = apply_operator(t.m, v, kind)
        if not is_feasible(t.m, out):
            return False
    return True


def _prop_total_reward_invariant(t: _Trial) -> bool:
    m = t.tr_model
    v = t.tr_feasible_point()
    if not is_feasible(m, v):
        return False
    out = apply_operator(m, v, "total")
    return is_feasible(m, out)


def _prop_dense_strict_decrease(t: _Trial) -> bool:
    if t.density != 1.0:
        return True
    v = t.feasible_point()
    if sup_norm(v - t.vstar) <= 1e-6 * t.scale:
        return True
    out = apply_operator(t.m, v, "standard")
    return bool(np.all(out < v))


def _prop_contraction(t: _Trial) -> bool:
    n = t.m.num_states
    a = t.rng.normal(scale=t.scale, size=n)
    b = t.rng.normal(scale=t.scale, size=n)
    ta = apply_operator(t.m, a, "standard")
    tb = apply_operator(t.m, b, "standard")
    return sup_norm(ta - tb) <= t.m.discount * sup_norm(a - b) + 1e-9 * t.scale


def _prop_sums_bit_stable(t: _Trial) -> bool:
    v = t.rng.normal(size=t.m.num_states)
    return np.array_equal(weighted_sums(t.m, v).values, weighted_sums(t.m, v.copy()).values)


def _prop_acceleration_stays_feasible(t: _Trial) -> bool:
    v = t.feasible_point()
    p = apply_projective(t.m, v)
    if p.alpha.fallback_used or not is_feasible(t.m, p.point):
        return False
    u = apply_operator(t.m, v, "standard")
    e = apply_linear_extension(t.m, v, u)
    return (not e.alpha.fallback_used) and is_feasible(t.m, e.point)


def _prop_acceleration_never_exceeds_input(t: _Trial) -> bool:
    v = t.feasible_point()
    tol = membership_tolerance(v)
    p = apply_projective(t.m, v)
    if not np.all(p.point <= v + tol):
        return False
    u = apply_operator(t.m, v, "standard")
    e = apply_linear_extension(t.m, v, u)
    return bool(np.all(e.point <= v + tol))


def _prop_alpha_matches_bisection(t: _Trial) -> bool:
    # A point comfortably inside the region: near-boundary starts turn the
    # bisection's membership slack into arbitrarily large alpha drift.
    lam = t.m.discount
    v = t.feasible_point(floor=lam + 0.3 * (1.0 - lam))
    probe_tol = 1e-12 * (1.0 + sup_norm(v))

    closed = projective_alpha(t.m, v).alpha
    by_bisect = bisect_alpha(t.m, v, lo=0.0, hi=1.0, membership_tol=probe_tol)
    if abs(closed - by_bisect) > 1e-6:
        return False

    u = apply_operator(t.m, v, "standard")
    res = linear_extension_alpha(t.m, v, u)
    hi = max(res.alpha * 4.0, 8.0)
    ray = bisect_alpha(t.m, v, u=u, lo=1.0, hi=hi, membership_tol=probe_tol)
    return abs(res.alpha - ray) <= 1e-6 * max(1.0, res.alpha)


def _prop_iterate_sandwich(t: _Trial) -> bool:
    kind = ("standard", "jacobi", "gs", "gsj")[t.index % 4]
    start = t.feasible_point()
    tol = 1e-8 * (1.0 + sup_norm(start))
    for accel in ("projective", "linear"):
        plain = start.copy()
        fast = start.copy()
        for _ in range(8):
            plain = apply_operator(t.m, plain, kind)
            backed = apply_operator(t.m, fast, kind)
            if sup_norm(backed - fast) <= 1e-11 * (1.0 + sup_norm(fast)):
                break  # accelerated stream already at its fixed point
            if accel == "projective":
                fast = apply_projective(t.m, backed).point
            else:
                fast = apply_linear_extension(t.m, fast, backed).point
            if not np.all(fast <= plain + tol):
                return False
            if not np.all(fast >= t.vstar - tol):
                return False
            if not np.all(fast <= backed + tol):  # never above its own backup
                return False
    return True


def _prop_projective_identity_at_fixed_point(t: _Trial) -> bool:
    res = projective_alpha(t.m, t.vstar, check_membership=False)
    return abs(res.alpha - 1.0) <= 1e-9


PROPERTIES = [
    ("monotone-backups", _prop_monotone_backups),
    ("feasible-invariant-standard", _prop_feasible_invariant_standard),
    ("sweep-region-invariant", _prop_sweep_region_invariant),
    ("jacobi-region-identity", _prop_jacobi_region_identity),
    ("sweep-region-contains-feasible", _prop_sweep_region_contains_feasible),
    ("sweep-image-in-feasible", _prop_sweep_image_in_feasible),
    ("splittings-preserve-feasible", _prop_splittings_preserve_feasible),
    ("total-reward-invariant", _prop_total_reward_invariant),
    ("dense-strict-decrease", _prop_dense_strict_decrease),
    ("contraction", _prop_contraction),
    ("weighted-sums-bit-stable", _prop_sums_bit_stable),
    ("acceleration-stays-feasible", _prop_acceleration_stays_feasible),
    ("acceleration-never-exceeds-input", _prop_acceleration_never_exceeds_input),
    ("alpha-matches-bisection", _prop_alpha_matches_bisection),
    ("iterate-sandwich", _prop_iterate_sandwich),
    ("projective-identity-at-fixed-point", _prop_projective_identity_at_fixed_point),
]


def run_property_suite(seed: int = 0, trials: int = 1000) -> SuiteReport:
    """Run every property over ``trials`` seeded random trials.

    Failures are data, not exceptions: each property's report row carries
    its failure count and the seed string of the first failing trial
    (``"<seed>:<index>"``), enough to rebuild that trial exactly.

    Raises:
        ValueError: ``trials`` is negative, which would pass every property
            over no trial at all, or ``seed`` is, which no trial can take.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    t0 = time.perf_counter()
    results = [PropertyResult(name, 0, 0) for name, _ in PROPERTIES]
    for index in range(trials):
        trial = _Trial(seed, index)
        for slot, (name, prop) in zip(results, PROPERTIES):
            slot.trials += 1
            try:
                ok = prop(trial)
            except Exception:
                ok = False
            if not ok:
                slot.failures += 1
                if slot.first_failure is None:
                    slot.first_failure = trial.seed_string
    return SuiteReport(results=results, elapsed_s=time.perf_counter() - t0, suite_seed=seed)
