"""Value-iteration driver with optional acceleration.

One iteration of the driver is one backup of the current iterate under
the configured operator, followed (when the run is accelerated and not
yet converged) by one acceleration step.  Iteration counts reported by
the driver are therefore backup counts, directly comparable across plain
and accelerated runs.

The driver keeps the weighted-sums bookkeeping exact: per iteration it
performs exactly one fresh weighted-sums pass — at the new backup — and
derives every other sums vector it needs by linearity (scaling for the
projective step, affine combination for the linear extension).  The
in-place sweep operators compute their per-state sums inside the sweep;
combined with the linear extension they carry the current iterate's sums
from the previous iteration's affine combination, so the one-pass budget
holds for every operator/accelerator pairing.  Membership checks, when
enabled, cost one additional validation pass per accelerated iteration,
screened down to the rows of the accelerated point that a rounding bound
from the sums at ``u`` cannot clear (see ``accelerators``); disabling
them removes that cost without changing the iterate sequence.

Screened sums.  Projective runs of a simultaneous backup on models with
at least ``SCREEN_MIN_ROW_NNZ`` stored entries per row and
``SCREEN_MIN_ROWS_PER_STATE`` rows per state, on average, carry
``operators.ScreenedSums`` instead: the sums at the start and at each new
backup ``u`` are bounds drifted from the sums at ``w``
(``operators.drifted_sums``), with no kernel pass, and the backup, the
precondition test, the scan, the output check and the final policy each
take exact sums, through ``weighted_sums`` over some rows, only for the
rows their bounds cannot settle.  Every iterate, residual, step factor
and policy is the all-rows one bit for bit.  The linear extension keeps
all-rows sums: its carried sums are an affine recursion over every past
kernel sum, which a row skipped once cannot rejoin bit for bit.

Backups per iteration.  Every iteration runs one backup ``u = T(w)`` of
the configured operator.  With membership checks an accelerated
iteration adds the one-step backups its dominance tests need, all from
sums already in hand: one of the scan's input point (``u`` for both
accelerators) and one of the accelerated point's screened rows, from
the validation pass.  The linear extension also tests the current
iterate ``w``; when the configured operator is the one-step backup
(``standard``, or ``total`` on total-reward models) that test reads the
backup ``u`` that ``w``'s sums already hold, so an accelerated iteration
costs one all-rows sums pass and one screened pass over the rows the
bound leaves (under 1% of them on the benchmark models), two full
backups and one over those rows.  The Jacobi and sweep operators back
``w`` up once more, from its carried sums.  Without checks the step adds
neither passes nor backups to the sums pass at ``u`` and the loop's own
backup.

Stopping.  Discounted runs stop when the backup residual in the
componentwise maximum norm falls below ``stopping_threshold(epsilon,
discount) / num_states`` — the accuracy bound is split evenly across
components, so the guarantee holds per state rather than only for the
worst one.  Total-reward runs stop when the residual falls below
``epsilon`` itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .accelerators import (
    AlphaResult,
    AlreadyConvergedError,
    apply_linear_extension,
    apply_projective,
)
from .model import (
    MdpModel,
    RewardMode,
    adjust_rewards_nonnegative,
    initial_feasible_point,
    initial_feasible_point_total_reward,
    shown,
)
from .operators import (
    OperatorKind,
    WeightedSums,
    apply_operator,
    check_fit,
    drifted_sums,
    extract_policy,
    is_feasible,
    sup_norm,
    sweep_carries_state,
    weighted_sums,
)


class AcceleratorKind(str, Enum):
    """Acceleration selector; values double as CLI tokens."""

    NONE = "none"
    PROJECTIVE = "projective"
    LINEAR_EXTENSION = "linear"


class SolverConfigError(ValueError):
    """A solver configuration that cannot run on the given model."""


def _is_number(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)


def stopping_threshold(epsilon: float, discount: float) -> float:
    """Backup-residual bound that makes the final iterate epsilon-accurate.

    For a discounted run, a residual of ``epsilon * (1 - discount) /
    (2 * discount)`` in the maximum norm bounds the distance to the fixed
    point by ``epsilon / 2``.  At discount 0 one backup is exact, so the
    bound is inf.
    """
    if not 0.0 <= discount < 1.0:
        raise ValueError("stopping threshold needs a discount in [0, 1)")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if discount == 0.0:
        return math.inf
    return epsilon * (1.0 - discount) / (2.0 * discount)


@dataclass
class SolverConfig:
    """Everything a solve run needs beyond the model itself.

    Attributes:
        operator: backup operator to iterate.
        accelerator: acceleration applied between backups; each step
            applies the factor its scan finds.
        epsilon: target accuracy driving the stopping rule.
        max_iterations: hard backup budget.
        membership_checks: validate acceleration pre/postconditions at the
            cost of one extra weighted-sums pass per accelerated iteration,
            screened down to the rows a rounding bound cannot clear.
        initial_point: explicit start vector; when None the driver picks
            one (see ``solve``).
        record_iterates: keep a copy of every iterate in the result
            (start vector included); off by default since it turns an
            O(states) run into an O(states * iterations) allocation.
    """

    operator: OperatorKind = OperatorKind.STANDARD
    accelerator: AcceleratorKind = AcceleratorKind.NONE
    epsilon: float = 1e-3
    max_iterations: int = 200_000
    membership_checks: bool = True
    initial_point: np.ndarray | None = None
    record_iterates: bool = False

    def __post_init__(self):
        self.operator = OperatorKind(self.operator)
        self.accelerator = AcceleratorKind(self.accelerator)

    def validate_for(self, m: MdpModel) -> None:
        if not (_is_number(self.epsilon) and 0.0 < self.epsilon < math.inf):
            raise SolverConfigError(f"epsilon must be finite and positive, got {shown(self.epsilon)}")
        if not (isinstance(self.max_iterations, Integral) and not isinstance(self.max_iterations, bool)
                and self.max_iterations >= 1):
            raise SolverConfigError(
                f"max_iterations must be an integer of at least 1, got {shown(self.max_iterations)}"
            )
        for name in ("membership_checks", "record_iterates"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise SolverConfigError(f"{name} must be True or False, got {shown(flag)}")
        try:
            check_fit(m, self.operator)
        except (ValueError, ArithmeticError) as exc:
            raise SolverConfigError(str(exc)) from None
        # _resolve_initial shifts the rewards only for a discounted run from the start it chooses
        shifted = self.initial_point is None and m.mode is RewardMode.DISCOUNTED
        if self.accelerator is AcceleratorKind.PROJECTIVE and not shifted and (m.rewards < 0.0).any():
            raise SolverConfigError(
                "projective scaling needs nonnegative rewards, which are shifted only "
                "for discounted runs with no initial point"
            )
        if self.initial_point is not None:
            p = np.asarray(self.initial_point, dtype=np.float64)
            if p.shape != (m.num_states,):
                raise SolverConfigError(
                    f"initial point has shape {p.shape}, model has {m.num_states} states"
                )
            if not np.all(np.isfinite(p)):
                raise SolverConfigError("initial point must be finite")


@dataclass
class SolveResult:
    """Outcome of one solve run.

    ``iterations`` counts backups; ``residuals[k]`` is the maximum-norm
    backup residual of iteration k; ``alphas[k]`` is the acceleration
    scan outcome of iteration k (None when that iteration ran no
    acceleration).  ``final_value`` is expressed in the input model's
    reward units even when the driver shifted rewards internally (the
    shift's contribution ``reward_offset / (1 - discount)`` is removed).
    ``iterates`` (present when recording was requested) holds the start
    vector followed by every iterate, in those same corrected units.
    """

    iterations: int
    converged: bool
    wall_ms: float
    residuals: np.ndarray
    alphas: list[AlphaResult | None]
    fallback_count: int
    final_value: np.ndarray
    final_policy: np.ndarray
    threshold: float
    reward_offset: float = 0.0
    iterates: list[np.ndarray] | None = None

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1]) if len(self.residuals) else float("nan")


def _resolve_initial(m: MdpModel, config: SolverConfig):
    """Choose the model to iterate on, the start vector, and the reward shift."""
    accelerated = config.accelerator is not AcceleratorKind.NONE
    if config.initial_point is not None:
        w = np.asarray(config.initial_point, dtype=np.float64).copy()
        if accelerated and config.membership_checks and not is_feasible(m, w):
            raise SolverConfigError(
                "accelerated runs need a start that dominates its own backup; "
                "the supplied initial point does not"
            )
        return m, w, 0.0
    if m.mode is RewardMode.TOTAL_REWARD:
        try:
            return m, initial_feasible_point_total_reward(m), 0.0
        except ValueError as exc:
            raise SolverConfigError(f"no start for a total-reward run: {exc}") from None
    if not accelerated:
        return m, np.zeros(m.num_states), 0.0
    shifted, offset = adjust_rewards_nonnegative(m)
    return shifted, initial_feasible_point(shifted), offset


# Projective runs of a simultaneous backup on models with at least this
# many stored entries per row, on average, carry screened sums
# (``operators.ScreenedSums``): there the kernel work they skip outweighs
# the per-row bounds they keep, whose cost is per row and per call.  Solve
# time per iteration, screened over all-rows, for PAVI / PAJ / checks-off
# PAVI (median of seeds 100-102, 45-56 actions per state, one BLAS
# thread, 2-CPU x86-64 guest; entries per row in brackets):
#   uniform dense, 40 states, discount 0.995 (40):  1.18 / 1.53 / 1.42
#   uniform dense, 50 states (50):                  1.12 / 1.14 / 1.25
#   uniform dense, 60 states (60):                  0.96 / 0.91 / 0.85
#   uniform dense, 80 states, dense-pa (80):        0.59 / 0.63 / 0.54
#   band 120 states, discount 0.995 (29, band-vi):  0.94 / 1.10 / 0.89
#   band 120 states (53):                           0.67 / 0.84 / 0.61
#   uniform 100 states, discount 0.9 (50):          0.73 / 0.85 / 0.72
# The smallest count at which no measured model ran slower is 60.
SCREEN_MIN_ROW_NNZ = 60
# ... and with at least this many rows per state, on average: a screened
# backup takes one row per state at the least, so with few rows it pays the
# bounds and still sums nearly every row.  Same measure, uniform dense
# models, discount 0.995, seed 100, min of 5 toggling the rule, median of 3
# (rows per state in brackets):
#   100 states, 2-4 actions (3.1):    2.08 / 1.41 / 2.17
#   200 states, 2-4 actions (3.1):    1.43 / 1.46 / 1.67
#   500 states, 2-4 actions (3.0):    1.17 / 1.27 / 1.27
#   1000 states, 2-4 actions (3.0):   0.98 / 0.98 / 0.98
#   200 states, 3-6 actions (4.6):    1.05 / 1.17 / 1.09
#   500 states, 3-6 actions (4.4):    0.73 / 0.73 / 0.63
#   100 states, 5-12 actions (8.8):   1.26 / 1.30 / 1.35
#   200 states, 5-12 actions (8.7):   0.75 / 0.82 / 0.67
#   100 states, 9-17 actions (13.0):  1.09 / 1.15 / 1.19
#   100 states, 10-20 actions (15.3): 0.93 / 0.95 / 0.90
#   100 states, 45-56 actions (50.7): 0.57 / 0.66 / 0.51
# Below 4 no measured model gained more than 2%; from 4 up the sign follows
# the model's size.
SCREEN_MIN_ROWS_PER_STATE = 4


def screens_sums(m: MdpModel, config: SolverConfig) -> bool:
    """Whether a run of ``config`` on ``m`` carries screened sums."""
    return (
        config.accelerator is AcceleratorKind.PROJECTIVE
        and not sweep_carries_state(config.operator)
        and m.probs.size >= SCREEN_MIN_ROW_NNZ * m.num_rows
        and m.num_rows >= SCREEN_MIN_ROWS_PER_STATE * m.num_states
    )


@dataclass
class _Step:
    iterate: np.ndarray
    residual: float
    alpha: AlphaResult | None
    converged: bool


class _Loop:
    """Mutable state of one run: current iterate and its carried sums."""

    def __init__(self, solve_model, config, start, threshold):
        self.m = solve_model
        self.config = config
        self.w = start
        self.threshold = threshold
        self.sweep = sweep_carries_state(config.operator)
        self.carry_sums = not self.sweep or config.accelerator is AcceleratorKind.LINEAR_EXTENSION
        self.screened = screens_sums(solve_model, config)
        if self.screened:
            # the zero vector's sums are exactly zero; the start's drift from it
            zero = WeightedSums(np.zeros(solve_model.num_rows), np.zeros(solve_model.num_states))
            self.sums = drifted_sums(solve_model, zero, start)
        else:
            self.sums = weighted_sums(self.m, self.w) if self.carry_sums else None

    def policy_sums(self):
        """Kernel sums of the iterate for the greedy policy, or None for a fresh pass."""
        if not self.screened:
            return None
        if self.sums.from_kernel:
            return self.sums
        # sums scaled by the last step: bound the kernel sums of w itself
        return drifted_sums(self.m, self.sums, self.w)

    def step(self) -> _Step:
        cfg, m, w = self.config, self.m, self.w
        if self.sweep:
            u = apply_operator(m, w, cfg.operator)
        else:
            u = apply_operator(m, w, cfg.operator, sums=self.sums)
        residual = sup_norm(u - w)
        if residual <= self.threshold or cfg.accelerator is AcceleratorKind.NONE:
            converged = residual <= self.threshold
            self.w = u
            if self.screened:
                self.sums = drifted_sums(m, self.sums, u)
            elif self.carry_sums:
                self.sums = None if converged else weighted_sums(m, u)
            return _Step(u, residual, None, converged)
        s_u = drifted_sums(m, self.sums, u) if self.screened else weighted_sums(m, u)
        if cfg.accelerator is AcceleratorKind.PROJECTIVE:
            accel = apply_projective(m, u, sums=s_u, check_membership=cfg.membership_checks)
        else:
            try:
                accel = apply_linear_extension(
                    m, w, u, sums_v=self.sums, sums_u=s_u, check_membership=cfg.membership_checks
                )
            except AlreadyConvergedError:
                # Residual above the stopping threshold but below the
                # scan's degeneracy guard (possible at high discount on
                # large-magnitude values): take the plain backup step.
                self.w = u
                self.sums = s_u if self.carry_sums else None
                return _Step(u, residual, None, False)
        self.w = accel.point
        self.sums = accel.sums if self.carry_sums else None
        return _Step(self.w, residual, accel.alpha, False)


def solve(m: MdpModel, config: SolverConfig | None = None) -> SolveResult:
    """Run value iteration on ``m`` under ``config``.

    Start vector when none is configured: zeros for plain discounted
    runs; for accelerated discounted runs the rewards are first shifted
    nonnegative and the constant ``max reward / (1 - discount)`` start is
    used (the shift is removed from the reported values); total-reward
    runs start from the dominating vector built by
    ``initial_feasible_point_total_reward``.

    Membership checks cost time and, on the measured models, change no
    step: both scans test their rows against zero, so a row whose slope
    is rounding noise can only shorten a step, and checked and unchecked
    runs take the same steps (the benchmark shapes, seeds 100-109).

    Returns a ``SolveResult``; ``converged`` is False when the backup
    budget ran out first.
    """
    if config is None:
        config = SolverConfig()
    config.validate_for(m)
    solve_model, start, offset = _resolve_initial(m, config)
    if m.mode is RewardMode.TOTAL_REWARD:
        threshold = config.epsilon
    else:
        threshold = stopping_threshold(config.epsilon, m.discount) / m.num_states

    correction = offset / (1.0 - m.discount) if offset else 0.0
    loop = _Loop(solve_model, config, start, threshold)
    residuals: list[float] = []
    alphas: list[AlphaResult | None] = []
    iterates = [start - correction] if config.record_iterates else None
    converged = False
    t0 = time.perf_counter()
    for _ in range(config.max_iterations):
        step = loop.step()
        residuals.append(step.residual)
        alphas.append(step.alpha)
        if iterates is not None:
            iterates.append(step.iterate - correction)
        if step.converged:
            converged = True
            break
    wall_ms = (time.perf_counter() - t0) * 1000.0

    value = loop.w.copy()
    if offset:
        value -= correction
    policy = extract_policy(solve_model, loop.w, loop.policy_sums())
    return SolveResult(
        iterations=len(residuals),
        converged=converged,
        wall_ms=wall_ms,
        residuals=np.asarray(residuals),
        alphas=alphas,
        fallback_count=sum(1 for a in alphas if a is not None and a.fallback_used),
        final_value=value,
        final_policy=policy,
        threshold=threshold,
        reward_offset=offset,
        iterates=iterates,
    )


_BASE_LABEL = {
    OperatorKind.STANDARD: "VI",
    OperatorKind.JACOBI: "J",
    OperatorKind.GAUSS_SEIDEL: "GS",
    OperatorKind.GAUSS_SEIDEL_JACOBI: "GSJ",
    OperatorKind.TOTAL_REWARD: "TVI",
}

_ACCEL_PREFIX = {
    AcceleratorKind.NONE: "",
    AcceleratorKind.PROJECTIVE: "PA",
    AcceleratorKind.LINEAR_EXTENSION: "LA",
}


def algorithm_label(operator, accelerator) -> str:
    """Short display name for an operator/accelerator pairing (VI, PAVI, ...)."""
    return _ACCEL_PREFIX[AcceleratorKind(accelerator)] + _BASE_LABEL[OperatorKind(operator)]
