"""Value-iteration driver with optional acceleration.

One iteration of the driver is one backup of the current iterate under
the configured operator, followed (when the run is accelerated and not
yet converged) by one acceleration step.  Iteration counts reported by
the driver are therefore backup counts, directly comparable across plain
and accelerated runs.  One object owns a run (``_Loop``): its iterate,
the sums it carries, the model of its live rows, and the record of its
steps (the residual, the scan outcome and, when asked, the iterate),
which each step appends once its guard has passed; ``solve`` reads the
result off it.

The driver keeps the weighted-sums bookkeeping exact: per iteration it
performs exactly one fresh weighted-sums pass — at the new backup — and
derives every other sums vector it needs by linearity (scaling for the
projective step, affine combination for the linear extension).  The
in-place sweep operators compute their per-state sums inside the sweep;
combined with the linear extension they carry the current iterate's sums
from the previous iteration's affine combination, so the one-pass budget
holds for every operator/accelerator pairing.  Membership checks, when
enabled, test the accelerated point from the sums it carries, and take
fresh sums only for the rows whose carried value a rounding margin
cannot clear, none on the benchmark models (``accelerators``, output
check); disabling them removes their cost without changing the iterate
sequence.

Screened sums.  Projective runs of a simultaneous backup on models with
at least ``SCREEN_MIN_ROW_NNZ`` stored entries per row and
``SCREEN_MIN_ROWS_PER_STATE`` rows per state, on average, carry
``operators.ScreenedSums`` instead: the sums at the start and at each new
backup ``u`` are bounds drifted from the sums at ``w``
(``operators.drifted_sums``), with no kernel pass, and the backup, the
precondition test, the scan, the output check and the final policy each
take exact sums, through ``weighted_sums`` over some rows, only for the
rows their bounds cannot settle; the backup and the policy reduce over
the rows that can still win alone, and a first scan whose candidates
would take the all-rows pass takes them by descending upper ratio until
the best exact ratio stops it (``accelerators._ordered_scan``).  Every
iterate, residual, step factor and policy is the all-rows one bit for
bit.  The linear extension keeps
all-rows sums: its carried sums are an affine recursion over every past
kernel sum, which a row skipped once cannot rejoin bit for bit.

Backups per iteration.  Every iteration runs one backup ``u = T(w)`` of
the configured operator.  With membership checks an accelerated
iteration adds the one-step backups its dominance tests need, all from
sums already in hand: one of the scan's input point (``u`` for both
accelerators) and one of the accelerated point ``z``, from its carried
sums, which the output check forms (``accelerators``, output check).
With the ``standard`` operator the next iteration's backup of ``z``
reads that one.  When the carried sums alone pass it, the verdict is
held on them, and the linear extension's test of its current iterate
``w``, the previous step's ``z``, reads it; otherwise, with the
``standard`` operator, that test reads the backup ``u`` that ``w``'s
sums already hold.  A falling run (below) also certifies ``u``'s test
from what it holds (``accelerators``, certificates), by a verdict held
on ``u``'s sums from the bound ``T~(u) <= u + c * max(u - w, 0) + 2 *
row_value_error + discount * drift`` (``_backup_excess``), which the
loop hands ``certify_membership`` before the step, with ``drift`` the
drift the sums of ``w`` hold (``operators.sums_drift``).  A falling
iteration forms that drift and its bound ``sup_norm(w) + 2 * residual``
on ``|w|``, ``|u|`` and ``|u - w|`` once, and the certificate, the guard
and the drop test (below) read them.  So a checked
falling iteration forms one full one-step backup, takes no validation
pass, and compares only the state maxima of ``z``; where the certificate
fails, ``u``'s test forms one more backup.  Without checks the step adds
neither passes nor backups to the sums pass at ``u`` and the loop's own
backup.  The loop hands the extension the direction ``u - w`` it formed
for the residual and the residual, its sup norm, and a falling run's
guard reads the sup norms of ``w`` and of the new iterate from the sums
carried to them, where the output check, if any, formed it.  So an
iteration forms each of its vectors, differences and sup norms once, and
its fixed costs set its price once elimination has compacted the model
(README, action elimination, for the measured costs; the ``tail`` line
of ``tools/step_costs.py``).

Action elimination.  A plain run of the standard backup on a discounted
model, with ``c = discount * (1 + rho)`` in (0, 1) where ``rho`` is the
model's ``row_sum_deviation``, stops summing the rows that can never
again attain their state's maximum once its first backup rises
everywhere (the test of MacQueen, 1967, and Porteus, 1971; Puterman,
Markov Decision Processes, 1994, section 6.7.2).  No probability is
negative and every rounded operation is monotone, so the computed backup
``T~`` is monotone, and from ``w <= T~(w)`` every later computed iterate
rises.  Take an iterate ``w``, its backup ``u = T~(w)`` and residual
``res = max(u - w)``, let ``e`` bound the rounding of a row value at any
later iterate (``row_value_error``), and let ``D = (res + 2e) / (1 -
c)``.  Every later iterate ``x`` lies in ``[w, w + D]``: by induction,
``T~(x) <= T(x) + e <= T(w) + c * D + e <= u + c * D + 2e <= w + D``,
with ``T`` the exact backup of the stored numbers, which a rise of its
argument by at most ``D`` raises by at most ``c * D``.  So a row whose
one-step value at ``w`` is ``q`` is worth at most ``q + c * D + 2e`` at
every later iterate, whose state maximum is at least ``u``.  A row with
``q + slack < u``, ``slack = c * D + 2e``, is therefore strictly below
its state's maximum in every later backup, and leaving it out moves no
iterate, residual, tie-break or greedy policy.  ``e`` is taken at twice
``sup_norm(w) + res / (1 - c)``, which bounds every later iterate's
norm ``sup_norm(w) + D`` unless ``e`` is of the order of the iterates
themselves; then, or when the slack is not finite, nothing is dropped.
The surplus of ``e`` at twice the norm also covers the rounding of the
slack's own few operations.  The test reads the one-step row values
that the backup's sums already hold.  The loop iterates on a model of
its live rows (``_rows_model``), rebuilt only when they fall to half of
the rows it holds or to one per state, after which it stops testing;
rows dropped in between are still summed, and cannot win.  At a rebuild
the carried sums are cut to the kept rows elementwise, which moves no
bit.

Falling runs.  A projective or linear-extension run of the standard
backup on such a model, on all-rows sums (not ``screens_sums``), checked
or not, drops rows too.  From a dominating start it falls toward the
fixed point ``v*``: every point ``y`` a checked run checks has ``y >=
T~(y) - tol``, so ``y >= v* - (tol + e) / (1 - c)``, and on every
measured model an unchecked run takes the checked run's steps (see
``solve``).  After an accelerated iteration from ``w`` it may test the
row values that ``w``'s backup ``u`` read against the MacQueen lower
bound ``L = u + k * min(min(u - w), 0) <= v*``, ``k = c / (1 - c)``,
which holds from any ``w``, and drop for good each row with ``q < L -
margin``.  The margin (``_fall_margin``) covers the tolerance, the
rounding and the drift of the held sums at every later checked point,
scaled by ``1 / (1 - c)``, so a dropped row stays below each later state
maximum unless the iterates rise past it.

That argument only sizes the margin; a guard checked at run time makes
the result exact.  A row's exact value moves from ``x`` to ``y`` by at
most ``c * max(y - x, 0)`` upward, so the loop keeps per state a bound
on every dropped row's exact value at the iterate: the largest dropped
``q`` plus its error (``row_value_error`` and ``discount`` times the
drift of the sums it was read from), raised by ``c`` times each later
rise of the iterate.  A checked iteration from ``w`` reads rows at ``w``
(the backup and the linear extension's precondition test), at ``u`` (its
precondition test) and at the step's point ``z`` (the scan and the
output check).  An unchecked one reads rows only at ``w`` (the backup,
and the extension's slacks) and at ``u`` (the scan), with no
precondition test or output check; the guard below covers those reads
from any start, dominating or not.  A dropped row changes none of them
while its value bound, raised by ``c`` times the rise of ``u`` and ``z``
over ``w``, lies below ``min(u, z)`` by more than ``_read_error``: the
projective ratio ``r / (u_i - discount * s)`` stays below the step
factor ``alpha`` exactly when the row's value at ``alpha * u`` stays
below ``alpha * u_i``, and the extension's ratio of a row's slack at
``w`` to its fall along the ray stays above ``alpha`` exactly when the
row's value at ``w + alpha * (u - w)`` stays below that point;
``_read_error`` bounds the rounding of those per-row tests and of the
values, and the drift of the sums, ``max(alpha, 1)`` times over; its
surplus covers the rounding of the guard's own few operations.  A
projective run from a nonnegative start takes ``z`` for ``min(u, z)``,
and no rise of ``z`` where ``u`` does not rise: its rewards are
nonnegative (the scan refuses others), so every backup of a nonnegative
point is nonnegative, and the rounded product ``alpha * u`` with
``alpha`` in [0, 1] is at most ``u``.
The projective step's scaled sums drift by ``sum_error``; the linear
extension's carried sums, an affine recursion, by ``(alpha - 1) * E +
alpha * (sum_error + rounding)`` from the previous drift ``E``.  Each
step records that bound on the sums it forms (``WeightedSums.drift``),
and the guard reads it from the sums of ``w``.  The guard also fails on
a step that falls back or whose scan finds no binding row.  When it fails,
``solve`` runs the config again from the start on every row, the
all-rows run by construction, and reports that run's steps.  A step on
the live rows renumbers its binding row into the model's numbering from
the rows it ran on.

When to test.  A rising or falling run tests only at a backup whose
residual is at most ``_RETEST_FALL`` times the residual at its last
test; the first backup that may test does.  Both cuts shrink with the
residual, so a test soon after the last one rarely drops a row.  A
skipped test only delays a drop, and a delay moves no iterate: a rising
run's argument holds for a test at any ``w`` of the run, a row not yet
dropped is summed and read exactly as in the all-rows run, and a
falling run's guard still runs at every iteration.

Every other run sums every row: a plain run whose first backup does not
rise everywhere, a screened accelerated run (whose sums are bounds), and
every Jacobi, sweep or total-reward run.

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
import scipy.sparse as sp
# the kernel behind row_matrix[rows]; tests pin it to that public form
from scipy.sparse._sparsetools import csr_row_index

from .accelerators import (
    AlphaResult,
    AlreadyConvergedError,
    apply_linear_extension,
    apply_projective,
)
from .model import (
    UNIT_ROUNDOFF,
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
    _all,
    _any,
    _membership_tol,
    apply_operator,
    certify_membership,
    check_fit,
    drifted_sums,
    extract_policy,
    is_feasible,
    one_step_row_values,
    row_value_error,
    sums_drift,
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
        membership_checks: validate acceleration pre/postconditions; the
            output is tested from its carried sums, with fresh sums only
            for the rows a rounding margin cannot clear, and a falling
            run certifies the precondition by a verdict held on its sums,
            so it takes no pass and its tests form one backup, at the
            output, which the next backup reads.
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
    ``rows_eliminated`` counts the rows a standard run on a discounted
    model certified out of every later backup, plain or accelerated on
    all-rows sums, checked or not (see the module doc); it is 0 on every
    other path, and after a guard failure reran the solve on every row.
    ``guard_failed_at`` is then the backup (counted from 1) at which the
    first run's guard failed, and None when no guard failed.
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
    rows_eliminated: int = 0
    guard_failed_at: int | None = None
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
# PAVI (median of seeds 100-102, min of 5, 45-56 actions per state, one
# BLAS thread, 2-CPU x86-64 guest; entries per row in brackets; all-rows
# ``standard`` runs drop rows):
#   uniform dense, 40 states, discount 0.995 (40):  1.04 / 1.39 / 0.96
#   uniform dense, 50 states (50):                  0.97 / 1.05 / 0.80
#   uniform dense, 60 states (60):                  0.87 / 0.85 / 0.69
#   uniform dense, 80 states, dense-pa (80):        0.75 / 0.61 / 0.56
#   band 120 states, discount 0.995 (29, band-vi):  3.00 / 1.01 / 2.57
#   band 120 states (53):                           1.70 / 0.70 / 1.43
#   uniform 100 states, discount 0.9 (50):          0.98 / 0.79 / 0.77
# The smallest count at which no measured model ran slower is 60.
SCREEN_MIN_ROW_NNZ = 60
# ... and with at least this many rows per state, on average: a screened
# backup takes one row per state at the least, so with few rows it pays the
# bounds and still sums nearly every row.  Same measure, uniform dense
# models, discount 0.995, seed 100, min of 5 toggling the rule, median of 3
# (rows per state in brackets):
#   100 states, 2-4 actions (3.1):    1.81 / 1.94 / 1.62
#   200 states, 2-4 actions (3.1):    1.87 / 1.54 / 1.60
#   500 states, 2-4 actions (3.0):    1.84 / 1.10 / 1.48
#   1000 states, 2-4 actions (3.0):   1.93 / 1.04 / 1.36
#   200 states, 3-6 actions (4.6):    1.19 / 0.93 / 0.97
#   500 states, 3-6 actions (4.4):    1.08 / 0.66 / 0.81
#   100 states, 5-12 actions (8.8):   1.18 / 1.29 / 0.96
#   200 states, 5-12 actions (8.7):   0.83 / 0.63 / 0.66
#   100 states, 9-17 actions (13.0):  1.00 / 1.02 / 0.80
#   100 states, 10-20 actions (15.3): 0.87 / 0.90 / 0.68
#   100 states, 45-56 actions (50.7): 0.63 / 0.47 / 0.51
# Below 4 no measured model gained; from 4 up the sign follows the model's
# size.
SCREEN_MIN_ROWS_PER_STATE = 4


def screens_sums(m: MdpModel, config: SolverConfig) -> bool:
    """Whether a run of ``config`` on ``m`` carries screened sums."""
    return (
        config.accelerator is AcceleratorKind.PROJECTIVE
        and not sweep_carries_state(config.operator)
        and m.probs.size >= SCREEN_MIN_ROW_NNZ * m.num_rows
        and m.num_rows >= SCREEN_MIN_ROWS_PER_STATE * m.num_states
    )


# A run that drops rows tests for them only once the backup residual has
# fallen to this share of its value at the last test (module doc).  Drop
# tests per run, and kernel entries summed over testing at every backup,
# VI / checked PAVI / checked LAVI on band-vi's shape (seeds 100-102, rows
# eliminated equal throughout):
#   every backup:  2,905-3,990 / 420-480 / 1,090-1,799 tests
#   0.9:   134-183 / 146-164 / 156-162 tests,  0.995-1.001 / 0.980-0.998 / 0.992-0.999
#   0.75:  52-70 / 57-62 / 62-64 tests,        0.997-1.005 / 0.999-1.095 / 0.998-1.054
#   0.5:   22-30 / 26-27 / 27-28 tests,        1.023-1.032 / 1.083-1.188 / 1.033-1.048
# At 0.9 dense-pa's and sparse-gs's shapes summed at most 1.5% and 0.7%
# more entries; at 0.5, up to 11.9% and 4.9%.
_RETEST_FALL = 0.9


def _elimination_slack(m: MdpModel, w_norm: float, residual: float) -> float:
    """How far below its state's backup a row's one-step value at ``w`` must lie to be dropped for good.

    ``w_norm`` is ``sup_norm(w)`` and ``residual`` is ``max(T~(w) - w)``
    of a run whose iterates rise; the bound is the module doc's ``c * D +
    2e``.  Returns inf, which drops nothing, when ``e`` is not taken at a
    norm that bounds every later iterate, or when any term is not finite.
    """
    c = m.discount * (1.0 + m.row_sum_deviation)
    norm = 2.0 * (w_norm + residual / (1.0 - c))
    e = row_value_error(m, norm)
    reach = (residual + 2.0 * e) / (1.0 - c)
    if not w_norm + reach <= norm:
        return math.inf
    return c * reach + 2.0 * e


def _fall_margin(m: MdpModel, c: float, norm: float, drift: float) -> float:
    """How far below the MacQueen lower bound a falling run's row must lie to be dropped.

    ``norm`` bounds the points of the test and ``drift`` the distance of
    the held sums from the kernel sums.  The margin covers, at every later
    point the run reads its rows at, the membership tolerance, the rounding
    of the row values and the drift, each scaled by ``1 / (1 - c)`` as a
    checked point's distance below the fixed point is (module doc).  Inf
    when a term is not finite.
    """
    e = row_value_error(m, norm) + m.discount * drift + 16.0 * UNIT_ROUNDOFF * norm
    return 2.0 * (_membership_tol(norm) + 4.0 * e) / (1.0 - c)


def _read_error(m: MdpModel, alpha: float, drift: float, norm: float) -> float:
    """How far a dropped row must stay below the points of one falling iteration (module doc)."""
    return max(alpha, 1.0) * (
        2.0 * m.discount * drift + 4.0 * row_value_error(m, norm) + 64.0 * UNIT_ROUNDOFF * norm
    )


def _backup_excess(m: MdpModel, c: float, up: float, norm: float, drift: float) -> float:
    """A bound on ``T~(u) - u`` for a falling run's backup ``u = T~(w)`` (module doc).

    ``up`` is ``max(u - w, 0)``, ``norm`` bounds ``|w|`` and ``|u|``, and
    ``drift`` the distance of ``w``'s held sums from its exact sums.  The
    backup ``u`` rounds each row value twice from the held sums, against
    the ``N + 2`` roundings ``row_value_error`` allows, and that surplus
    covers the rounding of ``up``, which is exact where ``u <= w``: a
    rounded difference keeps its sign.
    """
    return c * up + 2.0 * row_value_error(m, norm) + m.discount * drift


def _rows_model(m: MdpModel, rows: np.ndarray) -> MdpModel:
    """``m`` with only the ascending ``rows``, at least one of every state.

    The kept rows' entries are copied in order by scipy's row-copy kernel
    (``csr_row_index``, the kernel behind ``row_matrix[rows]``), in the row
    matrix's own index dtype, so each kept row's weighted sum is ``m``'s
    bit for bit.  The copy's row matrix is built from those arrays and set
    as its view, so the model does not build it again.  ``m``'s
    ``row_sum_deviation`` bounds the kept rows too, and is set as the
    copy's, so no pass measures it again.
    """
    csr = m.row_matrix
    indptr, indices = csr.indptr, csr.indices
    picked = rows.astype(indices.dtype)
    row_ptr = np.zeros(len(rows) + 1, dtype=indices.dtype)
    np.cumsum(indptr[picked + 1] - indptr[picked], out=row_ptr[1:])
    cols, probs = np.empty(row_ptr[-1], dtype=indices.dtype), np.empty(row_ptr[-1])
    csr_row_index(len(picked), picked, indptr, indices, csr.data, cols, probs)
    kept = sp.csr_matrix((probs, cols, row_ptr), shape=(len(rows), m.num_states))
    state_ptr = np.zeros(m.num_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(m.row_state[rows], minlength=m.num_states), out=state_ptr[1:])
    out = MdpModel(num_states=m.num_states, discount=m.discount, mode=m.mode, state_ptr=state_ptr,
                   rewards=m.rewards[rows], row_ptr=row_ptr, cols=kept.indices, probs=kept.data)
    out._views["row_matrix"] = kept
    out._views["row_sum_deviation"] = m.row_sum_deviation
    return out


class _Rerun(Exception):
    """A falling run cannot certify that the rows it dropped changed nothing."""


class _Loop:
    """One run: the current iterate, its carried sums and the record of every step taken.

    ``residuals``, ``alphas`` and, when the config records iterates,
    ``iterates`` (the start first, each less ``correction``) hold one entry
    per step that returned; a step that raises ``_Rerun`` records nothing.
    """

    def __init__(self, solve_model, config, start, threshold, eliminate=True, correction=0.0):
        self.m = solve_model
        self.config = config
        self.w = start
        self.threshold = threshold
        self.correction = correction
        self.residuals, self.alphas = [], []
        self.iterates = [start - correction] if config.record_iterates else None
        self.sweep = sweep_carries_state(config.operator)
        self.accelerated = config.accelerator is not AcceleratorKind.NONE
        self.linear = config.accelerator is AcceleratorKind.LINEAR_EXTENSION
        self.carry_sums = not self.sweep or self.linear
        self.screened = screens_sums(solve_model, config)
        # the model the simultaneous backups run on: solve_model, or its live rows
        self.work = solve_model
        self.eliminates = (
            eliminate
            and not self.screened
            and config.operator is OperatorKind.STANDARD
            and solve_model.mode is RewardMode.DISCOUNTED
            and 0.0 < solve_model.discount * (1.0 + solve_model.row_sum_deviation) < 1.0
        )
        # accelerated runs fall toward the fixed point; plain runs may rise
        self.falling = self.eliminates and self.accelerated
        self.held = self.live = None  # the work model's rows in solve_model, and which are live
        # falling runs: every row dropped from state i is worth at most bound[i] + c * rise at w
        self.bound = None
        self.rise = 0.0
        if self.eliminates:
            self.c = solve_model.discount * (1.0 + solve_model.row_sum_deviation)
            # the residual at the last drop test: the first eligible backup tests
            self.tested_at = math.inf
        if self.falling:
            # a projective run from a nonnegative start: every iterate and backup is nonnegative
            self.nonnegative = not self.linear and bool(start[start.argmin()] >= 0.0)
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

    @property
    def rows_eliminated(self) -> int:
        return 0 if self.live is None else self.m.num_rows - int(np.count_nonzero(self.live))

    def eliminate(self, w, u, d, residual, sums_w, norm, drift) -> None:
        """Drop the rows that can no longer attain their state's maximum (module doc).

        ``d = u - w``, ``residual`` its sup norm, and ``sums_w`` the sums
        the backup ``u`` of ``w`` read, which hold the row values tested.  A
        falling run passes its step's bound ``norm`` on ``|w|``, ``|u|`` and
        ``|u - w|`` and the ``drift`` of ``sums_w``; a rising run, None.
        """
        m = self.m
        if self.live is None:
            if not (self.falling or (u >= w).all()):
                self.eliminates = False
                return
            self.held = np.arange(m.num_rows)
            self.live = np.ones(m.num_rows, dtype=bool)
        if residual > _RETEST_FALL * self.tested_at:
            return
        self.tested_at = residual
        if self.falling:
            e = row_value_error(m, norm) + m.discount * drift
            # below the MacQueen lower bound u + k * min(d) by the margin
            k = self.c / (1.0 - self.c)
            cut = _fall_margin(m, self.c, norm, drift) - k * min(d.item(d.argmin()), 0.0)
        else:
            cut = _elimination_slack(m, sup_norm(w), residual)
        work = self.work
        q = one_step_row_values(work, sums_w)
        low = q < np.repeat(u - cut, work.row_counts)
        if self.falling:
            if not _any(low):
                return
            worth = np.maximum.reduceat(np.where(low, q, -np.inf), work.state_ptr[:-1])
            worth += e - self.c * self.rise
            self.bound = worth if self.bound is None else np.maximum(self.bound, worth)
        self.live[low] = False
        live = int(np.count_nonzero(self.live))
        if live < len(self.live) and (2 * live <= len(self.live) or live == m.num_states):
            keep = self.live
            self.held = self.held[keep]
            self.work = _rows_model(m, self.held)
            if self.falling:
                # the sums carried into the next step, cut elementwise: no kept row's sum moves
                sums = self.sums
                self.sums = WeightedSums(sums.values[keep], sums.base, from_kernel=sums.from_kernel,
                                         drift=sums.drift, _norm=sums._norm)
            self.live = np.ones(live, dtype=bool)
        self.eliminates = live > m.num_states

    def follow(self, w, u, d, residual, up, alpha, sums_w, norm, drift) -> None:
        """Guard a falling run's dropped rows over one iteration from ``w``, then test for more.

        ``up`` is ``max(d, 0)``; ``alpha`` is the step's scan outcome, None
        when the iteration took no step; the new iterate is ``self.w``.
        ``norm`` and ``drift`` are the step's bounds (``eliminate``).

        Raises:
            _Rerun: the guard cannot clear a dropped row at some point the
                iteration read its rows at.
        """
        m, z, sums = self.m, self.w, self.sums
        # z is u, w + alpha * d with alpha > 0, or alpha * u with alpha in [0, 1]: a rounded sum
        # falls where d does not rise, and a rounded product of u >= 0 is at most u
        if alpha is None or (up == 0.0 and (self.linear or self.nonnegative)):
            zup = up
        else:
            rise = z - w
            zup = max(rise.item(rise.argmax()), 0.0)
        if self.bound is not None:
            if alpha is None:
                lowest, factor = u, 1.0
            elif alpha.binding is None or alpha.fallback_used:
                raise _Rerun
            else:
                lowest, factor = z if self.nonnegative else np.minimum(u, z), alpha.alpha
            # the sums carried to z hold its norm, formed by the output check if one ran
            z_norm = sup_norm(z) if sums is None else sums.norm
            reach = self.c * (self.rise + max(up, zup)) + _read_error(m, factor, drift, max(norm, z_norm))
            if not (math.isfinite(reach) and _all(self.bound + reach < lowest)):
                raise _Rerun
        if self.eliminates and alpha is not None:
            self.eliminate(w, u, d, residual, sums_w, norm, drift)
        self.rise += zup

    def step(self) -> bool:
        """One backup and, unless it converged, one acceleration step, recorded; returns whether it converged.

        Raises:
            _Rerun: a falling run's guard failed; the step records nothing.
        """
        cfg, m, w, sums_w, work, held = self.config, self.m, self.w, self.sums, self.work, self.held
        if self.sweep:
            u = apply_operator(m, w, cfg.operator)
        else:
            u = apply_operator(work, w, cfg.operator, sums=sums_w)
        d = u - w
        # sup_norm(d), from the greatest entry, which a falling run's rise reads too
        high = d.item(d.argmax())
        residual = abs(max(high, -d.item(d.argmin())))
        up = max(high, 0.0)
        converged = residual <= self.threshold
        if self.falling:
            # bounds |w|, |u| and |u - w|, and the drift of w's sums: the step's certificate,
            # guard and drop test read them
            norm, drift = sums_w.norm + 2.0 * residual, sums_drift(m, sums_w)
        z, sums, alpha = u, None, None
        if converged or not self.accelerated:
            if self.eliminates and not converged:
                # a plain run: before the sums pass at u, so it sums only the rows left
                self.eliminate(w, u, d, residual, sums_w, None, None)
            if self.screened:
                sums = drifted_sums(m, sums_w, u)
            elif self.carry_sums and not converged:
                # on the rows left: the drop test may have rebuilt the work model
                sums = weighted_sums(self.work, u)
        else:
            sums = drifted_sums(m, sums_w, u) if self.screened else weighted_sums(work, u)
            if self.falling and cfg.membership_checks:
                # a falling run settles u's membership test from a bound (module doc)
                certify_membership(work, sums, _backup_excess(m, self.c, up, norm, drift))
            try:
                if self.linear:
                    accel = apply_linear_extension(
                        work, w, u, sums_v=sums_w, sums_u=sums, check_membership=cfg.membership_checks,
                        direction=d, direction_norm=residual,
                    )
                else:
                    accel = apply_projective(work, u, sums=sums, check_membership=cfg.membership_checks)
                z, sums, alpha = accel.point, accel.sums, accel.alpha
            except AlreadyConvergedError:
                # Residual above the stopping threshold but below the
                # scan's degeneracy guard (possible at high discount on
                # large-magnitude values): take the plain backup step.
                pass
            if alpha is not None and alpha.binding is not None and work is not m:
                # the binding row in m's numbering, from the rows the step ran on
                state, action = alpha.binding
                row = held.item(work.state_ptr.item(state) + action)
                alpha = AlphaResult(alpha.alpha, (state, row - m.state_ptr.item(state)), alpha.fallback_used)
        self.w = z
        self.sums = sums if self.carry_sums else None
        if self.falling:
            self.follow(w, u, d, residual, up, alpha, sums_w, norm, drift)
        self.residuals.append(residual)
        self.alphas.append(alpha)
        if self.iterates is not None:
            self.iterates.append(z - self.correction)
        return converged


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
    runs take the same steps (the benchmark shapes, seeds 100-109).  Nor
    do they select a path: a run drops rows or not with them on or off.
    A falling run settles its tests from certificates (module doc), which
    leave the checks a small share of its time (README).

    A falling run whose guard fails (module doc) runs again from the
    start on every row; ``wall_ms`` counts both runs, and
    ``guard_failed_at`` names the backup of the failure.

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
    guard_failed_at = None
    t0 = time.perf_counter()
    for eliminate in (True, False):
        loop = _Loop(solve_model, config, start, threshold, eliminate, correction)
        try:
            converged = any(loop.step() for _ in range(config.max_iterations))
            break
        except _Rerun:
            # the step that raised recorded nothing
            guard_failed_at = len(loop.residuals) + 1
    wall_ms = (time.perf_counter() - t0) * 1000.0

    value = loop.w.copy()
    if offset:
        value -= correction
    policy = extract_policy(solve_model, loop.w, loop.policy_sums())
    alphas = loop.alphas
    return SolveResult(
        iterations=len(loop.residuals),
        converged=converged,
        wall_ms=wall_ms,
        residuals=np.asarray(loop.residuals),
        alphas=alphas,
        fallback_count=sum(1 for a in alphas if a is not None and a.fallback_used),
        final_value=value,
        final_policy=policy,
        threshold=threshold,
        reward_offset=offset,
        rows_eliminated=loop.rows_eliminated,
        guard_failed_at=guard_failed_at,
        iterates=loop.iterates,
    )


_BASE_LABEL = {
    OperatorKind.STANDARD: "VI",
    OperatorKind.JACOBI: "J",
    OperatorKind.GAUSS_SEIDEL: "GS",
    OperatorKind.GAUSS_SEIDEL_JACOBI: "GSJ",
}

_ACCEL_PREFIX = {
    AcceleratorKind.NONE: "",
    AcceleratorKind.PROJECTIVE: "PA",
    AcceleratorKind.LINEAR_EXTENSION: "LA",
}


def algorithm_label(operator, accelerator) -> str:
    """Short display name for an operator/accelerator pairing (VI, PAVI, ...)."""
    return _ACCEL_PREFIX[AcceleratorKind(accelerator)] + _BASE_LABEL[OperatorKind(operator)]
