"""Acceleration operators for descending value iteration.

Both operators take a point that dominates its own one-step backup and
move it as far toward the fixed point as a single closed-form scan over
all (state, action) rows allows:

* the projective operator scales the point: it finds the smallest factor
  ``alpha`` in [0, 1] such that ``alpha * v`` still dominates its backup,
  which requires nonnegative rewards;
* the linear-extension operator extrapolates along the ray from the
  current point through a second dominating point (normally its backup):
  it finds the largest step ``alpha >= 1`` that keeps the extended point
  dominating.

Each scan costs one pass over the rows and no new weighted-sums pass: the
sums of the accelerated point follow from the inputs' sums by linearity
(``sums(alpha * v) = alpha * sums(v)``, and affine combinations likewise).
Each step applies the factor its scan finds as it stands: ``z = alpha *
v``, or ``z = v + alpha * (u - v)``.

Dominance is always judged by ``operators.is_feasible``, the one-step
backup of the shared row-value kernel.  When enabled, membership checks
validate the preconditions (inputs dominate their backups) from the sums
already in hand, and validate the output with one screened weighted-sums
pass; a failed output check falls back to the safe input point and flags
the step instead of raising.

The screen (``_rows_to_check``) bounds every row's one-step value at the
output from the kernel sums at the step's input, the sums the step
already holds, starting from the row values the input's membership test
formed from them, and takes fresh sums only for the rows whose bound the
membership tolerance cannot clear: about 0.1-0.6% of the rows on the
benchmark models.  The bound covers the rounding of both values
(``operators.row_value_error``), so the verdict, and with it every
fallback and iterate, is the all-rows one bit for bit.  Every row is
checked when the input's sums were derived by linearity, when a point is
not finite, or when the model has a negative probability.

The projective scan and step also take ``operators.ScreenedSums``, which
bound every row's sum and hold exact sums only for the rows asked for.
The scan then takes exact sums only for the rows whose bounds leave their
slack's sign unsure or let them reach the largest ratio
(``_rows_to_scan``), and the output check's screen starts
from the upper bounds of the input's row values; all-rows sums are the
zero-width case of that screen.  The results are the all-rows ones bit
for bit.

A checked step therefore costs one screened sums pass, for its output,
and one one-step backup per point it tests: the projective step tests
its input and the screened rows of its output; the linear extension
tests ``v``, ``u`` and its output's screened rows.  All-rows sums hold
the one-step backup once it is formed, so the test of a point whose sums
a backup already read forms nothing new.  The scans spread per-state
values over the rows with ``np.repeat`` over ``MdpModel.row_counts``,
and from all-rows sums divide only the rows that can bound the step,
with one masked ``np.divide``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import MdpModel
from .operators import (
    ScreenedSums,
    WeightedSums,
    _membership_tol,
    is_feasible,
    one_step_row_values,
    require_sums,
    row_value_error,
    sup_norm,
    weighted_sums,
)

# the extension's degeneracy test only; both scans test their rows against zero
RATIO_GUARD_SCALE = 1e-12
# ceiling of the linear-extension step factor
ALPHA_CAP = 1e12


class FeasibilityError(ValueError):
    """An input point does not dominate its own backup."""


class AlreadyConvergedError(ValueError):
    """The two points of an extension scan coincide to working precision."""


@dataclass(frozen=True)
class AlphaResult:
    """Outcome of one acceleration scan.

    Attributes:
        alpha: the step factor found by the scan.
        binding: (state, action) of the row that pinned ``alpha``, or None
            when no row was binding.
        fallback_used: True when the scan or its output check hit a
            degenerate case and the step was replaced by a safe one.
    """

    alpha: float
    binding: tuple[int, int] | None = None
    fallback_used: bool = False


@dataclass
class AccelStep:
    """An accelerated point with its propagated weighted sums."""

    point: np.ndarray
    sums: WeightedSums
    alpha: AlphaResult


def _row_location(m: MdpModel, row: int) -> tuple[int, int]:
    state = int(m.row_state[row])
    return state, int(row - m.state_ptr[state])


def projective_alpha(m, v, sums=None, check_membership=True) -> AlphaResult:
    """Smallest scale factor keeping ``alpha * v`` above its own backup.

    For each row the constraint is ``alpha * (v_i - discount * s_i) >=
    reward``; with nonnegative rewards and a dominating ``v`` every row's
    slack ``q = v_i - discount * s_i`` is at least its reward, so the scan
    reduces to ``alpha = max reward / q`` over rows, clamped into [0, 1].

    Rows with no positive slack impose nothing when their reward is zero;
    such a row with a positive reward contradicts dominance, and the scan
    answers with a flagged ``alpha = 1`` (keep the point).

    From ``ScreenedSums`` only the rows ``_rows_to_scan`` keeps take exact
    slacks; the others can neither be tight nor attain the maximum ratio,
    so the result is the all-rows one bit for bit.

    Raises:
        FeasibilityError: negative rewards, or (with checks enabled) a
            ``v`` that does not dominate its backup.
    """
    if m.num_rows and float(m.rewards.min()) < 0.0:
        raise FeasibilityError(
            "projective scaling needs nonnegative rewards; shift rewards first"
        )
    s = require_sums(m, v, sums)
    norm = sup_norm(v)
    if check_membership and not is_feasible(m, v, tol=_membership_tol(norm), sums=s):
        raise FeasibilityError("point does not dominate its one-step backup")
    spread = v.repeat(m.row_counts)
    if isinstance(s, ScreenedSums):
        rows = _rows_to_scan(m, spread, s)
        q = spread[rows] - m.discount * s.take(m, rows)
        rewards = m.rewards[rows]
    else:
        rows, q, rewards = None, spread, m.rewards
        q -= m.discount * s.values
    tight = q <= 0.0
    if tight.any():
        if (tight & (rewards > 0.0)).any():
            return AlphaResult(alpha=1.0, binding=None, fallback_used=True)
        # a row left out is not tight
        if q.size == m.num_rows and tight.all():
            return AlphaResult(alpha=0.0, binding=None)
    ratios = np.divide(rewards, q, out=np.full(q.size, -np.inf), where=~tight)
    k = int(ratios.argmax())
    alpha = min(1.0, max(0.0, float(ratios[k])))
    return AlphaResult(alpha=alpha, binding=_row_location(m, k if rows is None else int(rows[k])))


def _rows_to_scan(m, spread, s) -> np.ndarray:
    """The ascending rows whose exact slack the projective scan needs from ``s``.

    ``spread`` is ``v`` spread over the rows.  A row's slack ``q = v_i -
    discount * s`` falls as its sum rises, so the sums' bounds bound it,
    and a row whose lower bound is positive is surely not tight.
    Among those rows, whose ratio ``reward / q`` is bounded the same way,
    the largest lower bound is a floor under the scan's maximum; a row
    whose upper bound falls short of it can neither attain nor tie it.
    Every other row is kept, so the tight-row rules, the maximum ratio and
    the first row attaining it are the all-rows ones.
    """
    lo, hi = s.bounds()
    q_lo = spread - m.discount * hi
    loose = q_lo > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio_lo = m.rewards / (spread - m.discount * lo)
        reach = m.rewards / q_lo
    if not loose.all():
        ratio_lo[~loose] = -np.inf
        reach[~loose] = np.inf
    return np.flatnonzero(reach >= ratio_lo.max())


def linear_extension_alpha(m, v, u, sums_v=None, sums_u=None, check_membership=True) -> AlphaResult:
    """Largest step along ``v + alpha * (u - v)`` that keeps dominance.

    Requires both endpoints to dominate their own backups; any such ``u``
    works as the direction point, not only the exact backup of ``v``.  Per
    row the extended point stays dominating while ``c + alpha * d >= 0``
    with ``c = v_i - reward - discount * s^v_i`` (nonnegative by
    dominance of ``v``) and ``d = (u - v)_i - discount * (s^u_i -
    s^v_i)``.  Every row with ``d`` negative bounds the step; the smallest
    ``c / -d`` over them is the answer, floored at 1 (the point ``u``
    itself is always admissible), so a row whose ``d`` is rounding noise
    can only shorten the step.  When no row bounds the step the result is
    ``ALPHA_CAP`` with the fallback flag set.

    Raises:
        AlreadyConvergedError: ``|u - v| <= RATIO_GUARD_SCALE * (1 + |v|)``.
        FeasibilityError: with checks enabled, an endpoint that does not
            dominate its backup.
    """
    norm = sup_norm(v)
    direction = u - v
    if sup_norm(direction) <= RATIO_GUARD_SCALE * (1.0 + norm):
        raise AlreadyConvergedError("direction point coincides with the current point")
    sv = require_sums(m, v, sums_v)
    su = require_sums(m, u, sums_u)
    if check_membership:
        if not is_feasible(m, v, tol=_membership_tol(norm), sums=sv):
            raise FeasibilityError("current point does not dominate its one-step backup")
        if not is_feasible(m, u, sums=su):
            raise FeasibilityError("direction point does not dominate its one-step backup")
    c = v.repeat(m.row_counts)
    c -= m.rewards
    c -= m.discount * sv.values
    # -d, the exact negation of d: the rows with -d positive bind
    neg_d = su.values - sv.values
    neg_d *= m.discount
    neg_d -= direction.repeat(m.row_counts)
    binding = neg_d > 0.0
    if not binding.any():
        return AlphaResult(alpha=ALPHA_CAP, binding=None, fallback_used=True)
    ratios = np.divide(c, neg_d, out=np.full(m.num_rows, np.inf), where=binding)
    row = int(ratios.argmin())
    alpha = max(1.0, float(ratios[row]))
    if alpha >= ALPHA_CAP:
        return AlphaResult(alpha=ALPHA_CAP, binding=_row_location(m, row), fallback_used=True)
    return AlphaResult(alpha=alpha, binding=_row_location(m, row))


def _rows_to_check(m, z, p, p_sums):
    """The rows of ``z``'s membership check that a rounding bound cannot clear.

    ``p_sums`` are the sums at the step's input point ``p``.  In exact
    arithmetic, with no negative probability and a row sum within ``rho``
    (``MdpModel.row_sum_deviation``) of 1, every row's value moves from
    ``p`` to ``z`` by ``discount * sum_j p(k, j) * (z - p)_j``, at most
    ``discount * (D + |D| * rho)`` with ``D = max(z - p)``.  A computed row
    value lies within ``e = row_value_error(m, max(|z|, |p|))`` of the
    exact one, so row ``k`` of state ``i`` passes the check at ``z`` when

        fl(r_k + discount * s_k(p)) + discount * (D + |D| * rho) + 10 * e

    is at most ``z_i + tol``.  ``2e`` covers the two computed values, and
    ``8e`` the rounding of this bound's own evaluation: about a dozen
    operations on magnitudes below ``3K``, where ``K`` is the scale
    ``row_value_error`` multiplies and ``e >= 2uK``.  Returns the ascending
    indices of the other rows, or
    None when every row needs fresh sums: sums at ``p`` derived by
    linearity, a negative discount, or a bound that is not finite
    (non-finite points or a negative probability).
    """
    if not (p_sums.from_kernel and m.discount >= 0.0):
        return None
    z_norm = sup_norm(z)
    delta = float((z - p).max())
    e = row_value_error(m, max(z_norm, sup_norm(p)))
    margin = m.discount * (delta + abs(delta) * m.row_sum_deviation) + 10.0 * e
    if not math.isfinite(margin):
        return None
    if isinstance(p_sums, ScreenedSums):
        bound = p_sums.one_step_upper(m) + margin
    else:
        # the precondition check on p formed these row values; they are read, not rebuilt
        bound = one_step_row_values(m, p_sums) + margin
    # z + tol as is_feasible forms it, tol = membership_tolerance(z)
    return np.flatnonzero(bound > (z + _membership_tol(z_norm)).repeat(m.row_counts))


def _checked(m, z, zsums, fallback_point, fallback_sums, alpha, check):
    """Validate an accelerated point; swap in the fallback when it fails.

    The check takes fresh sums at ``z`` only for the rows that
    ``_rows_to_check`` cannot clear from the sums at ``fallback_point``,
    the step's input, and its verdict is the all-rows one bit for bit.
    """
    if check:
        fresh = weighted_sums(m, z, rows=_rows_to_check(m, z, fallback_point, fallback_sums))
        if not is_feasible(m, z, sums=fresh):
            safe = fallback_point.copy()
            return AccelStep(
                point=safe, sums=replace(fallback_sums, base=safe),
                alpha=AlphaResult(alpha.alpha, alpha.binding, fallback_used=True),
            )
    return AccelStep(point=z, sums=zsums, alpha=alpha)


def apply_projective(m, v, sums=None, check_membership=True) -> AccelStep:
    """Scale ``v`` toward the fixed point; returns point, sums, and scan info."""
    s = require_sums(m, v, sums)
    res = projective_alpha(m, v, sums=s, check_membership=check_membership)
    z = res.alpha * v
    return _checked(m, z, s.scaled(res.alpha, z), v, s, res, check_membership)


def apply_linear_extension(m, v, u, sums_v=None, sums_u=None, check_membership=True) -> AccelStep:
    """Extend from ``v`` through ``u``; returns point, sums, and scan info.

    A failed output check falls back to ``u`` (already a valid descent).
    """
    sv = require_sums(m, v, sums_v)
    su = require_sums(m, u, sums_u)
    res = linear_extension_alpha(m, v, u, sums_v=sv, sums_u=su, check_membership=check_membership)
    z = v + res.alpha * (u - v)
    zvalues = su.values - sv.values
    zvalues *= res.alpha
    zvalues += sv.values
    zsums = WeightedSums(values=zvalues, base=z, from_kernel=False)
    return _checked(m, z, zsums, u, su, res, check_membership)
