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

The output check (``_checked``) reads both points from their sums.  Its
screen (``_rows_to_check``) bounds every row's one-step value at the
output from the input's kernel sums, starting from the row values the
input's membership test formed from them, and takes fresh sums only for
the rows whose bound the membership tolerance, formed once for the screen
and the test, cannot clear: about 0.1-0.6% of the rows on the benchmark
models.  The bound covers the rounding of both values
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

Certificates.  A membership verdict held on a point's all-rows sums
(``WeightedSums._clears``) is the one channel by which a bound settles a
test: ``operators.is_feasible`` gives it without forming a row value.
Two bounds record it, and both rest on the exact backup ``T`` of the
stored numbers being monotone, with ``T(x) <= T(y) + c * max(x - y, 0)``
for ``c = discount * (1 + rho)`` and no negative probability, and on
``operators.row_value_error`` bounding the rounding of a computed row
value (Puterman, Markov Decision Processes, 1994, sections 6.2 and 6.6).

* The precondition at ``u = T~(w)``, the backup the caller computed from
  sums of ``w`` within ``drift`` of its exact sums: ``u`` lies within
  ``e_w = row_value_error + discount * drift`` of ``T(w)``, and the
  computed backup at ``u`` within ``e_u = row_value_error`` of ``T(u)``,
  so ``T~(u) <= u + c * max(u - w, 0) + e_w + e_u``.  The caller passes
  that bound to ``operators.certify_membership`` on the sums of ``u``
  before the step, which holds the verdict when the bound is inside
  ``u``'s tolerance; the solver's falling runs do (``solver``, falling
  runs).
* The output at ``z``, whose sums are carried by linearity and hold their
  ``drift`` from the exact sums at ``z`` (``WeightedSums.drift``).  The
  projective step's, ``alpha * s_u`` from kernel sums ``s_u``, lie within
  ``sum_error`` of them (``operators.sum_error``); the extension's,
  ``s_v + alpha * (s_u - s_v)`` from kernel sums ``s_u``, within
  ``_extended_drift``, from the drift of ``s_v``.  The kernel sums of
  ``z`` add ``sum_error``.  A row value from carried sums is then within
  ``discount`` times that of the value from kernel sums, but for rounding
  (``_output_margin``).  The state maxima of the carried one-step values,
  raised by that margin, bound every row value the all-rows test would
  form; when they stay within ``z + tol``, every row passes
  (``_output_certified``).  A step tries this certificate exactly when
  its input's sums hold their verdict, and a certified point takes no
  sums pass and no test.  The maxima stay held on ``z``'s sums, where the
  standard backup of ``z`` reads them, and so does the verdict, which the
  next extension step's test of ``z`` reads.

A bound that fails, or is not finite, records nothing and leaves its
test as without it, so every verdict, fallback and iterate is the
uncertified one bit for bit.  The output certificate forms nothing at
all when its margin is not finite.  A call whose input sums hold no
verdict tests and screens as described above.

A checked step therefore costs one screened sums pass, for its output,
and one one-step backup per point it tests: the projective step tests
its input and the screened rows of its output; the linear extension
tests ``v``, ``u`` and its output's screened rows.  All-rows sums hold
the one-step backup once it is formed, so the test of a point whose sums
a backup already read forms nothing new; they hold their point's sup
norm too (``norm``), which the tolerances, the screen and the caller
read, and the projective step's point takes its input's norm scaled.
With both certificates settled a step forms one one-step backup, at its
output ``z`` from the carried sums, which the next standard backup reads
instead of forming it, and takes no sums pass.  The extension forms ``u
- v`` once, or takes it and its sup norm from the caller, and the
difference of the sums once (``WeightedSums.less``), for the scan and
for its point and that point's sums.  A screen that clears every row
costs no kernel call and no row value.  The scans spread per-state
values over the rows with ``np.repeat`` over ``MdpModel.row_counts``;
the projective scan divides every row, masked only when some row is
tight, and the extension divides only the rows whose slope binds.  They
read single entries and extremes with ``item`` and ``argmax``/
``argmin``, a third of a full reduction's fixed cost on short vectors.
On a compacted model of about one row per state these fixed costs, not
the kernel, set the price of a step (README, action elimination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import UNIT_ROUNDOFF, MdpModel
from .operators import (
    GATHER_MAX_SHARE,
    ScreenedSums,
    WeightedSums,
    _all,
    _any,
    _membership_tol,
    _one_step_of,
    is_feasible,
    one_step_row_values,
    require_sums,
    row_value_error,
    sum_error,
    sums_drift,
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


class AlphaResult(NamedTuple):
    """Outcome of one acceleration scan.

    A named tuple: immutable, and built at a third of a frozen dataclass's
    cost, once per scan and once more where the solver renumbers its row.

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
    state = m.row_state.item(row)
    return state, row - m.state_ptr.item(state)


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
    if m.min_reward < 0.0:
        raise FeasibilityError(
            "projective scaling needs nonnegative rewards; shift rewards first"
        )
    s = require_sums(m, v, sums)
    if check_membership and not is_feasible(m, v, tol=_membership_tol(s.norm), sums=s):
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
    if _any(tight):
        if _any(tight & (rewards > 0.0)):
            return AlphaResult(alpha=1.0, binding=None, fallback_used=True)
        # a row left out is not tight
        if q.size == m.num_rows and _all(tight):
            return AlphaResult(alpha=0.0, binding=None)
        ratios = np.divide(rewards, q, out=np.full(q.size, -np.inf), where=~tight)
    else:
        ratios = rewards / q
    k = ratios.argmax()
    alpha = min(1.0, max(0.0, ratios.item(k)))
    return AlphaResult(alpha, _row_location(m, int(k) if rows is None else rows.item(k)))


def _rows_to_scan(m, spread, s) -> np.ndarray:
    """The ascending rows whose exact slack the projective scan needs from ``s``.

    ``spread`` is ``v`` spread over the rows.  A row's slack ``q = v_i -
    discount * s`` falls as its sum rises, so the sums' bounds bound it,
    and a row whose lower bound is positive is surely not tight.
    Among those rows, whose ratio ``reward / q`` is bounded the same way,
    the largest lower bound is a floor under the scan's maximum; a row
    whose upper bound, its reach, falls short of it can neither attain nor
    tie it.  Every other row is kept, so the tight-row rules, the maximum
    ratio and the first row attaining it are the all-rows ones.

    When the rows kept pass ``GATHER_MAX_SHARE`` of the rows and none may
    be tight, the share past which ``take`` would sum every row,
    ``_ordered_scan`` takes them by descending reach instead, and keeps
    only those that reach the best exact ratio.
    """
    lo, hi = s.bounds()
    q_lo = spread - m.discount * hi
    loose = q_lo > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio_lo = m.rewards / (spread - m.discount * lo)
        reach = m.rewards / q_lo
    if not _all(loose):
        ratio_lo[~loose] = -np.inf
        reach[~loose] = np.inf
        return np.flatnonzero(reach >= ratio_lo.max())
    rows = np.flatnonzero(reach >= ratio_lo.max())
    if rows.size > GATHER_MAX_SHARE * m.num_rows:
        return _ordered_scan(m, spread, s, rows, reach[rows])
    return rows


def _ordered_scan(m, spread, s, rows, reach) -> np.ndarray:
    """The ascending ``rows`` that reach the best exact ratio, their sums taken from ``s``.

    The threshold rule of Fagin, Lotem and Naor (2001).  ``reach`` bounds
    each row's ratio from above, and every row is loose.  The rows are
    taken in descending reach, in batches of ``num_states`` rows that
    double, each batch one gathered ``take``, and their exact ratios are
    formed as the scan forms them.  Once the next reach falls below the
    best exact ratio, no row left can attain or tie it, and every row whose
    ratio equals the best reaches it.  So the rows kept, in ascending order,
    give the scan the all-rows maximum and the first row attaining it.
    """
    best, size = -math.inf, m.num_states
    left, taken = np.arange(rows.size), []
    while left.size:
        if size < left.size:
            part = np.argpartition(reach[left], left.size - size)
            batch, left = left[part[left.size - size:]], left[part[:left.size - size]]
        else:
            batch, left = left, left[:0]
        picked = np.sort(rows[batch])
        q = spread[picked] - m.discount * s.take(m, picked)
        best = max(best, (m.rewards[picked] / q).max())
        taken.append(batch)
        if left.size and reach[left].max() < best:
            break
        size *= 2
    taken = np.concatenate(taken)
    out = rows[taken[reach[taken] >= best]]
    out.sort()
    return out


def linear_extension_alpha(m, v, u, sums_v=None, sums_u=None, check_membership=True,
                           direction=None, direction_norm=None) -> AlphaResult:
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

    ``direction`` is ``u - v`` when the caller has formed it, and
    ``direction_norm`` its sup norm.  Sums of ``v`` hold its sup norm, and
    the difference of the sums is held by ``sums_u`` (``WeightedSums.less``)
    for the step to form its point's sums from.

    Raises:
        AlreadyConvergedError: ``|u - v| <= RATIO_GUARD_SCALE * (1 + |v|)``.
        FeasibilityError: with checks enabled, an endpoint that does not
            dominate its backup.
    """
    norm = sums_v.norm if sums_v is not None and sums_v.base is v else sup_norm(v)
    if direction is None:
        direction = u - v
    if direction_norm is None:
        direction_norm = sup_norm(direction)
    if direction_norm <= RATIO_GUARD_SCALE * (1.0 + norm):
        raise AlreadyConvergedError("direction point coincides with the current point")
    sv = require_sums(m, v, sums_v)
    su = require_sums(m, u, sums_u)
    if check_membership:
        if not is_feasible(m, v, tol=_membership_tol(norm), sums=sv):
            raise FeasibilityError("current point does not dominate its one-step backup")
        if not is_feasible(m, u, tol=_membership_tol(su.norm), sums=su):
            raise FeasibilityError("direction point does not dominate its one-step backup")
    c = v.repeat(m.row_counts)
    c -= m.rewards
    c -= m.discount * sv.values
    # -d, the exact negation of d: the rows with -d positive bind
    neg_d = m.discount * su.less(sv)
    neg_d -= direction.repeat(m.row_counts)
    binding = (neg_d > 0.0).nonzero()[0]
    if not binding.size:
        return AlphaResult(alpha=ALPHA_CAP, binding=None, fallback_used=True)
    ratios = c[binding] / neg_d[binding]
    k = ratios.argmin()
    ratio = ratios.item(k)
    # the all-rows argmin's row, where a row that does not bind reads inf: row 0 when every ratio is inf
    row = 0 if ratio == math.inf else binding.item(k)
    alpha = max(1.0, ratio)
    if alpha >= ALPHA_CAP:
        return AlphaResult(ALPHA_CAP, _row_location(m, row), True)
    return AlphaResult(alpha, _row_location(m, row))


def _extended_drift(m: MdpModel, alpha: float, drift: float, norm: float) -> float:
    """A bound on the distance of the linear extension's carried sums from the exact sums at its point.

    The step from ``v`` through ``u`` carries ``h_z = h_v + alpha * (h_u -
    h_v)`` for the computed ``z = v + alpha * (u - v)``.  With ``S`` the
    exact sums of the stored numbers, linear, ``S(z)`` is ``(1 - alpha) *
    S(v) + alpha * S(u)`` but for the rounding of ``z``, so ``h_z - S(z)``
    is ``(1 - alpha) * (h_v - S(v)) + alpha * (h_u - S(u))`` plus the
    rounding of ``h_z`` and of ``z``.  ``drift`` bounds ``|h_v - S(v)|``;
    ``h_u`` are kernel sums, within ``e = sum_error(m, norm)`` of ``S(u)``;
    and ``norm`` bounds ``|v|``, ``|u|``, ``|z|`` and ``|u - v|``, so that
    rounding, a few operations per row on magnitudes up to ``alpha * (1 +
    rho) * norm`` and ``alpha`` times the drift, is at most ``alpha * u *
    (4 * drift + 16 * (1 + rho) * norm)``.  ``alpha >= 1``.
    """
    rounding = 4.0 * drift + 16.0 * (1.0 + m.row_sum_deviation) * norm
    return (alpha - 1.0) * drift + alpha * (sum_error(m, norm) + UNIT_ROUNDOFF * rounding)


def _output_margin(m: MdpModel, norm: float, drift: float) -> float:
    """How far the carried one-step values of ``z`` must clear ``z + tol`` to certify it.

    ``drift`` bounds the distance of ``z``'s carried sums from its exact
    sums, and ``norm`` is ``sup_norm(z)``, so the carried sums lie within
    ``error = drift + sum_error(m, norm)`` of its kernel sums.  A row value
    is ``r + discount * s`` rounded twice, about ``2u * K`` at most, where
    ``K`` is the scale that ``e = row_value_error(m, norm)`` multiplies and
    ``e >= 3u * K``.  So the value from the kernel sum lies within
    ``discount * error + 4u * K`` of the value from the carried sum, and
    the carried maximum plus this margin rounds by about ``u * K`` more;
    ``4e >= 12u * K`` covers both.
    """
    return m.discount * (drift + sum_error(m, norm)) + 4.0 * row_value_error(m, norm)


def _output_certified(m, zsums, tol) -> bool:
    """Whether ``zsums``, carried sums of ``z``, clear every row of ``z``'s membership test at ``z + tol``.

    The state maxima of the carried one-step values, raised by
    ``_output_margin`` from the sums' ``drift``, bound every row value the
    test would form from kernel sums; when they are within ``z + tol``,
    rounded as the test rounds it, the test's verdict is True.  Sums with no
    drift bound certify nothing.  Those maxima are held on ``zsums``, where
    a standard backup of ``z`` from them reads them.  With a margin that is
    not negative the maxima themselves pass at ``z + tol``, and that verdict
    of the membership test of ``z`` from these sums, which the next
    extension step from ``z`` makes, is held on them too
    (``WeightedSums._clears``).
    """
    if zsums.drift is None:
        return False
    margin = _output_margin(m, zsums.norm, zsums.drift)
    if not (math.isfinite(margin) and _all(_one_step_of(m, zsums)[1] + margin <= zsums.base + tol)):
        return False
    if margin >= 0.0:
        zsums._clears = (m, tol)
    return True


def _rows_to_check(m, z, z_norm, tol, p_sums):
    """The rows of ``z``'s membership check at ``z + tol`` that a rounding bound cannot clear.

    ``z_norm`` is ``sup_norm(z)``, which the caller holds, and ``p_sums``
    are the sums at the step's input point ``p``.  In exact
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
    delta = float((z - p_sums.base).max())
    e = row_value_error(m, max(z_norm, p_sums.norm))
    margin = m.discount * (delta + abs(delta) * m.row_sum_deviation) + 10.0 * e
    if not math.isfinite(margin):
        return None
    if isinstance(p_sums, ScreenedSums):
        bound = p_sums.one_step_upper(m) + margin
    else:
        # the row values p's backup or membership test formed, unless a bound cleared that test
        bound = one_step_row_values(m, p_sums) + margin
    return (bound > (z + tol).repeat(m.row_counts)).nonzero()[0]


def _checked(m, zsums, fallback_sums, alpha, check):
    """Validate the accelerated point ``zsums.base``; swap in the fallback when it fails.

    ``fallback_sums`` are the sums at the step's input.  When they hold
    that input's membership verdict (``operators.certify_membership``), the
    check first tries to certify the point from its carried sums
    (``_output_certified``); a certified point takes no sums pass and no
    test.  Otherwise the check takes fresh sums at the point only for the
    rows that ``_rows_to_check`` cannot clear from ``fallback_sums``.
    Either way its verdict is the all-rows one bit for bit.
    """
    z = zsums.base
    if check:
        tol = _membership_tol(zsums.norm)
        held = getattr(fallback_sums, "_clears", None)
        if not (held is not None and held[0] is m and _output_certified(m, zsums, tol)):
            fresh = weighted_sums(m, z, rows=_rows_to_check(m, z, zsums.norm, tol, fallback_sums))
            if not is_feasible(m, z, tol=tol, sums=fresh):
                safe = fallback_sums.base.copy()
                return AccelStep(safe, replace(fallback_sums, base=safe), alpha._replace(fallback_used=True))
    return AccelStep(z, zsums, alpha)


def apply_projective(m, v, sums=None, check_membership=True) -> AccelStep:
    """Scale ``v`` toward the fixed point; returns point, sums, and scan info.

    The point's sums are ``sums`` scaled; scaled all-rows kernel sums lie
    within ``sum_error`` of the exact sums at the point
    (``operators.sum_error``), which they hold as their ``drift``.
    """
    s = require_sums(m, v, sums)
    res = projective_alpha(m, v, sums=s, check_membership=check_membership)
    kernel = type(s) is WeightedSums and s.from_kernel
    # formed before the scaling, which passes the norm of v to the point's sums scaled
    drift = sum_error(m, s.norm) if kernel else None
    zsums = s.scaled(res.alpha)
    if kernel:
        zsums.drift = drift
    return _checked(m, zsums, s, res, check_membership)


def apply_linear_extension(m, v, u, sums_v=None, sums_u=None, check_membership=True,
                           direction=None, direction_norm=None) -> AccelStep:
    """Extend from ``v`` through ``u``; returns point, sums, and scan info.

    ``direction`` is ``u - v`` when the caller has formed it, and
    ``direction_norm`` its sup norm; the scan and the step read them, and
    the difference of the sums, without forming any again.  From kernel
    sums of ``u`` the point's carried sums hold their ``drift``
    (``_extended_drift``), taken at ``max(|v| + 2 * |u - v|, |z|)``, which
    bounds ``|u|`` too from norms already held.  A failed output check
    falls back to ``u`` (already a valid descent).
    """
    sv = require_sums(m, v, sums_v)
    su = require_sums(m, u, sums_u)
    if direction is None:
        direction = u - v
    if direction_norm is None:
        direction_norm = sup_norm(direction)
    res = linear_extension_alpha(m, v, u, sums_v=sv, sums_u=su, check_membership=check_membership,
                                 direction=direction, direction_norm=direction_norm)
    z = v + res.alpha * direction
    zvalues = res.alpha * su.less(sv)
    zvalues += sv.values
    zsums = WeightedSums(zvalues, z, None, False)
    if su.from_kernel:
        norm = max(sv.norm + 2.0 * direction_norm, zsums.norm)
        zsums.drift = _extended_drift(m, res.alpha, sums_drift(m, sv), norm)
    return _checked(m, zsums, su, res, check_membership)
