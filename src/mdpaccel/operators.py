"""Dynamic-programming backup operators and feasibility tests.

Every backup is one row-value formula reduced by a maximum over each
state's rows: row ``k`` of state ``i``, with weighted sum ``s = sum_j
p(k, j) * v[j]``, is worth ``r + discount * s``, and the Jacobi kinds move
its self-loop term ``d * v[i]`` into the denominator ``1 - discount * d``.
Total-reward models have discount 1, so ``standard`` is their
undiscounted backup, by the same formula.  ``standard`` and ``jacobi``
back up all states at once from one sums pass, which callers may
precompute and reuse; ``gs`` and ``gsj`` sweep the states in ascending
order, each seeing its predecessors' new values, so they take their sums
in place, one kernel pass over the state's rows per state.  Every sum,
whether of all rows, of some rows or of one state's rows, comes from the
one kernel entry ``_kernel``, which states how a row sum is accumulated.

Every backup is monotone and maps the set of vectors dominating their own
backup into itself, which the descending accelerated iterations rely on.
The greedy policy, which only the final extraction needs, comes from
``extract_policy`` rather than from every backup.

``row_value_error`` states how far a computed one-step row value can be
from the exact value of the stored numbers; the accelerated step's output
check uses it to skip the rows that bound clears.  ``sum_error`` states
the same for a weighted sum.

``ScreenedSums`` stand in for the all-rows sums of a point where taking
them all costs more than bounding them: they hold a certified interval
on every row's sum, which ``drifted_sums`` forms from the sums at the
previous point, and exact sums only for the rows a consumer asked for.
The simultaneous backups, ``is_feasible`` and ``extract_policy`` accept
them and take exact sums only for the rows their intervals cannot
settle, so every maximum, first row attaining it and verdict is the
all-rows one bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
# csr_matvec is the kernel behind csr_matrix @ vector; tests pin it to that
# public form, and pin the interleaved row pointers weighted_sums passes it
from scipy.sparse._sparsetools import csr_matvec

from .model import UNIT_ROUNDOFF, MdpModel, RewardMode

DIAG_GUARD = 1e-12
MEMBERSHIP_TOL_SCALE = 1e-9


class OperatorKind(str, Enum):
    """Backup operator selector; values double as CLI tokens."""

    STANDARD = "standard"
    JACOBI = "jacobi"
    GAUSS_SEIDEL = "gs"
    GAUSS_SEIDEL_JACOBI = "gsj"


_JACOBI_KINDS = (OperatorKind.JACOBI, OperatorKind.GAUSS_SEIDEL_JACOBI)
# read on every backup: an Enum member lookup costs several attribute loads on Python 3.11
_STANDARD = OperatorKind.STANDARD


def sup_norm(v: np.ndarray) -> float:
    """``max |v_i|``, 0.0 for an empty vector and NaN when an entry is NaN.

    It is taken from the extremes, which ``argmax`` and ``argmin`` find at a
    third of a reduction's fixed cost on the short vectors of a solve; both
    return the first NaN, and ``abs`` turns the norm of zeros of either sign
    into 0.0.
    """
    if not v.size:
        return 0.0
    return abs(max(v.item(v.argmax()), -v.item(v.argmin())))


def _all(mask: np.ndarray) -> bool:
    """``mask.all()`` for a boolean vector: its least entry, at a third of a reduction's fixed cost."""
    return not mask.size or mask.item(mask.argmin())


def _any(mask: np.ndarray) -> bool:
    """``mask.any()`` for a boolean vector: its greatest entry, as ``_all`` finds its least."""
    return bool(mask.size) and mask.item(mask.argmax())


def membership_tolerance(v: np.ndarray) -> float:
    """Scale-relative slack used by feasibility tests: 1e-9 * (1 + ||v||)."""
    return _membership_tol(sup_norm(v))


def _membership_tol(norm: float) -> float:
    """``membership_tolerance`` of a point whose sup norm the caller holds."""
    return MEMBERSHIP_TOL_SCALE * (1.0 + norm)


@dataclass
class WeightedSums:
    """Per-row expected next values, tagged with the vector they came from.

    ``values[k] = sum_j p(row k, j) * base[j]`` over all rows, or over the
    rows ``rows`` in that order when the sums cover only some rows.  The tag
    lets consumers assert they were handed sums for the vector they are
    about to back up.  ``from_kernel`` is False for sums derived from other
    sums by linearity: their rounding is not the CSR kernel's, so
    ``row_value_error`` does not cover them.  ``drift`` bounds the distance
    of ``values`` from the exact sums of ``base``; it is None for kernel
    sums, whose bound is ``sum_error`` at their norm, and for derived sums
    whose distance no step bounded (``sums_drift``).  ``values`` is never
    changed in place once the sums exist, so what is derived from it, the
    one-step row values and their state maxima (the one-step backup), is
    formed once per model (``one_step_row_values``), and so is the
    difference from another point's sums (``less``).  Nor is ``base``, so
    its sup norm is held once formed (``norm``), and so is a membership
    verdict that a bound has settled (``_clears``: the model and the
    tolerance at which every row of ``base`` passes), which
    ``certify_membership`` and the accelerated step's output check record
    and ``is_feasible`` reads.
    """

    values: np.ndarray
    base: np.ndarray
    rows: np.ndarray | None = None
    from_kernel: bool = True
    drift: float | None = None
    _one_step: tuple | None = field(default=None, repr=False, compare=False)
    _norm: float | None = field(default=None, repr=False, compare=False)
    _less: tuple | None = field(default=None, repr=False, compare=False)
    _clears: tuple | None = field(default=None, repr=False, compare=False)

    def matches(self, v: np.ndarray) -> bool:
        return self.base is v or np.array_equal(self.base, v)

    @property
    def norm(self) -> float:
        """``sup_norm(base)``, formed once and held."""
        if self._norm is None:
            self._norm = sup_norm(self.base)
        return self._norm

    def less(self, other: WeightedSums) -> np.ndarray:
        """``values - other.values``, formed once per ``other`` and held; the caller must not change it."""
        held = self._less
        if held is None or held[0] is not other:
            held = self._less = (other, self.values - other.values)
        return held[1]

    def scaled(self, factor: float) -> WeightedSums:
        """The sums of ``factor * base`` by linearity: ``factor * values``.

        For ``factor >= 0`` the rounded product ``factor * x`` is odd and
        nondecreasing in ``x``, so the sup norm of ``factor * base`` is
        ``factor * norm`` exactly: a held norm is scaled, not formed again.
        """
        norm = self._norm * factor if self._norm is not None and factor >= 0.0 else None
        return WeightedSums(values=factor * self.values, base=factor * self.base, from_kernel=False,
                            _norm=norm)


@dataclass
class ScreenedSums:
    """Per-row sums of ``base``, exact only for the rows a consumer asked for.

    They stand for ``factor * weighted_sums(m, source).values``, the sums the
    all-rows path holds for ``base``: the kernel sums of ``source`` itself
    when ``factor`` is 1, and their scaling when ``base`` is the projective
    step's point ``factor * source``.  ``lo`` and ``hi`` bound every row's
    kernel sum at ``source``; a row of zero width, ``lo == hi``, was taken
    (``drifted_sums`` forms none).  The factor is never negative, and a
    rounded product is monotone, so ``factor * lo`` and ``factor * hi``
    bound every row's sum as the all-rows path forms it.

    A consumer reads the bounds, asks ``take`` for the rows they cannot
    settle, and decides from those rows as it would from all of them; the
    bounds are shared by every sums of one ``source`` and tighten as rows
    are taken.  ``drifted_sums`` forms them, with the sup norm of their
    point, which it has in hand.
    """

    base: np.ndarray
    source: np.ndarray
    factor: float
    lo: np.ndarray
    hi: np.ndarray
    _norm: float | None = field(default=None, repr=False, compare=False)

    @property
    def from_kernel(self) -> bool:
        return self.factor == 1.0

    # shared with WeightedSums: the tag test, and the sup norm of base, held once formed, which
    # ``scaled`` scales as WeightedSums does
    matches = WeightedSums.matches
    norm = WeightedSums.norm

    def scaled(self, factor: float) -> ScreenedSums:
        """The sums of ``factor * base``, for ``factor`` in [0, 1].

        Raises:
            ValueError: these sums are themselves scaled; the all-rows path
                would round the two scalings one after the other.
        """
        if self.factor != 1.0:
            raise ValueError("screened sums are scaled once, from the kernel sums")
        norm = self._norm * factor if self._norm is not None and factor >= 0.0 else None
        return ScreenedSums(factor * self.base, self.source, factor, self.lo, self.hi, norm)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on every row's sum at ``base``."""
        if self.factor == 1.0:
            return self.lo, self.hi
        return self.factor * self.lo, self.factor * self.hi

    def take(self, m: MdpModel, rows: np.ndarray) -> np.ndarray:
        """The sums at ``base`` of ``rows``, ascending indices, exactly as all rows have them.

        Rows not taken before come from one ``weighted_sums`` call at
        ``source``; past ``GATHER_MAX_SHARE`` of the rows that call is the
        all-rows pass, and every row is kept.
        """
        missing = rows[self.lo[rows] != self.hi[rows]]
        if missing.size:
            if missing.size > GATHER_MAX_SHARE * m.num_rows:
                missing = slice(None)
                got = weighted_sums(m, self.source).values
            else:
                got = weighted_sums(m, self.source, rows=missing).values
            self.lo[missing] = got
            self.hi[missing] = got
        values = self.lo[rows]
        return values if self.factor == 1.0 else self.factor * values

    def one_step_upper(self, m: MdpModel) -> np.ndarray:
        """Upper bounds on the one-step row values at ``base``, from the current upper bounds."""
        hi = self.hi if self.factor == 1.0 else self.factor * self.hi
        return _row_values(m, OperatorKind.STANDARD, None, hi)


# An ascending row subset of at most this share of the rows is summed in
# place; a larger one takes the all-rows pass and keeps its values at the
# rows.  Time of the subset over the all-rows pass, random rows, median of
# three runs of min-of-7 (2-CPU Xeon guest, numpy 2.4.6, scipy 1.17.1):
#
#   share   dense-pa  band-vi  sparse-gs  dense 500 (0.9, seed 0)
#   0.25    0.66      0.53     0.55       0.38
#   0.30    0.73      0.72     0.63       0.48
#   0.35    0.88      0.89     0.74       0.51
#   1.00    1.56      1.55     1.81       1.58
GATHER_MAX_SHARE = 3 / 10

# the values of sums over no rows, shared by every such sums: sums are never changed in place
_NO_SUMS = np.zeros(0)
_NO_SUMS.flags.writeable = False


def _kernel(m: MdpModel, v) -> tuple:
    """The one entry to the CSR kernel behind every weighted sum, bound to ``v``.

    Every weighted sum ``s = sum_j p(k, j) * v[j]`` that a backup, a scan
    or a check reads is taken by scipy's ``csr_matvec``, the kernel behind
    ``csr_matrix @ v``, with the arguments bound here: row ``k``'s sum is
    one sequential accumulator that starts from ``out[k]`` and adds the
    row's stored products in ascending column order.  Every caller starts
    from a zeroed ``out``, so the all-rows pass, a pass over some rows and
    the Gauss-Seidel sweep's per-state passes accumulate each row the same
    way, and a sum recomputed for the same vector is bit-identical whichever
    path asks for it.

    The kernel reads raw memory, so ``v`` is checked here, as scipy's
    wrapper checked it: it must be one-dimensional with ``num_states``
    entries, and is converted to C-contiguous float64 (a copy only when it
    is not one already).

    Returns the bound arguments ``(n, indices, data, x)``: ``x`` is the
    vector the kernel reads, and ``csr_matvec(len(out), n, indptr,
    indices, data, x, out)`` adds to each ``out[k]`` the sum of the entries
    ``indptr[k]:indptr[k + 1]`` of ``row_matrix``; where ``indptr[k + 1] <=
    indptr[k]`` the kernel adds nothing.

    Raises:
        ValueError: ``v`` is not a vector of ``num_states`` entries.
    """
    csr = m.row_matrix
    return m.num_states, csr.indices, csr.data, np.ascontiguousarray(_vector(m, v), dtype=np.float64)


def _vector(m: MdpModel, v) -> np.ndarray:
    """``v`` as an array, checked to be a vector of ``num_states`` entries.

    Raises:
        ValueError: ``v`` is not a vector of ``num_states`` entries.
    """
    x = np.asarray(v)
    if x.shape != (m.num_states,):
        raise ValueError(f"vector of shape {x.shape} given for a model of {m.num_states} states")
    return x


def _kernel_rows(m: MdpModel, rows) -> np.ndarray:
    """``rows`` checked as ascending row indices (repeats allowed).

    Raises:
        ValueError: ``rows`` is not a one-dimensional sequence of integers
            inside ``[0, num_rows)``, or it descends.
    """
    idx = np.asarray(rows)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(
            f"row indices must be a 1-D integer sequence, got shape {idx.shape} of {idx.dtype}"
        )
    if idx.size > 1 and not (idx[:-1] <= idx[1:]).all():
        k = int((idx[:-1] > idx[1:]).argmax()) + 1
        raise ValueError(f"row indices must ascend; row {idx[k]} at position {k} follows row {idx[k - 1]}")
    if idx.size and (idx[0] < 0 or idx[-1] >= m.num_rows):
        raise ValueError(f"row index {int(idx[0] if idx[0] < 0 else idx[-1])} outside [0, {m.num_rows})")
    return idx.astype(np.intp, copy=False)


def weighted_sums(m: MdpModel, v: np.ndarray, rows=None) -> WeightedSums:
    """Compute the per-row weighted sums of ``v`` in one kernel pass.

    ``rows``, ascending integer row indices (a list or an array of any
    integer dtype, repeats allowed), restricts the pass to those rows.
    They are summed in place: the kernel's row pointers name them in
    descending order, ``[nnz, start(a), end(a), start(b), end(b), ...]``
    with ``a >= b``, so every other "row" runs backwards, from one row's
    end (or the last entry) to the start of a row no later, and sums
    nothing.  Each chosen row is accumulated as in the all-rows pass, bit
    for bit, at the cost of its own entries, and is read back in ascending
    order.  More than ``GATHER_MAX_SHARE`` of the rows take the all-rows
    pass instead, and its values at ``rows`` are kept.  No rows take no
    pass: the call checks ``v`` and ``rows`` and returns empty sums.

    Raises:
        ValueError: ``v`` is not a vector of ``num_states`` entries, or
            ``rows`` holds something other than ascending row indices.
    """
    if rows is not None:
        _vector(m, v)
        idx = _kernel_rows(m, rows)
        if not idx.size:
            return WeightedSums(_NO_SUMS, v, rows)
    n, indices, data, x = _kernel(m, v)
    indptr = m.row_matrix.indptr
    if rows is not None:
        if len(idx) <= GATHER_MAX_SHARE * m.num_rows:
            down = idx[::-1]
            ptr = np.empty(2 * len(idx) + 1, dtype=indptr.dtype)
            ptr[0] = indptr[-1]
            ptr[1::2] = indptr[down]
            ptr[2::2] = indptr[1:][down]
            out = np.zeros(2 * len(idx))
            csr_matvec(len(out), n, ptr, indices, data, x, out)
            return WeightedSums(values=out[::-2], base=v, rows=rows)
    values = np.zeros(m.num_rows)
    csr_matvec(m.num_rows, n, indptr, indices, data, x, values)
    if rows is None:
        return WeightedSums(values, v)
    return WeightedSums(values=values[idx], base=v, rows=rows)


def require_sums(m: MdpModel, v: np.ndarray, sums: WeightedSums | None) -> WeightedSums:
    """The all-rows weighted sums of ``v``: ``sums`` once its tag matches, else a fresh pass.

    Raises:
        ValueError: ``sums`` was computed for a different vector, or covers
            only some rows.
    """
    if sums is None:
        return weighted_sums(m, v)
    if sums.base is not v and not sums.matches(v):
        raise ValueError("weighted sums were computed for a different vector")
    if isinstance(sums, WeightedSums) and sums.rows is not None:
        raise ValueError("weighted sums cover only some rows")
    return sums


def sums_drift(m: MdpModel, sums: WeightedSums) -> float:
    """A bound on the distance of all-rows ``sums`` from the exact sums of their point.

    ``sums.drift`` when a step set it; else ``sum_error`` at their norm for
    kernel sums, and inf for derived sums.
    """
    if sums.drift is not None:
        return sums.drift
    return sum_error(m, sums.norm) if sums.from_kernel else math.inf


def drifted_sums(m: MdpModel, sums, y: np.ndarray):
    """The sums of ``y``, bounded from ``sums`` at ``x = sums.base`` without a kernel pass.

    ``sums`` are ``ScreenedSums`` or all-rows kernel sums (the zero
    vector's are exactly zero, which starts a run), and ``y`` has an
    entry: a model has at least one state (``validate_model``).  With
    ``D = y - x``, no negative probability and every row sum within
    ``rho`` of 1, the exact sum of row ``k`` moves from ``x`` to ``y`` by
    ``sum_j p(k, j) * D_j``, which lies in
    ``[min D - |min D| * rho, max D + |max D| * rho]``, and
    itself lies in ``[min y - |min y| * rho, max y + |max y| * rho]``.  The
    held sums lie within ``e = sum_error(m, norm)`` of the exact sums at
    ``x``, and the kernel sums of ``y`` within ``e`` of theirs, where
    ``norm`` is the largest sup norm of ``x``, ``y`` and the vector the
    held sums were taken at.  So every kernel sum of ``y`` lies in the held
    bounds widened by that drift and ``10e``, clamped into the second
    interval widened by ``2e``.  Of the ``10e``, ``2e`` covers the two sums
    and ``8e`` the rounding of ``D``, of the shift and of its addition to
    the held bounds: at most about ten roundings on magnitudes below ``3 *
    (1 + rho) * norm + 2e``, since every held bound was clamped the same
    way, where ``e >= 3u * (1 + rho) * norm + (N + 2) * eta``, so every
    row's interval has positive width: no row counts as taken.

    Returns ``ScreenedSums`` of ``y`` with no row taken, or the all-rows
    sums of ``y`` when no bound is certified: ``sums`` derived by
    linearity (``from_kernel`` False) or over some rows, a negative
    discount, or a bound that is not finite (non-finite points, rewards or
    probabilities, or a negative probability).
    """
    x = sums.base
    if isinstance(sums, ScreenedSums):
        lo, hi, f = sums.lo, sums.hi, sums.factor
        held = sums.source
    elif sums.from_kernel and sums.rows is None:
        lo = hi = sums.values
        held, f = x, 1.0
    else:
        return weighted_sums(m, y)
    d = y - x
    # the extremes from argmin and argmax, which return the first NaN as min and max do
    low, high = d.item(d.argmin()), d.item(d.argmax())
    y_low, y_high = y.item(y.argmin()), y.item(y.argmax())
    norm = max(sums.norm if held is x else sup_norm(held), sums.norm, -y_low, y_high)
    # a NaN in d or y fails the test through the extremes of d
    if not (m.discount >= 0.0 and math.isfinite(row_value_error(m, norm + high - low))):
        return weighted_sums(m, y)
    rho, e = m.row_sum_deviation, sum_error(m, norm)
    rise = high + abs(high) * rho + 10.0 * e
    if f == 1.0:
        lo = lo + (low - abs(low) * rho - 10.0 * e)
        hi = hi + rise
    else:
        # the scaled bounds, shifted in place: the same two roundings per row
        lo, hi = f * lo, f * hi
        lo += low - abs(low) * rho - 10.0 * e
        hi += rise
    np.maximum(lo, y_low - abs(y_low) * rho - 2.0 * e, out=lo)
    np.minimum(hi, y_high + abs(y_high) * rho + 2.0 * e, out=hi)
    return ScreenedSums(base=y, source=y, factor=1.0, lo=lo, hi=hi, _norm=abs(max(y_high, -y_low)))


@functools.cache
def _rounding_terms(n: int) -> tuple[float, float]:
    """``gamma(n)`` and ``n * eta``, the terms of a rounding bound over ``n`` roundings.

    They are formed once per ``n``: ``n * eta`` is subnormal, and forming
    it costs the processor's slow subnormal path, several times the rest of
    a bound.
    """
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF), n * 2.0**-1074


def _rounding_bound(m: MdpModel, scale: float) -> float:
    """``gamma(N + 2) * scale + (N + 2) * eta``, inf when ``4 * scale`` is not finite."""
    if not math.isfinite(4.0 * scale):
        return math.inf
    gamma, floor = _rounding_terms(m.max_row_nnz + 2)
    return gamma * scale + floor


def sum_error(m: MdpModel, norm: float) -> float:
    """Bound on the rounding error of one weighted sum as the kernels form it.

    A sum ``s`` of a vector ``u`` with ``sup_norm(u) <= norm`` taken by the
    CSR kernel, and that sum scaled as ``f * s`` for a factor ``f`` in
    [0, 1] (the sums of the point ``f * u`` the projective step carries),
    lie within

        e = gamma(N + 2) * (1 + rho) * norm + (N + 2) * eta

    of the exact weighted sum of ``u``, or of the computed ``f * u``.  The
    kernel sum reaches ``N`` roundings; the scaling adds one to the sum and
    one to every entry of the point, and a factor above 1 by a rounding of
    its own is inside the slack of ``gamma(N + 2)`` over ``gamma(N) + 2u``.
    The symbols are ``row_value_error``'s.  Returns inf when ``rho`` or
    ``norm`` is not finite, which includes a negative probability.
    """
    return _rounding_bound(m, (1.0 + m.row_sum_deviation) * norm)


def row_value_error(m: MdpModel, norm: float) -> float:
    """Bound on the rounding error of one computed one-step row value.

    A row value ``r + discount * s`` computed as ``_row_values`` computes
    it, from a sum ``s`` of a vector ``v`` with ``sup_norm(v) <= norm``
    taken by the CSR kernel, lies within

        e = gamma(N + 2) * (R + discount * (1 + rho) * norm) + (N + 2) * eta

    of the exact value of the stored numbers.  Here ``N`` is
    ``max_row_nnz``, ``R`` is ``max_abs_reward``, ``rho`` is
    ``row_sum_deviation``, ``gamma(n) = n*u / (1 - n*u)`` with ``u`` the
    unit roundoff, and ``eta`` is the smallest subnormal.  Each product
    reaches the value through at most ``N + 2`` roundings (its own, the
    row's additions, the scaling by the discount and the reward's
    addition), the reward through one; with no negative probability, the
    products' magnitudes sum to at most ``(1 + rho) * norm``; and each
    product or scaling that underflows adds at most ``eta`` (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sections 2.2 and
    3.1).

    Returns inf when a row value may overflow or any of ``rho``, ``R``,
    ``norm`` and the discount is not finite, which includes a model with a
    negative probability.
    """
    return _rounding_bound(m, m.max_abs_reward + m.discount * (1.0 + m.row_sum_deviation) * norm)


def check_fit(m: MdpModel, kind: OperatorKind) -> None:
    """Reject an operator the model's reward mode or self-loops cannot take.

    This is the one place an operator meets a reward mode.

    Raises:
        ValueError: any backup but the standard one on a total-reward model.
        ArithmeticError: a Jacobi kind on a model whose self-loop
            denominator ``1 - discount * p(i,i)`` falls below ``DIAG_GUARD``.
    """
    if kind is not _STANDARD and m.mode is RewardMode.TOTAL_REWARD:
        raise ValueError(
            f"the {kind.value} backup is undefined on a total-reward model; "
            "total-reward models take only the standard backup"
        )
    if kind in _JACOBI_KINDS and m.jacobi_denominator[1] < DIAG_GUARD:
        raise ArithmeticError(
            f"the {kind.value} backup divides by a self-loop denominator "
            f"1 - discount * p(i,i) below the guard {DIAG_GUARD:g} on this model"
        )


def _row_values(m: MdpModel, kind: OperatorKind, own, sums: np.ndarray, rows=slice(None)):
    """Values of the rows ``rows`` given their weighted sums ``sums``.

    ``own`` is the backed-up value of each row's state, spread over the
    rows (or one scalar when the rows are one state's); only the Jacobi
    kinds read it.  Every other kind forms the one-step values ``r +
    discount * s``.
    """
    if kind in _JACOBI_KINDS:
        out = sums - m.self_loop_probs[rows] * own
        out *= m.discount
        out += m.rewards[rows]
        out /= m.jacobi_denominator[0][rows]
        return out
    out = m.discount * sums
    out += m.rewards[rows]
    return out


def _state_max(m: MdpModel, row_values: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(row_values, m.state_ptr[:-1])


def _one_step_of(m: MdpModel, sums: WeightedSums) -> tuple[np.ndarray, np.ndarray]:
    """The one-step row values ``r + discount * s`` of all-rows ``sums`` and their state maxima.

    They are formed once per sums and model, and kept with the sums: the
    backup of a point, its membership check and the output check of an
    accelerated step to it read the same values.  The caller must not
    change them.
    """
    held = sums._one_step
    if held is None or held[0] is not m:
        values = _row_values(m, _STANDARD, None, sums.values)
        held = sums._one_step = (m, values, _state_max(m, values))
    return held[1], held[2]


def one_step_row_values(m: MdpModel, sums: WeightedSums) -> np.ndarray:
    """The one-step row values of all-rows ``sums``, held with them (``_one_step_of``)."""
    return _one_step_of(m, sums)[0]


def _held_row_values(m: MdpModel, kind: OperatorKind, own, sums) -> tuple[np.ndarray | None, np.ndarray]:
    """The rows whose values can win, ascending, and their values: every row from all-rows ``sums``.

    From all-rows sums the rows are None and the values every row's.  From
    ``ScreenedSums`` they are the rows that can attain their state's
    maximum, at least one of every state, with their exact values.  A row
    value is monotone in the row's sum (the discount is not negative, the
    Jacobi denominators positive), and a rounded operation is monotone, so
    the row-value formula at the screened sums' bounds bounds each computed
    value.  A state's maximum is at least the largest lower bound among its
    rows; a row whose upper bound falls short of it can neither attain that
    maximum nor tie it, and is left out.  Its state's row of that largest
    lower bound is not.  The rows kept take their exact sums, so the state
    maxima and the first rows attaining them are the all-rows ones.
    """
    if not isinstance(sums, ScreenedSums):
        return None, _row_values(m, kind, own, sums.values)
    lo, hi = sums.bounds()
    floor = _state_max(m, _row_values(m, kind, own, lo)).repeat(m.row_counts)
    rows = np.flatnonzero(_row_values(m, kind, own, hi) >= floor)
    return rows, _row_values(m, kind, None if own is None else own[rows], sums.take(m, rows), rows)


def _state_max_of(m: MdpModel, rows: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """Each state's largest value of ``_held_row_values``' ``(rows, values)``."""
    if rows is None:
        return _state_max(m, values)
    return np.maximum.reduceat(values, np.searchsorted(rows, m.state_ptr[:-1]))


def _backup(m: MdpModel, kind: OperatorKind, v: np.ndarray, sums) -> np.ndarray:
    """Simultaneous backup of ``v`` from its sums, for a kind already vetted.

    ``standard`` from all-rows sums is the one-step backup the sums hold;
    the caller owns the copy returned.
    """
    if kind not in _JACOBI_KINDS and isinstance(sums, WeightedSums):
        return _one_step_of(m, sums)[1].copy()
    own = v.repeat(m.row_counts) if kind in _JACOBI_KINDS else None
    return _state_max_of(m, *_held_row_values(m, kind, own, sums))


def _sweep(m: MdpModel, kind: OperatorKind, v: np.ndarray) -> np.ndarray:
    # the kernel reads w as the sweep writes it; every state's rows
    # accumulate into their own zeroed slice of one buffer
    n, indices, data, w = _kernel(m, np.array(v, dtype=np.float64))
    sums = np.zeros(m.num_rows)
    jacobi = kind in _JACOBI_KINDS
    discount = m.discount
    for i, (count, ptr, rows, rewards) in enumerate(m.state_rows):
        s = sums[rows]
        csr_matvec(count, n, ptr, indices, data, w, s)
        if jacobi:
            w[i] = _row_values(m, kind, w[i], s, rows).max()
        else:
            # the standard row values, formed in place in the state's slice
            s *= discount
            s += rewards
            w[i] = np.maximum.reduce(s)
    return w


_SWEEP_KINDS = (OperatorKind.GAUSS_SEIDEL, OperatorKind.GAUSS_SEIDEL_JACOBI)


def sweep_carries_state(kind) -> bool:
    """True for operators whose backup cannot reuse a precomputed sums pass."""
    return OperatorKind(kind) in _SWEEP_KINDS


def apply_operator(m, v, kind, sums=None):
    """One backup of ``v`` under the selected operator; returns the new vector.

    ``sums`` is honored by the simultaneous operators and must be None for
    the sweeps, which cannot reuse sums of the unmodified vector.
    ``ScreenedSums`` take exact sums only for the rows that can attain a
    state's maximum, and give the all-rows backup bit for bit.

    Raises:
        ValueError: an operator the model's reward mode does not take
            (``check_fit``), sums of a different vector, or sums handed to
            a sweep.
        ArithmeticError: a Jacobi kind the model's self-loops do not allow
            (``check_fit``).
    """
    if not isinstance(kind, OperatorKind):
        kind = OperatorKind(kind)
    check_fit(m, kind)
    v = np.asarray(v, dtype=np.float64)
    if kind in _SWEEP_KINDS:
        if sums is not None:
            raise ValueError("sweep operators recompute sums in place; pass sums=None")
        return _sweep(m, kind, v)
    return _backup(m, kind, v, require_sums(m, v, sums))


def extract_policy(m, v, sums=None) -> np.ndarray:
    """Per-state index of the first action attaining the one-step backup of ``v``.

    Ties resolve to the lowest action index.  ``sums``, the kernel sums of
    ``v`` over all rows or screened, stand in for a fresh all-rows pass.

    Raises:
        ValueError: ``sums`` were computed for a different vector.
    """
    rows, values = _held_row_values(m, OperatorKind.STANDARD, None, require_sums(m, v, sums))
    if rows is None:
        rows = np.arange(m.num_rows, dtype=np.int64)
    # every state has a row among them; a state whose maximum is NaN reads num_rows
    starts = np.searchsorted(rows, m.state_ptr[:-1])
    best = np.maximum.reduceat(values, starts)
    cand = np.where(values == best[m.row_state[rows]], rows, m.num_rows)
    return np.minimum.reduceat(cand, starts) - m.state_ptr[:-1]


def is_feasible(m, v, tol=None, sums=None):
    """Test one-step dominance: v >= (backup of v) componentwise.

    Dominance is always measured against the standard (one-step) backup,
    whatever backup a solver happens to run.
    ``tol`` defaults to ``membership_tolerance(v)``.  From all-rows
    ``sums`` the test compares the one-step backup they hold, formed by an
    earlier backup of ``v`` or here (``one_step_row_values``).

    ``ScreenedSums`` test exactly only the rows whose upper bound does not
    clear ``v + tol``; the verdict is the all-rows one.
    Sums over some rows only (``weighted_sums(m, v, rows=...)``) test those
    rows only: a caller passes them when a bound has cleared every other
    row, as the accelerated step's output check does.  A state's backup is
    the maximum of its rows' values, so with every other row cleared the
    verdict is the all-rows one.

    The default ``tol`` reads the sup norm that sums of ``v`` itself hold
    (``WeightedSums.norm``), and all-rows sums that hold a verdict settled
    at a tolerance no larger than ``tol`` (``WeightedSums._clears``) give it
    without a comparison.

    Raises:
        ValueError: ``sums`` were computed for a different vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if tol is None:
        tol = _membership_tol(sums.norm) if sums is not None and sums.base is v else membership_tolerance(v)
    if isinstance(sums, ScreenedSums):
        # the rows whose upper bound clears v + tol pass; the others are judged exactly
        rows = np.flatnonzero(sums.one_step_upper(m) > (v + tol).repeat(m.row_counts))
        sums = WeightedSums(values=sums.take(m, rows), base=sums.base, rows=rows)
    if sums is not None and sums.rows is not None:
        if sums.base is not v and not sums.matches(v):
            raise ValueError("weighted sums were computed for a different vector")
        if not len(sums.rows):
            return True
        values = _row_values(m, OperatorKind.STANDARD, None, sums.values, sums.rows)
        return _all(values <= v[m.row_state[sums.rows]] + tol)
    sums = require_sums(m, v, sums)
    held = sums._clears
    if held is not None and held[0] is m and tol >= held[1]:
        # every row passes at a tolerance no larger, and v + tol rounds no lower
        return True
    return _all(_one_step_of(m, sums)[1] <= v + tol)


def certify_membership(m: MdpModel, sums: WeightedSums, excess: float) -> None:
    """Hold on all-rows ``sums`` the verdict of their point's membership test, when ``excess`` settles it.

    ``excess`` bounds ``T~(v) - v`` componentwise for ``v = sums.base``.
    Every row value the test of ``v`` would compute is then at most ``v_i +
    excess``, and the test compares it with ``v_i + tol`` rounded, for the
    default ``tol = membership_tolerance(v)``, which is at least ``v_i + tol -
    u * (|v_i| + tol)``.  So when ``excess + 8u * (norm + tol)`` is at most
    ``tol``, every row passes at ``tol``, and the verdict is held on the
    sums (``WeightedSums._clears``) for ``is_feasible`` to give at that
    tolerance or a larger one without a comparison.  The surplus covers the
    rounding of this test and of ``excess``, a few operations on a value it
    holds below ``tol``.  An ``excess`` that is not finite, or too large,
    records nothing.
    """
    tol = _membership_tol(sums.norm)
    if excess + 8.0 * UNIT_ROUNDOFF * (sums.norm + tol) <= tol:
        sums._clears = (m, tol)


def is_feasible_gs(m, v, tol=None):
    """Dominance against the Gauss-Seidel sweep: v >= sweep(v).

    A strictly weaker requirement than one-step dominance — there are
    vectors that dominate their sweep but not their simultaneous backup.
    """
    v = np.asarray(v, dtype=np.float64)
    if tol is None:
        tol = membership_tolerance(v)
    return bool(np.all(apply_operator(m, v, OperatorKind.GAUSS_SEIDEL) <= v + tol))
