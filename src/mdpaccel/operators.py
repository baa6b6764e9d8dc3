"""Dynamic-programming backup operators and feasibility tests.

Every backup is one row-value formula reduced by a maximum over each
state's rows: row ``k`` of state ``i``, with weighted sum ``s = sum_j
p(k, j) * v[j]``, is worth ``r + discount * s``, and the Jacobi kinds move
its self-loop term ``d * v[i]`` into the denominator ``1 - discount * d``.
Total-reward models have discount 1, so the undiscounted backup is the
same formula.  ``standard``, ``jacobi`` and ``total`` back up all states
at once from one sums pass, which callers may precompute and reuse;
``gs`` and ``gsj`` sweep the states in ascending order, each seeing its
predecessors' new values, so they take their sums in place: one matvec
of the state's row block (``MdpModel.state_blocks``) per state.  Both
paths accumulate every row sum the same way, as the model module states,
and so does a sums pass restricted to some rows.

Every backup is monotone and maps the set of vectors dominating their own
backup into itself, which the descending accelerated iterations rely on.
The greedy policy, which only the final extraction needs, comes from
``greedy_policy`` rather than from every backup.

``row_value_error`` states how far a computed one-step row value can be
from the exact value of the stored numbers; the accelerated step's output
check uses it to skip the rows that bound clears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse._sparsetools import csr_matvec  # the kernel behind csr_matrix @ vector

from .model import UNIT_ROUNDOFF, MdpModel, RewardMode

DIAG_GUARD = 1e-12
MEMBERSHIP_TOL_SCALE = 1e-9


class OperatorKind(str, Enum):
    """Backup operator selector; values double as CLI tokens."""

    STANDARD = "standard"
    JACOBI = "jacobi"
    GAUSS_SEIDEL = "gs"
    GAUSS_SEIDEL_JACOBI = "gsj"
    TOTAL_REWARD = "total"


_JACOBI_KINDS = (OperatorKind.JACOBI, OperatorKind.GAUSS_SEIDEL_JACOBI)


def sup_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def membership_tolerance(v: np.ndarray) -> float:
    """Scale-relative slack used by feasibility tests: 1e-9 * (1 + ||v||)."""
    return MEMBERSHIP_TOL_SCALE * (1.0 + sup_norm(v))


@dataclass
class WeightedSums:
    """Per-row expected next values, tagged with the vector they came from.

    ``values[k] = sum_j p(row k, j) * base[j]`` over all rows, or over the
    rows ``rows`` in that order when the sums cover only some rows.  The tag
    lets consumers assert they were handed sums for the vector they are
    about to back up.  ``from_kernel`` is False for sums derived from other
    sums by linearity: their rounding is not the CSR kernel's, so
    ``row_value_error`` does not cover them.
    """

    values: np.ndarray
    base: np.ndarray
    rows: np.ndarray | None = None
    from_kernel: bool = True

    def matches(self, v: np.ndarray) -> bool:
        return self.base is v or np.array_equal(self.base, v)


def weighted_sums(m: MdpModel, v: np.ndarray, rows: np.ndarray | None = None) -> WeightedSums:
    """Compute the per-row weighted sums of ``v`` in one sparse matvec.

    Each row sum is one sequential accumulator over the row's columns in
    ascending order, taken by scipy's CSR kernel: the same kernel and order
    the Gauss-Seidel sweep uses per state.  Recomputing sums for the same
    vector therefore reproduces them bit for bit.

    ``rows``, ascending row indices, restricts the pass to those rows: they
    are gathered into a compact CSR matrix, entries in stored order, which
    goes through the same kernel, so each sum equals its all-rows value bit
    for bit and costs only its own row's work.  Gathering costs about ten
    times the kernel per entry, so for more than a sixteenth of the rows
    the all-rows pass runs instead and its values at ``rows`` are kept.
    """
    csr = m.row_matrix
    if rows is None:
        return WeightedSums(values=csr @ v, base=v)
    if 16 * len(rows) > m.num_rows:
        return WeightedSums(values=(csr @ v)[rows], base=v, rows=rows)
    starts = csr.indptr[rows]
    counts = csr.indptr[rows + 1] - starts
    ptr = np.zeros(len(rows) + 1, dtype=csr.indptr.dtype)
    np.cumsum(counts, out=ptr[1:])
    take = np.arange(ptr[-1], dtype=ptr.dtype)
    take += np.repeat(starts - ptr[:-1], counts)
    values = np.zeros(len(rows))
    csr_matvec(
        len(rows), m.num_states, ptr, csr.indices[take], csr.data[take],
        np.ascontiguousarray(v, dtype=np.float64), values,
    )
    return WeightedSums(values=values, base=v, rows=rows)


def require_sums(m: MdpModel, v: np.ndarray, sums: WeightedSums | None) -> WeightedSums:
    """The all-rows weighted sums of ``v``: ``sums`` once its tag matches, else a fresh pass.

    Raises:
        ValueError: ``sums`` was computed for a different vector, or covers
            only some rows.
    """
    if sums is None:
        return weighted_sums(m, v)
    if not sums.matches(v):
        raise ValueError("weighted sums were computed for a different vector")
    if sums.rows is not None:
        raise ValueError("weighted sums cover only some rows")
    return sums


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
    n = m.max_row_nnz + 2
    scale = m.max_abs_reward + m.discount * (1.0 + m.row_sum_deviation) * norm
    if not math.isfinite(4.0 * scale):
        return math.inf
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF) * scale + n * 2.0**-1074


def _check_kind(m: MdpModel, kind: OperatorKind) -> None:
    """Reject an operator the model's reward mode or self-loops cannot take."""
    if (kind is OperatorKind.TOTAL_REWARD) != (m.mode is RewardMode.TOTAL_REWARD):
        raise ValueError(
            f"the {kind.value} backup is undefined on a {m.mode.value} model; "
            "total-reward models take only the total backup"
        )
    if kind in _JACOBI_KINDS and m.jacobi_denominator[1] < DIAG_GUARD:
        raise ArithmeticError(
            "self-loop denominator 1 - discount * p(i,i) below guard; "
            "Jacobi-style backups are not usable on this model"
        )


def _row_values(m: MdpModel, kind: OperatorKind, own, sums: np.ndarray, rows=slice(None)):
    """Values of the rows ``rows`` given their weighted sums ``sums``.

    ``own`` is the backed-up value of each row's state, spread over the
    rows (or one scalar when the rows are one state's); only the Jacobi
    kinds read it.
    """
    r = m.rewards[rows]
    if kind in _JACOBI_KINDS:
        d = m.self_loop_probs[rows]
        return (r + m.discount * (sums - d * own)) / m.jacobi_denominator[0][rows]
    out = m.discount * sums
    out += r
    return out


def _state_max(m: MdpModel, row_values: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(row_values, m.state_ptr[:-1])


def _backup(m: MdpModel, kind: OperatorKind, v: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Simultaneous backup of ``v`` from its sums, for a kind already vetted."""
    own = v.repeat(m.row_counts) if kind in _JACOBI_KINDS else None
    return _state_max(m, _row_values(m, kind, own, sums))


def _sweep(m: MdpModel, kind: OperatorKind, v: np.ndarray) -> np.ndarray:
    w = v.copy()
    bounds = m.state_ptr.tolist()
    jacobi = kind in _JACOBI_KINDS
    for i, block in enumerate(m.state_blocks):
        own = w[i] if jacobi else None
        w[i] = _row_values(m, kind, own, block @ w, slice(bounds[i], bounds[i + 1])).max()
    return w


_SWEEP_KINDS = (OperatorKind.GAUSS_SEIDEL, OperatorKind.GAUSS_SEIDEL_JACOBI)


def sweep_carries_state(kind) -> bool:
    """True for operators whose backup cannot reuse a precomputed sums pass."""
    return OperatorKind(kind) in _SWEEP_KINDS


def apply_operator(m, v, kind, sums=None):
    """One backup of ``v`` under the selected operator; returns the new vector.

    ``sums`` is honored by the simultaneous operators and must be None for
    the sweeps, which cannot reuse sums of the unmodified vector.

    Raises:
        ValueError: an operator the model's reward mode does not take, sums
            of a different vector, or sums handed to a sweep.
        ArithmeticError: a Jacobi kind on a model whose self-loop
            denominator ``1 - discount * p(i,i)`` falls below ``DIAG_GUARD``.
    """
    kind = OperatorKind(kind)
    _check_kind(m, kind)
    v = np.asarray(v, dtype=np.float64)
    if kind in _SWEEP_KINDS:
        if sums is not None:
            raise ValueError("sweep operators recompute sums in place; pass sums=None")
        return _sweep(m, kind, v)
    return _backup(m, kind, v, require_sums(m, v, sums).values)


def one_step_kind(m: MdpModel) -> OperatorKind:
    """The backup that dominance is measured against: ``total`` or ``standard``."""
    if m.mode is RewardMode.TOTAL_REWARD:
        return OperatorKind.TOTAL_REWARD
    return OperatorKind.STANDARD


def greedy_policy(m, v) -> np.ndarray:
    """Per-state index of the first action attaining the one-step backup of ``v``.

    Ties resolve to the lowest action index.
    """
    rows = _row_values(m, one_step_kind(m), None, weighted_sums(m, v).values)
    cand = np.where(
        rows == _state_max(m, rows)[m.row_state],
        np.arange(m.num_rows, dtype=np.int64),
        m.num_rows,
    )
    return np.minimum.reduceat(cand, m.state_ptr[:-1]) - m.state_ptr[:-1]


def is_feasible(m, v, tol=None, sums=None, backup=None):
    """Test one-step dominance: v >= (backup of v) componentwise.

    Uses the standard backup for discounted models and the undiscounted
    backup for total-reward models — dominance is always measured against
    the one-step operator, whatever backup a solver happens to run.
    ``tol`` defaults to ``membership_tolerance(v)``.  A caller that already
    holds the one-step backup of ``v`` passes it as ``backup``, and the test
    compares it instead of backing ``v`` up again.

    Sums over some rows only (``weighted_sums(m, v, rows=...)``) test those
    rows only: a caller passes them when a bound has cleared every other
    row, as the accelerated step's output check does.  A state's backup is
    the maximum of its rows' values, so with every other row cleared the
    verdict is the all-rows one.

    Raises:
        ValueError: ``sums`` were computed for a different vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if tol is None:
        tol = membership_tolerance(v)
    if backup is None and sums is not None and sums.rows is not None:
        if not sums.matches(v):
            raise ValueError("weighted sums were computed for a different vector")
        values = _row_values(m, one_step_kind(m), None, sums.values, sums.rows)
        return bool((values <= (v + tol)[m.row_state[sums.rows]]).all())
    if backup is None:
        backup = _backup(m, one_step_kind(m), v, require_sums(m, v, sums).values)
    return bool((backup <= v + tol).all())


def is_feasible_gs(m, v, tol=None):
    """Dominance against the Gauss-Seidel sweep: v >= sweep(v).

    A strictly weaker requirement than one-step dominance — there are
    vectors that dominate their sweep but not their simultaneous backup.
    """
    v = np.asarray(v, dtype=np.float64)
    if tol is None:
        tol = membership_tolerance(v)
    return bool(np.all(apply_operator(m, v, OperatorKind.GAUSS_SEIDEL) <= v + tol))
