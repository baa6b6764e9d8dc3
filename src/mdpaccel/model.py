"""Finite Markov decision process models.

A model is stored in a row-compressed sparse layout: every (state, action)
pair owns one transition row, rows are grouped by state in ascending state
order, and each row keeps its nonzero columns strictly increasing.  The
layout serves every density from one nonzero per row up to fully dense.

Every weighted sum ``s = sum_j p(k, j) * v[j]`` runs scipy's CSR matvec
kernel over ``row_matrix``'s stored entries; ``operators._kernel``, the
one entry to it, states how a row sum is accumulated.

Models are immutable after construction and safe to share across threads.
Derived views used by the numeric kernels are built lazily and cached.
Those of the transitions and discount (the sparse matrix over rows, every
state's row count, the owning state and self-loop probability of every
row, the Jacobi denominators, and the row statistics the rounding bound
reads) live in one ``_views`` dict, which a reward-shifted copy shares by
reference.  ``max_abs_reward`` and the Gauss-Seidel sweep's per-state
table read the rewards and are cached per instance.
"""

from __future__ import annotations

import codecs
import gc
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain

import numpy as np
import scipy.sparse as sp

ROW_SUM_TOL = 1e-9
# Unit roundoff of float64: a rounded operation's relative error is at most this.
UNIT_ROUNDOFF = 2.0**-53
# Types a JSON number parses to; type(True) is bool, so booleans are not numbers here.
_JSON_NUMBERS = frozenset((int, float))
# Columns above 2**53 are no state index, and floats no longer hold them exactly.
_MAX_COLUMN = 2.0**53
# Column indices are stored in 32 bits whenever every column fits.
_INT32 = np.iinfo(np.int32)
# Characters of a given value that an error message repeats.
SHOWN_CHARS = 80


def shown(value, text=repr) -> str:
    """``text(value)`` for an error message, cut to ``SHOWN_CHARS`` characters and "..."."""
    out = text(value)
    return out if len(out) <= SHOWN_CHARS else out[:SHOWN_CHARS] + "..."


class RewardMode(str, Enum):
    DISCOUNTED = "discounted"
    TOTAL_REWARD = "total_reward"


class ModelFormatError(ValueError):
    """A model file could not be parsed into the expected shape."""


class ModelValidationError(ValueError):
    """A structurally parseable model violates a model invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid model: {shown}{more}")


@dataclass(frozen=True)
class Violation:
    """One broken model invariant, located by rule name and position."""

    rule: str
    state: int | None = None
    action: int | None = None
    detail: str = ""

    def __str__(self):
        where = ""
        if self.state is not None:
            where = f" at state {self.state}"
            if self.action is not None:
                where += f" action {self.action}"
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.rule}{where}{tail}"


class _view:
    """A view of a model, built on its first read and kept as an attribute.

    ``setattr`` keeps CPython's compact attribute storage, which reading
    ``__dict__`` gives up, tripling the cost of every attribute load.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, m, owner=None):
        if m is None:
            return self
        view = self.fget(m)
        setattr(m, self.name, view)  # no __set__ here, so later reads find the attribute
        return view

    def fget(self, m):
        return self.build(m)


class _shared_view(_view):
    """A view of the transitions and discount, built once per ``_views`` dict,
    which a reward-shifted copy shares with its input."""

    def fget(self, m):
        if self.name not in m._views:
            m._views[self.name] = self.build(m)
        return m._views[self.name]


@dataclass(eq=False)
class MdpModel:
    """A finite MDP in compressed row layout.

    Attributes:
        num_states: number of states, indexed 0..num_states-1.
        discount: discount factor; strictly below 1 for discounted models
            and exactly 1 for total-reward models.
        mode: reward criterion the model is meant to be solved under.
        state_ptr: int array of length num_states+1; the rows belonging to
            state i are state_ptr[i]:state_ptr[i+1].
        rewards: per-row immediate reward, length num_rows.
        row_ptr: int array of length num_rows+1 delimiting each row's
            nonzeros inside cols/probs.
        cols: nonzero column indices, strictly increasing within a row;
            int32 when every column fits in int32, which ``row_matrix``
            then adopts as its ``indices``, and int64 otherwise, so an
            out-of-range column is kept as given for ``validate_model``.
        probs: transition probabilities matching cols.
        metadata: optional origin metadata (generator settings) carried
            through serialization.
    """

    num_states: int
    discount: float
    mode: RewardMode
    state_ptr: np.ndarray
    rewards: np.ndarray
    row_ptr: np.ndarray
    cols: np.ndarray
    probs: np.ndarray
    metadata: dict | None = None
    _views: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        self.state_ptr = np.ascontiguousarray(self.state_ptr, dtype=np.int64)
        self.rewards = np.ascontiguousarray(self.rewards, dtype=np.float64)
        self.row_ptr = np.ascontiguousarray(self.row_ptr, dtype=np.int64)
        self.cols = _column_array(self.cols)
        self.probs = np.ascontiguousarray(self.probs, dtype=np.float64)

    @classmethod
    def from_rows(cls, states, discount, mode=RewardMode.DISCOUNTED, metadata=None):
        """Build a model from nested lists.

        Args:
            states: one entry per state; each entry is a list of
                (reward, transitions) pairs, where transitions is an
                iterable of (column, probability) pairs.
            discount: discount factor.
            mode: reward criterion.
            metadata: optional origin-metadata dict.
        """
        state_ptr = [0]
        rewards: list[float] = []
        row_ptr = [0]
        cols: list[int] = []
        probs: list[float] = []
        for actions in states:
            for reward, transitions in actions:
                rewards.append(float(reward))
                for c, p in transitions:
                    cols.append(int(c))
                    probs.append(float(p))
                row_ptr.append(len(cols))
            state_ptr.append(len(rewards))
        return cls(
            num_states=len(states),
            discount=float(discount),
            mode=RewardMode(mode),
            state_ptr=np.array(state_ptr, dtype=np.int64),
            rewards=np.array(rewards, dtype=np.float64),
            row_ptr=np.array(row_ptr, dtype=np.int64),
            cols=np.array(cols, dtype=np.int64),
            probs=np.array(probs, dtype=np.float64),
            metadata=metadata,
        )

    @property
    def num_rows(self) -> int:
        return len(self.rewards)

    @property
    def _row_matrix(self) -> sp.csr_matrix | None:
        """``row_matrix`` once built, else None; the benchmark's tracer reads it."""
        return self._views.get("row_matrix")

    @_shared_view
    def row_matrix(self) -> sp.csr_matrix:
        """Sparse (num_rows x num_states) matrix of all transition rows.

        Its ``data`` and, for int32 ``cols``, its ``indices`` are the model's
        own arrays, neither copied nor scanned; only the row pointers are
        narrowed to the index dtype.
        """
        return sp.csr_matrix((self.probs, self.cols, self.row_ptr), shape=(self.num_rows, self.num_states))

    @_shared_view
    def row_counts(self) -> np.ndarray:
        """Number of rows (actions) of every state.

        ``np.repeat(x, m.row_counts)`` spreads a per-state vector over the
        rows, the same values as ``x[m.row_state]`` without an index gather.
        """
        return np.diff(self.state_ptr)

    @_shared_view
    def row_state(self) -> np.ndarray:
        """Owning state index of every row."""
        return np.repeat(np.arange(self.num_states, dtype=np.int64), self.row_counts)

    @_shared_view
    def self_loop_probs(self) -> np.ndarray:
        """Per-row probability of staying in the owning state (0 when absent)."""
        # scipy's element lookup reads each row's own-state entry in place
        own = self.row_matrix[np.arange(self.num_rows), self.row_state]
        return np.asarray(own, dtype=np.float64).ravel()

    @_shared_view
    def jacobi_denominator(self) -> tuple[np.ndarray, float]:
        """Per-row ``1 - discount * p(i,i)`` of the Jacobi backups, and its minimum.

        The minimum is inf for a model without rows.
        """
        denominator = 1.0 - self.discount * self.self_loop_probs
        return denominator, float(denominator.min()) if denominator.size else math.inf

    @_shared_view
    def max_row_nnz(self) -> int:
        """Most stored entries in any row."""
        return int(np.diff(self.row_ptr).max()) if self.num_rows else 0

    @_shared_view
    def row_sum_deviation(self) -> float:
        """Upper bound on ``|sum_j p(k, j) - 1|`` over rows, for the exact sums.

        Each row is summed by the CSR kernel; the measured deviation is
        raised by ``2 * max_row_nnz * u * max sum`` (``u`` the unit
        roundoff), which bounds the summation's rounding.  Inf when any
        probability is negative, where a row sum no longer bounds how far a
        row's weighted sum can move; NaN when a probability is NaN.
        """
        if self.probs.size and float(self.probs.min()) < 0.0:
            return math.inf
        sums = self.row_matrix @ np.ones(self.num_states)
        slack = 2.0 * self.max_row_nnz * UNIT_ROUNDOFF * float(sums.max(initial=0.0))
        return float(np.abs(sums - 1.0).max(initial=0.0)) + slack

    @_view
    def state_rows(self) -> list[tuple]:
        """Per state: its row count, its rows' pointers, its row slice and its rewards.

        Entry ``i`` is ``(count, ptr, rows, rewards)``: ``ptr`` is the view
        ``row_matrix.indptr[lo:hi + 1]`` of state ``i``'s rows ``lo:hi``,
        ``rows`` is ``slice(lo, hi)`` and ``rewards`` the view
        ``self.rewards[lo:hi]``.  The Gauss-Seidel sweep reads one entry per
        state instead of slicing the model's arrays again on every sweep.
        It holds reward views, so a reward-shifted copy builds its own.
        """
        indptr, bounds = self.row_matrix.indptr, self.state_ptr.tolist()
        return [
            (hi - lo, indptr[lo:hi + 1], slice(lo, hi), self.rewards[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    @_view
    def max_abs_reward(self) -> float:
        """Largest reward magnitude."""
        return float(np.abs(self.rewards).max()) if self.num_rows else 0.0


def _column_array(cols) -> np.ndarray:
    """``cols`` as a contiguous int32 array when every column fits, else as int64.

    An int32 array is taken as it is, without a scan.
    """
    cols = np.asarray(cols)
    if cols.dtype == np.int32:
        return np.ascontiguousarray(cols)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    if cols.min(initial=0) >= _INT32.min and cols.max(initial=0) <= _INT32.max:
        return cols.astype(np.int32)
    return cols


def models_identical(a: MdpModel, b: MdpModel) -> bool:
    """True when every stored field of the two models matches exactly."""
    return (
        a.num_states == b.num_states
        and a.discount == b.discount
        and a.mode == b.mode
        and np.array_equal(a.state_ptr, b.state_ptr)
        and np.array_equal(a.rewards, b.rewards)
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.probs, b.probs)
        and a.metadata == b.metadata
    )


def validate_model(m: MdpModel) -> list[Violation]:
    """Check every model invariant and return the list of violations.

    An empty list means the model is valid.  Checks cover the array
    layout, state/action structure, probability ranges, column ordering,
    row sums (1e-9 absolute), reward finiteness, and the discount/mode
    coupling.  The other checks index the arrays, so a broken layout is
    reported alone, after any discount violation.
    """
    out: list[Violation] = []
    if m.num_states < 1:
        out.append(Violation("num-states", detail=f"got {m.num_states}"))
        return out
    if not math.isfinite(m.discount) or m.discount < 0.0 or m.discount > 1.0:
        out.append(Violation("discount-range", detail=f"got {m.discount!r}"))
    elif m.mode is RewardMode.DISCOUNTED and m.discount >= 1.0:
        out.append(Violation("discount-mode", detail="discounted model needs discount < 1"))
    elif m.mode is RewardMode.TOTAL_REWARD and m.discount != 1.0:
        out.append(Violation("discount-mode", detail="total-reward model needs discount = 1"))

    sp, rp, rows, nnz = m.state_ptr, m.row_ptr, m.num_rows, m.cols.size
    if len(sp) != m.num_states + 1 or sp[0] != 0 or sp[-1] != rows:
        return out + [Violation("layout", detail=f"state_ptr needs {m.num_states + 1} entries from 0 to {rows}")]
    if len(rp) != rows + 1 or rp[0] != 0 or rp[-1] != nnz:
        return out + [Violation("layout", detail=f"row_ptr needs {rows + 1} entries from 0 to {nnz}")]
    if m.probs.size != nnz:
        return out + [Violation("layout", detail=f"probs needs {nnz} entries, one per column")]

    counts = np.diff(m.state_ptr)
    for i in np.flatnonzero(counts < 1):
        out.append(Violation("no-actions", state=int(i)))
    if np.any(counts < 1):
        return out

    def locate(row: int) -> tuple[int, int]:
        s = int(np.searchsorted(m.state_ptr, row, side="right") - 1)
        return s, int(row - m.state_ptr[s])

    bad_reward = ~np.isfinite(m.rewards)
    for k in np.flatnonzero(bad_reward):
        s, a = locate(int(k))
        out.append(Violation("reward-finite", s, a, f"got {m.rewards[k]!r}"))

    nnz_per_row = np.diff(m.row_ptr)
    for k in np.flatnonzero(nnz_per_row < 1):
        s, a = locate(int(k))
        out.append(Violation("empty-row", s, a))
    if np.any(nnz_per_row < 1):
        return out

    def owners(bad: np.ndarray) -> list[int]:
        """The rows that own the flagged entries, ascending, each once."""
        if not bad.any():
            return []
        return np.unique(np.searchsorted(m.row_ptr, np.flatnonzero(bad), side="right") - 1).tolist()

    for k in owners(~((m.probs > 0.0) & (m.probs <= 1.0))):
        s, a = locate(k)
        out.append(Violation("probability-range", s, a))

    bad_col_rows = owners((m.cols < 0) | (m.cols >= m.num_states))
    for k in bad_col_rows:
        s, a = locate(k)
        out.append(Violation("column-range", s, a))
    if not bad_col_rows and m.cols.size:
        # an entry that does not rise above the one before it, unless it starts a row
        falls = np.zeros(m.cols.size, dtype=bool)
        np.less_equal(m.cols[1:], m.cols[:-1], out=falls[1:])
        falls[m.row_ptr[:-1]] = False
        for k in owners(falls):
            s, a = locate(k)
            out.append(Violation("column-order", s, a))

    with np.errstate(invalid="ignore"):
        row_sums = np.add.reduceat(m.probs, m.row_ptr[:-1])
    off = np.abs(row_sums - 1.0) > ROW_SUM_TOL
    off |= ~np.isfinite(row_sums)
    for k in np.flatnonzero(off):
        s, a = locate(int(k))
        out.append(Violation("row-sum", s, a, f"sums to {row_sums[k]!r}"))
    return out


def adjust_rewards_nonnegative(m: MdpModel) -> tuple[MdpModel, float]:
    """Shift every reward by max |reward| so all rewards are nonnegative.

    The shift is applied unconditionally, including when rewards are
    already nonnegative.  Transition rows are shared with the input model,
    and so is its ``_views`` dict: every view of the transitions and
    discount that either model builds, before or after the shift, serves
    both.  Returns the shifted model and the offset; the fixed point moves
    up by offset / (1 - discount).

    Raises:
        ValueError: for total-reward models, where a uniform shift changes
            the problem rather than translating its solution.
    """
    if m.mode is not RewardMode.DISCOUNTED:
        raise ValueError("reward adjustment is only defined for discounted models")
    offset = m.max_abs_reward
    shifted = replace(m, rewards=m.rewards + offset)
    shifted._views = m._views
    return shifted, offset


def initial_feasible_point(m: MdpModel) -> np.ndarray:
    """Constant starting vector that dominates its own backup.

    With nonnegative rewards, the constant max(reward) / (1 - discount)
    satisfies v >= Tv in every component, so accelerated runs can start
    from it.

    Raises:
        ValueError: for total-reward models or when any reward is negative
            (shift rewards first).
    """
    if m.mode is not RewardMode.DISCOUNTED:
        raise ValueError("constant feasible start requires a discounted model")
    if m.num_rows and float(np.min(m.rewards)) < 0.0:
        raise ValueError("feasible start needs nonnegative rewards; adjust rewards first")
    top = float(np.max(m.rewards)) if m.num_rows else 0.0
    alpha = top / (1.0 - m.discount)
    return np.full(m.num_states, alpha, dtype=np.float64)


def absorbing_states(m: MdpModel) -> np.ndarray:
    """Indices of zero-reward absorbing states.

    A state qualifies when every one of its actions is an exact self-loop
    with probability 1 and reward 0.
    """
    ok = (np.diff(m.row_ptr) == 1) & (m.rewards == 0.0)
    at = m.row_ptr[:-1][ok]
    ok[ok] = (m.cols[at] == m.row_state[ok]) & (np.abs(m.probs[at] - 1.0) <= ROW_SUM_TOL)
    return np.flatnonzero(np.minimum.reduceat(ok, m.state_ptr[:-1]))


def initial_feasible_point_total_reward(m: MdpModel) -> np.ndarray:
    """Starting vector above the fixed point for positive absorbing models.

    Puts 0 on every zero-reward absorbing state and a single constant M on
    the rest, with M = max over transient rows of reward / (probability of
    stepping into the absorbing set).  Such a vector dominates its own
    backup, which is what descending total-reward runs need.

    Raises:
        ValueError: when the model has no absorbing state, or some
            positive-reward row never reaches the absorbing set directly.
    """
    if m.mode is not RewardMode.TOTAL_REWARD:
        raise ValueError("this construction only applies to total-reward models")
    absorbing = absorbing_states(m)
    if absorbing.size == 0:
        raise ValueError("no zero-reward absorbing state found")
    is_absorbing = np.zeros(m.num_states, dtype=bool)
    is_absorbing[absorbing] = True

    into_absorbing = m.row_matrix @ is_absorbing.astype(np.float64)

    transient_row = ~is_absorbing[m.row_state]
    stuck = transient_row & (m.rewards > 0.0) & (into_absorbing <= 0.0)
    if np.any(stuck):
        k = int(np.flatnonzero(stuck)[0])
        s = int(m.row_state[k])
        raise ValueError(
            f"state {s} has a positive-reward action with no direct transition "
            "into the absorbing set; no constant dominating start exists"
        )
    usable = transient_row & (into_absorbing > 0.0)
    level = float(np.max(m.rewards[usable] / into_absorbing[usable])) if np.any(usable) else 0.0
    v = np.full(m.num_states, level, dtype=np.float64)
    v[absorbing] = 0.0
    return v


def too_many_digits() -> str:
    """The error for an integer literal longer than ``int`` converts from text."""
    return f"an integer has more than {sys.get_int_max_str_digits()} digits, the longest decoded"


def decoder_refusal(exc: Exception) -> str:
    """The error for a JSON document the decoder refuses past the interpreter's limits.

    The decoder recurses once per level of nesting, so a ``RecursionError``
    is a document nested too deeply; a ``ValueError`` that is no syntax
    fault is ``int()`` refusing a literal past the digit limit.
    """
    if isinstance(exc, RecursionError):
        return "arrays or objects nested too deeply to decode"
    return too_many_digits()


def _reject_constant(name):
    raise ModelFormatError(f"non-finite number {name!r} is not permitted")


# Decodes one JSON value at a given index of the buffered text.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# JSON's whitespace: space, tab, line feed and carriage return.
_skip_space = json.decoder.WHITESPACE.match
# Characters that may follow a complete value in a valid document.  A value
# decoded up to the end of the buffered text, or up to any other character,
# may have been cut short by the window, and is decoded again after a refill.
_FOLLOWERS = frozenset(" \t\n\r,:]}")
# Bytes ``load_model`` reads from a file at a time.  The window it walks
# holds about a chunk of text, not the whole document.  A refill carries
# over less than one value, not a chunk: on dense-pa's 8.6 MB model a load
# then makes about 1,000 page faults, where carrying a chunk made 6,063 and
# reading the file whole 4,178.
_CHUNK_BYTES = 1 << 20
# Transition entries converted in one ``_loaded_pairs`` call.  A block's
# entries, about 130 bytes each as Python objects, are the only ones alive
# beside one state's.  On dense-pa's shape (80 states, 45-56 actions, an
# 8.6 MB file) the walk's traced peak beyond the text was 6.5 MB with blocks
# of 4,096 entries (5.2 MB of it the arrays), 8.1 MB with 16,384 and 14.4 MB
# with 65,536, while load times for 1,024 to 65,536 stayed within host noise
# of each other.  Converting per state instead loaded a 3000-state model
# with 2-4 actions and 15 entries per row in 0.28 s rather than 0.14 s.
_BLOCK_ENTRIES = 1 << 12


def _loaded_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer past float range
        raise ModelFormatError(f"{what} has a number too large for a float") from None


def _loaded_pairs(entries, locate) -> tuple[np.ndarray, np.ndarray]:
    """Transition entries as a column array and a probability array.

    One type scan, one length check, one conversion and one column check
    cover all of ``entries`` at once; only on failure is the list walked to
    find the first bad entry, whose path ``locate(j)`` names.  The columns
    are int32 when all of them fit, and int64 otherwise, so that a column
    out of int32's range reaches ``validate_model`` as it was written.
    """
    try:
        numeric = _JSON_NUMBERS.issuperset(map(type, chain.from_iterable(entries)))
    except TypeError:  # an entry that is not an array
        numeric = False
    if not (numeric and set(map(len, entries)) == {2}):
        for j, pair in enumerate(entries):
            if type(pair) is not list or len(pair) != 2 or not _JSON_NUMBERS.issuperset(map(type, pair)):
                raise ModelFormatError(
                    f"{locate(j)} must be a [column, probability] pair of numbers, got {shown(pair, json.dumps)}"
                )
    try:
        pairs = np.fromiter(chain.from_iterable(entries), np.float64, 2 * len(entries)).reshape(-1, 2)
    except OverflowError:
        j = next(j for j, pair in enumerate(entries) if max(map(abs, pair)) > sys.float_info.max)
        raise ModelFormatError(f"{locate(j)} has a number too large for a float") from None
    c = pairs[:, 0]
    bad = np.flatnonzero((c != np.floor(c)) | (np.abs(c) > _MAX_COLUMN))
    if bad.size:
        j = int(bad[0])
        raise ModelFormatError(f"{locate(j)} column {float(c[j])!r} is not an integer index")
    # numpy's cast of a float outside int32's range is undefined, so check first
    fits = c.min(initial=0.0) >= _INT32.min and c.max(initial=0.0) <= _INT32.max
    return c.astype(np.int32 if fits else np.int64), pairs[:, 1].copy()


class _Window:
    """The part of a model file that the walk still needs, as text.

    Every position the walk holds is an index into ``text``.  The window
    reads its binary file ``_CHUNK_BYTES`` at a time through a strict
    incremental UTF-8 decoder, and each refill drops the text before the
    value the walk is at.  A method that reads raises
    ``UnicodeDecodeError`` on bytes that are not UTF-8.
    """

    def __init__(self, file):
        self.text = ""
        self.eof = False
        self._file = file
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        self._last = 0  # the length of the value decoded last

    def refill(self, pos: int) -> int:
        """Drop the text before ``pos``, read on, and return ``pos``'s new index.

        A refill reads as many bytes as are buffered from ``pos`` on, and at
        least a chunk, so a value longer than the window doubles it on each
        failed decode and is decoded in time linear in its length.
        """
        keep = self.text[pos:]
        self.text = ""
        size = max(_CHUNK_BYTES, len(keep))
        new = ""
        while not new and not self.eof:
            raw = self._file.read(size)
            self.eof = not raw
            new = self._utf8.decode(raw, final=self.eof)
            del raw
        self.text = keep + new
        return 0

    def space(self, pos: int) -> int:
        """The index of the first non-whitespace character at or after ``pos``.

        That is ``len(text)`` only at the end of the document.
        """
        pos = _skip_space(self.text, pos).end()
        while pos == len(self.text) and not self.eof:
            pos = self.refill(pos)
            pos = _skip_space(self.text, pos).end()
        return pos

    def char(self, pos: int, expected: str) -> tuple[str, int]:
        """The first non-whitespace character at or after ``pos``, and its index.

        Raises:
            json.JSONDecodeError: the character is none of ``expected``.
        """
        pos = self.space(pos)
        char = self.text[pos:pos + 1]
        if not char or char not in expected:
            raise json.JSONDecodeError(f"expecting one of {expected!r}", self.text, pos)
        return char, pos

    def value(self, pos: int) -> tuple[object, int]:
        """The JSON value that starts at ``pos``, and the index past it.

        The window refills first when it holds less text than the previous
        value took, so a run of values of like length, such as the states
        of one model, is decoded at the first attempt, and a refill carries
        over less than one value's text.

        Raises:
            json.JSONDecodeError, ValueError: the value is not JSON, or has
                an integer longer than ``int`` converts, up to the end of
                the document.
            ModelFormatError: a NaN or infinity in it.
        """
        if not self.eof and len(self.text) - pos < self._last:
            pos = self.refill(pos)
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, pos)
            except ModelFormatError:
                raise
            except ValueError:  # the value, or one of its integers, may be cut short
                if self.eof:
                    raise
            else:
                if self.eof or self.text[end:end + 1] in _FOLLOWERS:
                    self._last = end - pos
                    return value, end
            pos = self.refill(pos)


@dataclass
class _States:
    """The ``states`` array as ``_read_states`` converted it.

    ``cols`` and ``probs`` hold one array per converted block of entries.
    """

    state_ptr: list = field(default_factory=lambda: [0])
    rewards: list = field(default_factory=list)
    row_ptr: list = field(default_factory=lambda: [0])
    cols: list = field(default_factory=list)
    probs: list = field(default_factory=list)


def _read_states(w: _Window, start: int):
    """Read the ``states`` array that opens at ``w.text[start]``, one element at a time.

    Each state is decoded alone and checked for shape.  Its transition
    entries wait in one list, which ``_loaded_pairs`` converts in blocks of
    ``_BLOCK_ENTRIES``, so one block and one state are all the entries alive
    as Python objects.  After the first fault the rest of the array is
    only decoded, so a later syntax fault is still raised first; then the
    entries before a shape fault are converted, so of two faults the one
    earlier in the document is kept.

    Returns ``(states, end)``: ``states`` is a ``_States``, or the
    ``ModelFormatError`` of the first fault, which is returned rather than
    raised because a later ``states`` field replaces this one; ``end`` is
    the index past the array.

    Raises:
        json.JSONDecodeError, ValueError, ModelFormatError: as ``_Window.value``.
    """
    out = _States()
    pending: list = []  # entries not converted yet

    def locate(j: int) -> str:
        k = bisect_right(out.row_ptr, j) - 1
        i = bisect_right(out.state_ptr, k) - 1
        return f"states[{i}].actions[{k - out.state_ptr[i]}].transitions[{j - out.row_ptr[k]}]"

    def convert(entries):
        done = sum(map(len, out.probs))
        cols, probs = _loaded_pairs(entries, lambda j: locate(done + j))
        out.cols.append(cols)
        out.probs.append(probs)

    fault = None
    pos = w.space(start + 1)
    more = w.text[pos:pos + 1] != "]"
    while more:
        sdoc, pos = w.value(pos)
        i = len(out.state_ptr) - 1
        try:
            if fault is None:
                if not isinstance(sdoc, dict) or "actions" not in sdoc:
                    raise ModelFormatError(f"states[{i}] must be an object with an 'actions' field")
                actions = sdoc["actions"]
                if not isinstance(actions, list):
                    raise ModelFormatError(f"states[{i}].actions must be an array")
                for a, adoc in enumerate(actions):
                    where = f"states[{i}].actions[{a}]"
                    if not isinstance(adoc, dict) or "reward" not in adoc or "transitions" not in adoc:
                        raise ModelFormatError(f"{where} must be an object with 'reward' and 'transitions'")
                    out.rewards.append(_loaded_number(adoc["reward"], f"{where}.reward"))
                    trans = adoc["transitions"]
                    if not isinstance(trans, list):
                        raise ModelFormatError(f"{where}.transitions must be an array")
                    pending += trans
                    out.row_ptr.append(out.row_ptr[-1] + len(trans))
                out.state_ptr.append(len(out.rewards))
                while len(pending) >= _BLOCK_ENTRIES:
                    convert(pending[:_BLOCK_ENTRIES])
                    del pending[:_BLOCK_ENTRIES]
        except ModelFormatError as e:
            fault = e
        char, pos = w.char(pos, ",]")
        more = char == ","
        if more:
            pos = w.space(pos + 1)
    try:
        convert(pending)  # the entries before a shape fault are earlier in the document
    except ModelFormatError as earlier:
        fault = earlier
    return fault or out, pos + 1


def _walk(w: _Window) -> dict:
    """The fields of the top-level object, read in document order.

    Every field but ``states`` is decoded whole; an array ``states`` is
    read by ``_read_states``.  A repeated key keeps its last value, as in a
    whole-document parse.

    Raises:
        json.JSONDecodeError: the text is not JSON, or not an object.
    """
    _, pos = w.char(0, "{")
    fields = {}
    char, pos = w.char(pos + 1, '"}')
    while char != "}":
        key, pos = w.value(pos)
        _, pos = w.char(pos, ":")
        pos = w.space(pos + 1)
        if key == "states" and w.text[pos:pos + 1] == "[":
            fields[key], pos = _read_states(w, pos)
        else:
            fields[key], pos = w.value(pos)
        char, pos = w.char(pos, ",}")
        if char == ",":
            char, pos = w.char(pos + 1, '"')
    end = w.space(pos + 1)
    if end != len(w.text):
        raise json.JSONDecodeError("Extra data", w.text, end)
    return fields


def _utf8_text(path) -> str:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"byte {e.start}: not UTF-8 ({e.reason})") from None


def _fields(path) -> dict:
    """The top-level fields of the model file at ``path``, walked once through a window.

    The cyclic collector is paused meanwhile: a JSON document has no cycles,
    but decoding allocates one container per transition entry, and every
    collection the allocations trigger would scan all of them.  Bytes that
    are not UTF-8 anywhere in the file are reported first, by their offset,
    and a syntax fault in ``json.loads``'s words, line and column; the file
    is read again whole for these two faults only.  The decoder recurses
    once per level of nesting, so a document nested deeper than the
    interpreter's recursion limit is refused unlocated, and so is an
    integer longer than the interpreter converts from text.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as f:
            w = _Window(f)
            try:
                return _walk(w)
            except (UnicodeDecodeError, json.JSONDecodeError):
                pass  # located or worded below, from the whole text
            except (ValueError, RecursionError):
                try:
                    while not w.eof:  # bytes that are not UTF-8 after the fault come first
                        w.refill(len(w.text))
                except UnicodeDecodeError:
                    pass
                else:
                    raise
        del w  # the text it holds goes before the whole text is read
        try:
            json.loads(_utf8_text(path), parse_constant=_reject_constant)
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
        # the walk refuses a document json.loads accepts only when it is no object
        raise ModelFormatError("top level must be an object")
    except ModelFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(decoder_refusal(exc)) from None
    finally:
        if collecting:
            gc.enable()


def load_model(path) -> MdpModel:
    """Load and validate a model from a JSON file.

    The file is read forward in ``_CHUNK_BYTES`` chunks through a strict
    incremental UTF-8 decoder, and the document is walked through a window
    of its text: each top-level field is decoded alone, and so is each
    element of ``states``, which is checked for shape before the next is
    decoded; transition entries are converted in blocks of
    ``_BLOCK_ENTRIES``.  Each refill drops the text already walked, and a
    value longer than the window doubles it until it fits.  So about a
    chunk of text, one state, one block and the arrays are what a load
    holds at once, and columns that fit are stored in 32 bits: the traced
    peak is about the file's size, for a valid file and for a malformed
    one alike.  After a fault in ``states`` the walk decodes the rest of
    the array, so a later syntax fault is reported first and a repeated
    ``states`` field replaces the faulty one; of two faults inside one
    ``states``, the one earlier in the file is reported.

    Raises:
        ModelFormatError: bytes that are not UTF-8 (with their offset),
            unparseable JSON (with line position) or a structurally wrong
            document (naming the offending field).
        ModelValidationError: parseable document violating model invariants.
    """
    doc = _fields(path)
    metadata = doc.get("generator")
    if metadata is not None and not isinstance(metadata, dict):
        raise ModelFormatError("generator must be an object")
    for key in ("mode", "discount", "states"):
        if key not in doc:
            raise ModelFormatError(f"missing field {key!r}")
    try:
        mode = RewardMode(doc["mode"])
    except ValueError:
        raise ModelFormatError(f"mode must be one of "
                               f"{[e.value for e in RewardMode]}, got {shown(doc['mode'])}") from None
    discount = _loaded_number(doc["discount"], "discount")
    states = doc.pop("states")
    if isinstance(states, ModelFormatError):
        raise states from None
    if not isinstance(states, _States):
        raise ModelFormatError("states must be an array")
    # each list of blocks goes once it is joined, so one is alive beside the arrays
    cols = np.concatenate(states.cols)
    states.cols.clear()
    probs = np.concatenate(states.probs)
    states.probs.clear()
    m = MdpModel(
        num_states=len(states.state_ptr) - 1,
        discount=discount,
        mode=mode,
        state_ptr=np.array(states.state_ptr, dtype=np.int64),
        rewards=np.array(states.rewards, dtype=np.float64),
        row_ptr=np.array(states.row_ptr, dtype=np.int64),
        cols=cols,
        probs=probs,
        metadata=metadata,
    )
    del states  # its reward and pointer lists go before validation makes its temporaries
    violations = validate_model(m)
    if violations:
        raise ModelValidationError(violations)
    return m


def save_model(m: MdpModel, path) -> None:
    """Write a validated model to a JSON file.

    The writer formats one state at a time: every transition entry of the
    state in one pass, then one joined string per action, then one write
    for the whole state, so fully dense models never hold a second copy
    of more than one state in memory.  Floats are written with repr
    precision, so a load of the saved file reproduces every stored value
    exactly.
    """
    violations = validate_model(m)
    if violations:
        raise ModelValidationError(violations)
    state_ptr, row_ptr, rewards = m.state_ptr.tolist(), m.row_ptr.tolist(), m.rewards.tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"mode": %s, "discount": %r' % (json.dumps(m.mode.value), m.discount))
        if m.metadata is not None:
            f.write(', "generator": %s' % json.dumps(m.metadata, allow_nan=False))
        f.write(', "states": [')
        for i in range(m.num_states):
            k0, k1 = state_ptr[i], state_ptr[i + 1]
            lo, hi = row_ptr[k0], row_ptr[k1]
            entries = [f"[{c},{p!r}]" for c, p in zip(m.cols[lo:hi].tolist(), m.probs[lo:hi].tolist())]
            actions = ",".join(
                '{"reward": %r, "transitions": [%s]}'
                % (rewards[k], ",".join(entries[row_ptr[k] - lo:row_ptr[k + 1] - lo]))
                for k in range(k0, k1)
            )
            f.write('%s{"actions": [%s]}' % ("," if i else "", actions))
        f.write("]}\n")
