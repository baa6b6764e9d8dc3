"""Random benchmark instance generators.

Three families, all driven by numpy's PCG64 generator so a (family,
parameters, seed) triple pins the instance byte for byte:

* ``uniform`` — every action's successor set is a uniform no-replacement
  draw from all states, with a fixed support size per row set by
  ``density``;
* ``band`` — successors are confined to a window of ``bandwidth`` states
  centered on the owning state (truncated at the edges), giving banded
  transition structure at any size;
* ``total_reward_positive`` — an undiscounted model with a single
  zero-reward absorbing terminal state that every other action can reach
  in one step, so runs that descend from above terminate.

Draw order per state: the action count, then all action rewards at once,
then per action the successor columns and their weights.  Weights are
drawn as ``1 - uniform(0, 1)`` (never exactly zero) and normalized.  Rows
whose columns need no draw (band windows, full density) take all of a
state's weights in one block, which consumes the stream exactly as the
per-action draws would.  A sparse row's support is, by definition, a
``choice(population, size, replace=False)``, sorted, followed by its
weights from ``random``; a state's sparse rows take all those draws from
one raw PCG64 read, which reproduces the per-row ``choice``/``random``
stream bit for bit (verified on numpy 2.4.6; see ``_SparseRows``), and
Floyd's algorithm then runs over blocks of rows at once.  A state that
one read cannot settle (a draw Lemire's method rejects, or ``choice``'s
tail-shuffle branch for large populations) falls back to one ``choice``
call per row from the same generator state, and so does a state of one
row, for which that call costs less than the read.  The generators
assemble the model's arrays directly, one chunk per state, with int32
columns, the width ``MdpModel`` stores them in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .model import MdpModel, RewardMode


class GeneratorFamily(str, Enum):
    UNIFORM = "uniform"
    BAND = "band"
    TOTAL_REWARD_POSITIVE = "total_reward_positive"


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral number is refused, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value):
    """``value`` as given; a bool or a non-real value is refused, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _plain(value):
    """A numpy scalar as the Python number it holds (JSON writes no other); else ``value``."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters pinning one random instance.

    Attributes:
        family: which structure to generate.
        num_states: number of states.
        density: fraction of all states in each row's support (uniform and
            total-reward families); each row's support size is
            ``max(1, round(density * num_states))``; 1.0 for the
            total-reward family when not given.
        bandwidth: window width for the band family; the window around
            state i is [i - bandwidth//2, i + bandwidth//2] clipped to the
            state range, and every state in the window is a successor.
        action_range: inclusive (low, high) bounds for the per-state
            action count.
        reward_range: (low, high) bounds for per-action rewards, with a
            finite width ``high - low``.
        discount: discount factor; 1.0 for the total-reward family, which
            admits no other, and 0.9 for the others when not given.
        seed: PRNG seed, at least 0.
    """

    family: GeneratorFamily
    num_states: int
    density: float | None = None
    bandwidth: int | None = None
    action_range: tuple[int, int] = (2, 99)
    reward_range: tuple[float, float] = (1.0, 100.0)
    discount: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", GeneratorFamily(self.family))
        object.__setattr__(self, "num_states", _integer("num_states", self.num_states))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.bandwidth is not None:
            object.__setattr__(self, "bandwidth", _integer("bandwidth", self.bandwidth))
        for name, bound in (("action_range", _integer), ("reward_range", _number)):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a (low, high) pair, got {pair!r}")
            object.__setattr__(self, name, (bound(name, pair[0]), bound(name, pair[1])))
        total = self.family is GeneratorFamily.TOTAL_REWARD_POSITIVE
        if self.discount is None:
            object.__setattr__(self, "discount", 1.0 if total else 0.9)
        if self.density is None and total:
            object.__setattr__(self, "density", 1.0)
        if self.num_states < 2:
            raise ValueError("need at least 2 states")
        lo, hi = self.action_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad action range {self.action_range}")
        rlo, rhi = self.reward_range
        if not rlo <= rhi:
            raise ValueError(f"bad reward range {self.reward_range}")
        if not math.isfinite(rhi - rlo):  # the uniform draw scales by the width
            raise ValueError(f"reward range {self.reward_range} has no finite width")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.family is GeneratorFamily.BAND:
            if self.density is not None:
                raise ValueError("band family takes bandwidth, not density")
            if self.bandwidth is None or not 1 <= self.bandwidth < self.num_states:
                raise ValueError("bandwidth must satisfy 1 <= bandwidth < num_states")
        else:
            if self.bandwidth is not None:
                raise ValueError(f"{self.family.value} family takes density, not bandwidth")
            if self.density is None or not 0.0 < _number("density", self.density) <= 1.0:
                raise ValueError("density must lie in (0, 1]")
            if int(round(self.density * self.num_states)) < 1:
                raise ValueError("density picks an empty successor set")
        if total:
            if _number("discount", self.discount) != 1.0:
                raise ValueError("total-reward instances are undiscounted (discount 1.0)")
            if rlo <= 0.0:
                raise ValueError("total-reward instances need strictly positive rewards")
        else:
            if not 0.0 <= _number("discount", self.discount) < 1.0:
                raise ValueError("discounted families need discount in [0, 1)")

    def metadata(self) -> dict:
        out = {
            "family": self.family.value,
            "num_states": self.num_states,
            "action_range": list(self.action_range),
            "reward_range": [_plain(x) for x in self.reward_range],
            "discount": _plain(self.discount),
            "seed": self.seed,
            "prng": "numpy-pcg64",
        }
        if self.family is GeneratorFamily.BAND:
            out["bandwidth"] = self.bandwidth
        else:
            out["density"] = _plain(self.density)
        return out


def _normalized(u: np.ndarray) -> np.ndarray:
    """Weights ``1 - u`` of uniform draws ``u``, each row normalized by its own sum.

    A row of a block is summed exactly as the same row drawn alone, so a
    block of ``k`` rows is bit-identical to ``k`` single-row blocks.
    """
    w = 1.0 - u
    return w / w.sum(axis=1, keepdims=True)


def _full_rows(rng, k: int, cols: np.ndarray):
    """Flattened columns and weights of ``k`` rows that all have the columns ``cols``.

    The rows need no support draw, so the weights of all ``k`` rows come
    from one ``(k, n)`` draw, which consumes the stream as ``k`` draws of
    ``n`` in a row.  ``random(n)`` consumes the stream as
    ``uniform(0, 1, n)`` does and gives the same values.
    """
    return np.tile(cols, k), _normalized(rng.random((k, len(cols)))).ravel()


def _choice_rows(rng, k: int, population: int, size: int, nd: int):
    """Sorted supports and ``nd`` uniforms of ``k`` rows, drawn one row at a time.

    Per row: ``choice(population, size, replace=False)``, then
    ``random(nd)``.  This is the stream ``_SparseRows`` reproduces from
    one raw read per state.
    """
    picks = np.empty((k, size), dtype=np.intp)
    u = np.empty((k, nd))
    for j in range(k):
        picks[j] = rng.choice(population, size, replace=False)
        rng.random(out=u[j])
    picks.sort(axis=1)
    return picks, u


def _floyd(draws: np.ndarray, population: int) -> np.ndarray:
    """Floyd's samples from ``range(population)``, one per row of ``draws``, sorted in place.

    Step ``t`` of a row takes its draw ``v`` in ``[0, j]``, where
    ``j = population - size + t``, unless an earlier step took ``v``, and
    then takes ``j``, which no earlier step can have taken.  Each column of
    ``draws`` is overwritten with what its step took, so ``draws`` becomes
    the samples.
    """
    rows, size = draws.shape
    base = np.arange(rows) * population
    taken = np.zeros(rows * population, dtype=bool)
    for t in range(size):
        at = draws[:, t] + base
        at = np.where(taken[at], base + (population - size + t), at)
        taken[at] = True
        draws[:, t] = at
    draws -= base[:, None]
    draws.sort(axis=1)
    return draws


# Above this population, ``Generator.choice`` draws a sample larger than
# population // 50 by a tail shuffle, whose draws ``_SparseRows`` does not
# reproduce; at or below it, and for smaller samples, it runs Floyd's algorithm.
_FLOYD_POPULATION = 10_000
# Bytes that the rows waiting for one ``_floyd`` call may hold, in their draws
# and its membership table.
_FLOYD_BLOCK = 1 << 19
# A state with fewer rows than this draws them through ``_choice_rows``,
# as a state the read cannot settle does: for one row the read's fixed
# cost outweighs ``choice``'s.  Per-row time over bulk time for states of
# 1 / 2 / 3 rows, uniform models, seed 5, min of 25 alternated runs (2-CPU
# x86-64 guest, numpy 2.4.6):
#   2000 states, density 0.01:   0.72 / 1.21 / 1.27
#   2000 states, density 0.05:   0.69 / 0.95 / 1.00
#   500 states, density 0.02:    0.57 / 0.91 / 1.24
#   5000 states, density 0.002:  0.68 / 1.03 / 1.01
# Two rows break even, and from three up the read gains.
_BULK_MIN_ROWS = 2


class _SparseRows:
    """One model's sparse rows: ``size`` of ``range(population)``, sorted, then ``tail``.

    Per state, ``draw`` reads the stream that ``_choice_rows`` would
    consume with one ``random_raw`` read, as verified on numpy 2.4.6:

    * ``choice`` makes ``size`` Lemire draws for Floyd's algorithm, the
      one for step ``t`` over ``[0, population - size + t]``, then
      ``size - 1`` more for its shuffle, whose result the sort discards;
    * each is PCG64's buffered 32-bit output: the low half of a fresh raw
      word, keeping the high half as ``has_uint32``/``uinteger`` in the
      generator state for the next 32-bit draw;
    * ``random(nd)`` takes ``nd`` whole raw words ``w`` as ``(w >> 11) * 2**-53``.

    A row takes ``2 * size - 1`` halves, an odd count, so the buffer
    alternates from row to row and the read's layout follows from its
    state on entry.  The Floyd draws wait in a block of rows, whose
    columns ``_floyd`` fills at once when the block is full; ``flush``
    fills the last block.

    A state whose draws the read cannot settle falls back to
    ``_choice_rows`` from its entry state: one with a draw that Lemire's
    method rejects (its leftover lies below ``(2**32 - span) % span``).
    So does a state of fewer than ``_BULK_MIN_ROWS`` rows, unread.
    Every state falls back, and nothing is read in bulk, on ``choice``'s
    tail-shuffle branch and when one state's rows would not fit a block.
    """

    def __init__(self, population: int, size: int, tail, max_rows: int):
        self.population, self.size, self.tail = population, size, tail
        self.nd = size + (tail is not None)
        self.pending, self.waiting = [], 0  # columns waiting for ``_floyd``, and their rows
        rows = _FLOYD_BLOCK // (8 * size + population)
        floyd_branch = population <= _FLOYD_POPULATION or size <= population // 50
        self.bulk = floyd_branch and rows >= max_rows
        if not self.bulk:
            return
        self.draws = np.empty((rows, size), dtype=np.intp)  # of the waiting rows
        self.span = np.concatenate((np.arange(population - size + 1, population + 1),
                                    np.arange(size, 1, -1))).astype(np.uint64)
        self.reject_below = (2**32 - self.span) % self.span
        self.layouts = [self._layout(max_rows, buffered) for buffered in (0, 1)]

    def _layout(self, rows: int, buffered: int):
        """Where rows ``0 .. rows - 1`` find their draws in a read that starts with ``buffered``.

        Returns each row's ``2 * size - 1`` half indices into the read's
        32-bit view, with -1 for the entry state's buffered half, its ``nd``
        word indices for ``random``, and the words that ``k`` rows read.
        """
        size, nd = self.size, self.nd
        r = np.arange(rows + 1)
        starts_buffered = (r + buffered) % 2
        word = r * (size + nd) - (r + buffered) // 2  # where row r's words start
        halves = (2 * word - starts_buffered)[:rows, None] + np.arange(2 * size - 1)
        # a row that starts buffered first takes the high half of the
        # previous row's last support word, just before that row's uniforms
        halves[:, 0] = np.where(starts_buffered[:rows], 2 * (word[:rows] - nd) - 1, halves[:, 0])
        if buffered:
            halves[0, 0] = -1
        uniforms = (word + size - starts_buffered)[:rows, None] + np.arange(nd)
        return halves, uniforms, word

    def draw(self, rng, k: int):
        """Flattened columns and weights of the next state's ``k`` rows."""
        cols = np.empty((k, self.nd), dtype=np.int32)
        if self.tail is not None:
            cols[:, self.size] = self.tail
        u = self._read(rng, cols[:, :self.size])
        if u is None:
            picks, u = _choice_rows(rng, k, self.population, self.size, self.nd)
            cols[:, :self.size] = picks
        return cols.ravel(), _normalized(u).ravel()

    def _read(self, rng, out: np.ndarray):
        """The uniforms of the rows whose supports go to ``out``, from one raw read.

        Their Floyd draws wait for ``flush`` to fill ``out``.  Returns
        None, having drawn nothing, when the read cannot settle the rows
        or they are fewer than ``_BULK_MIN_ROWS``.
        """
        k = len(out)
        if not self.bulk or k < _BULK_MIN_ROWS:
            return None
        if self.waiting + k > len(self.draws):
            self.flush()
        bitgen = rng.bit_generator
        state = bitgen.state
        buffered = state["has_uint32"]
        halves_at, uniforms_at, word = self.layouts[buffered]
        raw = bitgen.random_raw(int(word[k]))
        halves = raw.astype("<u8", copy=False).view("<u4")  # low half first, on any host
        x = halves[halves_at[:k]]
        if buffered:
            x[0, 0] = state["uinteger"]
        m = x * self.span
        if ((m & 0xFFFFFFFF) < self.reject_below).any():
            bitgen.state = state
            return None
        after = bitgen.state
        after["has_uint32"] = left = (buffered + k) % 2
        # the high half of the last word drawn from, kept whether or not it was used
        after["uinteger"] = int(halves[halves_at[k - 1, -1] + 1] if left else x[k - 1, -1])
        bitgen.state = after
        draws = self.draws[self.waiting:self.waiting + k]
        np.right_shift(m[:, :self.size], np.uint64(32), out=draws, casting="unsafe")
        self.pending.append(out)
        self.waiting += k
        return (raw[uniforms_at[:k]] >> np.uint64(11)) * 2.0**-53

    def flush(self):
        """Fill the columns of the rows that wait for ``_floyd``."""
        if not self.waiting:
            return
        picks = _floyd(self.draws[:self.waiting], self.population)
        start = 0
        for out in self.pending:
            out[...] = picks[start:start + len(out)]
            start += len(out)
        self.pending, self.waiting = [], 0


def _offsets(counts) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _assemble(spec: GeneratorSpec, rewards, cols, probs, mode=RewardMode.DISCOUNTED) -> MdpModel:
    """A model from per-state chunks: state i's action rewards, columns and weights.

    All rows of one state have the same length, so the chunks alone fix
    ``state_ptr`` and ``row_ptr``.
    """
    actions = np.array([len(r) for r in rewards], dtype=np.int64)
    row_len = np.array([len(c) for c in cols], dtype=np.int64) // actions
    return MdpModel(
        num_states=spec.num_states,
        discount=float(spec.discount),
        mode=mode,
        state_ptr=_offsets(actions),
        rewards=np.concatenate(rewards),
        row_ptr=_offsets(np.repeat(row_len, actions)),
        cols=np.concatenate(cols),
        probs=np.concatenate(probs),
        metadata=spec.metadata(),
    )


def generate(spec: GeneratorSpec) -> MdpModel:
    """Generate the instance pinned by ``spec``."""
    rewards, cols, probs = _state_chunks(spec)
    if spec.family is not GeneratorFamily.TOTAL_REWARD_POSITIVE:
        return _assemble(spec, rewards, cols, probs)
    n = spec.num_states
    rewards.append(np.zeros(1))
    cols.append(np.array([n - 1], dtype=np.int32))
    probs.append(np.ones(1))
    return _assemble(spec, rewards, cols, probs, RewardMode.TOTAL_REWARD)


def _state_chunks(spec: GeneratorSpec):
    """Rewards, columns and weights of every drawn state, one chunk per state.

    The sparse rows' block buffers go with this frame, before ``generate``
    concatenates the chunks, so they add nothing to its peak.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_states
    lo, hi = spec.action_range
    rlo, rhi = spec.reward_range
    band = spec.family is GeneratorFamily.BAND
    total = spec.family is GeneratorFamily.TOTAL_REWARD_POSITIVE
    sparse = None
    if not band:
        nnz = max(1, int(round(spec.density * n)))
        # total: nnz - 1 non-terminal successors, then the terminal state itself
        population, size, tail = (n - 1, nnz - 1, n - 1) if total else (n, nnz, None)
        if 0 < size < population:
            sparse = _SparseRows(population, size, tail, hi)
        full = np.arange(size, dtype=np.int32)  # every column, when size is 0 or all
        if tail is not None:
            full = np.append(full, np.int32(tail))
    rewards, cols, probs = [], [], []
    for i in range(n - 1 if total else n):
        k = int(rng.integers(lo, hi + 1))
        rewards.append(rng.uniform(rlo, rhi, size=k))
        if band:
            half = spec.bandwidth // 2
            window = np.arange(max(0, i - half), min(n - 1, i + half) + 1, dtype=np.int32)
            c, p = _full_rows(rng, k, window)
        elif sparse is not None:
            c, p = sparse.draw(rng, k)
        else:
            c, p = _full_rows(rng, k, full)
        cols.append(c)
        probs.append(p)
    if sparse is not None:
        sparse.flush()
    return rewards, cols, probs
