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
per-action draws would.  Sparse rows draw their support and then their
weights one row at a time, into the rows of two per-state blocks, and
the blocks are sorted, mapped to columns and normalized at once, which
consumes the same stream and gives the same bits.  The generators
assemble the model's arrays directly, one chunk per state, with int32
columns, the width ``MdpModel`` stores them in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import MdpModel, RewardMode


class GeneratorFamily(str, Enum):
    UNIFORM = "uniform"
    BAND = "band"
    TOTAL_REWARD_POSITIVE = "total_reward_positive"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters pinning one random instance.

    Attributes:
        family: which structure to generate.
        num_states: number of states.
        density: fraction of all states in each row's support (uniform and
            total-reward families); each row's support size is
            ``max(1, round(density * num_states))``.
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
        if self.discount is None:
            total = self.family is GeneratorFamily.TOTAL_REWARD_POSITIVE
            object.__setattr__(self, "discount", 1.0 if total else 0.9)
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
            d = 1.0 if self.density is None and self.family is GeneratorFamily.TOTAL_REWARD_POSITIVE else self.density
            if d is None or not 0.0 < d <= 1.0:
                raise ValueError("density must lie in (0, 1]")
            if int(round(d * self.num_states)) < 1:
                raise ValueError("density picks an empty successor set")
        if self.family is GeneratorFamily.TOTAL_REWARD_POSITIVE:
            if self.discount != 1.0:
                raise ValueError("total-reward instances are undiscounted (discount 1.0)")
            if rlo <= 0.0:
                raise ValueError("total-reward instances need strictly positive rewards")
        else:
            if not 0.0 <= self.discount < 1.0:
                raise ValueError("discounted families need discount in [0, 1)")

    @property
    def effective_density(self) -> float:
        if self.family is GeneratorFamily.TOTAL_REWARD_POSITIVE and self.density is None:
            return 1.0
        return self.density

    def metadata(self) -> dict:
        out = {
            "family": self.family.value,
            "num_states": self.num_states,
            "action_range": list(self.action_range),
            "reward_range": list(self.reward_range),
            "discount": self.discount,
            "seed": self.seed,
            "prng": "numpy-pcg64",
        }
        if self.family is GeneratorFamily.BAND:
            out["bandwidth"] = self.bandwidth
        else:
            out["density"] = self.effective_density
        return out


def _normalized(u: np.ndarray) -> np.ndarray:
    """Weights ``1 - u`` of uniform draws ``u``, each row normalized by its own sum.

    A row of a block is summed exactly as the same row drawn alone, so a
    block of ``k`` rows is bit-identical to ``k`` single-row blocks.
    """
    w = 1.0 - u
    return w / w.sum(axis=1, keepdims=True)


def _state_rows(rng, k: int, legal: np.ndarray, size: int, tail=None):
    """Columns and weights of one state's ``k`` rows, flattened in row order.

    Each row's support is ``size`` columns drawn without replacement from
    ``legal`` (ascending) and sorted, followed by the ``tail`` column.
    When ``size`` covers all of ``legal`` there is no support draw, so
    every row has the same columns and the weights of all ``k`` rows come
    from one ``(k, n)`` draw, which consumes the stream as ``k`` draws of
    ``n`` in a row.  Otherwise each row draws its support's indices into
    ``legal`` and then its weights into one row of a block, and the block
    is sorted, mapped and normalized at once.  ``random(n)`` consumes the
    stream as ``uniform(0, 1, n)`` does and gives the same values.
    """
    if size >= len(legal):
        cols = legal if tail is None else np.append(legal, np.int32(tail))
        return np.tile(cols, k), _normalized(rng.random((k, len(cols)))).ravel()
    picks = np.empty((k, size), dtype=np.intp)
    u = np.empty((k, size + (tail is not None)))
    for j in range(k):
        picks[j] = rng.choice(len(legal), size, replace=False)
        rng.random(out=u[j])
    cols = np.empty(u.shape, dtype=np.int32)
    cols[:, :size] = legal[np.sort(picks, axis=1)]
    if tail is not None:
        cols[:, size] = tail
    return cols.ravel(), _normalized(u).ravel()


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
    rng = np.random.default_rng(spec.seed)
    n = spec.num_states
    lo, hi = spec.action_range
    rlo, rhi = spec.reward_range
    total = spec.family is GeneratorFamily.TOTAL_REWARD_POSITIVE
    if spec.family is not GeneratorFamily.BAND:
        nnz = max(1, int(round(spec.effective_density * n)))
    rewards, cols, probs = [], [], []
    for i in range(n - 1 if total else n):
        k = int(rng.integers(lo, hi + 1))
        rewards.append(rng.uniform(rlo, rhi, size=k))
        if spec.family is GeneratorFamily.BAND:
            half = spec.bandwidth // 2
            window = np.arange(max(0, i - half), min(n - 1, i + half) + 1, dtype=np.int32)
            c, p = _state_rows(rng, k, window, len(window))
        elif total:
            # nnz - 1 non-terminal successors, then the terminal state itself
            others = np.arange(n - 1, dtype=np.int32) if nnz > 1 else np.empty(0, np.int32)
            c, p = _state_rows(rng, k, others, nnz - 1, tail=n - 1)
        else:
            c, p = _state_rows(rng, k, np.arange(n, dtype=np.int32), nnz)
        cols.append(c)
        probs.append(p)
    if not total:
        return _assemble(spec, rewards, cols, probs)
    rewards.append(np.zeros(1))
    cols.append(np.array([n - 1], dtype=np.int32))
    probs.append(np.ones(1))
    return _assemble(spec, rewards, cols, probs, RewardMode.TOTAL_REWARD)
