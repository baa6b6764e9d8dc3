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
drawn as ``1 - uniform(0, 1)`` (never exactly zero) and normalized.
"""

from __future__ import annotations

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
        reward_range: (low, high) bounds for per-action rewards.
        discount: discount factor (must be 1.0 for the total-reward family).
        seed: PRNG seed.
    """

    family: GeneratorFamily
    num_states: int
    density: float | None = None
    bandwidth: int | None = None
    action_range: tuple[int, int] = (2, 99)
    reward_range: tuple[float, float] = (1.0, 100.0)
    discount: float = 0.9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", GeneratorFamily(self.family))
        if self.num_states < 2:
            raise ValueError("need at least 2 states")
        lo, hi = self.action_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad action range {self.action_range}")
        rlo, rhi = self.reward_range
        if not rlo <= rhi:
            raise ValueError(f"bad reward range {self.reward_range}")
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


def _normalized_weights(rng, n: int) -> np.ndarray:
    w = 1.0 - rng.uniform(0.0, 1.0, size=n)
    return w / w.sum()


def _support(rng, legal: np.ndarray, nnz: int) -> np.ndarray:
    if nnz >= len(legal):
        return legal
    return np.sort(rng.choice(legal, size=nnz, replace=False))


def generate(spec: GeneratorSpec) -> MdpModel:
    """Generate the instance pinned by ``spec``."""
    if spec.family is GeneratorFamily.UNIFORM:
        return _generate_dense_or_sparse(spec)
    if spec.family is GeneratorFamily.BAND:
        return _generate_band(spec)
    return _generate_total_reward(spec)


def _generate_dense_or_sparse(spec: GeneratorSpec) -> MdpModel:
    rng = np.random.default_rng(spec.seed)
    n = spec.num_states
    nnz = max(1, int(round(spec.effective_density * n)))
    all_states = np.arange(n)
    lo, hi = spec.action_range
    rlo, rhi = spec.reward_range
    states = []
    for _ in range(n):
        k = int(rng.integers(lo, hi + 1))
        rewards = rng.uniform(rlo, rhi, size=k)
        actions = []
        for a in range(k):
            cols = _support(rng, all_states, nnz)
            probs = _normalized_weights(rng, len(cols))
            actions.append((float(rewards[a]), list(zip(cols.tolist(), probs.tolist()))))
        states.append(actions)
    return MdpModel.from_rows(states, discount=spec.discount, metadata=spec.metadata())


def _generate_band(spec: GeneratorSpec) -> MdpModel:
    rng = np.random.default_rng(spec.seed)
    n = spec.num_states
    half = spec.bandwidth // 2
    lo, hi = spec.action_range
    rlo, rhi = spec.reward_range
    states = []
    for i in range(n):
        window = np.arange(max(0, i - half), min(n - 1, i + half) + 1)
        k = int(rng.integers(lo, hi + 1))
        rewards = rng.uniform(rlo, rhi, size=k)
        actions = []
        for a in range(k):
            probs = _normalized_weights(rng, len(window))
            actions.append((float(rewards[a]), list(zip(window.tolist(), probs.tolist()))))
        states.append(actions)
    return MdpModel.from_rows(states, discount=spec.discount, metadata=spec.metadata())


def _generate_total_reward(spec: GeneratorSpec) -> MdpModel:
    rng = np.random.default_rng(spec.seed)
    n = spec.num_states
    terminal = n - 1
    nnz = max(1, int(round(spec.effective_density * n)))
    others = np.arange(n - 1)  # candidate non-terminal successors
    lo, hi = spec.action_range
    rlo, rhi = spec.reward_range
    states = []
    for i in range(n - 1):
        k = int(rng.integers(lo, hi + 1))
        rewards = rng.uniform(rlo, rhi, size=k)
        actions = []
        for a in range(k):
            extra = _support(rng, others, min(nnz - 1, n - 1)) if nnz > 1 else np.empty(0, np.int64)
            cols = np.append(extra, terminal)
            probs = _normalized_weights(rng, len(cols))
            actions.append((float(rewards[a]), list(zip(cols.tolist(), probs.tolist()))))
        states.append(actions)
    states.append([(0.0, [(terminal, 1.0)])])
    return MdpModel.from_rows(
        states, discount=1.0, mode=RewardMode.TOTAL_REWARD, metadata=spec.metadata()
    )
