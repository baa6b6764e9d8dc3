"""Print one digest line per solve config, to diff two checkouts' iterates.

Usage::

    PYTHONPATH=src python tools/iterate_digests.py [SEED ...]

The seeds default to 100 and 101.  For each seed the benchmark's three
model shapes (dense-pa, band-vi and sparse-gs) are solved under every
operator (standard, jacobi, gs, gsj), and two more shapes under
``standard`` alone: a total-reward shape, whose models take no other
backup, and band-vi's shape with rewards in (-100, -1), whose plain runs
fall from the zero start and so sum every row where band-vi's drop the
rows that can no longer win.  Each is solved under every accelerator
setting (none, or projective and linear with membership checks on and
off), with epsilon 1e-3 and at most 20,000 backups: 70 configs per
seed, 140 for two seeds.  Each shape names its own action range (45-56
for all five).  Each line holds the config key, the backup
count, the fallback count and the first 16 hex digits of a sha256 over
the residuals, the final value, the policy and every step's
``(alpha.hex(), binding, fallback_used)``.  A config that raises prints
the exception's name in place of the counts.

Two checkouts whose runs are bit-identical print the same lines, so::

    diff <(PYTHONPATH=a/src python tools/iterate_digests.py) \\
         <(PYTHONPATH=b/src python tools/iterate_digests.py)

prints nothing.  The lines are sorted by key.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

import mdpaccel

OPERATORS = ("standard", "jacobi", "gs", "gsj")
# shape: (its GeneratorSpec fields but the seed, the operators it is solved under)
SHAPES = {
    "dense-pa": (
        dict(family="uniform", num_states=80, density=1.0, discount=0.995, action_range=(45, 56)),
        OPERATORS,
    ),
    "band-vi": (
        dict(family="band", num_states=120, bandwidth=30, discount=0.995, action_range=(45, 56)),
        OPERATORS,
    ),
    "sparse-gs": (
        dict(family="uniform", num_states=100, density=0.2, discount=0.9, action_range=(45, 56)),
        OPERATORS,
    ),
    "total-reward": (
        dict(family="total_reward_positive", num_states=12, action_range=(45, 56)),
        ("standard",),
    ),
    "negative-reward": (
        dict(family="band", num_states=120, bandwidth=30, discount=0.995, action_range=(45, 56),
             reward_range=(-100.0, -1.0)),
        ("standard",),
    ),
}
ACCELERATORS = (
    ("none", "none", True),
    ("projective-checked", "projective", True),
    ("projective-unchecked", "projective", False),
    ("linear-checked", "linear", True),
    ("linear-unchecked", "linear", False),
)


def digest(result) -> str:
    h = hashlib.sha256()
    for array in (result.residuals, result.final_value, result.final_policy):
        h.update(np.ascontiguousarray(array).tobytes())
    for a in result.alphas:
        step = None if a is None else (a.alpha.hex(), a.binding, a.fallback_used)
        h.update(repr(step).encode())
    return h.hexdigest()[:16]


def lines(seeds) -> list[str]:
    """One line per config of every shape at every seed, sorted."""
    return sorted(_lines(seeds))


def _lines(seeds):
    for seed in seeds:
        for shape, (spec, operators) in SHAPES.items():
            m = mdpaccel.generate(mdpaccel.GeneratorSpec(seed=seed, **spec))
            for operator in operators:
                for label, accelerator, checks in ACCELERATORS:
                    key = f"{shape}/{seed}/{operator}/{label}"
                    config = mdpaccel.SolverConfig(
                        operator=operator, accelerator=accelerator, membership_checks=checks,
                        epsilon=1e-3, max_iterations=20_000,
                    )
                    try:
                        r = mdpaccel.solve(m, config)
                    except Exception as exc:
                        yield f"{key} {type(exc).__name__}"
                        continue
                    yield f"{key} {r.iterations} {r.fallback_count} {digest(r)}"


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [100, 101]
    for line in lines(seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
