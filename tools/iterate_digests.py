"""Print one digest line per solve config, to diff two checkouts' iterates.

Usage::

    PYTHONPATH=src python tools/iterate_digests.py [SEED ...] [--against OTHER/src]

The seeds default to 100 and 101.  For each seed the benchmark's three
model shapes (dense-pa, band-vi and sparse-gs) are solved under every
operator (standard, jacobi, gs, gsj), and two more shapes under
``standard`` alone: a total-reward shape, whose models take no other
backup, and band-vi's shape with rewards in (-100, -1), whose plain runs
fall from the zero start and so sum every row where band-vi's drop the
rows that can no longer win.  The projective and linear ``standard``
runs of every discounted shape, checked or not, drop rows too, but for
dense-pa's projective ones, which carry screened sums.  Each is solved
under every accelerator setting (none, or projective and linear with
membership checks on and off), with epsilon 1e-3 and at most 20,000
backups: 70 configs per seed, 140 for two seeds.  Each shape names its
own action range (45-56 for all five).  Each line holds the config key,
the backup count, the fallback count and the first 16 hex digits of a
sha256 over the residuals, the final value, the policy and every step's
``(alpha.hex(), binding, fallback_used)``.  A config that raises prints
the exception's name in place of the counts.

Two checkouts whose runs are bit-identical print the same lines, which
are sorted by key.  With ``--against``, the ``mdpaccel`` package under
that source directory is imported under another name (``load_package``)
and solved too, and only the configs whose lines differ are printed, each
as the other checkout's line after ``- `` and this one's after ``+ ``;
the exit status is 1 when any differ, else 0.  So the bit-identity gate
of a change against its parent is::

    PYTHONPATH=src python tools/iterate_digests.py 100 101 --against PARENT/src
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import mdpaccel

OPERATORS = ("standard", "jacobi", "gs", "gsj")
# the benchmark workloads' model shapes: their GeneratorSpec fields but the seed, with their action range
BENCHMARK_SHAPES = {
    "dense-pa": dict(family="uniform", num_states=80, density=1.0, discount=0.995, action_range=(45, 56)),
    "band-vi": dict(family="band", num_states=120, bandwidth=30, discount=0.995, action_range=(45, 56)),
    "sparse-gs": dict(family="uniform", num_states=100, density=0.2, discount=0.9, action_range=(45, 56)),
}
# shape: (its GeneratorSpec fields but the seed, the operators it is solved under)
SHAPES = {
    **{shape: (spec, OPERATORS) for shape, spec in BENCHMARK_SHAPES.items()},
    "total-reward": (
        dict(family="total_reward_positive", num_states=12, action_range=(45, 56)),
        ("standard",),
    ),
    "negative-reward": (
        dict(BENCHMARK_SHAPES["band-vi"], reward_range=(-100.0, -1.0)),
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


def lines(seeds, package=mdpaccel) -> list[str]:
    """One line per config of every shape at every seed, solved by ``package``, sorted."""
    return sorted(_lines(seeds, package))


def _lines(seeds, package):
    for seed in seeds:
        for shape, (spec, operators) in SHAPES.items():
            m = package.generate(package.GeneratorSpec(seed=seed, **spec))
            for operator in operators:
                for label, accelerator, checks in ACCELERATORS:
                    key = f"{shape}/{seed}/{operator}/{label}"
                    config = package.SolverConfig(
                        operator=operator, accelerator=accelerator, membership_checks=checks,
                        epsilon=1e-3, max_iterations=20_000,
                    )
                    try:
                        r = package.solve(m, config)
                    except Exception as exc:
                        yield f"{key} {type(exc).__name__}"
                        continue
                    yield f"{key} {r.iterations} {r.fallback_count} {digest(r)}"


def load_package(src: str, name: str):
    """The ``mdpaccel`` package under ``src``, imported as ``name``."""
    init = Path(src) / "mdpaccel" / "__init__.py"
    # submodules of an earlier load under this name would stand in for the new package's own
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="*", default=[100, 101])
    parser.add_argument("--against", metavar="SRC",
                        help="source directory of a second mdpaccel; print only the lines that differ")
    args = parser.parse_args(argv)
    ours = lines(args.seeds)
    if not args.against:
        for line in ours:
            print(line)
        return 0
    theirs = lines(args.seeds, load_package(args.against, "mdpaccel_against"))
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(f"- {a}")
        print(f"+ {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
