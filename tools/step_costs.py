"""Print the time per backup of each solve config, split by how many rows the loop holds.

Usage::

    PYTHONPATH=src python tools/step_costs.py [--shape band-vi] [--seeds 100 101 102]
    PYTHONPATH=src python tools/step_costs.py --shape criterion-9 --seeds 0
        [--repeat 9] [--against OTHER/src]

For each seed the shape's model is generated once and each config is
solved ``--repeat`` times: VI, PAVI and LAVI, all of the standard backup,
the accelerated ones with membership checks on and, as ``PAVI_nochecks``
and ``LAVI_nochecks``, off; then the shape's other benchmark-mix configs
(``MIX_CONFIGS``): PAJ on dense-pa, and GS and LAGS on sparse-gs.  The
shapes are the benchmark workloads' (``iterate_digests.BENCHMARK_SHAPES``).
``_Loop.step`` is wrapped from outside the solver, and each backup is
timed and put in one of three phases by the model the loop iterates on
when the step starts:

* ``all``: every row of the model (a run that drops no row stays here);
* ``compacted``: a copy holding only the live rows, more than two per
  state on average;
* ``two``: a compacted copy holding at most two rows per state on average
  (``2 * num_states`` rows in all).

Each line holds the config key, the backups of the solve, the solve's
``wall_ms`` and, per phase, its backups and microseconds per backup; each
time is the minimum over the repeats (backup counts do not vary).  After
each seed's configs a ``checks`` line gives the cost of the membership
checks: the checked solve's ``wall_ms`` over the unchecked one's, for
PAVI and LAVI; and a ``tail`` line the cost of an accelerated step once
elimination has compacted the model: checked PAVI's and LAVI's
microseconds per backup in the ``two`` phase over VI's (nan where a
config never reaches it).  ``--shape criterion-9`` times criterion 9's
model (``tests/test_acceptance.py``; pass ``--seeds 0`` for its seed)
under VI and ``PAVI_nochecks`` only, and prints a ``c9`` line in place of
those two: checks-off PAVI's milliseconds per backup over VI's, each from
the solve's ``wall_ms`` at its minimum, the quantity the criterion bounds
by 1.5.  With ``--against``, a second copy of the package is
imported from that source directory under another name, its solves
alternate with this one's (the order flips at every repeat), and each
line is followed by the other copy's line and, for a config, the ratios
of this copy's times over it, and each seed's ``checks`` and ``tail``
lines by the other copy's.  Run with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) and nothing else busy.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

from iterate_digests import BENCHMARK_SHAPES as SHAPES

PHASES = ("all", "compacted", "two")
CONFIGS = (
    ("VI", dict(operator="standard")),
    ("PAVI", dict(operator="standard", accelerator="projective")),
    ("LAVI", dict(operator="standard", accelerator="linear")),
    ("PAVI_nochecks", dict(operator="standard", accelerator="projective", membership_checks=False)),
    ("LAVI_nochecks", dict(operator="standard", accelerator="linear", membership_checks=False)),
)
# each shape's benchmark-mix configs that CONFIGS leaves out
MIX_CONFIGS = {
    "dense-pa": (("PAJ", dict(operator="jacobi", accelerator="projective")),),
    "sparse-gs": (("GS", dict(operator="gs")), ("LAGS", dict(operator="gs", accelerator="linear"))),
}


# criterion 9's model (tests/test_acceptance.py; its seed is 0), and the two configs whose time
# per backup the criterion compares
ANCHOR_SHAPES = {
    "criterion-9": dict(family="uniform", num_states=500, density=1.0, discount=0.9, reward_range=(0.01, 0.1)),
}
ANCHOR_CONFIGS = (CONFIGS[0], CONFIGS[3])


def shape_spec(shape: str) -> dict:
    """The ``GeneratorSpec`` fields, but the seed, of ``shape``."""
    return ANCHOR_SHAPES[shape] if shape in ANCHOR_SHAPES else SHAPES[shape]


def shape_configs(shape: str) -> tuple:
    """The configs timed on ``shape``: ``CONFIGS``, then its other mix configs; VI and checks-off PAVI on an anchor's."""
    if shape in ANCHOR_SHAPES:
        return ANCHOR_CONFIGS
    return CONFIGS + MIX_CONFIGS.get(shape, ())

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


class StepTimer:
    """Wraps one package's ``_Loop.step`` while installed, and sums each phase's step times."""

    def __init__(self, package):
        self.loop_class = package.solver._Loop
        self.step = self.loop_class.step
        self.phases = {}  # the work model, by id, and its phase
        self.times = dict.fromkeys(PHASES, 0.0)
        self.counts = dict.fromkeys(PHASES, 0)

    def phase(self, loop) -> str:
        work = loop.work
        key = id(work)
        if key not in self.phases:
            if work is loop.m:
                phase = "all"
            else:
                phase = "two" if work.num_rows <= 2 * work.num_states else "compacted"
            # the model is kept so that its id is not reused
            self.phases[key] = (work, phase)
        return self.phases[key][1]

    def __enter__(self):
        self.times = dict.fromkeys(PHASES, 0.0)
        self.counts = dict.fromkeys(PHASES, 0)
        step, clock, timer = self.step, time.perf_counter, self

        def timed_step(loop):
            phase = timer.phase(loop)
            t0 = clock()
            out = step(loop)
            timer.times[phase] += clock() - t0
            timer.counts[phase] += 1
            return out

        self.loop_class.step = timed_step
        return self

    def __exit__(self, *exc):
        self.loop_class.step = self.step
        self.phases.clear()


class Costs:
    """The minimum over repeated solves of one config's solve time and phase times."""

    def __init__(self):
        self.iterations = None
        self.wall_ms = float("inf")
        self.times = dict.fromkeys(PHASES, float("inf"))
        self.counts = None

    def add(self, result, timer: StepTimer) -> None:
        if self.counts is None:
            self.iterations, self.counts = result.iterations, dict(timer.counts)
        elif (result.iterations, self.counts) != (result.iterations, timer.counts):
            raise RuntimeError("repeated solves of one config took different steps")
        self.wall_ms = min(self.wall_ms, result.wall_ms)
        for phase in PHASES:
            self.times[phase] = min(self.times[phase], timer.times[phase])

    def us_per_backup(self, phase: str) -> float:
        n = self.counts[phase]
        return self.times[phase] / n * 1e6 if n else float("nan")

    def line(self, key: str) -> str:
        cells = [f"{key} {self.iterations} backups {self.wall_ms:.2f} ms"]
        cells += [f"{phase} {self.counts[phase]} x {self.us_per_backup(phase):.1f} us" for phase in PHASES]
        return " | ".join(cells)


def measure(packages, shape: str, seed: int, repeat: int) -> dict[str, list[Costs]]:
    """``[Costs per package]`` of each config of ``shape`` by label, at one seed, solved ``repeat`` times."""
    models = [p.generate(p.GeneratorSpec(seed=seed, **shape_spec(shape))) for p in packages]
    out = {}
    for label, options in shape_configs(shape):
        costs = [Costs() for _ in packages]
        timers = [StepTimer(p) for p in packages]
        for r in range(repeat):
            order = range(len(packages)) if r % 2 == 0 else reversed(range(len(packages)))
            for i in order:
                config = packages[i].SolverConfig(**options)
                with timers[i]:
                    result = packages[i].solve(models[i], config)
                costs[i].add(result, timers[i])
        out[label] = costs
    return out


def checks_line(key: str, costs: dict[str, Costs]) -> str:
    """The checked solve's time over the unchecked one's, for PAVI and LAVI."""
    cells = [f"{label} {costs[label].wall_ms / costs[label + '_nochecks'].wall_ms:.3f}"
             for label in ("PAVI", "LAVI")]
    return f"{key} checked/unchecked wall " + " | ".join(cells)


def tail_line(key: str, costs: dict[str, Costs]) -> str:
    """PAVI's and LAVI's microseconds per backup over VI's, with at most two rows per state."""
    vi = costs["VI"].us_per_backup("two")
    cells = [f"{label} {costs[label].us_per_backup('two') / vi:.3f}" for label in ("PAVI", "LAVI")]
    return f"{key} two/VI us per backup " + " | ".join(cells)


def c9_line(key: str, costs: dict[str, Costs]) -> str:
    """Checks-off PAVI's milliseconds per backup over VI's: what criterion 9 bounds by 1.5."""
    pavi, vi = costs["PAVI_nochecks"], costs["VI"]
    ratio = (pavi.wall_ms / pavi.iterations) / (vi.wall_ms / vi.iterations)
    return f"{key} PAVI_nochecks/VI ms per backup {ratio:.3f}"


def ratio_line(ours: Costs, theirs: Costs) -> str:
    cells = [f"  ratio wall {ours.wall_ms / theirs.wall_ms:.3f}"]
    for phase in PHASES:
        if ours.counts[phase] and theirs.counts[phase]:
            cells.append(f"{phase} {ours.us_per_backup(phase) / theirs.us_per_backup(phase):.3f}")
    return " | ".join(cells)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES) + sorted(ANCHOR_SHAPES), default="band-vi")
    parser.add_argument("--seeds", type=int, nargs="+", default=[100])
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--against", metavar="SRC",
                        help="source directory of a second mdpaccel to compare with")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    import mdpaccel

    packages = [mdpaccel]
    if args.against:
        packages.append(load_package(args.against, "mdpaccel_against"))
    for seed in args.seeds:
        by_label = measure(packages, args.shape, seed, args.repeat)
        for label, costs in by_label.items():
            key = f"{args.shape}/{label}/{seed}"
            print(costs[0].line(key))
            if len(costs) > 1:
                print(costs[1].line(f"{key} against"))
                print(ratio_line(costs[0], costs[1]))
        for i, suffix in zip(range(len(packages)), ("", " against")):
            copy = {label: costs[i] for label, costs in by_label.items()}
            if args.shape in ANCHOR_SHAPES:
                print(c9_line(f"{args.shape}/c9/{seed}{suffix}", copy))
                continue
            print(checks_line(f"{args.shape}/checks/{seed}{suffix}", copy))
            print(tail_line(f"{args.shape}/tail/{seed}{suffix}", copy))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
