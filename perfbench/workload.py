"""One benchmark workload, run in a fresh process: generate -> save -> load -> solve.

``run.py`` starts this file once per workload with the BLAS thread pools
capped at one thread, so every number comes from a single-threaded closed
loop: one caller, one library call at a time.  Standard output is one JSON
line with the correctness tally, the metrics and the environment record,
which ``run.py`` turns into the readable report; the same document is
written under ``perfbench/out``.

The measuring window (``--seconds``) alternates two kinds of sample, so
both see the whole window:

* a round trip: ``generate``, ``save_model`` to JSON, ``load_model``.
  ``setup_s`` is the median of their summed times.  Each must give a model
  identical to the generated one.
* solve mixes, after each round trip until they have taken as long as the
  round trips.  Each mix solves every config once on a fresh copy of the
  latest loaded model (same arrays, no cached CSR), so it does the work a
  user does right after ``load_model``.  ``solve_s`` is the median.

Every timed stage and every solve is bracketed by timings of
``SpeedReference``, a fixed loop that calls no mdpaccel code.  A shared
host changes speed by up to 2x over seconds to minutes, alike for Python
loops and numpy calls, so the ``*_ref`` metrics divide each stage's or
solve's time by the mean of the reference timings just before and after
it, take the median of those ratios per stage or per config, and sum the
medians: a time in units of the reference loop, which a change to
mdpaccel moves in proportion while the host's drift cancels.

The oracle (``exact_fixed_point``, policy iteration with dense solves) runs
once on the first loaded model, outside every timed region.  With
``--trace 1`` the first half of the window runs untraced and the second
half under ``tracer.Tracer``; the per-layer metrics come from the traced
half, the overhead from comparing the halves.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import mdpaccel
from mdpaccel.model import models_identical
from mdpaccel.verification import exact_fixed_point

import tracer

EPSILON = 1e-3
# Round trips per measuring window, at the least.
SETUP_MIN_REPS = 3
# Every workload narrows the per-state action count around the generator's
# default mean of 50.5, so the model size, and with it every time, varies
# little from one seed to the next.
ACTIONS = (45, 56)
# Rows of the reference loop: about 10 ms on a 2-CPU Xeon guest.
REFERENCE_ROWS = 4000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    smoke_spec: dict
    # (label, SolverConfig keyword arguments) in the order solved.
    mix: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline case: about ten backups per accelerated solve,
        # so the solve is small beside the dense JSON pipeline, and what is
        # left of it is per-solve fixed cost (reward-shift copy and its CSR
        # build, check passes, policy extraction).  The checks-off PAVI is
        # the same solve with the membership-check pass bypassed.
        Workload(
            "dense-pa",
            dict(family="uniform", num_states=80, density=1.0, discount=0.995),
            dict(family="uniform", num_states=12, density=1.0, discount=0.995),
            (
                ("PAVI", dict(operator="standard", accelerator="projective")),
                ("PAJ", dict(operator="jacobi", accelerator="projective")),
                ("PAVI-nochecks", dict(operator="standard", accelerator="projective",
                                       membership_checks=False)),
            ),
        ),
        # Thousands of backups per solve at discount 0.995, so the solve is
        # bound by the matvec, the backup reduction and the scans; LAVI also
        # meets AlreadyConvergedError near the end.
        Workload(
            "band-vi",
            dict(family="band", num_states=120, bandwidth=30, discount=0.995),
            dict(family="band", num_states=30, bandwidth=6, discount=0.995),
            (
                ("VI", dict(operator="standard")),
                ("PAVI", dict(operator="standard", accelerator="projective")),
                ("LAVI", dict(operator="standard", accelerator="linear")),
            ),
        ),
        # Sparse rows at discount 0.9: the per-row Python Gauss-Seidel sweep
        # dominates and the matvec is a few percent, the opposite balance of
        # band-vi over the same operators module.
        Workload(
            "sparse-gs",
            dict(family="uniform", num_states=100, density=0.2, discount=0.9),
            dict(family="uniform", num_states=30, density=0.2, discount=0.9),
            (
                ("VI", dict(operator="standard")),
                ("GS", dict(operator="gs")),
                ("LAGS", dict(operator="gs", accelerator="linear")),
            ),
        ),
    )
}

ALGORITHMS = ("VI", "PAVI", "PAJ", "LAVI", "GS", "LAGS")


class SpeedReference:
    """A fixed loop whose time says how fast the host runs right now.

    The loop is the shape of one Gauss-Seidel sweep, the work most sensitive
    to host speed: per row, a Python-level gather of 20 entries from a 4 MB
    vector and a dot product.  Its inputs come from a fixed seed, never the
    workload's, and it calls no mdpaccel code, so its work is the same on
    every commit.  On a 2-CPU shared guest this reference tracked the drift
    of mix times more closely than a loop on cache-resident data or a
    memory-bound numpy sum.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.vector = rng.random(1 << 19)
        self.cols = rng.integers(0, self.vector.size, size=(REFERENCE_ROWS, 20))
        self.probs = rng.random((REFERENCE_ROWS, 20))

    def __call__(self) -> float:
        """Seconds the loop takes now."""
        vector, cols, probs = self.vector, self.cols, self.probs
        acc = 0.0
        t0 = time.perf_counter()
        for k in range(REFERENCE_ROWS):
            acc += float(probs[k] @ vector[cols[k]])
        return time.perf_counter() - t0


def environment(seed: int, root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "thread_caps": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, naming the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mdpaccel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Gate:
    """Correctness tally: every operation attempted, every one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def solve_problems(result, exact, reference) -> list[str]:
    """Why a solve result is wrong: convergence, oracle distance, repeatability."""
    problems = []
    if not result.converged:
        problems.append(f"did not converge in {result.iterations} iterations")
    err = float(np.max(np.abs(result.final_value - exact)))
    if not err <= EPSILON:
        problems.append(f"oracle distance {err:.3e} > epsilon {EPSILON}")
    if reference is not None and (
        result.iterations != reference.iterations
        or not np.array_equal(result.final_value, reference.final_value)
    ):
        problems.append(
            f"differs from the first solve of this config ({result.iterations} vs "
            f"{reference.iterations} iterations, or values not bit-identical)"
        )
    return problems


@dataclasses.dataclass
class Phase:
    """Samples of one measuring window."""

    setups: list = dataclasses.field(default_factory=list)  # (generate, save, load) seconds
    mix_s: list = dataclasses.field(default_factory=list)
    mix_results: list = dataclasses.field(default_factory=list)
    # Per round trip and per mix: each stage's or solve's time over the
    # reference loop's time beside it; complete samples only.
    setup_ratios: list = dataclasses.field(default_factory=list)
    solve_ratios: list = dataclasses.field(default_factory=list)
    reference_s: list = dataclasses.field(default_factory=list)

    def setup_ref(self) -> float:
        return sum(map(statistics.median, zip(*self.setup_ratios)))

    def solve_ref(self) -> float:
        return sum(map(statistics.median, zip(*self.solve_ratios)))


class Runner:
    """Drives one workload's round trips and solve mixes, and keeps the gate."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, workdir: Path):
        self.w = workload
        self.spec = mdpaccel.GeneratorSpec(
            seed=seed, action_range=ACTIONS, **(workload.smoke_spec if smoke else workload.spec)
        )
        self.path = workdir / f"model-{os.getpid()}.json"
        self.gate = Gate()
        self.reference: list = [None] * len(workload.mix)
        self.speed = SpeedReference()
        self.model = None
        self.exact = None
        self.file_mb = 0.0

    def timed(self, refs: list, call, *args):
        """``call(*args)`` and its seconds; then one reference timing into ``refs``."""
        t0 = time.perf_counter()
        try:
            return call(*args), time.perf_counter() - t0
        finally:
            refs.append(self.speed())

    def round_trip(self, phase: Phase) -> None:
        """generate -> save_model -> load_model once, timed per stage."""
        refs = [self.speed()]
        try:
            generated, gen_s = self.timed(refs, mdpaccel.generate, self.spec)
            _, save_s = self.timed(refs, mdpaccel.save_model, generated, self.path)
            loaded, load_s = self.timed(refs, mdpaccel.load_model, self.path)
            self.file_mb = self.path.stat().st_size / 1e6
        except Exception as exc:  # counted as a failed round trip
            self.gate.record("round trip", [repr(exc)])
            return
        finally:
            self.path.unlink(missing_ok=True)
        same = models_identical(generated, loaded)
        self.gate.record("round trip", [] if same else ["loaded model differs"])
        stages = (gen_s, save_s, load_s)
        phase.setups.append(stages)
        phase.setup_ratios.append(ratios(stages, refs))
        phase.reference_s.extend(refs)
        if self.model is None:
            self.exact = exact_fixed_point(loaded).exact_value
        self.model = loaded

    def mix(self, phase: Phase) -> None:
        """Solve every config of the mix once on a fresh copy of the loaded model."""
        fresh = dataclasses.replace(self.model)
        refs = [self.speed()]
        times, results = [], []
        for i, (label, options) in enumerate(self.w.mix):
            config = mdpaccel.SolverConfig(epsilon=EPSILON, **options)
            try:
                result, seconds = self.timed(refs, mdpaccel.solve, fresh, config)
            except Exception as exc:  # counted as a failed solve
                self.gate.record(f"solve {label}", [repr(exc)])
                results.append(None)
                continue
            self.gate.record(f"solve {label}", solve_problems(result, self.exact, self.reference[i]))
            if self.reference[i] is None:
                self.reference[i] = result
            times.append(seconds)
            results.append(result)
        phase.mix_s.append(sum(times))
        phase.mix_results.append(results)
        phase.reference_s.extend(refs)
        if len(times) == len(self.w.mix):
            phase.solve_ratios.append(ratios(times, refs))

    def measure(self, seconds: float) -> Phase:
        """Alternate round trips and mixes until ``seconds`` have passed.

        After each round trip, mixes run until they have taken as long as
        the round trips (at least one mix), so both kinds of sample are
        spread over the whole window rather than taken in two stretches.
        """
        phase = Phase()
        end = time.perf_counter() + seconds
        rounds = 0
        while rounds < SETUP_MIN_REPS or time.perf_counter() < end:
            rounds += 1
            self.round_trip(phase)
            if self.model is None:
                continue
            setup_total = sum(map(sum, phase.setups))
            mixes = len(phase.mix_s)
            while len(phase.mix_s) == mixes or (
                sum(phase.mix_s) < setup_total and time.perf_counter() < end
            ):
                self.mix(phase)
        return phase


def ratios(times, refs) -> tuple:
    """Each time over the mean of the reference timings before and after it."""
    return tuple(t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:]))


def summary(samples: list[float]) -> dict:
    """Sample count, quartiles and extremes of a list of timings."""
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": median, "q3": q3,
            "max": max(samples)}


def end_to_end(runner: Runner, phase: Phase) -> dict:
    setup_s = statistics.median(map(sum, phase.setups))
    solve_s = statistics.median(phase.mix_s)
    setup_ref, solve_ref = phase.setup_ref(), phase.solve_ref()
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "pipeline_s": (setup_s + solve_s, "s"),
        "setup_ref": (setup_ref, "ref"),
        "solve_ref": (solve_ref, "ref"),
        "pipeline_ref": (setup_ref + solve_ref, "ref"),
        "iterations": (sum(r.iterations for r in runner.reference if r is not None), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (len(runner.gate.failures) / runner.gate.attempted, "ratio"),
    }


def per_layer(runner: Runner, spans, untraced: Phase, traced: Phase) -> dict:
    """Per-layer metrics from the traced spans, per round trip or per mix."""
    own = tracer.self_times(spans)
    reps = len(traced.setups)
    mixes = len(traced.mix_s)

    def parent_name(span):
        return spans[span[tracer.PARENT]][tracer.NAME] if span[tracer.PARENT] >= 0 else ""

    def pick(names, parent=lambda name: True):
        """Indices of the spans named ``names`` whose parent's name passes ``parent``."""
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(spans) if s[tracer.NAME] in names and parent(parent_name(s))]

    def self_s(idx, per):
        return sum(own[i] for i in idx) / per

    sums = pick("operators.weighted_sums")
    backups = pick(tracer.BACKUP, parent=lambda p: p == "solver.solve")
    sweeps = pick(tracer.SWEEP)
    scans = pick(("accelerators.projective_alpha", "accelerators.linear_extension_alpha"))
    checks = pick("operators.weighted_sums", parent=lambda p: p.startswith("accelerators."))
    builds = pick(tracer.ROW_MATRIX_BUILD)
    feasible = pick("operators.is_feasible")
    policies = pick("solver.extract_policy")
    alphas = [a for mix in traced.mix_results for r in mix if r is not None
              for a in r.alphas if a is not None]
    sweep_s = self_s(sweeps, mixes)
    untraced_s = statistics.median(untraced.mix_s)
    iterations = sum(r.iterations for r in runner.reference if r is not None)

    out = {
        "generators.generate_s": (self_s(pick("generators.generate"), reps), "s"),
        "model.save_model_s": (self_s(pick("model.save_model"), reps), "s"),
        "model.load_model_s": (self_s(pick("model.load_model"), reps), "s"),
        "model.validate_model_s": (self_s(pick("model.validate_model"), reps), "s"),
        "model.file_mb": (runner.file_mb, "MB"),
        "model.row_matrix_builds": (len(builds) / mixes, "count"),
        "model.row_matrix_build_s": (self_s(builds, mixes), "s"),
        "operators.weighted_sums_calls": (len(sums) / mixes, "count"),
        "operators.weighted_sums_s": (self_s(sums, mixes), "s"),
        "operators.weighted_sums_gflop": (
            sum(spans[i][tracer.WORK][0] for i in sums) / 1e9 / mixes, "gflop-computed"),
        "operators.weighted_sums_gbyte": (
            sum(spans[i][tracer.WORK][1] for i in sums) / 1e9 / mixes, "gbyte-computed"),
        "operators.backup_calls": (len(backups) / mixes, "count"),
        "operators.backup_s": (self_s(backups, mixes), "s"),
        "operators.sweep_calls": (len(sweeps) / mixes, "count"),
        "operators.sweep_s": (sweep_s, "s"),
        "operators.sweep_rows_per_s": (
            len(sweeps) / mixes * runner.model.num_rows / sweep_s if sweeps else 0.0, "rows/s"),
        "operators.is_feasible_calls": (len(feasible) / mixes, "count"),
        "operators.is_feasible_s": (self_s(feasible, mixes), "s"),
        "accelerators.scan_calls": (len(scans) / mixes, "count"),
        "accelerators.scan_s": (self_s(scans, mixes), "s"),
        "accelerators.step_s": (self_s(pick(("accelerators.apply_projective",
                                            "accelerators.apply_linear_extension")), mixes), "s"),
        "accelerators.check_sums_calls": (len(checks) / mixes, "count"),
        "accelerators.check_sums_s": (self_s(checks, mixes), "s"),
        "accelerators.already_converged": (
            sum(spans[i][tracer.ERROR] == "AlreadyConvergedError" for i in scans) / mixes, "count"),
        "accelerators.fallbacks": (sum(a.fallback_used for a in alphas) / mixes, "count"),
        "accelerators.accepted_frac": (
            sum(not a.fallback_used for a in alphas) / len(scans) if scans else 0.0, "ratio"),
        "solver.self_s": (self_s(pick("solver.solve"), mixes), "s"),
        "solver.extract_policy_s": (
            sum(spans[i][tracer.END] - spans[i][tracer.START] for i in policies) / mixes, "s"),
        "solver.ms_per_iter": (untraced_s / iterations * 1000.0, "ms"),
        "trace_overhead_frac": (traced.solve_ref() / untraced.solve_ref() - 1.0, "ratio"),
    }
    for alg in ALGORITHMS:
        n = sum(r.iterations for (label, _), r in zip(runner.w.mix, runner.reference)
                if r is not None and label.split("-")[0] == alg)
        out[f"solver.iterations.{alg}"] = (n, "count")
    return out


def run(args, root: Path) -> dict:
    workdir = root / "perfbench" / "out"
    workdir.mkdir(exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, args.smoke, workdir)
    detail, metrics = {}, {}
    if args.trace:
        untraced = runner.measure(args.seconds / 2)
        spans = tracer.Tracer()
        with spans.installed():
            traced = runner.measure(args.seconds / 2)
        spans.dump(workdir / f"{args.workload}-seed{args.seed}-spans.json")
        if traced.solve_ratios and untraced.solve_ratios:
            metrics = per_layer(runner, spans.spans, untraced, traced)
        detail.update(
            span_names_seen=sorted({s[tracer.NAME] for s in spans.spans}),
            traced_setups=len(traced.setups),
            traced_mixes=len(traced.mix_s),
        )
    else:
        untraced = runner.measure(args.seconds)
    if untraced.solve_ratios:
        metrics.update(end_to_end(runner, untraced))
        detail.update(
            mix_s=summary(untraced.mix_s),
            setup_s=summary([sum(s) for s in untraced.setups]),
            reference_s=summary(untraced.reference_s),
            setup_stage_medians_s=dict(zip(("generate", "save", "load"),
                                           map(statistics.median, zip(*untraced.setups)))),
            rows=runner.model.num_rows,
            nnz=int(runner.model.probs.size),
            iterations={label: r.iterations for (label, _), r in zip(runner.w.mix, runner.reference)
                        if r is not None},
        )
    gate = runner.gate
    return {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": runner.model is not None and not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "failures": gate.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "span_names": tracer.SPAN_NAMES,
        "environment": environment(args.seed, root),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    if not Path(mdpaccel.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"mdpaccel imported from {mdpaccel.__file__}, not from this checkout", file=sys.stderr)
        return 2
    result = run(args, root)
    out = root / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
