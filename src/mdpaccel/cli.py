"""Command-line front end.

Four subcommands:

* ``generate`` — build one random instance and write it as model JSON;
* ``solve`` — run one operator/accelerator combination on a model file;
* ``bench`` — run a JSON plan of (generator, operator, accelerator)
  cells, each repeated and reduced to a median wall time, into a CSV
  matrix;
* ``verify`` — run the randomized property suite, or validate a model
  file.

Settings.  The ``generate`` and ``solve`` flags and the bench-cell keys
take their names from one table, ``SETTINGS``: the ``generate`` flags
set ``GeneratorSpec`` fields, the ``solve`` flags (through their
``dest``) set ``SolverConfig`` fields, and a bench cell sets both.  Only
the settings a user gave reach ``GeneratorSpec`` and ``SolverConfig``,
so those dataclasses own every default.

Exit codes: 0 on success (for ``solve``, convergence; for ``verify``,
all properties passing), 2 when a run hits its iteration budget or the
arguments are unusable, 1 for invalid input files and failed suites.
``main`` turns every declared error into one ``error:`` line.

The bench runner executes cells one after another, so no cell's wall
time includes another cell's work.  Repeated solves of a cell must agree
exactly on the iteration count (same model bytes, same arithmetic) — any
disagreement is recorded in that row's ``error`` column.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys

from .generators import GeneratorFamily, GeneratorSpec, generate
from .model import (
    ModelFormatError,
    ModelValidationError,
    decoder_refusal,
    load_model,
    save_model,
    shown,
)
from .operators import OperatorKind
from .solver import (
    AcceleratorKind,
    SolverConfig,
    SolverConfigError,
    algorithm_label,
    solve,
)
from .verification import run_property_suite

CSV_COLUMNS = [
    "family",
    "states",
    "density_or_bandwidth",
    "discount",
    "operator",
    "accelerator",
    "seed",
    "iterations",
    "wall_ms",
    "fallbacks",
    "algorithm",
    "error",
]


class UsageError(Exception):
    """Settings or a bench plan that cannot describe a run."""


class PlanFormatError(ValueError):
    """A bench plan file the JSON decoder cannot read."""


def _strict(kind, *accepted):
    """A cast to ``kind`` of values whose type is one of ``accepted``.

    argparse and JSON give every value its own type, so any other is
    refused rather than converted: ``"false"`` is no flag (``bool`` would
    read it as True), ``2.5`` is no count (``int`` would truncate it), and
    ``True`` is no number.
    """

    def cast(value):
        if type(value) not in accepted:
            raise TypeError(f"{type(value).__name__} is not {kind.__name__}")
        return kind(value)

    return cast


_INTEGER = _strict(int, int)
_NUMBER = _strict(float, int, float)
_FLAG = _strict(bool, bool)


def _pair(cast):
    def read(value):
        lo, hi = value
        return cast(lo), cast(hi)

    return read


# setting name: (the dataclass it sets, its field there, cast of a given value)
SETTINGS = {
    "family": (GeneratorSpec, "family", _strict(GeneratorFamily, str)),
    "states": (GeneratorSpec, "num_states", _INTEGER),
    "density": (GeneratorSpec, "density", _NUMBER),
    "bandwidth": (GeneratorSpec, "bandwidth", _INTEGER),
    "discount": (GeneratorSpec, "discount", _NUMBER),
    "seed": (GeneratorSpec, "seed", _INTEGER),
    "actions": (GeneratorSpec, "action_range", _pair(_INTEGER)),
    "rewards": (GeneratorSpec, "reward_range", _pair(_NUMBER)),
    "operator": (SolverConfig, "operator", _strict(OperatorKind, str)),
    "accelerator": (SolverConfig, "accelerator", _strict(AcceleratorKind, str)),
    "epsilon": (SolverConfig, "epsilon", _NUMBER),
    "max_iterations": (SolverConfig, "max_iterations", _INTEGER),
    "membership_checks": (SolverConfig, "membership_checks", _FLAG),
}


def _cast(name, cast, value):
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} cannot be {shown(value)}") from None


def _build(cls, given):
    """A ``cls`` from the settings in ``given`` that ``SETTINGS`` routes to it.

    Only the settings given are passed, so ``cls`` owns every default.
    """
    fields = {}
    for name, (owner, field, cast) in SETTINGS.items():
        if owner is cls and name in given:
            fields[field] = _cast(name, cast, given[name])
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        # the dataclass rejects a missing or bad field
        raise UsageError(shown(exc, str)) from None


def _row(meta: dict, config: SolverConfig, results=(), error: str = "") -> list:
    """One CSV row: the model's settings, the run's, and its outcome.

    ``meta`` is generator metadata (``GeneratorSpec.metadata``) holding
    at least ``num_states`` and ``discount``; ``results`` are the repeated
    solves of one configuration, or empty when ``error`` stopped them.
    """
    row = [
        meta.get("family", ""),
        meta["num_states"],
        meta.get("density", meta.get("bandwidth", "")),
        meta["discount"],
        config.operator.value,
        config.accelerator.value,
        meta.get("seed", ""),
    ]
    label = algorithm_label(config.operator, config.accelerator)
    if not results:
        return row + ["", "", "", label, error]
    first = results[0]
    return row + [
        first.iterations,
        "%.3f" % statistics.median(r.wall_ms for r in results),
        first.fallback_count,
        label,
        "" if all(r.converged for r in results) else "max-iterations",
    ]


def _write_csv(path, rows, append=False) -> None:
    fresh = not append or not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a" if append else "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def cmd_generate(args) -> int:
    spec = _build(GeneratorSpec, vars(args))
    save_model(generate(spec), args.output)
    print(json.dumps(spec.metadata()))
    return 0


def _alpha_summary(result) -> str:
    steps = [a.alpha for a in result.alphas if a is not None]
    if not steps:
        return "alphas: none"
    return "alphas: %d steps, min %.6g, max %.6g, fallbacks %d" % (
        len(steps),
        min(steps),
        max(steps),
        result.fallback_count,
    )


def cmd_solve(args) -> int:
    model = load_model(args.model)
    config = _build(SolverConfig, vars(args))
    result = solve(model, config)
    status = "converged" if result.converged else "hit iteration budget"
    print(f"algorithm: {algorithm_label(config.operator, config.accelerator)}")
    print(f"iterations: {result.iterations} ({status})")
    print(f"wall ms: {result.wall_ms:.3f}")
    print(f"final residual: {result.final_residual:.6g} (threshold {result.threshold:.6g})")
    print(_alpha_summary(result))
    print(f"rows eliminated: {result.rows_eliminated} of {model.num_rows}")
    if result.guard_failed_at is not None:
        print(f"guard failed at backup {result.guard_failed_at}; solved again on every row")
    if "csv" in args:
        meta = dict(model.metadata or {}, num_states=model.num_states, discount=model.discount)
        _write_csv(args.csv, [_row(meta, config, [result])], append=True)
    return 0 if result.converged else 2


def _parse_cell(raw, index: int) -> tuple[GeneratorSpec, SolverConfig]:
    if not isinstance(raw, dict):
        raise UsageError(f"cell {index}: a cell must be an object")
    unknown = raw.keys() - SETTINGS.keys()
    if unknown:
        raise UsageError(f"cell {index}: unknown keys {shown(sorted(unknown))}")
    try:
        return _build(GeneratorSpec, raw), _build(SolverConfig, raw)
    except UsageError as exc:
        raise UsageError(f"cell {index}: {exc}") from None


def _run_cell(spec: GeneratorSpec, config: SolverConfig, repetitions: int) -> list:
    try:
        model = generate(spec)
        results = [solve(model, config) for _ in range(repetitions)]
        counts = {r.iterations for r in results}
        if len(counts) != 1:
            raise RuntimeError(f"iteration counts differ across repetitions: {sorted(counts)}")
    except Exception as exc:
        # a failing cell is one row of the matrix, not the end of the run
        return _row(spec.metadata(), config, error=str(exc))
    return _row(spec.metadata(), config, results)


def cmd_bench(args) -> int:
    with open(args.plan, encoding="utf-8") as f:
        try:
            plan = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (ValueError, RecursionError) as exc:
            raise PlanFormatError(decoder_refusal(exc)) from None
    if not isinstance(plan, dict):
        raise UsageError("a plan must be an object")
    output = args.output if "output" in args else plan.get("output")
    if output is None or output == "":
        raise UsageError("no output path (plan 'output' key or -o flag)")
    if not isinstance(output, str):
        # open() would take an integer for a file descriptor
        raise UsageError(f"output must be a path string, got {shown(output)}")
    repetitions = _cast("repetitions", _INTEGER, plan.get("repetitions", 3))
    if repetitions < 1:
        raise UsageError("repetitions must be at least 1")
    cells = plan.get("cells", [])
    if not isinstance(cells, list):
        raise UsageError("cells must be an array")
    parsed = [_parse_cell(raw, i) for i, raw in enumerate(cells)]

    rows = [_run_cell(spec, config, repetitions) for spec, config in parsed]
    _write_csv(output, rows)
    failed = sum(1 for r in rows if r[-1])
    print(f"wrote {len(rows)} rows to {output}" + (f" ({failed} with errors)" if failed else ""))
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if "model" in args:
        model = load_model(args.model)
        print(f"model ok: {model.num_states} states, {model.num_rows} action rows")
        return 0
    suite = {name: getattr(args, name) for name in ("seed", "trials") if name in args}
    try:
        report = run_property_suite(**suite)
    except ValueError as exc:  # the suite refuses its arguments before any trial
        raise UsageError(str(exc)) from None
    print(report.to_text())
    if "csv" in args:
        report.write_csv(args.csv)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; a flag the user leaves out is absent from the namespace."""
    parser = argparse.ArgumentParser(
        prog="mdpaccel",
        description="Accelerated value-iteration solvers and benchmarks for MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    gen = command("generate", cmd_generate, "generate a random instance to a model file")
    gen.add_argument("--family", required=True, choices=[f.value for f in GeneratorFamily])
    gen.add_argument("--states", required=True, type=int)
    gen.add_argument("--density", type=float)
    gen.add_argument("--bandwidth", type=int)
    gen.add_argument("--discount", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--actions", nargs=2, metavar=("LO", "HI"), type=int)
    gen.add_argument("--rewards", nargs=2, metavar=("LO", "HI"), type=float)
    gen.add_argument("-o", "--output", required=True)

    slv = command("solve", cmd_solve, "solve a model file with one configuration")
    slv.add_argument("model")
    slv.add_argument("--op", dest="operator", choices=[k.value for k in OperatorKind])
    slv.add_argument("--accel", dest="accelerator", choices=[k.value for k in AcceleratorKind])
    slv.add_argument("--eps", dest="epsilon", type=float)
    slv.add_argument("--max-iterations", type=int)
    slv.add_argument("--no-checks", dest="membership_checks", action="store_const", const=False)
    slv.add_argument("--csv", help="append one result row to this CSV file")

    ben = command("bench", cmd_bench, "run a JSON plan of cells into a CSV matrix")
    ben.add_argument("plan")
    ben.add_argument("-o", "--output", help="override the plan's output path")

    ver = command("verify", cmd_verify, "run the property suite or validate a model file")
    ver.add_argument("--trials", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--csv", help="also write the per-property report to this CSV file")
    ver.add_argument("--model", help="validate this model file instead of running the suite")
    return parser


def _fail(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(f"{exc.filename}: {exc.strerror}" if exc.filename else exc, 1)
    except (ModelFormatError, ModelValidationError) as exc:
        return _fail(f"{args.model}: {exc}", 1)
    except (json.JSONDecodeError, UnicodeDecodeError, PlanFormatError) as exc:
        return _fail(f"{args.plan}: {exc}", 1)
    except (SolverConfigError, UsageError) as exc:
        return _fail(exc, 2)
    except MemoryError as exc:
        return _fail(f"out of memory: {str(exc) or 'allocation refused'}", 1)


if __name__ == "__main__":
    sys.exit(main())
