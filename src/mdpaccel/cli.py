"""Command-line front end.

Four subcommands:

* ``generate`` — build one random instance and write it as model JSON;
* ``solve`` — run one operator/accelerator combination on a model file;
* ``bench`` — run a JSON plan of (generator, operator, accelerator)
  cells, each repeated and reduced to a median wall time, into a CSV
  matrix;
* ``verify`` — run the randomized property suite, or validate a model
  file.

Exit codes: 0 on success (for ``solve``, convergence; for ``verify``,
all properties passing), 2 when a run hits its iteration budget or the
arguments are unusable, 1 for invalid input files and failed suites.

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
from dataclasses import dataclass

from .generators import GeneratorFamily, GeneratorSpec, generate
from .model import (
    MdpModel,
    ModelFormatError,
    ModelValidationError,
    load_model,
    save_model,
)
from .accelerators import ALPHA_CAP_DEFAULT
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


def _interval(parsed, cast):
    return None if parsed is None else (cast(parsed[0]), cast(parsed[1]))


def _spec_from_args(args) -> GeneratorSpec:
    kwargs = dict(
        family=args.family,
        num_states=args.states,
        discount=args.discount,
        seed=args.seed,
    )
    if args.density is not None:
        kwargs["density"] = args.density
    if args.bandwidth is not None:
        kwargs["bandwidth"] = args.bandwidth
    if args.actions is not None:
        kwargs["action_range"] = _interval(args.actions, int)
    if args.rewards is not None:
        kwargs["reward_range"] = _interval(args.rewards, float)
    return GeneratorSpec(**kwargs)


def cmd_generate(args) -> int:
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = generate(spec)
    try:
        save_model(model, args.output)
    except OSError as exc:
        print(f"error: {args.output}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(spec.metadata()))
    return 0


def _load_or_report(path):
    try:
        return load_model(path), 0
    except (ModelFormatError, ModelValidationError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, 1


def _metadata_fields(m: MdpModel):
    meta = m.metadata or {}
    return (
        meta.get("family", ""),
        meta.get("density", meta.get("bandwidth", "")),
        meta.get("seed", ""),
    )


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
    model, code = _load_or_report(args.model)
    if model is None:
        return code
    operator = args.op
    if operator is None:
        operator = "total" if model.mode.value == "total_reward" else "standard"
    config = SolverConfig(
        operator=operator,
        accelerator=args.accel,
        beta=args.beta,
        epsilon=args.eps,
        max_iterations=args.max_iterations,
        membership_checks=not args.no_checks,
        alpha_cap=args.alpha_cap,
    )
    try:
        config.validate_for(model)
    except SolverConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = solve(model, config)
    label = algorithm_label(config.operator, config.accelerator)
    status = "converged" if result.converged else "hit iteration budget"
    print(f"algorithm: {label}")
    print(f"iterations: {result.iterations} ({status})")
    print(f"wall ms: {result.wall_ms:.3f}")
    print(f"final residual: {result.final_residual:.6g} (threshold {result.threshold:.6g})")
    print(_alpha_summary(result))
    if args.csv:
        family, size_field, seed = _metadata_fields(model)
        row = [
            family,
            model.num_states,
            size_field,
            model.discount,
            config.operator.value,
            config.accelerator.value,
            seed,
            result.iterations,
            f"{result.wall_ms:.3f}",
            result.fallback_count,
            label,
            "" if result.converged else "max-iterations",
        ]
        _write_csv(args.csv, [row], append=True)
    return 0 if result.converged else 2


@dataclass
class _Cell:
    spec: GeneratorSpec
    operator: OperatorKind
    accelerator: AcceleratorKind
    config: SolverConfig


def _parse_cell(raw: dict, index: int) -> _Cell:
    known = {
        "family",
        "states",
        "density",
        "bandwidth",
        "discount",
        "seed",
        "actions",
        "rewards",
        "operator",
        "accelerator",
        "epsilon",
        "beta",
        "max_iterations",
        "membership_checks",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"cell {index}: unknown keys {sorted(unknown)}")
    kwargs = dict(
        family=raw["family"],
        num_states=int(raw["states"]),
        discount=float(raw.get("discount", 0.9 if raw["family"] != "total_reward_positive" else 1.0)),
        seed=int(raw.get("seed", 0)),
    )
    if "density" in raw:
        kwargs["density"] = float(raw["density"])
    if "bandwidth" in raw:
        kwargs["bandwidth"] = int(raw["bandwidth"])
    if "actions" in raw:
        kwargs["action_range"] = _interval(raw["actions"], int)
    if "rewards" in raw:
        kwargs["reward_range"] = _interval(raw["rewards"], float)
    spec = GeneratorSpec(**kwargs)
    operator = OperatorKind(raw.get("operator", "standard"))
    accelerator = AcceleratorKind(raw.get("accelerator", "none"))
    total_family = spec.family is GeneratorFamily.TOTAL_REWARD_POSITIVE
    if total_family != (operator is OperatorKind.TOTAL_REWARD):
        raise ValueError(
            f"cell {index}: operator {operator.value!r} does not fit family {spec.family.value!r}"
        )
    config = SolverConfig(
        operator=operator,
        accelerator=accelerator,
        beta=float(raw.get("beta", 0.0)),
        epsilon=float(raw.get("epsilon", 1e-3)),
        max_iterations=int(raw.get("max_iterations", 200_000)),
        membership_checks=bool(raw.get("membership_checks", True)),
    )
    return _Cell(spec=spec, operator=operator, accelerator=accelerator, config=config)


def _size_field(spec: GeneratorSpec):
    if spec.family is GeneratorFamily.BAND:
        return spec.bandwidth
    return spec.effective_density


def _run_cell(cell: _Cell, repetitions: int) -> list:
    spec = cell.spec
    row = [
        spec.family.value,
        spec.num_states,
        _size_field(spec),
        spec.discount,
        cell.operator.value,
        cell.accelerator.value,
        spec.seed,
    ]
    try:
        model = generate(spec)
        results = [solve(model, cell.config) for _ in range(repetitions)]
        counts = {r.iterations for r in results}
        if len(counts) != 1:
            raise RuntimeError(f"iteration counts differ across repetitions: {sorted(counts)}")
        first = results[0]
        error = "" if all(r.converged for r in results) else "max-iterations"
        return row + [
            first.iterations,
            "%.3f" % statistics.median(r.wall_ms for r in results),
            first.fallback_count,
            algorithm_label(cell.operator, cell.accelerator),
            error,
        ]
    except Exception as exc:
        return row + ["", "", "", algorithm_label(cell.operator, cell.accelerator), str(exc)]


def _write_csv(path, rows, append=False) -> None:
    fresh = not append or not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a" if append else "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def cmd_bench(args) -> int:
    try:
        with open(args.plan, encoding="utf-8") as f:
            plan = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {args.plan}: {exc}", file=sys.stderr)
        return 1
    output = args.output or plan.get("output")
    if not output:
        print("error: no output path (plan 'output' key or -o flag)", file=sys.stderr)
        return 2
    repetitions = int(plan.get("repetitions", 3))
    if repetitions < 1:
        print("error: repetitions must be at least 1", file=sys.stderr)
        return 2
    try:
        cells = [_parse_cell(raw, i) for i, raw in enumerate(plan.get("cells", []))]
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = [_run_cell(cell, repetitions) for cell in cells]
    try:
        _write_csv(output, rows)
    except OSError as exc:
        print(f"error: {output}: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for r in rows if r[-1])
    print(f"wrote {len(rows)} rows to {output}" + (f" ({failed} with errors)" if failed else ""))
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if args.model is not None:
        model, code = _load_or_report(args.model)
        if model is None:
            return code
        print(f"model ok: {model.num_states} states, {model.num_rows} action rows")
        return 0
    report = run_property_suite(seed=args.seed, trials=args.trials)
    print(report.to_text())
    if args.csv:
        report.write_csv(args.csv)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpaccel",
        description="Accelerated value-iteration solvers and benchmarks for MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance to a model file")
    gen.add_argument("--family", required=True, choices=[f.value for f in GeneratorFamily])
    gen.add_argument("--states", required=True, type=int)
    gen.add_argument("--density", type=float)
    gen.add_argument("--bandwidth", type=int)
    gen.add_argument("--discount", type=float, default=0.9)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--actions", nargs=2, metavar=("LO", "HI"), type=int)
    gen.add_argument("--rewards", nargs=2, metavar=("LO", "HI"), type=float)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve a model file with one configuration")
    slv.add_argument("model")
    slv.add_argument("--op", choices=[k.value for k in OperatorKind], default=None)
    slv.add_argument("--accel", choices=[k.value for k in AcceleratorKind], default="none")
    slv.add_argument("--eps", type=float, default=1e-3)
    slv.add_argument("--beta", type=float, default=0.0)
    slv.add_argument("--max-iterations", type=int, default=200_000)
    slv.add_argument("--no-checks", action="store_true")
    slv.add_argument("--alpha-cap", type=float, default=ALPHA_CAP_DEFAULT)
    slv.add_argument("--csv", help="append one result row to this CSV file")
    slv.set_defaults(func=cmd_solve)

    ben = sub.add_parser("bench", help="run a JSON plan of cells into a CSV matrix")
    ben.add_argument("plan")
    ben.add_argument("-o", "--output", help="override the plan's output path")
    ben.set_defaults(func=cmd_bench)

    ver = sub.add_parser("verify", help="run the property suite or validate a model file")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--csv", help="also write the per-property report to this CSV file")
    ver.add_argument("--model", help="validate this model file instead of running the suite")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
