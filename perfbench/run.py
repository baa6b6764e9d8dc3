"""mdpaccel benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload band-vi --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run starts ``workload.py`` in a fresh Python process with
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1 and the checkout's own
``src`` as the only import path for ``mdpaccel``, waits for it, prints its
report and ends with one JSON line: the correctness tally and the metrics
``BENCHMARK.json`` lists for the mode (``end_to_end`` for ``--trace 0``,
``per_layer`` for ``--trace 1``).  ``--smoke`` runs every workload at a
small size in both modes and checks that each passes the correctness gate,
reports every listed metric and records every span name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dense-pa", "band-vi", "sparse-gs")
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.4


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    return env


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    with subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}{', smoke' if result['smoke'] else ''})")
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print("  detail " + json.dumps(result["detail"]))
    print("  environment " + json.dumps(result["environment"]))


def listed_metrics(bench: dict, trace: int) -> list[dict]:
    return bench["per_layer" if trace else "end_to_end"]


def missing_metrics(bench: dict, result: dict) -> list[str]:
    """Listed metrics the result lacks or reports in another unit."""
    got = result["metrics"]
    return [
        m["name"] for m in listed_metrics(bench, result["trace"])
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]
    ]


def smoke(root: Path, bench: dict) -> int:
    problems, seen = [], set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, workload, 0, SMOKE_SECONDS, trace, smoke=True)
            report(result)
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: correctness gate failed")
            if missing := missing_metrics(bench, result):
                problems.append(f"{workload} trace {trace}: missing metrics {missing}")
            seen.update(result["detail"].get("span_names_seen", ()))
    if unseen := sorted(set(result["span_names"]) - seen):
        problems.append(f"span names never recorded: {unseen}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="mdpaccel benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload small, in both modes, as a self-test")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    if not (root / "src" / "mdpaccel" / "__init__.py").is_file():
        print("no src/mdpaccel here: run from the root of an mdpaccel checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        if args.smoke:
            return smoke(root, bench)
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(result)
    if missing := missing_metrics(bench, result):
        print(f"result lacks listed metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: result["metrics"][m["name"]] for m in listed_metrics(bench, args.trace)}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
