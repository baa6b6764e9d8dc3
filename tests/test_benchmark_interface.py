"""The benchmark tracer still finds every layer it rebinds by module attribute.

``perfbench/tracer.py`` wraps functions at the module-level names the
solve path looks them up through (``mdpaccel.solver.apply_operator``,
``mdpaccel.accelerators.is_feasible`` and so on).  A refactor that stops
calling through one of those names silently drops its span from the bench
run; this test makes that a Tier-1 failure instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mdpaccel
import mdpaccel.operators
import mdpaccel.solver
from mdpaccel import GeneratorSpec, SolverConfig, generate, solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_tracer_records_every_solve_layer():
    tracer = load_tracer()
    m = generate(GeneratorSpec(family="uniform", num_states=6, density=0.5,
                               action_range=(2, 3), seed=3))
    configs = (
        dict(operator="standard"),
        dict(operator="gs"),
        dict(operator="standard", accelerator="linear"),
        dict(operator="standard", accelerator="projective"),
        dict(operator="jacobi", accelerator="projective"),
    )
    with tracer.Tracer().installed() as t:
        for options in configs:
            assert solve(m, SolverConfig(epsilon=1e-3, **options)).converged
    names = {span[tracer.NAME] for span in t.spans}
    assert {
        "operators.backup",
        "operators.sweep",
        "operators.weighted_sums",
        "operators.is_feasible",
        "solver.extract_policy",
        "accelerators.apply_projective",
        "accelerators.projective_alpha",
        "accelerators.apply_linear_extension",
        "accelerators.linear_extension_alpha",
    } <= names
    # the output check's fresh sums pass, which the bench counts as check_sums
    assert any(
        span[tracer.NAME] == "operators.weighted_sums" and span[tracer.PARENT] >= 0
        and t.spans[span[tracer.PARENT]][tracer.NAME].startswith("accelerators.")
        for span in t.spans
    )
    assert mdpaccel.solver.apply_operator is mdpaccel.operators.apply_operator
    # every accelerated solve iterates on a reward-shifted copy that shares
    # the input's views, so the plain solve's build serves all of them
    assert sum(span[tracer.NAME] == tracer.ROW_MATRIX_BUILD for span in t.spans) == 1
