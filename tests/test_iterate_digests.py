"""tools/iterate_digests.py: one sorted, reproducible line per config, and against a
second checkout only the lines that differ."""

from __future__ import annotations

import importlib.util
import re
import shutil
import textwrap
from pathlib import Path

import pytest

import mdpaccel

TOOL = Path(__file__).resolve().parents[1] / "tools" / "iterate_digests.py"
SRC = Path(mdpaccel.__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("iterate_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SHAPES", {
        "tiny-uniform": (
            dict(family="uniform", num_states=6, density=0.5, discount=0.9, action_range=(2, 3)),
            ("standard", "gs"),
        ),
        # jacobi is refused on total-reward models, so its configs print the exception
        "tiny-total": (
            dict(family="total_reward_positive", num_states=4, action_range=(2, 3)),
            ("standard", "jacobi"),
        ),
    })
    return module


def test_lines_are_one_per_config_sorted_and_reproducible(tool, capsys):
    seeds = (3, 4)
    first = tool.lines(seeds)
    configs = len(seeds) * 4 * len(tool.ACCELERATORS)
    assert len(first) == configs
    assert first == sorted(first)
    keys = [line.split()[0] for line in first]
    assert len(set(keys)) == configs
    assert {key.split("/")[0] for key in keys} == {"tiny-uniform", "tiny-total"}
    counted = re.compile(r"^\S+ \d+ \d+ [0-9a-f]{16}$")
    raised = re.compile(r"^\S+ [A-Za-z_]\w*$")
    assert all(counted.match(line) or raised.match(line) for line in first)
    refused = [line for line in first if "/jacobi/" in line]
    assert refused and all(line.endswith(" SolverConfigError") for line in refused)
    assert all(counted.match(line) for line in first if "/jacobi/" not in line)
    for _ in range(2):
        assert tool.main([str(seed) for seed in seeds]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in first)


def test_against_its_own_source_prints_nothing(tool, capsys):
    assert tool.main(["3", "--against", str(SRC)]) == 0
    assert capsys.readouterr().out == ""


def test_against_a_differing_package_prints_the_lines_of_its_keys(tool, capsys, tmp_path):
    shutil.copytree(SRC / "mdpaccel", tmp_path / "mdpaccel", ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "mdpaccel" / "solver.py"
    # the copy's Gauss-Seidel runs report one backup more
    solver.write_text(solver.read_text() + textwrap.dedent("""
        _solve = solve


        def solve(m, config=None):
            result = _solve(m, config)
            if config.operator is OperatorKind.GAUSS_SEIDEL:
                result.iterations += 1
            return result
    """))
    assert tool.main(["3", "--against", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    theirs, ours = out[0::2], out[1::2]
    assert all(line.startswith("- ") for line in theirs) and all(line.startswith("+ ") for line in ours)
    keys = [line.split()[1] for line in ours]
    assert keys == sorted(f"tiny-uniform/3/gs/{label}" for label, _, _ in tool.ACCELERATORS)
    for a, b in zip(theirs, ours):
        key, count, *rest = b.split()[1:]
        assert a.split()[1:] == [key, str(int(count) + 1), *rest]
