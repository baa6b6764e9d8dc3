"""tools/iterate_digests.py: one sorted, reproducible line per config."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "iterate_digests.py"


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
