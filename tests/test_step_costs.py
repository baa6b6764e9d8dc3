"""tools/step_costs.py: one line per config, whose phases add up to the solve's backups."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

import mdpaccel

TOOLS = Path(__file__).resolve().parents[1] / "tools"
LINE = re.compile(
    r"^tiny/(\w+)/(\d+) (\d+) backups [\d.]+ ms"
    r" \| all (\d+) x (\S+) us \| compacted (\d+) x (\S+) us \| two (\d+) x (\S+) us$"
)


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("step_costs", TOOLS / "step_costs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # band-vi's shape, small: its accelerated runs drop rows and compact
    monkeypatch.setattr(module, "SHAPES", {
        "tiny": dict(family="band", num_states=30, bandwidth=6, discount=0.995, action_range=(4, 8)),
    })
    return module


def test_one_line_per_config_whose_phases_sum_to_the_backups(tool, capsys):
    assert tool.main(["--shape", "tiny", "--seeds", "3", "4", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(tool.CONFIGS)
    keys = []
    for line in lines:
        match = LINE.match(line)
        assert match, line
        label, seed, backups, *cells = match.groups()
        keys.append((label, int(seed)))
        counts = [int(n) for n in cells[0::2]]
        assert sum(counts) == int(backups)
        for n, us in zip(counts, cells[1::2]):
            assert (us == "nan") is (n == 0)
        solved = mdpaccel.solve(
            mdpaccel.generate(mdpaccel.GeneratorSpec(seed=int(seed), **tool.SHAPES["tiny"])),
            mdpaccel.SolverConfig(**dict(tool.CONFIGS)[label]),
        )
        assert solved.iterations == int(backups)
        # a run that drops rows leaves the all-rows phase
        assert (counts[0] < int(backups)) is (solved.rows_eliminated > 0)
    assert keys == [(label, seed) for seed in (3, 4) for label, _ in tool.CONFIGS]


def test_against_a_second_copy_prints_its_line_and_the_ratios(tool, capsys):
    src = Path(mdpaccel.__file__).resolve().parents[1]
    assert tool.main(["--shape", "tiny", "--seeds", "3", "--repeat", "1", "--against", str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * len(tool.CONFIGS)
    for ours, theirs, ratios in zip(lines[0::3], lines[1::3], lines[2::3]):
        assert LINE.match(ours) and theirs.startswith(ours.split(" ")[0] + " against ")
        # the same code takes the same steps in each phase
        assert phase_counts(ours) == phase_counts(theirs)
        assert ratios.startswith("  ratio wall ")


def phase_counts(line: str) -> list[str]:
    return [cell.split(" x ")[0] for cell in line.split(" | ")[1:]]


def test_repeat_below_one_is_refused(tool):
    with pytest.raises(SystemExit):
        tool.main(["--repeat", "0"])
