"""tools/step_costs.py: one line per config, the shape's other benchmark-mix configs
included, whose phases add up to the solve's backups, and two lines per seed: the cost of
the membership checks, and of an accelerated step on the compacted model against a plain
one."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import mdpaccel

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PERFBENCH = TOOLS.parent / "perfbench"
LINE = re.compile(
    r"^tiny/(\w+)/(\d+) (\d+) backups [\d.]+ ms"
    r" \| all (\d+) x (\S+) us \| compacted (\d+) x (\S+) us \| two (\d+) x (\S+) us$"
)
CHECKS = re.compile(r"^tiny/checks/(\d+)( against)? checked/unchecked wall PAVI (\S+) \| LAVI (\S+)$")
TAIL = re.compile(r"^tiny/tail/(\d+)( against)? two/VI us per backup PAVI (\S+) \| LAVI (\S+)$")


@pytest.fixture
def tool(monkeypatch):
    module = load(monkeypatch, TOOLS, "step_costs")
    # band-vi's shape, small: its accelerated runs drop rows and compact
    monkeypatch.setattr(module, "SHAPES", {
        "tiny": dict(family="band", num_states=30, bandwidth=6, discount=0.995, action_range=(4, 8)),
    })
    # sparse-gs's mix configs, which drop no row
    monkeypatch.setattr(module, "MIX_CONFIGS", {"tiny": module.MIX_CONFIGS["sparse-gs"]})
    return module


def load(monkeypatch, directory: Path, name: str):
    """The module ``name`` of ``directory``, which it imports its siblings from."""
    monkeypatch.syspath_prepend(str(directory))
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_the_shapes_and_configs_are_the_benchmark_workloads(monkeypatch):
    tool = load(monkeypatch, TOOLS, "step_costs")
    workload = load(monkeypatch, PERFBENCH, "workload")
    assert sorted(tool.SHAPES) == sorted(workload.WORKLOADS)
    for name, w in workload.WORKLOADS.items():
        assert tool.SHAPES[name] == dict(w.spec, action_range=workload.ACTIONS)
        timed = [options for _, options in tool.shape_configs(name)]
        # every mix config is timed, once
        assert all(timed.count(options) == 1 for _, options in w.mix)


def test_one_line_per_config_whose_phases_sum_to_the_backups(tool, capsys):
    assert tool.main(["--shape", "tiny", "--seeds", "3", "4", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    configs = tool.shape_configs("tiny")
    assert [label for label, _ in configs[len(tool.CONFIGS):]] == ["GS", "LAGS"]
    per_seed = len(configs) + 2
    assert len(lines) == 2 * per_seed
    keys = []
    for k, line in enumerate(lines):
        if k % per_seed == len(configs):
            keys.append(check_ratios(line))
            continue
        if k % per_seed == len(configs) + 1:
            keys.append(("tail", tail_ratios(line, lines[k - per_seed + 1:k - 1])))
            continue
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
            mdpaccel.SolverConfig(**dict(configs)[label]),
        )
        assert solved.iterations == int(backups)
        # a run that drops rows leaves the all-rows phase
        assert (counts[0] < int(backups)) is (solved.rows_eliminated > 0)
    assert keys == [
        key for seed in (3, 4) for key in [(label, seed) for label, _ in configs] + [seed, ("tail", seed)]
    ]


def check_ratios(line: str) -> int:
    """The seed of a ``checks`` line, whose two ratios are positive and finite."""
    match = CHECKS.match(line)
    assert match, line
    for ratio in match.group(3, 4):
        assert 0.0 < float(ratio) < float("inf")
    return int(match.group(1))


def tail_ratios(line: str, config_lines: list[str]) -> int:
    """The seed of a ``tail`` line, whose ratios are PAVI's and LAVI's two-phase times over VI's."""
    match = TAIL.match(line)
    assert match, line
    matches = [LINE.match(c.replace(" against ", " ", 1)) for c in config_lines]
    two = {m.group(1): float(m.group(9)) for m in matches}
    for label, ratio in zip(("PAVI", "LAVI"), match.group(3, 4)):
        # the tiny shape's runs all reach the two-rows phase
        assert 0.0 < float(ratio) < float("inf")
        assert float(ratio) == pytest.approx(two[label] / two["VI"], rel=0.02, abs=1e-3)
    return int(match.group(1))


def test_against_a_second_copy_prints_its_line_and_the_ratios(tool, capsys):
    src = Path(mdpaccel.__file__).resolve().parents[1]
    assert tool.main(["--shape", "tiny", "--seeds", "3", "--repeat", "1", "--against", str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    configs = 3 * len(tool.shape_configs("tiny"))
    assert len(lines) == configs + 4
    for ours, theirs, ratios in zip(lines[0:configs:3], lines[1:configs:3], lines[2:configs:3]):
        assert LINE.match(ours) and theirs.startswith(ours.split(" ")[0] + " against ")
        # the same code takes the same steps in each phase
        assert phase_counts(ours) == phase_counts(theirs)
        assert ratios.startswith("  ratio wall ")
    # the checks and tail lines of each copy
    ours, theirs = lines[0:configs:3], lines[1:configs:3]
    assert [check_ratios(line) for line in lines[configs::2]] == [3, 3]
    assert [tail_ratios(line, copy) for line, copy in zip(lines[configs + 1::2], (ours, theirs))] == [3, 3]
    assert CHECKS.match(lines[-2]).group(2) == TAIL.match(lines[-1]).group(2) == " against"


def phase_counts(line: str) -> list[str]:
    return [cell.split(" x ")[0] for cell in line.split(" | ")[1:]]


C9 = re.compile(r"^criterion-9/c9/(\d+)( against)? PAVI_nochecks/VI ms per backup (\S+)$")
C9_CONFIG = re.compile(r"^criterion-9/(\w+)/(\d+) (\d+) backups ([\d.]+) ms")


@pytest.mark.parametrize("against", [False, True])
def test_criterion_9_prints_checks_off_pavis_time_per_backup_over_vis(monkeypatch, capsys, against):
    tool = load(monkeypatch, TOOLS, "step_costs")
    # criterion 9's shape, small
    monkeypatch.setitem(tool.ANCHOR_SHAPES, "criterion-9",
                        dict(family="uniform", num_states=40, density=1.0, discount=0.9, reward_range=(0.01, 0.1)))
    args = ["--shape", "criterion-9", "--seeds", "0", "--repeat", "2"]
    if against:
        args += ["--against", str(Path(mdpaccel.__file__).resolve().parents[1])]
    assert tool.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    per_backup = {}
    for line in lines:
        match = C9_CONFIG.match(line)
        if match and " against " not in line:
            label, seed, backups, ms = match.groups()
            per_backup[label] = float(ms) / int(backups)
    assert sorted(per_backup) == ["PAVI_nochecks", "VI"]
    ratios = [C9.match(line) for line in lines if line.startswith("criterion-9/c9/")]
    assert [(m.group(1), m.group(2)) for m in ratios] == [("0", None)] + ([("0", " against")] if against else [])
    # the wall times are printed rounded to 0.01 ms
    expected = per_backup["PAVI_nochecks"] / per_backup["VI"]
    assert float(ratios[0].group(3)) == pytest.approx(expected, rel=0.05)
    assert not any(line.startswith(("criterion-9/checks/", "criterion-9/tail/")) for line in lines)


def test_repeat_below_one_is_refused(tool):
    with pytest.raises(SystemExit):
        tool.main(["--repeat", "0"])
