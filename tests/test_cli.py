"""In-process tests for the command-line front end."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mdpaccel.cli as cli
import mdpaccel.solver as solver_mod
import mdpaccel.verification as verif
from mdpaccel.cli import CSV_COLUMNS, main
from mdpaccel.model import SHOWN_CHARS, MdpModel, RewardMode, load_model, save_model, too_many_digits
from mdpaccel.solver import SolverConfig

from test_model import (
    HUGE_NUMBER_PATHS,
    WIDE_COLUMNS,
    chain_to_absorbing,
    model_text_with_huge_number,
    two_state_swap,
)
from test_solver import linear_tail_model

BROKEN_MODEL = (
    '{"mode": "discounted", "discount": 0.9, "states": '
    '[{"actions": [{"reward": 1.0, "transitions": [[0, 0.7]]}]},'
    ' {"actions": [{"reward": 1.0, "transitions": [[0, 1.0]]}]}]}'
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        lines = list(csv.reader(f))
    header = lines[0]
    return header, [dict(zip(header, line)) for line in lines[1:]]


class TestGenerate:
    def test_writes_valid_model_and_prints_spec(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(
            [
                "generate", "--family", "uniform", "--states", "12",
                "--density", "0.5", "--discount", "0.95", "--seed", "3",
                "-o", str(out),
            ]
        )
        assert code == 0
        m = load_model(out)
        assert m.num_states == 12
        printed = json.loads(capsys.readouterr().out)
        assert printed["family"] == "uniform"
        assert printed["seed"] == 3
        assert m.metadata == printed

    def test_band_family(self, tmp_path):
        out = tmp_path / "band.json"
        code = main(
            [
                "generate", "--family", "band", "--states", "40",
                "--bandwidth", "10", "--seed", "1", "-o", str(out),
            ]
        )
        assert code == 0
        m = load_model(out)
        half = 10 // 2
        for i in range(m.num_states):
            lo, hi = m.state_ptr[i], m.state_ptr[i + 1]
            for row in range(lo, hi):
                cols = m.cols[m.row_ptr[row] : m.row_ptr[row + 1]]
                assert np.all(np.abs(cols - i) <= half)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "generate", "--family", "uniform", "--states", "9",
            "--density", "1.0", "--seed", "5",
        ]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_states_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "uniform", "-o", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_total_family_discount_defaults_to_one(self, tmp_path, capsys):
        out = tmp_path / "tr.json"
        code = main(["generate", "--family", "total_reward_positive", "--states", "5", "-o", str(out)])
        assert code == 0
        assert load_model(out).discount == 1.0
        assert json.loads(capsys.readouterr().out)["discount"] == 1.0

    @pytest.mark.parametrize("argv, named", [
        (["--seed", "-1"], "seed"),
        (["--rewards", "1", "inf"], "reward range"),
    ], ids=["negative-seed", "infinite-rewards"])
    def test_spec_generate_cannot_draw_exits_2(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x.json"
        argv = ["generate", "--family", "uniform", "--states", "5", "--density", "0.5", *argv, "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert not out.exists()

    def test_impossible_allocation_exits_1(self, tmp_path, capsys):
        # about 5e13 rows: numpy refuses the 463 TiB request before allocating anything
        out = tmp_path / "x.json"
        argv = ["generate", "--family", "uniform", "--states", "5", "--density", "0.5",
                "--actions", "2", "99999999999999", "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_family_flag_mismatch(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--family", "band", "--states", "40",
                "--density", "0.5", "-o", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("family, field", [("uniform", "density"), ("band", "bandwidth")])
    def test_missing_family_field_is_named(self, tmp_path, capsys, family, field):
        out = tmp_path / "x.json"
        assert main(["generate", "--family", family, "--states", "3", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {family} family needs a {field}\n"
        assert not out.exists()


class TestSolve:
    def test_converged_run(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(two_state_swap(1.0, 1.0), path)
        code = main(["solve", str(path), "--op", "standard", "--eps", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm: VI" in out
        assert "(converged)" in out
        assert "final residual:" in out
        assert "alphas: none" in out
        assert "rows eliminated: 0 of 2" in out

    def test_accelerated_alpha_summary(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(two_state_swap(1.0, 2.0), path)
        code = main(["solve", str(path), "--accel", "projective"])
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm: PAVI" in out
        assert "alphas:" in out and "steps" in out
        assert "rows eliminated: 0 of 2" in out

    def test_plain_run_reports_the_rows_it_eliminated(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["generate", "--family", "uniform", "--states", "12", "--density", "0.5",
                     "--seed", "3", "-o", str(path)]) == 0
        rows = load_model(path).num_rows
        assert main(["solve", str(path)]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("rows eliminated:"))
        eliminated, of = line.removeprefix("rows eliminated: ").split(" of ")
        assert 0 < int(eliminated) <= rows - 12 and int(of) == rows

    @pytest.mark.parametrize("checks", [[], ["--no-checks"]], ids=["checked", "unchecked"])
    def test_linear_extension_run_reports_the_rows_it_eliminated(self, tmp_path, capsys, checks):
        path = tmp_path / "m.json"
        assert main(["generate", "--family", "band", "--states", "40", "--bandwidth", "8",
                     "--discount", "0.995", "--seed", "45", "-o", str(path)]) == 0
        rows = load_model(path).num_rows
        assert main(["solve", str(path), "--accel", "linear", *checks]) == 0
        out = capsys.readouterr().out
        assert "algorithm: LAVI" in out
        line = next(x for x in out.splitlines() if x.startswith("rows eliminated:"))
        eliminated, of = line.removeprefix("rows eliminated: ").split(" of ")
        assert 0 < int(eliminated) <= rows - 40 and int(of) == rows
        assert "guard failed" not in out

    def test_guard_failure_is_reported(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m.json"
        assert main(["generate", "--family", "band", "--states", "40", "--bandwidth", "8",
                     "--discount", "0.995", "--seed", "45", "-o", str(path)]) == 0
        rows = load_model(path).num_rows
        # no margin of rounding clears a dropped row: the first guard after a drop fails
        monkeypatch.setattr(solver_mod, "_read_error", lambda *args: math.inf)
        results, solve = [], cli.solve

        def recorded(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "solve", recorded)
        assert main(["solve", str(path), "--accel", "linear"]) == 0
        out = capsys.readouterr().out.splitlines()
        at = results[0].guard_failed_at
        assert at is not None and 1 < at
        assert f"rows eliminated: 0 of {rows}" in out
        assert f"guard failed at backup {at}; solved again on every row" in out

    @pytest.mark.parametrize("argv", [[], ["--op", "gs", "--accel", "projective"], ["--op", "jacobi", "--accel", "linear"]],
                             ids=["VI", "PAGS", "LAJ"])
    def test_discount_zero_converges_in_one_backup(self, tmp_path, monkeypatch, capsys, argv):
        path = tmp_path / "m.json"
        assert main(["generate", "--family", "uniform", "--states", "12", "--density", "0.5",
                     "--discount", "0", "--seed", "3", "-o", str(path)]) == 0
        results, solve = [], cli.solve

        def recorded(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "solve", recorded)
        assert main(["solve", str(path), *argv]) == 0
        assert "iterations: 1 (converged)" in capsys.readouterr().out
        exact = verif.exact_fixed_point(load_model(path)).exact_value
        # a reward shift and back costs the accelerated runs a few units in the last place
        np.testing.assert_allclose(results[0].final_value, exact, rtol=0, atol=1e-13)

    def test_unchecked_linear_extension_converges(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(linear_tail_model(), path)
        argv = ["solve", str(path), "--accel", "linear", "--no-checks", "--max-iterations", "2500"]
        assert main(argv) == 0
        assert "(converged)" in capsys.readouterr().out

    def test_wrong_operator_for_total_reward(self, tmp_path, capsys):
        path = tmp_path / "tr.json"
        save_model(chain_to_absorbing(), path)
        code = main(["solve", str(path), "--op", "jacobi"])
        assert code == 2
        assert "total-reward" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, field", [
        ("--eps", "nan", "epsilon"),
        ("--max-iterations", "0", "max_iterations"),
    ])
    def test_bad_solver_setting_exits_2_naming_it(self, tmp_path, capsys, option, value, field):
        path = tmp_path / "m.json"
        save_model(two_state_swap(), path)
        code = main(["solve", str(path), option, value])
        assert code == 2
        assert f"error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, expected", [
        ([], SolverConfig()),
        (["--op", "jacobi", "--accel", "linear", "--eps", "0.01",
          "--max-iterations", "50", "--no-checks"],
         SolverConfig(operator="jacobi", accelerator="linear", epsilon=0.01,
                      max_iterations=50, membership_checks=False)),
    ], ids=["defaults", "every-flag"])
    def test_flags_set_config_fields(self, tmp_path, monkeypatch, argv, expected):
        path = tmp_path / "m.json"
        save_model(two_state_swap(1.0, 2.0), path)
        seen = []
        real_solve = cli.solve
        monkeypatch.setattr(cli, "solve", lambda m, config: seen.append(config) or real_solve(m, config))
        main(["solve", str(path), *argv])
        assert seen == [expected]

    def test_beta_flag_is_gone(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(two_state_swap(), path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--beta", "0.3"])
        assert exc.value.code == 2
        assert "--beta" in capsys.readouterr().err

    def test_total_reward_operator_defaults(self, tmp_path, capsys):
        path = tmp_path / "tr.json"
        save_model(chain_to_absorbing(), path)
        code = main(["solve", str(path)])
        assert code == 0
        assert "algorithm: VI" in capsys.readouterr().out

    def test_total_is_no_operator(self, tmp_path, capsys):
        path = tmp_path / "tr.json"
        save_model(chain_to_absorbing(), path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--op", "total"])
        assert exc.value.code == 2
        assert "invalid choice: 'total'" in capsys.readouterr().err

    def test_budget_exhaustion_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(two_state_swap(1.0, 2.0), path)
        code = main(["solve", str(path), "--max-iterations", "3"])
        assert code == 2
        assert "hit iteration budget" in capsys.readouterr().out

    def test_broken_model_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(BROKEN_MODEL, encoding="utf-8")
        code = main(["solve", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("make", ["missing", "directory", "not-utf8"])
    def test_unreadable_model_file_exits_1_naming_it(self, tmp_path, capsys, make):
        path = tmp_path / "m.json"
        if make == "directory":
            path.mkdir()
        elif make == "not-utf8":
            path.write_bytes(b"\xff\xfe")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", [["solve"], ["verify", "--model"]])
    @pytest.mark.parametrize("text", [
        '{"mode": ' + "[" * 200_000,
        '{"mode": "discounted", "discount": 0.9, "states": ' + "[" * 100_000,
    ], ids=["in-a-field", "in-states"])
    def test_model_nested_too_deeply_exits_1_naming_it(self, tmp_path, capsys, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert main(command + [str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: arrays or objects nested too deeply to decode\n"

    @pytest.mark.parametrize("command", [["solve"], ["verify", "--model"]], ids=["solve", "verify"])
    def test_model_integer_past_the_digit_limit_exits_1_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "long.json"
        path.write_text('{"discount": 1' + "0" * 5_000, encoding="utf-8")
        assert main(command + [str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {too_many_digits()}\n"

    @pytest.mark.parametrize("command", [["solve"], ["verify", "--model"]], ids=["solve", "verify"])
    @pytest.mark.parametrize("field", HUGE_NUMBER_PATHS)
    def test_model_integer_past_float_range_exits_1_naming_it(self, tmp_path, capsys, command, field):
        path = tmp_path / "huge.json"
        path.write_text(model_text_with_huge_number(field))
        assert main(command + [str(path)]) == 1
        where = HUGE_NUMBER_PATHS[field]
        assert capsys.readouterr().err == f"error: {path}: {where} has a number too large for a float\n"

    def test_csv_appends_with_single_header(self, tmp_path):
        path = tmp_path / "m.json"
        out = tmp_path / "rows.csv"
        save_model(two_state_swap(1.0, 1.0), path)
        assert main(["solve", str(path), "--csv", str(out)]) == 0
        assert main(["solve", str(path), "--accel", "linear", "--csv", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == CSV_COLUMNS
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "VI"
        assert rows[1]["algorithm"] == "LAVI"
        assert rows[0]["states"] == "2"

    @pytest.mark.parametrize("argv", [[], ["--accel", "projective"]], ids=["plain", "accelerated"])
    def test_total_reward_model_without_absorbing_state_exits_2(self, tmp_path, capsys, argv):
        # a valid total-reward swap: no zero-reward absorbing state, so no start
        path = tmp_path / "tr.json"
        m = MdpModel.from_rows([[(1.0, [(1, 1.0)])], [(1.0, [(0, 1.0)])]], discount=1.0,
                               mode=RewardMode.TOTAL_REWARD)
        save_model(m, path)
        assert main(["solve", str(path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "absorbing" in err

    @pytest.mark.parametrize("op", ["jacobi", "gsj"])
    def test_self_loop_denominator_below_guard_exits_2(self, tmp_path, capsys, op):
        path = tmp_path / "m.json"
        m = MdpModel.from_rows([[(1.0, [(0, 1.0)])], [(1.0, [(0, 1.0)])]], discount=0.9999999999999)
        save_model(m, path)
        assert main(["solve", str(path), "--op", op]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the {op} backup") and err.count("\n") == 1


def write_plan(tmp_path, cells, repetitions=2, output=None):
    plan = {"repetitions": repetitions, "cells": cells}
    if output is not None:
        plan["output"] = str(output)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


UNIFORM_CELL = {
    "family": "uniform", "states": 20, "density": 1.0, "discount": 0.9,
    "seed": 0, "operator": "standard", "accelerator": "projective",
}


class TestBench:
    def test_matrix_run(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        cells = [
            UNIFORM_CELL,
            {
                "family": "band", "states": 30, "bandwidth": 10, "discount": 0.9,
                "seed": 1, "operator": "gs", "accelerator": "none",
            },
            {
                "family": "total_reward_positive", "states": 5, "actions": [2, 5],
                "seed": 80, "operator": "standard", "accelerator": "projective",
            },
        ]
        plan = write_plan(tmp_path, cells, output=out)
        assert main(["bench", str(plan)]) == 0
        header, rows = read_csv(out)
        assert header == CSV_COLUMNS
        assert [r["algorithm"] for r in rows] == ["PAVI", "GS", "PAVI"]
        assert all(r["error"] == "" for r in rows)
        assert rows[1]["density_or_bandwidth"] == "10"
        assert int(rows[0]["iterations"]) > 0

    def test_deterministic_iteration_counts(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        plan = write_plan(tmp_path, [UNIFORM_CELL], output=out1)
        assert main(["bench", str(plan)]) == 0
        assert main(["bench", str(plan), "-o", str(out2)]) == 0
        _, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        assert rows1[0]["iterations"] == rows2[0]["iterations"]

    def test_empty_plan_writes_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        plan = write_plan(tmp_path, [], output=out)
        assert main(["bench", str(plan)]) == 0
        header, rows = read_csv(out)
        assert header == CSV_COLUMNS and rows == []

    def test_bad_cell_rejected_upfront(self, tmp_path, capsys):
        bad = dict(UNIFORM_CELL, operator="total")
        plan = write_plan(tmp_path, [bad], output=tmp_path / "x.csv")
        assert main(["bench", str(plan)]) == 2
        assert capsys.readouterr().err == "error: cell 0: operator cannot be 'total'\n"

    def test_total_family_cell_defaults_to_standard_operator(self, tmp_path):
        out = tmp_path / "out.csv"
        cell = {"family": "total_reward_positive", "states": 5, "seed": 80, "accelerator": "projective"}
        plan = write_plan(tmp_path, [cell], output=out)
        assert main(["bench", str(plan)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["algorithm"] == "PAVI"
        assert rows[0]["operator"] == "standard"
        assert rows[0]["family"] == "total_reward_positive"
        assert rows[0]["discount"] == "1.0"

    @pytest.mark.parametrize("operator", ["jacobi", "gs", "gsj"])
    def test_total_family_cell_with_another_backup_is_an_error_row(self, tmp_path, capsys, operator):
        out = tmp_path / "out.csv"
        cell = {"family": "total_reward_positive", "states": 5, "seed": 80, "operator": operator}
        plan = write_plan(tmp_path, [cell, UNIFORM_CELL], output=out)
        assert main(["bench", str(plan)]) == 1
        _, rows = read_csv(out)
        assert rows[0]["error"] == (
            f"the {operator} backup is undefined on a total-reward model; "
            "total-reward models take only the standard backup"
        )
        assert rows[0]["iterations"] == "" and rows[1]["error"] == ""
        assert "1 with errors" in capsys.readouterr().out

    @pytest.mark.parametrize("plan, message", [
        ([UNIFORM_CELL], "plan must be an object"),
        ({"repetitions": "abc", "cells": []}, "repetitions"),
        ({"repetitions": 0, "cells": []}, "repetitions"),
        ({"repetitions": 2.5, "cells": []}, "repetitions cannot be 2.5"),
        ({"repetitions": True, "cells": []}, "repetitions cannot be True"),
        ({"cells": {"family": "uniform"}}, "cells"),
        ({"cells": ["uniform"]}, "cell 0"),
        ({"cells": [dict(UNIFORM_CELL, states="many")]}, "cell 0: states"),
    ], ids=["list", "repetitions-text", "repetitions-zero", "repetitions-fraction",
            "repetitions-flag", "cells-object", "cell-text", "cell-bad-value"])
    def test_bad_plan_exits_2(self, tmp_path, capsys, plan, message):
        path = tmp_path / "plan.json"
        if isinstance(plan, dict):
            plan = dict(plan, output=str(tmp_path / "x.csv"))
        path.write_text(json.dumps(plan), encoding="utf-8")
        assert main(["bench", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("key, value", [
        ("membership_checks", "false"),
        ("membership_checks", 0),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("states", 20.0),
        ("discount", "0.9"),
        ("operator", 5),
        ("actions", [2, 4.5]),
    ])
    def test_cell_value_of_another_type_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        # a cast would have run "false" as True and 2.5 as 2
        plan = write_plan(tmp_path, [dict(UNIFORM_CELL, **{key: value})], output=tmp_path / "x.csv")
        assert main(["bench", str(plan)]) == 2
        assert f"error: cell 0: {key} cannot be {value!r}" in capsys.readouterr().err

    def test_cell_integers_stand_for_real_numbers(self, tmp_path):
        out = tmp_path / "out.csv"
        cell = dict(UNIFORM_CELL, density=1, rewards=[1, 100], epsilon=1, membership_checks=False)
        assert main(["bench", str(write_plan(tmp_path, [cell], output=out))]) == 0
        _, rows = read_csv(out)
        assert rows[0]["error"] == ""

    @pytest.mark.parametrize("cell, message", [
        (dict(UNIFORM_CELL, family="x" * 1_000_000), "family cannot be 'xxx"),
        (dict(UNIFORM_CELL, states="x" * 1_000_000), "states cannot be 'xxx"),
        (dict(UNIFORM_CELL, **{"x" * 1_000_000: 1}), "unknown keys ['xxx"),
        (dict(UNIFORM_CELL, actions=[10**4000, 1]), "bad action range (1000"),
    ], ids=["family", "states", "key", "dataclass"])
    def test_long_values_are_cut_in_errors(self, tmp_path, capsys, cell, message):
        plan = write_plan(tmp_path, [cell], output=tmp_path / "x.csv")
        assert main(["bench", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cell 0: {message}") and len(err) < SHOWN_CHARS + 40

    def test_unknown_cell_key_rejected(self, tmp_path, capsys):
        bad = dict(UNIFORM_CELL, typo_key=1)
        plan = write_plan(tmp_path, [bad], output=tmp_path / "x.csv")
        assert main(["bench", str(plan)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_beta_cell_key_rejected(self, tmp_path, capsys):
        plan = write_plan(tmp_path, [dict(UNIFORM_CELL, beta=0.0)], output=tmp_path / "x.csv")
        assert main(["bench", str(plan)]) == 2
        assert "unknown keys ['beta']" in capsys.readouterr().err

    def test_missing_output_is_usage_error(self, tmp_path, capsys):
        plan = write_plan(tmp_path, [UNIFORM_CELL])
        assert main(["bench", str(plan)]) == 2
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [0.5, ["a.csv"], {"path": "a.csv"}], ids=["float", "list", "object"])
    def test_output_of_another_type_is_usage_error(self, tmp_path, capsys, output):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"cells": [UNIFORM_CELL], "output": output}), encoding="utf-8")
        assert main(["bench", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output must be a path string") and err.count("\n") == 1

    @pytest.mark.parametrize("output", ["1", "true"])
    def test_output_read_as_a_descriptor_is_usage_error(self, tmp_path, output):
        # open() takes an integer for a file descriptor, so the run would
        # write into and close one of its own streams: run it apart
        plan = tmp_path / "plan.json"
        plan.write_text('{"cells": [], "output": ' + output + "}", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "mdpaccel.cli", "bench", str(plan)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"error: output must be a path string, got {output.capitalize()}\n"

    def test_budget_cell_recorded_and_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        cell = dict(UNIFORM_CELL, accelerator="none", max_iterations=3)
        plan = write_plan(tmp_path, [cell, UNIFORM_CELL], output=out)
        assert main(["bench", str(plan)]) == 1
        _, rows = read_csv(out)
        assert rows[0]["error"] == "max-iterations"
        assert rows[0]["iterations"] == "3"
        assert rows[1]["error"] == ""

    def test_cells_run_serially_on_the_calling_thread(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        cells = [UNIFORM_CELL, dict(UNIFORM_CELL, seed=UNIFORM_CELL["seed"] + 1)]
        plan = write_plan(tmp_path, cells, repetitions=2, output=out)
        real_solve = cli.solve
        calls, running = [], []

        def watched_solve(model, config):
            assert not running, "a solve started while another was running"
            running.append(model)
            try:
                calls.append((threading.get_ident(), model))
                return real_solve(model, config)
            finally:
                running.pop()

        monkeypatch.setattr(cli, "solve", watched_solve)
        assert main(["bench", str(plan)]) == 0
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        models = [model for _, model in calls]
        # plan order: both repetitions of the first cell, then the second's
        assert models[0] is models[1] and models[2] is models[3] and models[1] is not models[2]

    def test_repetition_mismatch_is_cell_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out.csv"
        plan = write_plan(tmp_path, [UNIFORM_CELL], repetitions=2, output=out)
        real_solve = cli.solve
        drift = {"count": 0}

        def flaky_solve(model, config):
            result = real_solve(model, config)
            drift["count"] += 1
            if drift["count"] == 2:
                result.iterations += 1
            return result

        monkeypatch.setattr(cli, "solve", flaky_solve)
        assert main(["bench", str(plan)]) == 1
        _, rows = read_csv(out)
        assert "iteration counts differ" in rows[0]["error"]

    def test_plan_nested_too_deeply_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"cells": ' + "[" * 200_000, encoding="utf-8")
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: arrays or objects nested too deeply to decode\n"

    def test_plan_integer_past_the_digit_limit_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"cells": [{"actions": [1' + "0" * 5_000 + ', 2]}]}', encoding="utf-8")
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {too_many_digits()}\n"

    def test_plan_that_is_not_json_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{cells: []}", encoding="utf-8")
        assert main(["bench", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: Expecting property name") and err.count("\n") == 1

    def test_unreadable_plan(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_long_mode_is_cut_in_the_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"mode": "%s", "discount": 0.9, "states": []}' % ("x" * 1_000_000))
        assert main(["verify", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: mode must be one of") and len(err) < 300
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "--trials", "2"]) == 0
        assert "all properties passed" in capsys.readouterr().out

    def test_zero_trials(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0

    def test_negative_trials_exits_2(self, capsys):
        assert main(["verify", "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "error: trials" in captured.err
        assert "passed" not in captured.out

    def test_negative_seed_exits_2_naming_it(self, capsys):
        assert main(["verify", "--trials", "1", "--seed", "-1"]) == 2
        assert "error: seed" in capsys.readouterr().err

    def test_report_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify", "--trials", "1", "--csv", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["property", "trials", "failures", "first_failing_seed"]
        assert all(r["failures"] == "0" for r in rows)

    def test_model_validation_ok(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(two_state_swap(1.0, 1.0), path)
        assert main(["verify", "--model", str(path)]) == 0
        assert "model ok" in capsys.readouterr().out

    def test_model_validation_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["verify", "--model", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_model_validation_broken(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(BROKEN_MODEL, encoding="utf-8")
        assert main(["verify", "--model", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("column", WIDE_COLUMNS)
    def test_model_with_a_column_past_int32_is_out_of_range(self, tmp_path, capsys, column):
        path = tmp_path / "wide.json"
        path.write_text(
            '{"mode": "discounted", "discount": 0.9, "states": '
            '[{"actions": [{"reward": 1.0, "transitions": [[%d, 1.0]]}]}]}' % column,
            encoding="utf-8",
        )
        assert main(["verify", "--model", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: invalid model: column-range at state 0 action 0\n"

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        def always_false(_trial):
            return False

        # run_property_suite reads PROPERTIES at call time, so patching the
        # verification module is enough to steer the CLI's imported handle.
        monkeypatch.setattr(verif, "PROPERTIES", [("always-false", always_false)])
        assert main(["verify", "--trials", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestSettingsTable:
    """Every setting sets a dataclass field, and every flag is a setting."""

    def test_every_setting_names_a_field_of_its_dataclass(self):
        for name, (owner, field, _) in cli.SETTINGS.items():
            assert field in {f.name for f in dataclasses.fields(owner)}, name

    @pytest.mark.parametrize("command", ["generate", "solve"])
    def test_every_flag_is_a_setting(self, command):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "model", "output", "csv"}
        assert dests and dests <= cli.SETTINGS.keys()


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
