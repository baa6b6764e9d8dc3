"""tools/code_lines.py: code lines per module, docstrings, comments and blank lines left out."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


def f(x,
      y):
    """A function docstring."""
    text = """a string that is a value,
not a docstring"""
    "a bare string statement"
    return (x
            + y)


class C:
    """A class docstring."""

    z = 1; "after code on its line"
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_lines_that_hold_code(tool):
    # import; def over two lines; the value string over two; return over two; class; z = 1
    assert tool.code_lines(SOURCE) == 9


def test_docstrings_comments_and_blank_lines_count_nothing(tool):
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert tool.code_lines("") == 0


def test_every_module_is_counted(tool, capsys):
    src = TOOL.parents[1] / "src" / "mdpaccel"
    found = tool.counts(src)
    assert sorted(found) == sorted(path.stem for path in src.glob("*.py"))
    assert all(count > 0 for count in found.values())
    assert tool.counts(src, ["solver"]) == {"solver": found["solver"]}
    tool.main(["accelerators", "solver", "--src", str(src)])
    lines = capsys.readouterr().out.splitlines()
    total = found["accelerators"] + found["solver"]
    assert lines == [f"accelerators {found['accelerators']}", f"solver {found['solver']}", f"total {total}"]
