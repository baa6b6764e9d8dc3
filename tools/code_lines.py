"""Print the code lines of each ``mdpaccel`` module: no docstrings, comments or blank lines.

Usage::

    python tools/code_lines.py [MODULE ...] [--src DIR]

A line counts when a token of code lies on it, by ``tokenize``: a line
that holds only a comment, only blank space or only part of a docstring
does not count, and a string or bracketed expression spanning lines
counts on every line.  A docstring is a statement that is a string alone
(the first statement of a module, class or function, in this package).
``MODULE`` names a module without ``.py`` (``solver``); every module of
the package by default.  ``DIR`` is the package's source directory,
``src/mdpaccel`` beside this script by default, so another checkout's
count is ``--src OTHER/src/mdpaccel``.

Prints one line per module, ``name count``, sorted by name, and then
``total count``.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "mdpaccel"
# tokens that are not code: with a NEWLINE, which ends a statement, they are the layout
_LAYOUT = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                     tokenize.ENCODING, tokenize.ENDMARKER})


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, docstrings and comments left out."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not all(t.type == tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def counts(src: Path, modules=None) -> dict[str, int]:
    """``{module: code lines}`` for ``modules`` of the package at ``src``, every module when None."""
    names = modules or sorted(path.stem for path in src.glob("*.py"))
    return {name: code_lines((src / f"{name}.py").read_text(encoding="utf-8")) for name in names}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="module names without .py; every module by default")
    parser.add_argument("--src", type=Path, default=SOURCE, help="the package's source directory")
    args = parser.parse_args(argv)
    found = counts(args.src, args.modules)
    for name, count in sorted(found.items()):
        print(f"{name} {count}")
    print(f"total {sum(found.values())}")


if __name__ == "__main__":
    main()
