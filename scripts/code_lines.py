#!/usr/bin/env python3
"""Count the lines of code in the program's Python files.

A line counts if a token other than a comment starts on it or runs
through it. Blank lines, comment lines and the module, class and
function docstrings do not count. Prints one ``count path`` line per
file of ``src/softverbs``, ``bench`` and ``scripts`` (paths relative to
the repository), then the code-lines row of ROADMAP.md.

    python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("src/softverbs", "bench", "scripts")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines in ``source`` that hold code."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    row = []
    for group in GROUPS:
        counts = {}
        for path in sorted((ROOT / group).glob("*.py")):
            counts[path.name] = code_lines(path.read_text(encoding="utf-8"))
            print(counts[path.name], path.relative_to(ROOT))
        # the row leaves out the package's __init__ and __main__, largest
        # file first, and names every group but the package
        cells = [f"`{name}` {n}" for name, n in sorted(
            counts.items(), key=lambda item: -item[1])
            if not name.startswith("__")]
        if group != GROUPS[0]:
            cells[0] = f"`{group}/`: {cells[0]}"
        row += cells
    print(" · ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
