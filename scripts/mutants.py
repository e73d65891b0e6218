#!/usr/bin/env python3
"""Flip one comparison at a time in a file of the package and run tests
against each flip: a mutation report.

    python scripts/mutants.py src/softverbs/wire.py -- tests/test_wire.py

Each comparison operator inside a function of FILE is a site, and each
flips to its partner: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``, ``is`` and ``is not``, ``in`` and ``not in``. A mutant is FILE
with one site flipped. It is written into a temporary copy of ``src/``,
which is removed again, so an interrupted run leaves the checkout as it
was. Each mutant runs ``pytest -x -q`` with the arguments after ``--``,
from the repository root, with that copy first on PYTHONPATH, no
bytecode written and a timeout of ``TIMEOUT_S`` seconds: a mutant the
tests fail is killed, one they pass survived, and one still running at
the timeout timed out. The unmutated copy runs first and must pass.
Prints one line per site (its line and column, the flip, the verdict,
its seconds and the line's text) and the totals. It is a report, not a
gate: it exits 0 once every mutant ran, and 1 if the unmutated copy
fails.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=",
         "!=": "==", "is": "is not", "is not": "is", "in": "not in",
         "not in": "in"}
# seconds a mutant's test run may take before it counts as timed out
TIMEOUT_S = 120.0
# the tokens a comparison operator is made of
_OP_TOKENS = {"<", "<=", ">", ">=", "==", "!=", "is", "not", "in"}


class Site(NamedTuple):
    """One comparison operator: its line, the columns it spans on that
    line and its text."""

    line: int
    start: int
    end: int
    op: str


def sites(source: str) -> list[Site]:
    """Every comparison operator inside a function of ``source``, in the
    order of the source; comparisons at module or class level are not
    sites."""
    lines = source.split("\n")
    tokens = [tok for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.string in _OP_TOKENS and
        tok.type in (tokenize.OP, tokenize.NAME)]

    def at(line: int, byte_col: int) -> tuple[int, int]:
        # ast counts columns in UTF-8 bytes, tokenize in characters
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                lo = at(left.end_lineno, left.end_col_offset)
                hi = at(right.lineno, right.col_offset)
                op = [tok for tok in tokens if lo <= tok.start < hi]
                found.add(Site(op[0].start[0], op[0].start[1], op[-1].end[1],
                               " ".join(tok.string for tok in op)))
    return sorted(found)


def flip(source: str, site: Site) -> str:
    """``source`` with the operator at ``site`` flipped."""
    lines = source.split("\n")
    text = lines[site.line - 1]
    lines[site.line - 1] = text[:site.start] + FLIPS[site.op] + text[site.end:]
    return "\n".join(lines)


def run_tests(src: Path, args: list[str]) -> str:
    """Run ``pytest -x -q args`` from the repository root against the
    package under ``src``: "survived" if it passes, "killed" if not, or
    "timed out"."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(src), os.environ.get("PYTHONPATH")))))
    # a session of its own, so that a timeout also ends what the tests
    # started
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *args], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "survived" if proc.wait(TIMEOUT_S) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timed out"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s FILE -- PYTEST_ARGS")
    parser.add_argument("file", type=Path,
                        help="a Python file under src/ to mutate")
    # what follows -- is pytest's
    cut = argv.index("--") if "--" in argv else len(argv)
    opts, pytest_args = parser.parse_args(argv[:cut]), argv[cut + 1:]
    path = opts.file.resolve()
    if not path.is_relative_to(SRC):
        parser.error(f"{opts.file} is not under {SRC}")
    source = path.read_text(encoding="utf-8")
    found = sites(source)
    counts = dict.fromkeys(("killed", "survived", "timed out"), 0)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns(
            "__pycache__"))
        if run_tests(copy, pytest_args) != "survived":
            print("the unmutated source fails its tests: no report")
            return 1
        target = copy / path.relative_to(SRC)
        lines = source.split("\n")
        for site in found:
            target.write_text(flip(source, site), encoding="utf-8")
            started = time.monotonic()
            verdict = run_tests(copy, pytest_args)
            counts[verdict] += 1
            print(f"{path.relative_to(ROOT)}:{site.line}:{site.start + 1}: "
                  f"{site.op} -> "
                  f"{FLIPS[site.op]}: {verdict} "
                  f"({time.monotonic() - started:.1f} s)  "
                  f"{lines[site.line - 1].strip()}", flush=True)
    print(f"{len(found)} sites: " + ", ".join(
        f"{n} {verdict}" for verdict, n in counts.items()))
    return 0


if __name__ == "__main__":
    # a TERM unwinds as an interrupt does: the running tests are killed
    # and the temporary copy removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
