#!/usr/bin/env python3
"""Run tier-1 under a line tracer and fail on any line of the package
that no test runs.

Runs the tier-1 suite (pytest from the repository root, over the
``testpaths`` of pyproject.toml) in this process, with ``sys.settrace``
and ``threading.settrace`` recording every line of ``src/softverbs``
that executes, on the main thread and on every thread the suite starts.
A line is executable if a code object compiled from its file maps an
instruction to it (``co_lines()``). Prints each executable line that
never ran, with the reason ALLOWED gives for it if it gives one, then a
summary line. Exits 1 if the suite fails, if a line that never ran is
not in ALLOWED, or if an entry of ALLOWED excuses no line (it is stale);
0 otherwise. The standard library is all it needs. CI runs it on
CPython 3.11, where tier-1 takes about twice as long under the tracer.

    python scripts/line_coverage.py
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "softverbs"
# as tier-1's PYTHONPATH=src gives it, here and to the processes the
# suite starts (``python -m softverbs``)
sys.path.insert(0, str(PACKAGE.parent))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))

import pytest  # noqa: E402

# (file name, stripped line text, or None for every line of the file)
# -> why no test runs it
ALLOWED = {
    ("fabric.py", "raise NotImplementedError"):
        "Fabric's now_ms, schedule_at and _deliver stubs: every transport "
        "overrides all three",
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard: it runs only when cli.py is run as a script",
    ("__main__.py", None):
        "runs only under `python -m softverbs`, in a process of its own",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from ``path`` runs."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``args`` under the tracer; its exit code and the
    (file, line) pairs of the package that ran."""
    prefix = str(PACKAGE) + os.sep
    ran = set()

    def line_tracer(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return line_tracer(frame, event, arg)
        return None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    status, ran = run_traced(["-q", "--continue-on-collection-errors"])
    used = set()
    unexcused = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in ran if f == str(path)}):
            source = text[line - 1].strip()
            key = next((k for k in ((path.name, source), (path.name, None))
                        if k in ALLOWED), None)
            used.add(key)
            unexcused += key is None
            why = ALLOWED[key] if key else "NOT ALLOWED"
            print(f"{path.relative_to(ROOT)}:{line}: {source}  ({why})")
    stale = set(ALLOWED) - used
    for name, source in sorted(stale, key=str):
        print(f"stale ALLOWED entry: {name}: {source or 'every line'}")
    print(f"{total} executable lines in {PACKAGE.relative_to(ROOT)}; "
          f"{unexcused} never ran and are not allowed; "
          f"{len(stale)} stale allowlist entries; tier-1 exit {status}")
    return int(bool(status or unexcused or stale))


if __name__ == "__main__":
    sys.exit(main())
