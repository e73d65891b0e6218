import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""Module docstring,
on two lines."""

import os  # a trailing comment


class Shape:
    """Class docstring."""

    # a comment line
    sides = 4

    def area(self, side):
        """Function docstring,

        with a blank line."""
        text = """a string that is
        not a docstring"""
        "a bare string after the first statement"
        return (side *
                side)
'''


def test_a_snippet_counts_only_its_code_lines():
    # import, class, sides, def, the two-line string, the bare string and
    # the two-line return
    assert code_lines.code_lines(SNIPPET) == 9


def test_an_empty_file_holds_no_code():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_the_script_prints_a_line_per_file_then_the_row():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    *files, row = out.stdout.splitlines()
    assert any(line.endswith(" src/softverbs/fabric.py") for line in files)
    assert row.startswith("`fabric.py` ")
    assert "`bench/`: " in row and "`scripts/`: " in row
