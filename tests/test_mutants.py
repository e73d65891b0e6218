import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SNIPPET = '''\
LIMIT = 3 if 1 < 2 else 4  # module level: no site


def check(x, items):
    """x < 0 in a docstring is no site."""
    if 0 <= x < LIMIT and x is not None:  # "<" in a comment is none
        return x not in items or x == "=="
    return [y for y in items if y >= x] or (lambda: x in items)()


class Box:
    size = 1 if 2 > 1 else 0  # class level: no site

    def fits(self, other, π=0):
        return (self.size + π
                != other.size) or (π) is (None)
'''


def test_every_comparison_in_a_function_is_a_site():
    found = mutants.sites(SNIPPET)
    assert [(s.line, s.op) for s in found] == [
        (6, "<="), (6, "<"), (6, "is not"), (7, "not in"), (7, "=="),
        (8, ">="), (8, "in"), (16, "!="), (16, "is")]
    lines = SNIPPET.split("\n")
    assert [lines[s.line - 1][s.start:s.end] for s in found] == \
        [s.op for s in found]


def test_a_flip_changes_its_operator_and_nothing_else():
    found = {(s.line, s.op): s for s in mutants.sites(SNIPPET)}
    flipped = mutants.flip(SNIPPET, found[6, "is not"]).split("\n")
    original = SNIPPET.split("\n")
    assert flipped[5] == \
        '    if 0 <= x < LIMIT and x is None:  # "<" in a comment is none'
    assert flipped[:5] + flipped[6:] == original[:5] + original[6:]
    # a column past a non-ASCII character, and an operand in parentheses
    assert mutants.flip(SNIPPET, found[16, "is"]).split("\n")[15] == \
        "                != other.size) or (π) is not (None)"
    assert mutants.flip(SNIPPET, found[16, "!="]).split("\n")[15] == \
        "                == other.size) or (π) is (None)"
    # each flip undoes the other
    for site in found.values():
        again = mutants.sites(mutants.flip(SNIPPET, site))
        back = next(s for s in again if s.line == site.line
                    and s.start == site.start)
        assert mutants.flip(mutants.flip(SNIPPET, site), back) == SNIPPET
