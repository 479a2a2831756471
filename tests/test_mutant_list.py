"""The mutant list of tools/mutants.py stays applicable to the package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_line_is_where_it_says():
    # a refactor that moves or rewrites a listed line strands its mutant,
    # which tools/mutants.py then refuses to run: a line listed plainly must
    # occur once, and a named occurrence k must exist among several copies
    mutants = _mutants_module()
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        lines = (ROOT / "src" / "dynkin_tilting" / mutant.path).read_text().splitlines()
        assert mutants.target_line(lines, mutant) is not None, (mutant.name, mutant.old, mutant.occurrence)


def test_occurrence_picks_the_kth_copy():
    mutants = _mutants_module()
    lines = ["a", "  x", "b", "    x", "x "]

    def target(old, occurrence=None):
        return mutants.target_line(lines, mutants.Mutant("m", "p.py", old, "y", (), occurrence))

    assert target("a") == 0
    assert target("x") is None  # three copies, none named
    assert [target("x", k) for k in (0, 1, 2, 3, 4)] == [None, 1, 3, 4, None]
    assert target("a", 1) is None  # a unique line takes no occurrence
    assert target("z") is None and target("z", 1) is None
