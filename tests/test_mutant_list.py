"""The mutant list of tools/mutants.py stays applicable to the package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_line_occurs_once():
    # a refactor that moves or rewrites a listed line strands its mutant,
    # which tools/mutants.py then refuses to run
    mutants = _mutants_module()
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        lines = (ROOT / "src" / "dynkin_tilting" / mutant.path).read_text().splitlines()
        assert len(mutants._hits(lines, mutant.old)) == 1, (mutant.name, mutant.old)
