"""Every mutant of ``tests/mutants.py`` still applies to the code and names
tests that exist; running them is left to ``python tests/mutants.py``."""

import re

from mutants import MUTANTS, ROOT, patched_text


def test_every_mutant_applies_and_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert patched_text(mutant) != (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
        assert mutant.kills, mutant.name
        for test in mutant.kills:
            path, *scopes = re.sub(r"\[.*\]$", "", test).split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            for scope in scopes:
                assert re.search(rf"^\s*(def|class) {scope}\b", source, re.M), test
