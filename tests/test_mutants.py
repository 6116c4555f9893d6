"""Every mutant of ``tests/mutants.py`` still applies to the code and names
tests that exist; running them is left to ``python tests/mutants.py``."""

import re

from mutants import MUTANTS, ROOT, failed_tests, patched_text


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


def test_failed_tests_read_the_short_summary():
    """A full ID fails by its own line; a bare name fails when every listed
    case of it failed; a name the summary does not list never fails."""
    report = """\
..F.FF                                                                   [100%]
=========================== short test summary info ============================
PASSED tests/test_a.py::test_one
PASSED tests/test_a.py::test_mixed[1]
FAILED tests/test_a.py::test_mixed[2] - AssertionError: assert 1 == 2
FAILED tests/test_a.py::test_all[1-2] - AssertionError
FAILED tests/test_a.py::test_all[2-1]
FAILED tests/test_a.py::TestK::test_two - ValueError: a - b
3 failed, 2 passed in 0.12s
"""
    named = [
        "tests/test_a.py::test_one",
        "tests/test_a.py::test_mixed",
        "tests/test_a.py::test_mixed[2]",
        "tests/test_a.py::test_all",
        "tests/test_a.py::test_al",
        "tests/test_a.py::TestK::test_two",
        "tests/test_a.py::test_missing",
    ]
    assert failed_tests(report, named) == {
        "tests/test_a.py::test_mixed[2]",
        "tests/test_a.py::test_all",
        "tests/test_a.py::TestK::test_two",
    }
