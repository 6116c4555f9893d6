"""Mutants of the program, each with the tests that must kill it.

A mutant replaces one exact text of one file under ``src/`` and names the
tests expected to fail against the patched copy (Jia and Harman, *An
analysis and survey of the development of mutation testing*, IEEE TSE 37
(2011)).  Run from the repository root::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

Each mutant runs on its own copy of ``src/`` in a temporary directory.  It
is killed when every test it names fails; the runner lists the survivors
and exits 1 if there are any.  A patch whose old text no longer occurs
exactly once is an error, so the list has to follow the code;
``tests/test_mutants.py`` checks that in Tier-1.  A change that adds a test
to kill a mutant adds the mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    old: str  # occurs exactly once in the file
    new: str
    kills: tuple[str, ...]  # pytest IDs, relative to the repository root


MUTANTS = (
    Mutant(
        "pair-table-misses-last-axis",
        "cubeiso/geometry.py",
        "pairs = [_neighbours(index, axis) for axis in range(len(shape))]",
        "pairs = [_neighbours(index, axis) for axis in range(len(shape) - 1)]",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_geometry.py::test_pair_table_is_built_once",
            "tests/test_geometry.py::TestVoxel::test_face_count_matches_sweep",
        ),
    ),
    Mutant(
        "steiner-ramp-at-or-below-height",
        "cubeiso/geometry.py",
        "return _ramp(occ.shape[axis], -axis - 1) < heights",
        "return _ramp(occ.shape[axis], -axis - 1) <= heights",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_exhaustive.py::test_column_tables_match_the_written_out_formulas",
        ),
    ),
    Mutant(
        "count-reads-empty-cells",
        "cubeiso/geometry.py",
        "return int(np.count_nonzero(self.cells))",
        "return int(np.count_nonzero(~self.cells))",
        (
            "tests/test_geometry.py::TestVoxel::test_roundtrip",
            "tests/test_geometry.py::TestVoxel::test_voxel_set_is_an_immutable_value",
        ),
    ),
    Mutant(
        "batches-gathered-whole",
        "cubeiso/geometry.py",
        "if sets > 1 and sets * len(a) > _GATHER_PAIRS:",
        "if sets > 1 << 62 and sets * len(a) > _GATHER_PAIRS:",
        (
            "tests/test_search.py::TestBruteMin::test_general_minima_hold_no_more_memory_than_per_axis_counts",
        ),
    ),
    Mutant(
        "voxel-attributes-rebindable",
        "cubeiso/geometry.py",
        'raise AttributeError("VoxelSet is immutable")',
        "object.__setattr__(self, name, value)",
        ("tests/test_geometry.py::TestVoxel::test_voxel_set_is_an_immutable_value",),
    ),
    Mutant(
        "cross-axis-step-halves-64-times",
        "cubeiso/variation.py",
        "for _ in range(64 + sum(d.bit_length() for d in x._widths()[1])):",
        "for _ in range(64):",
        (
            "tests/test_variation.py::TestRandomizedMotions::test_cross_direction_step_scales_with_the_set[70]",
            "tests/test_variation.py::TestRandomizedMotions::test_cross_direction_step_scales_with_the_set[300]",
        ),
    ),
)


def patched_text(mutant: Mutant, src: Path = SRC) -> str:
    """The mutated text of the mutant's file under ``src``."""
    text = (src / mutant.file).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"mutant {mutant.name}: its old text occurs {found} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def surviving_tests(mutant: Mutant) -> list[str]:
    """The tests of ``mutant.kills`` that pass against a mutated copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.file).write_text(patched_text(mutant), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.kills],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return [test for test in mutant.kills if test not in failed]


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        alive = surviving_tests(mutant)
        survivors += bool(alive)
        print(f"{'SURVIVED' if alive else 'killed  '} {mutant.name}")
        for test in alive:
            print(f"         passes: {test}")
    print(f"{len(argv) or len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
