"""Mutants of the program, each with the tests that must kill it.

A mutant replaces one exact text of one file under ``src/`` and names the
tests expected to fail against the patched copy (Jia and Harman, *An
analysis and survey of the development of mutation testing*, IEEE TSE 37
(2011)).  Run from the repository root::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

Each mutant runs on its own copy of ``src/`` in a temporary directory.  It
is killed when every test it names fails, or when those tests run past
``TIME_LIMIT_S``.  A test named without its parameter ID fails when every
one of its cases fails.  The runner lists the survivors and exits 1 if
there are any.  A patch whose old text no longer occurs exactly once is an
error, so the list has to follow the code; ``tests/test_mutants.py`` checks
that in Tier-1.  A change that adds a test to kill a mutant adds the mutant
here.
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
TIME_LIMIT_S = 120  # per mutant; its kill tests take seconds on unmutated code


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    old: str  # occurs exactly once in the file
    new: str
    kills: tuple[str, ...]  # pytest IDs, relative to the repository root


MUTANTS = (
    Mutant(
        "face-count-misses-last-axis",
        "cubeiso/geometry.py",
        "for stride, succ, _, _ in _axis_masks(dim, res):",
        "for stride, succ, _, _ in _axis_masks(dim, res)[:-1]:",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_geometry.py::TestVoxel::test_face_count_matches_sweep",
            "tests/test_exhaustive.py::test_small_audit_matches_the_cell_array_reference[2-4]",
        ),
    ),
    Mutant(
        "steiner-skips-top-level",
        "cubeiso/geometry.py",
        "for k in range(1, res):",
        "for k in range(1, res - 1):",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_geometry.py::test_steiner_on_full_64_cell_grids",
            "tests/test_exhaustive.py::test_3d_m3_first_chunk_matches_the_cell_array_reference",
        ),
    ),
    Mutant(
        "spread-misses-top-level",
        "cubeiso/geometry.py",
        "spread = sum(1 << (k * stride) for k in range(res))",
        "spread = sum(1 << (k * stride) for k in range(res - 1))",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_geometry.py::test_steiner_on_full_64_cell_grids",
            "tests/test_geometry.py::test_shape_tables_are_built_once",
            "tests/test_exhaustive.py::test_3d_m3_first_chunk_matches_the_cell_array_reference",
        ),
    ),
    Mutant(
        "steiner-counter-lifts-only-from-bottom",
        "cubeiso/geometry.py",
        "out |= ((out << stride) | bottom) & plane",
        "out |= (out << stride) & plane",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_geometry.py::test_steiner_on_full_64_cell_grids",
            "tests/test_exhaustive.py::test_3d_m3_first_chunk_matches_the_cell_array_reference",
        ),
    ),
    Mutant(
        "popcount-drops-high-half",
        "cubeiso/geometry.py",
        "return np.bitwise_count(x)",
        "return np.bitwise_count(x & ((1 << 4 * x.itemsize) - 1))",
        (
            "tests/test_geometry.py::test_kernels_match_per_cell_loops",
            "tests/test_geometry.py::test_word_batches_match_the_int_path[6-2]",
            "tests/test_geometry.py::test_word_batches_match_the_int_path[3-3]",
            "tests/test_geometry.py::test_word_batches_match_the_int_path[3-4]",
        ),
    ),
    Mutant(
        "count-over-complement",
        "cubeiso/geometry.py",
        "return self.mask.bit_count()",
        "return ((1 << self.res**self.dim) - 1 ^ self.mask).bit_count()",
        (
            "tests/test_geometry.py::TestVoxel::test_roundtrip",
            "tests/test_geometry.py::TestVoxel::test_voxel_set_is_an_immutable_value",
            "tests/test_geometry.py::TestVoxel::test_cells_and_mask_round_trip",
        ),
    ),
    Mutant(
        "iso-chunk-table-one-bit-off",
        "cubeiso/exhaustive.py",
        "weights = np.left_shift(word(1), lands)",
        "weights = np.left_shift(word(2), lands)",
        (
            "tests/test_exhaustive.py::test_iso_chunk_tables_match_the_written_out_loops",
            "tests/test_exhaustive.py::test_iso_chunk_tables_map_masks_to_their_images[3-3]",
            "tests/test_exhaustive.py::test_small_audit_matches_the_cell_array_reference[2-4]",
        ),
    ),
    Mutant(
        "3x3x3-scan-symmetrizes-axis-0",
        "cubeiso/exhaustive.py",
        "axes = (2,) if (dim, res) == (3, 3)",
        "axes = (0,) if (dim, res) == (3, 3)",
        (
            "tests/test_exhaustive.py::test_3d_m3_stopped_scan_counts_what_it_checked",
            "tests/test_exhaustive.py::test_3d_m3_first_chunk_matches_the_cell_array_reference",
        ),
    ),
    Mutant(
        "reversed-isometry-weights",
        "cubeiso/exhaustive.py",
        "row[src] = np.arange(n)",
        "row[np.arange(n)] = src",
        (
            "tests/test_exhaustive.py::test_iso_chunk_tables_match_the_written_out_loops",
            "tests/test_exhaustive.py::test_iso_chunk_tables_map_masks_to_their_images[3-3]",
        ),
    ),
    Mutant(
        "small-grid-scans-one-axis-fewer",
        "cubeiso/exhaustive.py",
        "else range(dim)",
        "else range(dim - 1)",
        (
            "tests/test_exhaustive.py::test_smallest_grid_is_clean",
            "tests/test_exhaustive.py::test_small_audit_matches_the_cell_array_reference",
        ),
    ),
    Mutant(
        "chunk-boundary-off-by-one-mask",
        "cubeiso/exhaustive.py",
        "np.arange(start, min(start + step, total), dtype=np.uint32)",
        "np.arange(start, min(start + step + 1, total), dtype=np.uint32)",
        (
            "tests/test_exhaustive.py::test_audit_in_small_chunks_matches_one_chunk",
            "tests/test_exhaustive.py::test_general_minima_in_small_chunks_match_one_chunk",
            "tests/test_exhaustive.py::test_3d_m3_first_chunk_matches_the_cell_array_reference",
        ),
    ),
    Mutant(
        "last-isometry-block-skipped",
        "cubeiso/exhaustive.py",
        "for lo in range(0, n_iso, block):",
        "for lo in range(0, n_iso - block, block):",
        (
            "tests/test_exhaustive.py::test_isometric_reaches_every_block_of_the_group",
            "tests/test_exhaustive.py::test_small_audit_matches_the_cell_array_reference[2-4]",
        ),
    ),
    Mutant(
        "minimizers-read-a-minimum-before-the-last-chunk",
        "cubeiso/search.py",
        "np.minimum.at(best, _popcount(masks), faces)",
        "np.minimum.at(best, _popcount(masks), faces) if masks[-1] < (1 << n_cells) - 1 else None",
        (
            "tests/test_exhaustive.py::test_general_minima_in_small_chunks_match_one_chunk",
            "tests/test_search.py::TestBruteMin::test_general_equals_monotone",
        ),
    ),
    Mutant(
        "mask-decoded-big-endian",
        "cubeiso/geometry.py",
        'np.unpackbits(data, count=n, bitorder="little")',
        'np.unpackbits(data, count=n, bitorder="big")',
        (
            "tests/test_geometry.py::TestMaskCells::test_every_mask_of_small_grids[2-3]",
            "tests/test_geometry.py::TestMaskCells::test_random_27_bit_words",
            "tests/test_geometry.py::TestVoxel::test_cells_and_mask_round_trip",
        ),
    ),
    Mutant(
        "orbit-key-takes-max",
        "cubeiso/geometry.py",
        "return min(\n            _transform_cells(cells, self.dim, g.perm, g.flip).tobytes()",
        "return max(\n            _transform_cells(cells, self.dim, g.perm, g.flip).tobytes()",
        ("tests/test_geometry.py::TestVoxel::test_orbit_key_is_the_least_image",),
    ),
    Mutant(
        "voxel-attributes-rebindable",
        "cubeiso/geometry.py",
        'raise AttributeError("VoxelSet is immutable")',
        "object.__setattr__(self, name, value)",
        ("tests/test_geometry.py::TestVoxel::test_voxel_set_is_an_immutable_value",),
    ),
    Mutant(
        "horizon-wall-kinds-swapped",
        "cubeiso/variation.py",
        'kind = "slice-hits-1" if k + 2 == len(g) else "slice-area-changes"\n'
        "        return VariationEvent(kind, g[k + 1] - g[k])\n"
        '    kind = "slice-hits-0" if k == 1',
        'kind = "slice-hits-0" if k + 2 == len(g) else "slice-area-changes"\n'
        "        return VariationEvent(kind, g[k + 1] - g[k])\n"
        '    kind = "slice-hits-1" if k == 1',
        (
            "tests/test_variation.py::TestTranslate::test_horizons",
            "tests/test_variation.py::TestTranslate::test_event_error_beyond_horizon",
            "tests/test_variation.py::test_joint_motion_matches_the_full_event_enumeration",
        ),
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
    Mutant(
        "bisection-runs-past-the-target-width",
        "cubeiso/enclosure.py",
        "while hi - lo > target:",
        "while hi - lo >= target:",
        (
            "tests/test_enclosure.py::test_nth_root_ends_in_the_integer_root_cell",
            "tests/test_classify.py::TestCompetitors::test_tiny_tube_takes_the_simplest_cube_side",
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


def failed_tests(report: str, tests) -> set[str]:
    """The tests of ``tests`` that a pytest ``-rfp`` short summary lists as
    failed.  A test named without its parameter ID failed when every case
    of it listed failed."""
    outcomes = {}
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "PASSED"):
            outcomes[rest.partition(" - ")[0]] = word == "FAILED"
    failed = set()
    for test in tests:
        cases = [bad for tid, bad in outcomes.items() if tid == test or tid.startswith(test + "[")]
        if cases and all(cases):
            failed.add(test)
    return failed


def surviving_tests(mutant: Mutant) -> list[str] | None:
    """The tests of ``mutant.kills`` that pass against a mutated copy of
    ``src/``, or None when they run past ``TIME_LIMIT_S``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.file).write_text(patched_text(mutant), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfp", "-p", "no:cacheprovider", *mutant.kills],
                cwd=ROOT,
                env=dict(os.environ, PYTHONPATH=str(src)),
                capture_output=True,
                text=True,
                timeout=TIME_LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            return None
    failed = failed_tests(proc.stdout, mutant.kills)
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
        if alive is None:
            print(f"killed (timeout) {mutant.name}")
            continue
        survivors += bool(alive)
        print(f"{'SURVIVED' if alive else 'killed  '} {mutant.name}")
        for test in alive:
            print(f"         passes: {test}")
    print(f"{len(argv) or len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
