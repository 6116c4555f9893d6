"""The exhaustive equality-case audit and its own correctness.

The audited claim (perimeter preserved by one symmetrization iff an isometry
carries the set onto its symmetrization) fails on disconnected sets whose
columns anchor at opposite walls, and on face-connected ones as well; the
audit must find such counterexamples and every reported counterexample must
be genuine.
"""

import pytest

from cubeiso.exhaustive import equality_case_audit
from cubeiso.geometry import VoxelSet, all_isometries, devoxelize
from cubeiso.symmetrize import steiner


def _is_genuine_violation(v: VoxelSet) -> bool:
    """Recheck a reported counterexample with the exact kernel: perimeter
    preserved along some axis yet no isometry reaches the symmetrization."""
    x = devoxelize(v)
    for axis in range(v.dim):
        s = steiner(x, axis)
        if s.relative_perimeter() != x.relative_perimeter():
            continue
        if s == x:
            continue
        if not any(x.apply(g) == s for g in all_isometries(v.dim)):
            return True
    return False


def test_smallest_grid_is_clean():
    out = equality_case_audit(2, 2)
    assert out.ok
    assert out.checked == 32


def test_2d_m3_finds_opposite_anchor_counterexample():
    out = equality_case_audit(2, 3, limit=5)
    assert not out.ok
    assert all(_is_genuine_violation(v) for v in out.violations)
    # the classic witness: one cell at the top-left wall, one at the
    # bottom-right wall; perimeters match, no isometry matches
    witness = VoxelSet.from_indices(2, 3, [2, 6])
    assert _is_genuine_violation(witness)
    # a face-connected witness: rows 011/010/110 symmetrize along axis 0 to
    # the T-shape 111/010/010, keeping 6 boundary faces
    connected = VoxelSet.from_indices(2, 3, [1, 2, 4, 6, 7])
    assert connected.steiner(0) == VoxelSet.from_indices(2, 3, [0, 1, 2, 4, 7])
    assert connected.face_count() == connected.steiner(0).face_count() == 6
    assert _is_genuine_violation(connected)


def test_3d_m2_also_violates():
    out = equality_case_audit(3, 2, limit=5)
    assert not out.ok
    assert all(_is_genuine_violation(v) for v in out.violations)


def test_3d_m3_bit_pipeline_reports_and_stops():
    out = equality_case_audit(3, 3, limit=2, stop_after=2)
    assert len(out.violations) == 2
    assert out.stopped_early
    assert all(_is_genuine_violation(v) for v in out.violations)


def test_resolution_cap():
    with pytest.raises(Exception):
        equality_case_audit(3, 4)
