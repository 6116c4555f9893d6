"""Each output check of the benchmark accepts the program's real output and
rejects a deliberately corrupted copy of it.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import checker
from checker import CheckError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubeiso import cli, exhaustive  # noqa: E402
from cubeiso.geometry import VoxelSet  # noqa: E402


def _classify(tmp_path, boxes):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({
        "dim": 3,
        "boxes": [{"lo": [str(c) for c in lo], "hi": [str(c) for c in hi]} for lo, hi in boxes],
    }))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["classify", str(path)]) == 0
    volume, perimeter = checker.box_union_measures(3, boxes)
    return volume, perimeter, json.loads(out.getvalue())


def _box(hi, lo=(0, 0, 0)):
    return tuple(F(c) for c in lo), tuple(F(c) for c in hi)


# a planted cube [0,1/3]^3 under a cube isometry: verdict cube
PLANTED_CUBE = [checker.map_box(_box((F(1, 3),) * 3), (2, 0, 1), (True, False, True))]
# an L-shaped prism of volume 5/32: reduced, then beaten by a competitor
L_SHAPE = [_box((F(1, 2), 1, F(1, 4))), _box((1, F(1, 4), F(1, 4)))]


@pytest.fixture
def planted(tmp_path):
    return _classify(tmp_path, PLANTED_CUBE)


@pytest.fixture
def beaten(tmp_path):
    return _classify(tmp_path, L_SHAPE)


@pytest.fixture
def complemented(tmp_path):
    return _classify(tmp_path, checker.box_complement(3, PLANTED_CUBE[0]))


def test_real_classifications_pass(planted, beaten, complemented):
    v, p, out = planted
    assert out["verdict"] == "cube"
    checker.check_classification(v, p, out, ("cube", F(1, 3)))
    v, p, out = beaten
    assert out["verdict"] == "not_minimizer" and out["competitor"]
    checker.check_classification(v, p, out)
    v, p, out = complemented
    assert out["via_complement"]
    checker.check_classification(v, p, out, ("cube", F(1, 3)))


@pytest.mark.parametrize("field, value, match", [
    ("volume", "1/28", "reported volume"),
    ("via_complement", True, "via_complement"),
    ("profile_kinds", ["cube", "slab", "tube"], "profile kinds"),
    ("verdict", "trivial", "unexpected verdict"),
])
def test_classification_fields_rejected(beaten, field, value, match):
    v, p, out = beaten
    bad = dict(out, **{field: value})
    with pytest.raises(CheckError, match=match):
        checker.check_classification(v, p, bad)


def test_minimizer_verdict_outside_argmin_rejected(planted):
    v, p, out = planted
    with pytest.raises(CheckError, match="not an argmin kind"):
        checker.check_classification(v, p, dict(out, verdict="slab"))


def test_planted_verdict_rejected(planted, beaten):
    v, p, out = planted
    with pytest.raises(CheckError, match="planted cube"):
        checker.check_classification(v, p, out, ("cube", F(9, 20)))
    v, p, out = beaten
    with pytest.raises(CheckError, match="planted slab"):
        checker.check_classification(v, p, out, ("slab", F(1, 4)))


def test_missing_competitor_rejected(beaten):
    v, p, out = beaten
    bad = {k: val for k, val in out.items() if k != "competitor"}
    with pytest.raises(CheckError, match="without a competitor"):
        checker.check_classification(v, p, bad)


def test_competitor_volume_rejected(beaten):
    v, p, out = beaten
    bad = copy.deepcopy(out)
    bad["competitor"]["set"]["boxes"] = [{"lo": ["0", "0", "0"], "hi": ["1/2", "1/2", "1/2"]}]
    with pytest.raises(CheckError, match="competitor volume"):
        checker.check_classification(v, p, bad)


def test_competitor_not_better_rejected(beaten):
    v, p, out = beaten
    bad = copy.deepcopy(out)
    bad["competitor"]["set"] = {
        "dim": 3,
        "boxes": [{"lo": [str(c) for c in lo], "hi": [str(c) for c in hi]} for lo, hi in L_SHAPE],
    }
    with pytest.raises(CheckError, match="not below the input"):
        checker.check_classification(v, p, bad)


def test_perimeter_below_profile_rejected(beaten):
    # no set of volume V has perimeter below I(V), so feed a wrong measure
    v, p, out = beaten
    with pytest.raises(CheckError, match="input perimeter"):
        checker.check_classification(v, F(1, 10), out)


@pytest.mark.parametrize("v, value", [
    (F(1, 64), F(3, 16)),      # cube branch: 3 V^(2/3)
    (F(1, 8), F("0.7071067811865476")),  # tube: 2 V^(1/2)
    (F(3, 8), F(1)),           # slab: 1
])
def test_profile_bound_is_tight(v, value):
    # the bound holds at I(V) (rounded up) and fails just below it
    assert checker.at_least_profile(value + F(1, 10**11), v)
    assert not checker.at_least_profile(value - F(1, 10**11), v)


# -- lattice ------------------------------------------------------------------


@pytest.fixture(scope="module")
def search3():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["search", "--dim", "3", "--res", "3", "--all-k"]) == 0
    return out.getvalue(), checker.monotone_minima(3)


def _edit_row(text: str, k: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[1 + k].split(",")
    row[header.index(column)] = value
    lines[1 + k] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_real_search_passes(search3):
    text, minima = search3
    checker.check_search(3, 3, text, minima)


@pytest.mark.parametrize("k, column, value, match", [
    (4, "discrete_min", "1", "discrete_min 1 !="),
    (4, "discrete_min", "1/9", "below I"),
    (4, "n_minimizers", "7", "minimizer orbits"),
    (4, "continuous_bound", "0.600000000000..0.700000000000", "does not enclose"),
    (4, "kinds", "slab", "kinds"),
    (4, "V", "4/26", "V 4/26"),
])
def test_search_rows_rejected(search3, k, column, value, match):
    text, minima = search3
    with pytest.raises(CheckError, match=match):
        checker.check_search(3, 3, _edit_row(text, k, column, value), minima)


def test_search_missing_row_rejected(search3):
    text, minima = search3
    lines = text.splitlines()
    with pytest.raises(CheckError, match="rows cover"):
        checker.check_search(3, 3, "\n".join(lines[:-1]) + "\n", minima)


def _frozen(outcome):
    return (outcome.checked, outcome.perimeter_preserving,
            tuple(tuple(v.flat_indices()) for v in outcome.violations),
            outcome.stopped_early)


@pytest.mark.parametrize("dim, res", [(2, 3), (3, 2)])
def test_real_audits_pass(dim, res):
    out = _frozen(exhaustive.equality_case_audit(dim, res, limit=4, stop_after=4))
    assert out[2], "criterion 5's claim is false: violations are correct output"
    checker.check_audit(dim, res, 4, 4, out, checker.preserving_count(dim, res))


def test_audit_corruptions_rejected():
    dim, res = 2, 3
    checked, preserving, violations, stopped = _frozen(
        exhaustive.equality_case_audit(dim, res, limit=4, stop_after=4))
    count = checker.preserving_count(dim, res)
    with pytest.raises(CheckError, match="perimeter_preserving"):
        checker.check_audit(dim, res, 4, 4, (checked, preserving + 1, violations, stopped), count)
    with pytest.raises(CheckError, match="full scan checked"):
        checker.check_audit(dim, res, 4, 4, (checked - 1, preserving, violations, stopped), count)
    with pytest.raises(CheckError, match="over limit"):
        checker.check_audit(dim, res, 3, 4, (checked, preserving, violations, stopped), count)
    # a corner cell is its own symmetrization: no violation
    with pytest.raises(CheckError, match="not one on any axis"):
        checker.check_audit(dim, res, 4, 4, (checked, preserving, ((0,),), stopped), count)
    # the diagonal loses perimeter on both axes
    with pytest.raises(CheckError, match="not one on any axis"):
        checker.check_audit(dim, res, 4, 4, (checked, preserving, ((0, 4, 8),), stopped), count)
    with pytest.raises(CheckError, match="stopped early before"):
        checker.check_audit(dim, res, 4, 4, (checked // 2, 0, violations[:1], True))


def _batch():
    sets = [(2, 3, [0, 4, 5, 8]), (3, 2, [1, 2, 7])]
    results = []
    for dim, res, flat in sets:
        v = VoxelSet.from_indices(dim, res, flat)
        images = [v.steiner(a) for a in range(dim)]
        results.append((v.count(), v.face_count(),
                        tuple((tuple(s.flat_indices()), s.count(), s.face_count()) for s in images)))
    return sets, results


def _replace_axis(results, item, axis, new):
    out = list(results)
    count, faces, per_axis = out[item]
    per_axis = list(per_axis)
    per_axis[axis] = new
    out[item] = (count, faces, tuple(per_axis))
    return out


def test_real_voxel_batch_passes():
    checker.check_voxel_batch(*_batch())


def test_voxel_batch_corruptions_rejected():
    sets, results = _batch()
    count, faces, per_axis = results[0]
    flat, s_count, s_faces = per_axis[0]
    with pytest.raises(CheckError, match="face count 99"):
        checker.check_voxel_batch(sets, [(count, 99, per_axis)] + results[1:])
    with pytest.raises(CheckError, match="changed the cell count"):
        checker.check_voxel_batch(sets, _replace_axis(results, 0, 0, (flat[:-1], s_count - 1, s_faces)))
    with pytest.raises(CheckError, match="raised the face count"):
        checker.check_voxel_batch(sets, _replace_axis(results, 0, 0, (flat, s_count, faces + 1)))
    # same cell count and faces, cells moved: not the Steiner image
    moved = tuple(sorted(set(flat) - {0} | {3}))
    with pytest.raises(CheckError, match="face count after Steiner|differs from the reference"):
        checker.check_voxel_batch(sets, _replace_axis(results, 0, 0, (moved, s_count, s_faces)))
