"""Loading sets from boxes against a Fraction-keyed reference.

The library ranks each axis's coordinates once and fills the occupancy by
rank; the reference below keys cuts by their ``Fraction`` values, per box
coordinate.  Both must give the same grid and occupancy, whether the boxes
come from a set file or from ``CubicalSet.from_boxes``, and however the
coordinates are spelled.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeiso.errors import DimensionMismatchError, DomainError, UnitCubeError
from cubeiso.formats import set_from_json
from cubeiso.geometry import (
    MAX_GRID_CELLS,
    ONE,
    ZERO,
    AxisBox,
    CubicalSet,
    _canonicalize,
    as_rat,
)


def reference_fill(grids, boxes) -> np.ndarray:
    """Occupancy of the grid cells covered by the boxes, looked up by value."""
    index = [{c: k for k, c in enumerate(g)} for g in grids]
    occ = np.zeros(tuple(len(g) - 1 for g in grids), dtype=bool)
    for b in boxes:
        occ[tuple(slice(ix[a], ix[c]) for ix, a, c in zip(index, b.lo, b.hi))] = True
    return occ


def reference_canonicalize(dim, boxes):
    """Per axis, the sorted set of box coordinates with 0 and 1, and the
    cells the boxes cover."""
    for b in boxes:
        if b.dim != dim:
            raise DimensionMismatchError(f"box of dim {b.dim} in a dim-{dim} set")
    grids = [
        sorted({ZERO, ONE}.union(*((b.lo[i], b.hi[i]) for b in boxes)))
        for i in range(dim)
    ]
    cells = math.prod(len(g) - 1 for g in grids)
    if cells > MAX_GRID_CELLS:
        raise DomainError(f"the boxes span a grid of {cells} cells, above {MAX_GRID_CELLS}")
    return grids, reference_fill(grids, boxes)


VALUES = sorted({F(k, d) for d in (2, 3, 4, 5, 6, 8) for k in range(d + 1)})
DECIMALS = {F(0): "0.0", F(1, 2): "0.5", F(1, 4): "0.25", F(3, 4): "0.75",
            F(1, 5): "0.2", F(1, 8): "0.125", F(1): "1.0"}


def spellings(v: F) -> list:
    """Ways a set file may write ``v``: reduced, scaled by 2 and 3, as a
    decimal where it terminates, and 0 and 1 as JSON integers."""
    out = [str(v), f"{2 * v.numerator}/{2 * v.denominator}",
           f"{3 * v.numerator}/{3 * v.denominator}"]
    if v in DECIMALS:
        out.append(DECIMALS[v])
    if v in (0, 1):
        out.append(int(v))
    return out


@st.composite
def spelled_boxes(draw):
    """``(dim, boxes)``: 1-8 boxes of dimension 1-3, each a pair of
    spelled ``lo`` and ``hi`` lists, with some boxes repeated (spelled
    anew) and the list shuffled."""
    dim = draw(st.integers(1, 3))
    sides = st.lists(st.sampled_from(VALUES), min_size=2, max_size=2, unique=True).map(sorted)
    boxes = [[draw(sides) for _ in range(dim)] for _ in range(draw(st.integers(1, 8)))]
    boxes += [boxes[i] for i in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=4))]
    boxes = draw(st.permutations(boxes))

    def spell(v):
        return draw(st.sampled_from(spellings(v)))

    return dim, [([spell(a) for a, _ in b], [spell(c) for _, c in b]) for b in boxes]


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(spelled_boxes())
    def test_file_and_boxes_load_like_the_reference(self, case):
        dim, spelled = case

        def coordinate(c):  # integers stay ints: the boxes' own 0 and 1
            return c if type(c) is int else as_rat(c)

        boxes = tuple(
            AxisBox(tuple(map(coordinate, lo)), tuple(map(coordinate, hi)))
            for lo, hi in spelled
        )
        grids, occ = _canonicalize(dim, boxes)
        ref_grids, ref_occ = reference_canonicalize(dim, boxes)
        assert grids == ref_grids
        assert np.array_equal(occ, ref_occ)
        assert all(type(c) is F for g in grids for c in g)

        expected = CubicalSet(ref_grids, ref_occ)
        assert CubicalSet.from_boxes(dim, boxes) == expected
        text = json.dumps({"dim": dim, "boxes": [{"lo": lo, "hi": hi} for lo, hi in spelled]})
        assert set_from_json(text) == expected

    def test_shared_and_distinct_objects_of_one_value(self):
        half, other_half = F(1, 2), F(2, 4)
        boxes = (
            AxisBox((ZERO, half), (half, ONE)),
            AxisBox((other_half, ZERO), (ONE, other_half)),
            AxisBox((0, 0), (F(1, 4), 1)),
        )
        grids, occ = _canonicalize(2, boxes)
        ref_grids, ref_occ = reference_canonicalize(2, boxes)
        assert grids == ref_grids == [[0, F(1, 4), half, 1], [0, half, 1]]
        assert np.array_equal(occ, ref_occ)

    def test_errors_match_the_reference(self):
        wrong_dim = (AxisBox((0, 0), (1, 1)), AxisBox((0,), (1,)))
        fine = tuple(AxisBox((F(k, 1000),) * 3, (F(k + 1, 1000),) * 3) for k in range(300))
        for dim, boxes, error in ((2, wrong_dim, DimensionMismatchError), (3, fine, DomainError)):
            with pytest.raises(error) as got:
                _canonicalize(dim, boxes)
            with pytest.raises(error) as want:
                reference_canonicalize(dim, boxes)
            assert str(got.value) == str(want.value)


SIDES = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    st.sampled_from([0, 1, F(0), F(1), F(-1, 3), F(4, 3), F(1, 2), F(11, 12)]),
)


class TestAxisBoxCheck:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(SIDES, SIDES), min_size=1, max_size=3))
    def test_accepts_exactly_the_sides_inside_the_cube(self, sides):
        lo, hi = (tuple(s) for s in zip(*sides))
        bad = next(((a, b) for a, b in sides if not ZERO <= a < b <= ONE), None)
        if bad is None:
            assert AxisBox(lo, hi).dim == len(sides)
            return
        with pytest.raises(UnitCubeError) as exc:
            AxisBox(lo, hi)
        a, b = bad
        assert str(exc.value) == f"box side [{a}, {b}] is degenerate or outside [0,1]"

    def test_boundary_values(self):
        for a, b in ((0, 1), (F(0), F(1)), (F(1, 3), F(1, 2)), (0, F(1, 2)), (F(1, 2), 1)):
            AxisBox((a,), (b,))
        for a, b in ((0, 0), (1, 1), (F(1, 2), F(2, 4)), (F(-1, 9), F(1, 2)),
                     (F(1, 2), F(10, 9)), (1, 0), (F(2, 3), F(1, 3))):
            with pytest.raises(UnitCubeError):
                AxisBox((a,), (b,))
