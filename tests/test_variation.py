"""Slices, signed boundary measures, event-driven motions, reduction."""

import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import grid_or_rational_sets, two_cell_sets

from cubeiso.errors import (
    DomainError,
    EventError,
    InternalCheckError,
    NonSingularError,
    NotSymmetrizedError,
    PreconditionError,
)
from cubeiso import geometry, variation
from cubeiso.classify import classify, realize
from cubeiso.geometry import CubicalSet, VoxelSet
from cubeiso.sampling import random_monotone_set
from cubeiso.symmetrize import is_symmetrized, steiner, symmetrize_all
from cubeiso.variation import (
    check_stationarity,
    event_horizon,
    improve_step,
    is_special,
    merge_step,
    monotone_relative_perimeter,
    reduce_to_special,
    singular_points,
    slice_data,
    translate_slice,
)

HALF = F(1, 2)


def cs(dim, pairs):
    return CubicalSet.from_coords(dim, pairs)


def tri_slab(a, b, c):
    return cs(
        3, [((0, 0, 0), (a, 1, 1)), ((0, 0, 0), (1, b, 1)), ((0, 0, 0), (1, 1, c))]
    )


def slab_leg(a, b, c):
    return cs(3, [((0, 0, 0), (a, 1, 1)), ((0, 0, 0), (1, b, c))])


class TestSingularPoints:
    def test_cube(self):
        a = F(1, 3)
        x = cs(3, [((0, 0, 0), (a, a, a))])
        assert singular_points(x, 0) == [a]

    def test_tri_slab_interior_point(self):
        a, b, c = F(1, 5), F(1, 4), F(1, 6)
        assert singular_points(tri_slab(a, b, c), 0) == [a]

    def test_unit_cube_has_none(self):
        for i in range(3):
            assert singular_points(CubicalSet.unit(3), i) == []


def singular_reference(x, axis):
    """The written-out definition: interior cuts whose boundary slice has
    positive measure."""
    return [
        s for s in x.internal_coords(axis) if x.boundary_slice(axis, s).volume() > 0
    ]


def column_heights(x, axis):
    """Each column's measure along ``axis`` over the cells of the other
    axes, summed cell by cell."""
    g = x.grids[axis]
    cols = np.moveaxis(x.occ, axis, -1)
    return {
        idx: sum((g[k + 1] - g[k] for k in range(len(g) - 1) if cols[idx][k]), F(0))
        for idx in np.ndindex(cols.shape[:-1])
    }


def level_areas(x, axis):
    """Each column height along ``axis`` and the area of its columns."""
    base = x.grids[:axis] + x.grids[axis + 1:]
    areas = {}
    for idx, h in column_heights(x, axis).items():
        cell = math.prod((g[i + 1] - g[i] for g, i in zip(base, idx)), start=F(1))
        areas[h] = areas.get(h, 0) + cell
    return areas


def special_reference(x):
    """The written-out definition: symmetrized, volume in (0, 1/2], the
    point halfway to the first cut of every axis inside, and at most one
    column height strictly between the walls along every axis."""
    if not (0 < x.volume() <= HALF and is_symmetrized(x)):
        return False
    corner = tuple(
        min(c for b in x.boxes for c in (b.lo[i], b.hi[i]) if c > 0) / 2
        for i in range(x.dim)
    )
    return x.contains(corner) and all(
        len({h for h in column_heights(x, i).values() if 0 < h < 1}) <= 1
        for i in range(x.dim)
    )


@settings(max_examples=80, deadline=None)
@given(st.one_of(grid_or_rational_sets(), two_cell_sets()))
def test_grid_reads_singular_points_and_specialness(x):
    for y in (x, steiner(x, 0), symmetrize_all(x)):
        assert is_special(y) == special_reference(y)
        for axis in range(y.dim):
            assert singular_points(y, axis) == singular_reference(y, axis)


@settings(max_examples=60, deadline=None)
@given(grid_or_rational_sets())
def test_translation_moves_one_cut(x):
    y = symmetrize_all(x)
    for axis in range(y.dim):
        for k, s in enumerate(y.grids[axis][1:-1], start=1):
            for sign in (1, -1):
                d = sign * event_horizon(y, axis, s, sign).distance / 2
                z = translate_slice(y, axis, s, d)
                assert np.array_equal(z.occ, y.occ)
                moved = list(y.grids[axis])
                moved[k] = s + d
                assert z.grids == y.grids[:axis] + (tuple(moved),) + y.grids[axis + 1:]


class TestSliceData:
    def test_box_face(self):
        a, b, c = F(1, 3), F(1, 4), F(1, 5)
        x = cs(3, [((0, 0, 0), (a, b, c))])
        d = slice_data(x, 2, c)
        assert d.region == cs(2, [((0, 0), (a, b))])
        assert d.area == a * b
        assert d.outer_measure == a + b
        assert d.cube_measure == a + b
        assert d.inner_measure == 0
        assert d.first_var == (a + b) / (a * b)

    def test_tri_slab_corner_slice(self):
        a, b, c = F(1, 5), F(1, 4), F(1, 6)
        d = slice_data(tri_slab(a, b, c), 0, a)
        assert d.area == (1 - b) * (1 - c)
        assert d.first_var == (b + c - 2) / ((1 - b) * (1 - c))
        assert d.outer_measure == 0

    def test_slab_leg_variations(self):
        a, b, c = F(1, 4), F(1, 3), F(1, 2)
        x = slab_leg(a, b, c)
        assert slice_data(x, 0, a).first_var == (-b - c) / (1 - b * c)
        assert slice_data(x, 1, b).first_var == (1 - a - c) / ((1 - a) * c)
        assert slice_data(x, 2, c).first_var == (1 - a - b) / ((1 - a) * b)

    def test_region_matches_boundary_slice(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = random_monotone_set(rng, 3, 4)
            for axis in range(3):
                for s in singular_points(x, axis):
                    d = slice_data(x, axis, s)
                    assert d.region == x.boundary_slice(axis, s)
                    assert d.area == d.region.volume()

    def test_region_is_built_on_first_read(self, monkeypatch):
        x = random_monotone_set(np.random.default_rng(5), 3, 4)
        assert is_symmetrized(x)
        built = []
        real = geometry._reduce

        def counted(grids, occ):
            built.append(occ.shape)
            return real(grids, occ)

        monkeypatch.setattr(geometry, "_reduce", counted)
        report = check_stationarity(x)
        d = slice_data(x, 0, singular_points(x, 0)[0])
        assert len(report.slices) > 1 and built == []
        region = d.region
        assert len(built) == 1
        assert d.region is region and len(built) == 1
        assert report.slices[0] == d and len(built) == 2

    def test_equality_compares_regions(self):
        d = slice_data(cs(2, [((0, 0), (HALF, HALF))]), 0, HALF)
        assert d.region == cs(1, [((0,), (HALF,))])
        # same area and measures, region mirrored: [1/2, 1] in place of [0, 1/2]
        flipped = dataclasses.replace(d, mask=d.mask[::-1])
        assert (flipped.area, flipped.first_var) == (d.area, d.first_var)
        assert flipped != d
        # the same region on a finer base grid
        finer = dataclasses.replace(
            d, base=((F(0), F(1, 4), HALF, F(1)),), mask=np.array([True, True, False])
        )
        assert finer == d and hash(finer) == hash(d)

    def test_requires_symmetrized(self):
        x = cs(2, [((F(1, 4), 0), (F(3, 4), HALF))])
        q = F(1, 4)
        calls = [
            lambda: slice_data(x, 0, q),
            lambda: event_horizon(x, 0, q, +1),
            lambda: translate_slice(x, 0, q, F(1, 8)),
            lambda: merge_step(x, 0, q, F(3, 4)),
            lambda: improve_step(x, (q, 0), (HALF, 1)),
            lambda: check_stationarity(x),
        ]
        for call in calls:
            with pytest.raises(NotSymmetrizedError):
                call()

    def test_nonsingular_position(self):
        # check_stationarity takes no position: it reads only the levels
        x = cs(2, [((0, 0), (HALF, HALF))])
        for s in (F(1, 4), F(0), F(1)):
            lo, hi = sorted((s, HALF))
            calls = [
                lambda: slice_data(x, 0, s),
                lambda: event_horizon(x, 0, s, +1),
                lambda: event_horizon(x, 0, s, -1),
                lambda: translate_slice(x, 0, s, F(1, 8)),
                lambda: merge_step(x, 0, lo, hi),
                lambda: improve_step(x, (s, 0), (HALF, 1)),
            ]
            for call in calls:
                with pytest.raises(NonSingularError, match="along axis 0"):
                    call()


class TestTranslate:
    def test_linear_law_cube(self):
        a = F(2, 5)
        x = cs(3, [((0, 0, 0), (a, a, a))])
        d = slice_data(x, 2, a)
        step = F(1, 7)
        y = translate_slice(x, 2, a, step)
        assert y == cs(3, [((0, 0, 0), (a, a, a + step))])
        assert y.volume() - x.volume() == d.area * step
        assert y.relative_perimeter() - x.relative_perimeter() == d.signed_measure * step

    def test_zero_motion(self):
        x = cs(2, [((0, 0), (HALF, HALF))])
        assert translate_slice(x, 0, HALF, 0) == x

    def test_event_error_beyond_horizon(self):
        a = F(1, 3)
        x = cs(3, [((0, 0, 0), (a, a, a))])
        with pytest.raises(EventError) as exc:
            translate_slice(x, 0, a, 1 - a)
        assert exc.value.event.kind == "slice-hits-1"

    def test_horizons(self):
        a = F(1, 3)
        x = cs(3, [((0, 0, 0), (a, a, a))])
        up = event_horizon(x, 0, a, +1)
        assert (up.kind, up.distance) == ("slice-hits-1", 1 - a)
        down = event_horizon(x, 0, a, -1)
        assert (down.kind, down.distance) == ("slice-hits-0", a)

    def test_horizon_stops_at_staircase_step(self):
        x = cs(2, [((0, 0), (F(1, 4), F(3, 4))), ((F(1, 4), 0), (HALF, F(1, 4)))])
        hz = event_horizon(x, 1, F(1, 4), +1)
        assert (hz.kind, hz.distance) == ("slice-area-changes", HALF)


class TestMergeImprove:
    @staticmethod
    def four_step():
        w = F(1, 4)
        heights = [F(4, 5), F(3, 5), F(2, 5), F(1, 5)]
        return cs(
            2,
            [
                ((i * w, 0), ((i + 1) * w, h))
                for i, h in enumerate(heights)
            ],
        )

    def test_merge_preserves_both_measures(self):
        x = self.four_step()
        fvs = {s: slice_data(x, 1, s).first_var for s in singular_points(x, 1)}
        assert fvs[F(2, 5)] == fvs[F(3, 5)] == 0
        y = merge_step(x, 1, F(2, 5), F(3, 5))
        assert y.volume() == x.volume()
        assert y.relative_perimeter() == x.relative_perimeter()
        assert len(singular_points(y, 1)) == len(singular_points(x, 1)) - 1
        assert singular_points(y, 1) == [F(1, 5), HALF, F(4, 5)]

    def test_merge_requires_equal_variation(self):
        x = self.four_step()
        with pytest.raises(PreconditionError):
            merge_step(x, 1, F(1, 5), F(2, 5))

    def test_improve_same_direction(self):
        w = F(1, 3)
        x = cs(
            2,
            [
                ((0, 0), (w, F(3, 4))),
                ((w, 0), (2 * w, HALF)),
                ((2 * w, 0), (1, F(1, 4))),
            ],
        )
        y = improve_step(x, (F(1, 4), 1), (F(3, 4), 1))
        assert y.volume() == x.volume()
        assert y.relative_perimeter() < x.relative_perimeter()
        assert y == cs(2, [((0, 0), (1, HALF))])

    def test_improve_cross_direction_slab_leg(self):
        a, b, c = F(1, 4), F(1, 3), F(1, 2)
        x = slab_leg(a, b, c)
        y = improve_step(x, (a, 0), (c, 2))
        assert y.volume() == x.volume()
        assert y.relative_perimeter() < x.relative_perimeter()
        assert is_symmetrized(y)

    def test_improve_rejects_equal_variations(self):
        a = F(1, 3)
        x = cs(3, [((0, 0, 0), (a, a, a))])
        with pytest.raises(PreconditionError):
            improve_step(x, (a, 0), (a, 1))


class TestStationarity:
    def test_cube_is_stationary(self):
        a = F(1, 3)
        rep = check_stationarity(cs(3, [((0, 0, 0), (a, a, a))]))
        assert rep.stationary
        assert rep.values() == [2 / a]
        assert len(rep.slices) == 3

    def test_uneven_tube_is_not(self):
        a, b = F(1, 3), F(1, 4)
        rep = check_stationarity(cs(3, [((0, 0, 0), (a, b, 1))]))
        assert not rep.stationary
        assert rep.values() == sorted([1 / a, 1 / b])

    def test_symmetric_tripod_is_stationary(self):
        a = F(3, 10)
        x = cs(
            3,
            [
                ((0, 0, 0), (a, 1, a)),
                ((0, 0, 0), (1, a, a)),
                ((0, 0, 0), (a, a, 1)),
            ],
        )
        rep = check_stationarity(x)
        assert rep.stationary
        assert rep.values() == [(1 - 2 * a) / (a * (1 - a))]


class TestSpecialAndReduce:
    def test_minimizer_shapes_are_special(self):
        assert is_special(cs(3, [((0, 0, 0), (F(1, 3),) * 3)]))
        assert is_special(cs(3, [((0, 0, 0), (F(2, 5), 1, 1))]))
        assert not is_special(cs(3, [((F(1, 4), 0, 0), (HALF, 1, 1))]))
        assert not is_special(CubicalSet.unit(3))  # volume above 1/2

    def test_reduce_already_special(self):
        x = cs(3, [((0, 0, 0), (F(1, 3),) * 3)])
        y, log = reduce_to_special(x)
        assert y == x
        assert [s.kind for s in log] == ["symmetrize"]

    def test_reduce_staircase_2d(self):
        x = cs(2, [((0, 0), (F(1, 4), F(3, 4))), ((F(1, 4), 0), (HALF, F(1, 4)))])
        y, log = reduce_to_special(x)
        assert is_special(y)
        assert y.volume() == x.volume() == F(1, 4)
        assert y.relative_perimeter() <= x.relative_perimeter()

    def test_reduce_requires_small_volume(self):
        with pytest.raises(DomainError):
            reduce_to_special(CubicalSet.unit(3))

    def test_reduce_random_monotone(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            x = random_monotone_set(rng, 3, 4, max_cells=32)
            y, log = reduce_to_special(x)
            assert is_special(y)
            assert y.volume() == x.volume()
            assert y.relative_perimeter() <= x.relative_perimeter()
            for step in log[1:]:
                assert step.kind in ("merge", "improve")
                assert step.d_perimeter <= 0

    def test_monotone_perimeter_matches_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = random_monotone_set(rng, 3, 5)
            assert monotone_relative_perimeter(x) == x.relative_perimeter()


class TestBoundaryPartition:
    def test_parts_sum_to_full_boundary(self):
        # interior parts (+1 and -1) together are exactly the region's
        # relative perimeter; the 0 part is the rest of its boundary
        rng = np.random.default_rng(61)
        for _ in range(12):
            x = random_monotone_set(rng, 3, 4)
            for axis in range(3):
                for s in singular_points(x, axis):
                    d = slice_data(x, axis, s)
                    interior = d.outer_measure + d.inner_measure
                    assert interior == d.region.relative_perimeter()

    def test_full_face_slice_has_zero_variation(self):
        x = cs(3, [((0, 0, 0), (F(2, 5), 1, 1))])
        d = slice_data(x, 0, F(2, 5))
        assert d.region == CubicalSet.unit(2)
        assert d.outer_measure == d.inner_measure == 0
        assert d.cube_measure == 4
        assert d.first_var == 0


class TestRandomizedMotions:
    def test_cross_direction_improvements_on_random_sets(self):
        # pick the extremal unequal pair across different axes and demand
        # the full contract: exact volume, strict decrease, still monotone
        rng = np.random.default_rng(67)
        done = 0
        while done < 25:
            x = random_monotone_set(rng, 3, 4, max_cells=30)
            rep = check_stationarity(x)
            pairs = [
                (a, b)
                for a in rep.slices
                for b in rep.slices
                if a.axis != b.axis and a.first_var != b.first_var
            ]
            if not pairs:
                continue
            lo, hi = pairs[0]
            y = improve_step(x, (lo.position, lo.axis), (hi.position, hi.axis))
            assert y.volume() == x.volume()
            assert y.relative_perimeter() < x.relative_perimeter()
            assert is_symmetrized(y)
            done += 1

    @pytest.mark.parametrize("j", [70, 300])
    def test_cross_direction_step_scales_with_the_set(self, j):
        # the step sigma that wins shrinks with the features, past 2^-64
        e = F(1, 2**j)
        for family, params in (("box", (e, 2 * e, 3 * e)), ("slab_leg", (F(1, 4), e, e))):
            assert classify(realize(family, params)).verdict == "not_minimizer"

    def test_merge_family_of_flat_staircases(self):
        # equal column widths make the interior slices all zero-variation,
        # so any interior pair merges with both measures preserved
        for m in (3, 4, 5):
            w = F(1, m)
            heights = [F(m - i, m + 1) for i in range(m)]
            x = cs(2, [((i * w, 0), ((i + 1) * w, h)) for i, h in enumerate(heights)])
            pts = singular_points(x, 1)
            inner = [s for s in pts if slice_data(x, 1, s).first_var == 0]
            assert len(inner) == m - 2
            if len(inner) >= 2:
                y = merge_step(x, 1, inner[0], inner[1])
                assert y.relative_perimeter() == x.relative_perimeter()
                assert y.volume() == x.volume()

    def test_four_dimensional_slice_translation(self):
        a = F(1, 3)
        x = CubicalSet.from_coords(4, [((0, 0, 0, 0), (a, a, a, a))])
        d = slice_data(x, 3, a)
        assert d.area == a**3
        assert d.first_var == 3 / a
        step = F(1, 9)
        y = translate_slice(x, 3, a, step)
        assert y.volume() - x.volume() == d.area * step
        assert (
            y.relative_perimeter() - x.relative_perimeter()
            == d.signed_measure * step
        )

    def test_reduce_random_2d(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            x = random_monotone_set(rng, 2, 6, max_cells=18)
            y, _ = reduce_to_special(x)
            assert is_special(y)
            assert y.volume() == x.volume()
            assert y.relative_perimeter() <= x.relative_perimeter()


# A 5x5x5 voxel set of volume 14/25 (flat cell indices).  In one joint
# motion of its complement's reduction a level reaches the wall at the same
# exchanged volume as another level: the wall event must win the tie,
# because the vanishing cap makes that step non-linear.
WALL_TIE_CELLS = [
    1, 4, 5, 8, 10, 13, 16, 18, 19, 20, 23, 24, 25, 27, 28, 29, 32, 33, 37,
    38, 40, 41, 42, 43, 46, 48, 51, 54, 55, 57, 58, 60, 62, 63, 66, 67, 69,
    72, 73, 74, 76, 77, 78, 79, 81, 83, 85, 86, 87, 90, 91, 96, 98, 99, 101,
    102, 104, 105, 108, 110, 112, 113, 114, 116, 117, 118, 119, 120, 121, 123,
]


def test_wall_event_wins_a_tie():
    x = VoxelSet.from_indices(3, 5, WALL_TIE_CELLS).to_cubical()
    assert x.volume() == F(14, 25)
    c = x.complement()
    y, log = reduce_to_special(c)
    assert is_special(y)
    assert y.volume() == c.volume()
    assert y.relative_perimeter() <= c.relative_perimeter()
    assert classify(x).verdict == "not_minimizer"


def joint_motion_reference(x, axis, s_grow, s_shrink):
    """``(event, exchanged volume, wall tie)`` of a joint motion, from every
    column height: each height above ``s_grow`` or below ``s_shrink`` but
    the two moving ones is a candidate, and on a tie the wall event wins."""
    areas = level_areas(x, axis)
    a_g, a_s = areas[s_grow], areas[s_shrink]
    candidates = []
    if s_grow < s_shrink:
        candidates.append(((s_shrink - s_grow) * a_g * a_s / (a_g + a_s), "slices-collide"))
    for v in set(areas) | {F(0), F(1)}:
        if v in (s_grow, s_shrink):
            continue
        if v > s_grow:
            kind = "slice-hits-1" if v == 1 else "slice-area-changes"
            candidates.append(((v - s_grow) * a_g, kind))
        if v < s_shrink:
            kind = "slice-hits-0" if v == 0 else "slice-area-changes"
            candidates.append(((s_shrink - v) * a_s, kind))
    t = min(c[0] for c in candidates)
    kinds = {k for c, k in candidates if c == t}
    walls = sorted(k for k in kinds if k.startswith("slice-hits"))
    return (walls or sorted(kinds))[0], t, bool(walls) and len(walls) < len(kinds)


def test_joint_motion_matches_the_full_event_enumeration(monkeypatch):
    rng = np.random.default_rng(89)
    for _ in range(20):  # every ordered pair of levels along every axis
        x = random_monotone_set(rng, 3, 4, max_cells=32)
        for axis in range(3):
            levels = sorted(h for h in level_areas(x, axis) if 0 < h < 1)
            for a in levels:
                for b in levels:
                    if a != b:
                        grow, shrink = slice_data(x, axis, a), slice_data(x, axis, b)
                        _, info = variation._joint_motion(x, grow, shrink, "test")
                        kind, t, _ = joint_motion_reference(x, axis, a, b)
                        assert (info.event, info.exchanged) == (kind, t)

    seen = []
    real = variation._joint_motion

    def checked(x, grow, shrink, step):
        y, info = real(x, grow, shrink, step)
        kind, t, wall_tie = joint_motion_reference(x, grow.axis, grow.position, shrink.position)
        assert (info.event, info.exchanged) == (kind, t)
        seen.append((step, wall_tie))
        return y, info

    monkeypatch.setattr(variation, "_joint_motion", checked)
    for _ in range(20):  # the merge and improve pairs of reductions
        reduce_to_special(random_monotone_set(rng, 3, 5, max_cells=60))
    reduce_to_special(VoxelSet.from_indices(3, 5, WALL_TIE_CELLS).to_cubical().complement())
    assert {step for step, _ in seen} == {"merge_step", "improve_step"}
    assert any(wall_tie for _, wall_tie in seen)


def test_stalled_reduction_fails_at_its_first_step(monkeypatch):
    # every step must lower the number of interior cuts, so a motion that
    # moves nothing is refused at once rather than repeated up to a cap
    x = TestMergeImprove.four_step()
    assert [len(g) for g in x.grids] == [5, 6]
    calls = []

    def stalled(y, *args):
        calls.append(y)
        s = y.grids[0][1]
        return y, variation._MotionInfo("slices-collide", F(0), s, s, s, s)

    monkeypatch.setattr(variation, "_merge_step_full", stalled)
    monkeypatch.setattr(variation, "_improve_same_axis_full", stalled)
    with pytest.raises(InternalCheckError, match="did not lower the number of interior cuts"):
        reduce_to_special(x)
    assert len(calls) == 1


def test_reduction_steps_are_bounded_by_the_interior_cuts():
    rng = np.random.default_rng(61)
    for _ in range(20):
        x = random_monotone_set(rng, 3, 5, max_cells=60)
        _, log = reduce_to_special(x)
        cuts = sum(len(g) - 2 for g in symmetrize_all(x).grids)
        assert len(log) - 1 <= cuts
