"""The integer sums of the kernel, the height profiles and the slice analysis
against a written-out Fraction reference.

The reference functions below sum one ``Fraction`` per cell, face or
column, as the kernel once did.  They share nothing with the integer code
but the set's grid and occupancy: no scaled cuts, no ``_weigh``, no masks.
"""

import itertools
import math
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import big_denominator_sets, grid_or_rational_sets

from cubeiso.geometry import CubicalSet
from cubeiso.symmetrize import _height_profile, symmetrize_all
from cubeiso.variation import _slice_from_profile

ZERO, ONE = F(0), F(1)


def widths(grids):
    return [[b - a for a, b in zip(g, g[1:])] for g in grids]


def cells(grids):
    return itertools.product(*(range(len(g) - 1) for g in grids))


def cell_area(grids, idx, skip=None):
    """Measure of the cell ``idx``; with ``skip``, of its face across that axis."""
    a = ONE
    for k, (w, i) in enumerate(zip(widths(grids), idx)):
        if k != skip:
            a *= w[i]
    return a


def volume(x):
    return sum((cell_area(x.grids, idx) for idx in cells(x.grids) if x.occ[idx]), ZERO)


def face_area(x):
    total = ZERO
    for idx in cells(x.grids):
        for axis in range(x.dim):
            nb = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:]
            if nb[axis] < len(x.grids[axis]) - 1 and x.occ[idx] != x.occ[nb]:
                total += cell_area(x.grids, idx, axis)
    return total


def heights(x, axis):
    """Column measure over each base cell, summed cell by cell."""
    g = x.grids[axis]
    base = x.grids[:axis] + x.grids[axis + 1:]
    out = {}
    for idx in cells(base):
        out[idx] = sum(
            (g[k + 1] - g[k] for k in range(len(g) - 1)
             if x.occ[idx[:axis] + (k,) + idx[axis:]]),
            ZERO,
        )
    return base, out


def profile_perimeter(base, h):
    """Caps plus wall differences of the subgraph of ``h``."""
    total = ZERO
    for idx, v in h.items():
        if ZERO < v < ONE:
            total += cell_area(base, idx)
        for j in range(len(base)):
            nb = idx[:j] + (idx[j] + 1,) + idx[j + 1:]
            if nb in h:
                total += abs(v - h[nb]) * cell_area(base, idx, j)
    return total


def slice_measures(base, h, s):
    """Area, outer, cube and inner measure of the level set of ``h`` at ``s``."""
    region = {idx for idx, v in h.items() if v == s}
    area = sum((cell_area(base, idx) for idx in region), ZERO)
    outer = cube = inner = ZERO
    for idx in region:
        for j in range(len(base)):
            edge = cell_area(base, idx, j)
            for step in (-1, 1):
                nb = idx[:j] + (idx[j] + step,) + idx[j + 1:]
                if nb not in h:
                    cube += edge
                elif nb in region:
                    continue
                elif h[nb] > s:
                    inner += edge
                else:
                    outer += edge
    return area, outer, cube, inner


def check_against_reference(x):
    assert x.volume() == volume(x)
    assert x.relative_perimeter() == face_area(x)
    for axis in range(x.dim):
        prof = _height_profile(x, axis)
        base, h = heights(x, axis)
        levels = sorted(set(h.values()))
        assert prof.levels() == levels
        for s in levels:
            area = sum((cell_area(base, idx) for idx, v in h.items() if v == s), ZERO)
            assert prof.level_area(s) == area
        assert prof.volume() == x.volume()
        assert prof.relative_perimeter() == profile_perimeter(base, h)
        for s in levels:
            if ZERO < s < ONE:
                d = _slice_from_profile(prof, s)
                measures = (d.area, d.outer_measure, d.cube_measure, d.inner_measure)
                assert measures == slice_measures(base, h, s)


def denominator_product(x):
    return math.prod(math.lcm(*(c.denominator for c in g)) for g in x.grids)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(grid_or_rational_sets))
def test_small_denominators_match_the_reference(x):
    for y in (x, symmetrize_all(x)):
        check_against_reference(y)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(big_denominator_sets))
def test_denominators_past_2_63_match_the_reference(x):
    assume(denominator_product(x) > 2**63)
    for y in (x, symmetrize_all(x)):
        check_against_reference(y)


def test_line_sum_of_height_differences_past_2_63():
    # along axis 0 the cuts are 0, 1/p, 1 with p = 2^61 - 1, so each height
    # fits in int64 with room to spare; along axis 1 the columns alternate
    # between full and empty, and their six differences sum past 2^63
    p = 2**61 - 1
    stripes = [((0, F(k, 7)), (1, F(k + 1, 7))) for k in (0, 2, 4, 6)]
    x = CubicalSet.from_coords(2, stripes + [((0, F(1, 7)), (F(1, p), F(2, 7)))])
    assert 6 * p > 2**63
    check_against_reference(x)
