"""Hypothesis strategies shared by the property tests."""

import itertools
from fractions import Fraction as F

import numpy as np
from hypothesis import strategies as st

from cubeiso.geometry import CubeIsometry, CubicalSet, VoxelSet, box, devoxelize

PRIMES = [2, 3, 5, 7, 11, 13, 101, 997, 4099, 8191]
# products of primes, and primes just below 2^61 and 2^64, in that order
BIG_DENOMINATORS = [4099 * 8191, 8191 * 16381, 2**61 - 1, 2**64 - 59, (2**61 - 1) * (2**31 - 1)]


@st.composite
def grid_or_rational_sets(draw, dim=None):
    """A random voxel set (m = 2..5) or a union of 1-6 boxes whose
    coordinates have prime denominators, in dimension ``dim`` (1-3 when
    not given)."""
    if dim is None:
        dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        m = draw(st.integers(2, 5))
        cells = draw(st.lists(st.booleans(), min_size=m**dim, max_size=m**dim))
        return devoxelize(VoxelSet(m, np.array(cells).reshape((m,) * dim)))
    return _box_union(draw, [draw(st.sampled_from(PRIMES)) for _ in range(dim)])


@st.composite
def big_denominator_sets(draw, dim=None):
    """A union of 1-6 boxes whose coordinates on each axis have a
    denominator of 2^25 to 2^92, at least 2^63 on axis 0, in dimension
    ``dim`` (1-3 when not given)."""
    if dim is None:
        dim = draw(st.integers(1, 3))
    dens = [draw(st.sampled_from(BIG_DENOMINATORS[-2:]))]
    dens += [draw(st.sampled_from(BIG_DENOMINATORS)) for _ in range(dim - 1)]
    return _box_union(draw, dens)


def _box_union(draw, dens):
    """A union of 1-6 random boxes with coordinates k/p, p = ``dens[i]``
    on axis ``i``."""
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = [], []
        for p in dens:
            a = draw(st.integers(0, p - 1))
            b = draw(st.integers(a + 1, p))
            lo.append(F(a, p))
            hi.append(F(b, p))
        boxes.append(box(lo, hi))
    return CubicalSet.from_boxes(len(dens), boxes)


@st.composite
def two_cell_sets(draw, dim=None, monotone=False):
    """Random occupancy of a grid with one random cut per axis, in
    dimension ``dim`` (1-3 when not given): the grids special sets live on.
    With ``monotone``, every cell below an occupied one is occupied too, at
    least one cell but never the top one is drawn, and a set of volume
    above 1/2 is replaced by its complement flipped on every axis, so the
    set is special."""
    if dim is None:
        dim = draw(st.integers(1, 3))
    grids = []
    for _ in range(dim):
        p = draw(st.sampled_from(PRIMES))
        grids.append([F(0), F(draw(st.integers(1, p - 1)), p), F(1)])
    cells = list(itertools.product((0, 1), repeat=dim))
    if monotone:
        # the top cell would close down to the full cube
        drawn = [c for c in cells[:-1] if draw(st.booleans())] or cells[:1]
        drawn = [c for c in cells if any(all(a <= b for a, b in zip(c, d)) for d in drawn)]
    else:
        drawn = [cell for cell in cells if draw(st.booleans())]
    boxes = [
        box([g[i] for g, i in zip(grids, cell)], [g[i + 1] for g, i in zip(grids, cell)])
        for cell in drawn
    ]
    x = CubicalSet.from_boxes(dim, boxes)
    if monotone and x.volume() > F(1, 2):
        x = x.complement().apply(CubeIsometry(tuple(range(dim)), (True,) * dim))
    return x
