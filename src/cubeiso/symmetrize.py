"""Steiner symmetrization of cubical sets.

Symmetrizing along an axis replaces every line parallel to that axis by an
interval of the same measure anchored at the coordinate-zero wall: the
result is the subgraph of the set's height profile, the column measures over
the grid perpendicular to that axis.  The operation preserves volume, never
increases relative perimeter, and its common fixed points are exactly the
monotone "staircase" sets, whose occupancy grid never increases along any
axis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .geometry import (
    ONE,
    ZERO,
    AxisBox,
    CubicalSet,
    _cuts,
    _is_monotone_cells,
    _occupancy,
)

__all__ = [
    "steiner",
    "is_symmetrized",
    "symmetrize_all",
]


# -- height profiles ---------------------------------------------------------


class _Profile:
    """Height function of a set over the grid perpendicular to one axis:
    ``heights[idx]`` is the column measure of the grid cell."""

    __slots__ = ("dim", "axis", "grids", "heights")

    def __init__(self, dim, axis, grids, heights):
        self.dim = dim
        self.axis = axis
        self.grids = grids  # per base axis: sorted cuts including 0 and 1
        self.heights = heights  # dict: cell index tuple -> Fraction

    def cell_area(self, idx) -> Fraction:
        a = ONE
        for g, i in zip(self.grids, idx):
            a *= g[i + 1] - g[i]
        return a

    def level_cells(self, s: Fraction) -> list:
        return [idx for idx, h in self.heights.items() if h == s]

    def level_area(self, s: Fraction) -> Fraction:
        return sum((self.cell_area(i) for i in self.level_cells(s)), ZERO)

    def levels(self) -> list[Fraction]:
        return sorted({h for h in self.heights.values()})

    def interior_levels(self) -> list[Fraction]:
        return [v for v in self.levels() if ZERO < v < ONE]

    def volume(self) -> Fraction:
        return sum(
            (h * self.cell_area(idx) for idx, h in self.heights.items()), ZERO
        )

    def edge_length(self, idx, j) -> Fraction:
        e = ONE
        for k, g in enumerate(self.grids):
            if k != j:
                e *= g[idx[k] + 1] - g[idx[k]]
        return e

    def to_set(self) -> CubicalSet:
        """The subgraph: each column is the interval [0, height]."""
        boxes = []
        for idx, h in self.heights.items():
            if h == 0:
                continue
            lo = [self.grids[k][i] for k, i in enumerate(idx)]
            hi = [self.grids[k][i + 1] for k, i in enumerate(idx)]
            lo.insert(self.axis, ZERO)
            hi.insert(self.axis, h)
            boxes.append(AxisBox(tuple(lo), tuple(hi)))
        return CubicalSet.from_boxes(self.dim, boxes)

    def relative_perimeter(self) -> Fraction:
        """Caps plus wall differences; valid for monotone height functions."""
        total = ZERO
        for idx, h in self.heights.items():
            if ZERO < h < ONE:
                total += self.cell_area(idx)
            for j in range(len(self.grids)):
                if idx[j] + 1 > len(self.grids[j]) - 2:
                    continue  # neighbour would be past the far wall
                nb = idx[:j] + (idx[j] + 1,) + idx[j + 1:]
                diff = h - self.heights[nb]
                if diff != 0:
                    total += abs(diff) * self.edge_length(idx, j)
        return total


def _build_profile(x: CubicalSet, axis: int) -> _Profile:
    grids = _cuts(x.dim, x.boxes)
    del grids[axis]
    heights = dict.fromkeys(
        itertools.product(*[range(len(g) - 1) for g in grids]), ZERO
    )
    index = [{c: k for k, c in enumerate(g)} for g in grids]
    for b in x.boxes:
        lo = b.lo[:axis] + b.lo[axis + 1:]
        hi = b.hi[:axis] + b.hi[axis + 1:]
        length = b.hi[axis] - b.lo[axis]
        spans = [range(ix[a], ix[c]) for ix, a, c in zip(index, lo, hi)]
        for idx in itertools.product(*spans):
            heights[idx] += length
    return _Profile(x.dim, axis, grids, heights)


# -- symmetrization ------------------------------------------------------------


def steiner(x: CubicalSet, axis: int) -> CubicalSet:
    """Steiner symmetrization of ``x`` in direction ``axis``; exact."""
    if not 0 <= axis < x.dim:
        raise DomainError(f"axis {axis} out of range for dim {x.dim}")
    return _build_profile(x, axis).to_set()


def is_symmetrized(x: CubicalSet) -> bool:
    """True when ``x`` is a fixed point of every axis symmetrization, that
    is, when its occupancy grid never increases along any axis."""
    return _is_monotone_cells(_occupancy(x)[1], x.dim)


def symmetrize_all(x: CubicalSet) -> CubicalSet:
    """Symmetrize along axes 0, 1, ..., n-1 in order.

    One ascending pass suffices because later symmetrizations keep earlier
    axes fixed; a defensive post-check guards that argument rather than
    silently iterating.
    """
    y = x
    for i in range(x.dim):
        y = steiner(y, i)
    if not is_symmetrized(y):
        raise InternalCheckError(
            "single ascending pass failed to reach a symmetrization fixed point"
        )
    return y
