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

import numpy as np

from .errors import DomainError, InternalCheckError
from .geometry import ONE, ZERO, CubicalSet, _is_monotone_cells

__all__ = [
    "steiner",
    "is_symmetrized",
    "symmetrize_all",
]


# -- height profiles ---------------------------------------------------------


class _Profile:
    """Height function of a set over the grid perpendicular to one axis:
    ``heights[idx]`` is the column measure of the grid cell.  Never
    mutated; a set caches one per axis (see :func:`_height_profile`)."""

    __slots__ = ("axis", "grids", "heights")

    def __init__(self, axis, grids, heights):
        self.axis = axis
        self.grids = grids  # per base axis: sorted cuts including 0 and 1
        self.heights = heights  # dict: cell index tuple -> Fraction

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(g) - 1 for g in self.grids)

    def cell_area(self, idx, skip=None) -> Fraction:
        """Measure of the base cell ``idx``; with ``skip``, of its face
        across base axis ``skip``."""
        a = ONE
        for k, (g, i) in enumerate(zip(self.grids, idx)):
            if k != skip:
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
        return sum((h * self.cell_area(i) for i, h in self.heights.items()), ZERO)

    def to_set(self) -> CubicalSet:
        """The subgraph: each column is the interval [0, height].  Its cuts
        along the axis are the distinct heights with 0 and 1."""
        cuts = sorted(set(self.heights.values()) | {ZERO, ONE})
        index = {c: k for k, c in enumerate(cuts)}
        top = np.array([index[h] for h in self.heights.values()], dtype=np.intp)
        occ = np.arange(len(cuts) - 1) < top.reshape(self.shape + (1,))
        grids = [*self.grids[: self.axis], cuts, *self.grids[self.axis:]]
        return CubicalSet(grids, np.moveaxis(occ, -1, self.axis))

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
                    total += abs(diff) * self.cell_area(idx, j)
        return total


def _height_profile(x: CubicalSet, axis: int) -> _Profile:
    """The height profile of ``x`` along ``axis``, built once per set from
    its occupancy and the cut widths."""
    return x._cached(("profile", axis), lambda: _read_profile(x, axis))


def _read_profile(x: CubicalSet, axis: int) -> _Profile:
    """Each column's height: the summed widths of its occupied cells."""
    g = x.grids[axis]
    widths = [b - a for a, b in zip(g, g[1:])]
    base = x.grids[:axis] + x.grids[axis + 1:]
    columns = np.moveaxis(x.occ, axis, -1).reshape(-1, len(widths)).tolist()
    cells = itertools.product(*(range(len(c) - 1) for c in base))
    heights = {
        idx: sum(itertools.compress(widths, col), ZERO) for idx, col in zip(cells, columns)
    }
    return _Profile(axis, base, heights)


# -- symmetrization ------------------------------------------------------------


def steiner(x: CubicalSet, axis: int) -> CubicalSet:
    """Steiner symmetrization of ``x`` in direction ``axis``; exact."""
    if not 0 <= axis < x.dim:
        raise DomainError(f"axis {axis} out of range for dim {x.dim}")
    return _height_profile(x, axis).to_set()


def is_symmetrized(x: CubicalSet) -> bool:
    """True when ``x`` is a fixed point of every axis symmetrization, that
    is, when its occupancy grid never increases along any axis."""
    return _is_monotone_cells(x.occ, x.dim)


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
