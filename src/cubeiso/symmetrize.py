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

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, InternalCheckError
from .geometry import (
    ONE,
    ZERO,
    CubicalSet,
    _int_array,
    _is_monotone_cells,
    _neighbours,
    _scaled,
    _scaled_widths,
    _weigh,
)

__all__ = [
    "steiner",
    "is_symmetrized",
    "symmetrize_all",
]


# -- height profiles ---------------------------------------------------------


class _Profile:
    """Height function of a set over the grid perpendicular to one axis.

    ``heights`` holds the column measure of every base cell as an integer
    over ``den``, the common denominator of the cuts along ``axis``;
    ``widths`` and ``dens`` are the base grid's integer cell widths and
    denominators (see :func:`geometry._scaled_widths`).  Every answer is
    summed in integers and returned as Fractions.  Never mutated; a set
    caches one per axis (see :func:`_height_profile`)."""

    __slots__ = ("axis", "grids", "heights", "den", "widths", "dens")

    def __init__(self, axis, grids, heights: np.ndarray, den: int):
        self.axis = axis
        self.grids = grids  # per base axis: sorted cuts including 0 and 1
        self.heights = heights  # int64 or Python ints, see _read_profile
        self.den = den
        self.widths, self.dens = _scaled_widths(grids)

    def weigh(self, counts: np.ndarray) -> Fraction:
        """Sum of ``counts`` over the base cells, weighted by cell measure."""
        return Fraction(_weigh(counts, self.widths), math.prod(self.dens))

    def level_cells(self, s: Fraction) -> np.ndarray:
        """Mask of the base cells whose height is ``s``."""
        h = s * self.den
        if h.denominator != 1:
            return np.zeros(self.heights.shape, dtype=bool)
        return self.heights == h.numerator

    def level_area(self, s: Fraction) -> Fraction:
        return self.weigh(self.level_cells(s))

    def _distinct(self) -> set:
        return set(self.heights.ravel().tolist())

    def levels(self) -> list[Fraction]:
        return [Fraction(h, self.den) for h in sorted(self._distinct())]

    def interior_levels(self) -> list[Fraction]:
        return [v for v in self.levels() if ZERO < v < ONE]

    def volume(self) -> Fraction:
        return self.weigh(self.heights) / self.den

    def to_set(self) -> CubicalSet:
        """The subgraph: each column is the interval [0, height].  Its cuts
        along the axis are the distinct heights with 0 and 1."""
        tops = sorted(self._distinct() | {0, self.den})
        # a column covers the cell above cut t exactly when it is higher than t
        occ = self.heights[..., None] > np.array(tops[:-1], dtype=self.heights.dtype)
        cuts = [Fraction(t, self.den) for t in tops]
        grids = [*self.grids[: self.axis], cuts, *self.grids[self.axis:]]
        return CubicalSet(grids, np.moveaxis(occ, -1, self.axis))

    def relative_perimeter(self) -> Fraction:
        """Caps plus wall differences: over ``den`` times the base
        denominators, each column strictly between the walls adds its cell
        measure, and each pair of adjacent columns adds its height
        difference times the area of the face between them."""
        h, den = self.heights, self.den
        caps = (h > 0) & (h < den)
        total = den * _weigh(caps, self.widths)
        for j, d in enumerate(self.dens):
            lower, upper = _neighbours(h, j)
            rise = abs(upper - lower).sum(axis=j)  # per line along base axis j
            total += d * _weigh(rise, self.widths[:j] + self.widths[j + 1:])
        return Fraction(total, den * math.prod(self.dens))


def _height_profile(x: CubicalSet, axis: int) -> _Profile:
    """The height profile of ``x`` along ``axis``, built once per set from
    its occupancy and the cut widths."""
    return x._cached(("profile", axis), lambda: _read_profile(x, axis))


def _read_profile(x: CubicalSet, axis: int) -> _Profile:
    """Each column's height: the summed integer widths of its occupied
    cells, over the common denominator of the axis's cuts."""
    cuts, den = _scaled(x.grids[axis])
    base = x.grids[:axis] + x.grids[axis + 1:]
    # no height, difference of heights or sum of the differences along a
    # line of the base grid exceeds den times the longest axis of cells
    bound = den * max(x.occ.shape)
    widths = _int_array([b - a for a, b in zip(cuts, cuts[1:])], bound)
    columns = np.moveaxis(x.occ, axis, -1).astype(widths.dtype)
    heights = np.asarray(np.dot(columns, widths), dtype=widths.dtype)
    return _Profile(axis, base, heights, den)


# -- symmetrization ------------------------------------------------------------


def steiner(x: CubicalSet, axis: int) -> CubicalSet:
    """Steiner symmetrization of ``x`` in direction ``axis``; exact."""
    if not 0 <= axis < x.dim:
        raise DomainError(f"axis {axis} out of range for dim {x.dim}")
    return _height_profile(x, axis).to_set()


def is_symmetrized(x: CubicalSet) -> bool:
    """True when ``x`` is a fixed point of every axis symmetrization, that
    is, when its occupancy grid never increases along any axis.  Read once
    per set and cached on it, like its height profiles."""
    return x._cached("is_symmetrized", lambda: _is_monotone_cells(x.occ, x.dim))


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
