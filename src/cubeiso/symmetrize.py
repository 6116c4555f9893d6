"""Steiner symmetrization of cubical sets.

Symmetrizing along an axis replaces every line parallel to that axis by an
interval of the same measure anchored at the coordinate-zero wall: the
result is the subgraph of the column measures over the grid perpendicular to
that axis.  The operation preserves volume, never increases relative
perimeter, and its common fixed points are exactly the monotone "staircase"
sets, whose occupancy grid never increases along any axis.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError, InternalCheckError
from .geometry import CubicalSet, _int_array, _is_monotone_cells

__all__ = [
    "steiner",
    "is_symmetrized",
    "symmetrize_all",
]


def steiner(x: CubicalSet, axis: int) -> CubicalSet:
    """Steiner symmetrization of ``x`` in direction ``axis``; exact.

    Each column's height is the sum of the integer widths of its occupied
    cells over the common denominator of the axis's cuts; the result is
    the subgraph, whose cuts along the axis are the distinct heights with
    0 and 1."""
    if not 0 <= axis < x.dim:
        raise DomainError(f"axis {axis} out of range for dim {x.dim}")
    widths, dens = x._widths()
    den = dens[axis]
    w = _int_array(widths[axis], den)  # no column is higher than den
    heights = np.dot(np.moveaxis(x.occ, axis, -1).astype(w.dtype), w)
    tops = sorted(set(np.ravel(heights).tolist()) | {0, den})
    # a column covers the cell above cut t exactly when it is higher than t
    occ = np.asarray(heights)[..., None] > np.array(tops[:-1], dtype=w.dtype)
    grids = [*x.grids[:axis], [Fraction(t, den) for t in tops], *x.grids[axis + 1:]]
    return CubicalSet(grids, np.moveaxis(occ, -1, axis))


def is_symmetrized(x: CubicalSet) -> bool:
    """True when ``x`` is a fixed point of every axis symmetrization, that
    is, when its occupancy grid never increases along any axis.  Read once
    per set and cached on it."""
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
