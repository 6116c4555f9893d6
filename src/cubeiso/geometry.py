"""Exact geometry of axis-aligned box unions in the unit cube.

A :class:`CubicalSet` is a closed subset of ``[0,1]^n`` whose boundary lies
in finitely many axis-orthogonal hyperplanes, stored as a canonical list of
pairwise interior-disjoint closed boxes with rational corners.  All
arithmetic uses :class:`fractions.Fraction`; nothing in this module rounds.

Every grid computation works on one occupancy grid: per axis, the sorted
distinct box coordinates together with 0 and 1 cut the cube into cells, and
a boolean array marks the occupied ones.  Canonical form greedily re-merges
the occupied cells along axis 0, then 1, and so on.  Two sets are equal as
point sets (up to measure zero, which the closed canonicalisation erases)
exactly when their canonical box tuples are equal.  Relative perimeter is a
weighted count of the faces between adjacent cells of different occupancy.

Every interior cut of a canonical set is a singular point: the occupancy
changes across it somewhere.  On axis 0 a box boundary survives the merge
only where a run of occupied cells in a line ends.  The merge along a later
axis ``k`` joins boxes already merged along axes ``0..k-1``, which depend
only on the occupancy of their line (``k = 1``) or slab (``k = 2``) of
cells, so a boundary survives on axis ``k`` only where two neighbouring
lines or slabs differ.  The grid therefore lists the singular points, and a
set with at most one singular point per axis lives on at most two cells per
axis.

The same occupancy kernels (face counts, the Steiner column push, signed
axis permutations, the monotonicity test) serve :class:`VoxelSet` and
batches of voxel sets: each acts on the trailing ``dim`` axes of a boolean
array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    AlignmentError,
    DimensionMismatchError,
    DomainError,
    UnitCubeError,
)

Rat = Fraction
RatLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(value: RatLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class AxisBox:
    """A closed axis-aligned box ``prod_i [lo_i, hi_i]`` inside [0,1]^n.

    Degenerate boxes (``lo_i >= hi_i`` on some axis) are rejected.
    """

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionMismatchError("lo/hi length mismatch")
        for a, b in zip(self.lo, self.hi):
            if not (ZERO <= a < b <= ONE):
                raise UnitCubeError(
                    f"box side [{a}, {b}] is degenerate or outside [0,1]"
                )

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> Fraction:
        v = ONE
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def contains(self, point: Sequence[Fraction]) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lo, point, self.hi))

    def project(self, axis: int) -> "AxisBox":
        """Drop one axis, producing a (dim-1)-dimensional box."""
        lo = self.lo[:axis] + self.lo[axis + 1:]
        hi = self.hi[:axis] + self.hi[axis + 1:]
        return AxisBox(lo, hi)

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        return self.lo[axis], self.hi[axis]


def box(lo: Sequence[RatLike], hi: Sequence[RatLike]) -> AxisBox:
    """Convenience constructor accepting ints / 'p/q' strings."""
    return AxisBox(tuple(as_rat(x) for x in lo), tuple(as_rat(x) for x in hi))


def _merge_along(index_boxes: list, axis: int) -> list:
    """Greedily merge index-interval boxes that are adjacent along ``axis``
    and identical elsewhere.  Input and output are lists of per-axis
    (start, stop) grid-index pairs."""
    groups: dict = {}
    for b in index_boxes:
        key = b[:axis] + b[axis + 1:]
        groups.setdefault(key, []).append(b[axis])
    merged = []
    for key, intervals in groups.items():
        intervals.sort()
        start, stop = intervals[0]
        for s, t in intervals[1:]:
            if s == stop:
                stop = t
            else:
                merged.append(key[:axis] + ((start, stop),) + key[axis:])
                start, stop = s, t
        merged.append(key[:axis] + ((start, stop),) + key[axis:])
    return merged


class CubicalSet:
    """Canonical closed union of axis-aligned boxes in [0,1]^n."""

    __slots__ = ("dim", "boxes", "_volume", "_relper")

    def __init__(self, dim: int, boxes: Iterable[AxisBox], *, _canonical=False):
        boxes = tuple(boxes)
        if not _canonical:
            boxes = _canonicalize(dim, boxes)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "_volume", None)
        object.__setattr__(self, "_relper", None)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("CubicalSet is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_boxes(dim: int, boxes: Iterable[AxisBox]) -> "CubicalSet":
        """Normalize a (possibly overlapping) collection of boxes."""
        return CubicalSet(dim, boxes)

    @staticmethod
    def from_coords(dim: int, pairs: Iterable[tuple]) -> "CubicalSet":
        """Build from ``(lo, hi)`` coordinate pairs (ints / 'p/q' allowed)."""
        return CubicalSet(dim, [box(lo, hi) for lo, hi in pairs])

    @staticmethod
    def empty(dim: int) -> "CubicalSet":
        return CubicalSet(dim, (), _canonical=True)

    @staticmethod
    def unit(dim: int) -> "CubicalSet":
        if dim == 0:
            return CubicalSet(0, (AxisBox((), ()),), _canonical=True)
        return CubicalSet(
            dim, (AxisBox((ZERO,) * dim, (ONE,) * dim),), _canonical=True
        )

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicalSet)
            and self.dim == other.dim
            and self.boxes == other.boxes
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.boxes))

    def __repr__(self) -> str:
        inner = ", ".join(
            "[" + " x ".join(f"({a},{b})" for a, b in zip(bx.lo, bx.hi)) + "]"
            for bx in self.boxes[:4]
        )
        more = "" if len(self.boxes) <= 4 else f", ... ({len(self.boxes)} boxes)"
        return f"CubicalSet(dim={self.dim}, {inner}{more})"

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, point: Sequence[RatLike]) -> bool:
        """Closed-set membership of a rational point."""
        p = tuple(as_rat(x) for x in point)
        if len(p) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return any(b.contains(p) for b in self.boxes)

    # -- measures ----------------------------------------------------------

    def volume(self) -> Fraction:
        if self._volume is None:
            v = sum((b.volume() for b in self.boxes), ZERO)
            object.__setattr__(self, "_volume", v)
        return self._volume

    def relative_perimeter(self) -> Fraction:
        """(n-1)-measure of the boundary away from the cube walls.

        A weighted face count on the set's occupancy grid: every pair of
        adjacent cells with different occupancy adds the exact area of the
        face the two cells share.
        """
        if self._relper is None:
            grids, occ = _occupancy(self)
            object.__setattr__(self, "_relper", _face_area(grids, occ))
        return self._relper

    # -- grids and sections --------------------------------------------

    def coords(self, axis: int) -> list[Fraction]:
        """Sorted distinct box coordinates on one axis."""
        s = {b.lo[axis] for b in self.boxes} | {b.hi[axis] for b in self.boxes}
        return sorted(s)

    def internal_coords(self, axis: int) -> list[Fraction]:
        return [c for c in self.coords(axis) if ZERO < c < ONE]

    def cross_section(self, axis: int, s: RatLike, side: str) -> "CubicalSet":
        """One-sided limit cross-section perpendicular to ``axis`` at ``s``.

        ``side='below'`` gives ``{y : y + t e_axis in X for t just below s}``,
        ``side='above'`` the same from above.  The result has dimension n-1.
        """
        s = as_rat(s)
        if not 0 <= axis < self.dim:
            raise DomainError(f"axis {axis} out of range for dim {self.dim}")
        if not ZERO <= s <= ONE:
            raise DomainError(f"position {s} outside [0,1]")
        if side == "below":
            if s == ZERO:
                raise DomainError("no cross-section below 0")
            picked = [b for b in self.boxes if b.lo[axis] < s <= b.hi[axis]]
        elif side == "above":
            if s == ONE:
                raise DomainError("no cross-section above 1")
            picked = [b for b in self.boxes if b.lo[axis] <= s < b.hi[axis]]
        else:
            raise DomainError(f"side must be 'below' or 'above', got {side!r}")
        return CubicalSet(self.dim - 1, [b.project(axis) for b in picked])

    def boundary_slice(self, axis: int, s: RatLike) -> "CubicalSet":
        """Closure of the two-sided cross-section difference at an interior
        plane; has positive (n-1)-measure exactly at singular points."""
        s = as_rat(s)
        if not ZERO < s < ONE:
            raise DomainError("boundary slices live at interior planes")
        return self.cross_section(axis, s, "below").sym_difference(
            self.cross_section(axis, s, "above")
        )

    # -- boolean algebra -----------------------------------------------

    def union(self, other: "CubicalSet") -> "CubicalSet":
        return _combine(self, other, np.logical_or)

    def intersection(self, other: "CubicalSet") -> "CubicalSet":
        return _combine(self, other, np.logical_and)

    def difference(self, other: "CubicalSet") -> "CubicalSet":
        return _combine(self, other, lambda a, b: a & ~b)

    def sym_difference(self, other: "CubicalSet") -> "CubicalSet":
        return _combine(self, other, np.logical_xor)

    def complement(self) -> "CubicalSet":
        """Closure of ``[0,1]^n \\ X``; preserves relative perimeter."""
        return CubicalSet.unit(self.dim).difference(self)

    # -- isometries ------------------------------------------------------

    def apply(self, iso: "CubeIsometry") -> "CubicalSet":
        if iso.dim != self.dim:
            raise DimensionMismatchError("isometry dimension mismatch")
        return CubicalSet(self.dim, [iso.apply_box(b) for b in self.boxes])


# -- the occupancy grid -------------------------------------------------------


def _cuts(dim: int, boxes: Iterable[AxisBox]) -> list[list[Fraction]]:
    """Per axis, the sorted distinct box coordinates together with 0 and 1."""
    grids = []
    for i in range(dim):
        s = {ZERO, ONE}
        for b in boxes:
            s.update(b.interval(i))
        grids.append(sorted(s))
    return grids


def _fill(grids: list, boxes: Iterable[AxisBox]) -> np.ndarray:
    """Occupancy array of the grid cells covered by the boxes."""
    index = [{c: k for k, c in enumerate(g)} for g in grids]
    shape = tuple(len(g) - 1 for g in grids)
    occ = np.zeros(shape, dtype=bool)
    for b in boxes:
        sl = tuple(
            slice(index[i][b.lo[i]], index[i][b.hi[i]]) for i in range(b.dim)
        )
        occ[sl] = True
    return occ


def _occupancy(x: CubicalSet) -> tuple[list[list[Fraction]], np.ndarray]:
    """The set's cuts per axis and its occupancy array on their cells."""
    grids = _cuts(x.dim, x.boxes)
    return grids, _fill(grids, x.boxes)


def _grid_boxes(grids: list, occ: np.ndarray) -> tuple[AxisBox, ...]:
    """Canonical boxes of the occupied cells of a grid."""
    idx_boxes = [
        tuple((int(i), int(i) + 1) for i in cell) for cell in np.argwhere(occ)
    ]
    for axis in range(len(grids)):
        idx_boxes = _merge_along(idx_boxes, axis)
    out = []
    for cell in idx_boxes:
        lo = tuple(g[a] for g, (a, _) in zip(grids, cell))
        hi = tuple(g[b] for g, (_, b) in zip(grids, cell))
        out.append(AxisBox(lo, hi))
    out.sort(key=lambda b: (b.lo, b.hi))
    return tuple(out)


def _canonicalize(dim: int, boxes: tuple) -> tuple:
    for b in boxes:
        if b.dim != dim:
            raise DimensionMismatchError(
                f"box of dim {b.dim} in a dim-{dim} set"
            )
    grids = _cuts(dim, boxes)
    return _grid_boxes(grids, _fill(grids, boxes))


def _combine(x: CubicalSet, y: CubicalSet, op) -> CubicalSet:
    if x.dim != y.dim:
        raise DimensionMismatchError("boolean operation dimension mismatch")
    grids = _cuts(x.dim, x.boxes + y.boxes)
    occ = op(_fill(grids, x.boxes), _fill(grids, y.boxes))
    return CubicalSet(x.dim, _grid_boxes(grids, occ), _canonical=True)


def _face_area(grids: list, occ: np.ndarray) -> Fraction:
    """Total area of the faces between adjacent cells of different
    occupancy; faces on the cube walls do not count."""
    widths = [[b - a for a, b in zip(g, g[1:])] for g in grids]
    total = ZERO
    for axis in range(len(grids)):
        cells, succ = _neighbours(occ, axis)
        changes = np.count_nonzero(cells != succ, axis=axis)  # per line
        others = widths[:axis] + widths[axis + 1:]
        for idx in np.argwhere(changes):
            area = ONE
            for w, i in zip(others, idx):
                area *= w[i]
            total += int(changes[tuple(idx)]) * area
    return total


# -- occupancy kernels: the trailing ``dim`` axes of ``occ`` hold one set ------


def _neighbours(occ: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of every cell that has a successor along ``axis``, and of
    that successor."""
    before = (slice(None),) * (axis % occ.ndim)
    return occ[before + (slice(None, -1),)], occ[before + (slice(1, None),)]


def _face_counts(occ: np.ndarray, dim: int):
    """Number of faces between adjacent cells of different occupancy."""
    lead = occ.ndim - dim
    sets = tuple(range(lead, occ.ndim)) if lead else None
    total = 0
    for axis in range(lead, occ.ndim):
        cells, succ = _neighbours(occ, axis)
        total = total + np.count_nonzero(cells != succ, axis=sets)
    return total


def _steiner_cells(occ: np.ndarray, dim: int, axis: int) -> np.ndarray:
    """Push every column along ``axis`` down to a run anchored at cell 0."""
    axis -= dim
    heights = occ.sum(axis=axis, keepdims=True)
    ramp = np.arange(occ.shape[axis]).reshape((-1,) + (1,) * (-axis - 1))
    return ramp < heights


def _transform_cells(occ: np.ndarray, dim: int, perm, flip) -> np.ndarray:
    """Signed axis permutation: axis ``i`` of the result reads source axis
    ``perm[i]``, reversed where ``flip[i]``."""
    lead = occ.ndim - dim
    arr = np.transpose(occ, tuple(range(lead)) + tuple(lead + p for p in perm))
    return arr[(...,) + tuple(slice(None, None, -1 if f else 1) for f in flip)]


def _is_monotone_cells(occ: np.ndarray, dim: int) -> bool:
    """True when occupancy never increases along any axis."""
    for axis in range(occ.ndim - dim, occ.ndim):
        cells, succ = _neighbours(occ, axis)
        if np.any(succ & ~cells):
            return False
    return True


def _all_subsets(dim: int, res: int) -> np.ndarray:
    """Every subset of the m^n grid as one batch: set ``k`` holds the cell
    of flat index ``i`` exactly when bit ``i`` of ``k`` is set."""
    n_cells = res**dim
    masks = np.arange(1 << n_cells, dtype=np.uint64)[:, None]
    bits = (masks >> np.arange(n_cells, dtype=np.uint64)) & 1
    return bits.astype(bool).reshape((1 << n_cells,) + (res,) * dim)


# -- isometries of the cube -------------------------------------------------


@dataclass(frozen=True)
class CubeIsometry:
    """A signed axis permutation of [0,1]^n.

    ``perm[i]`` is the source axis read by output axis ``i``; ``flip[i]``
    reflects that coordinate (``x -> 1 - x``) afterwards.  These 2^n * n!
    maps form the full isometry group of the cube fixing its center lattice.
    """

    perm: tuple[int, ...]
    flip: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.flip) != n:
            raise DomainError("invalid isometry data")

    @property
    def dim(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "CubeIsometry":
        return CubeIsometry(tuple(range(n)), (False,) * n)

    def apply_point(self, p: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for i in range(self.dim):
            v = p[self.perm[i]]
            out.append(ONE - v if self.flip[i] else v)
        return tuple(out)

    def apply_box(self, b: AxisBox) -> AxisBox:
        lo, hi = [], []
        for i in range(self.dim):
            a, c = b.interval(self.perm[i])
            if self.flip[i]:
                a, c = ONE - c, ONE - a
            lo.append(a)
            hi.append(c)
        return AxisBox(tuple(lo), tuple(hi))

    def compose(self, other: "CubeIsometry") -> "CubeIsometry":
        """Return self applied after ``other``."""
        if self.dim != other.dim:
            raise DimensionMismatchError("isometry dimension mismatch")
        perm = tuple(other.perm[self.perm[i]] for i in range(self.dim))
        flip = tuple(
            self.flip[i] ^ other.flip[self.perm[i]] for i in range(self.dim)
        )
        return CubeIsometry(perm, flip)

    def inverse(self) -> "CubeIsometry":
        n = self.dim
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        flip = tuple(self.flip[inv[k]] for k in range(n))
        return CubeIsometry(tuple(inv), flip)


def all_isometries(n: int) -> Iterator[CubeIsometry]:
    """Enumerate the hyperoctahedral group of [0,1]^n (2^n * n! elements)."""
    for perm in itertools.permutations(range(n)):
        for flips in itertools.product((False, True), repeat=n):
            yield CubeIsometry(perm, flips)


def equal_up_to_isometry(
    x: CubicalSet, y: CubicalSet
) -> Optional[CubeIsometry]:
    """Witness isometry ``g`` with ``g(x) == y``, or None."""
    if x.dim != y.dim:
        raise DimensionMismatchError("cannot compare sets of different dim")
    if x.volume() != y.volume() or len(x.boxes) != len(y.boxes):
        return None
    for g in all_isometries(x.dim):
        if x.apply(g) == y:
            return g
    return None


# -- voxel grids -------------------------------------------------------------


class VoxelSet:
    """Occupancy of the regular m^n grid on [0,1]^n.

    Cell ``(a_1, ..., a_n)`` is the box ``prod [a_i/m, (a_i+1)/m]``; the
    array is indexed in that axis order.
    """

    __slots__ = ("res", "cells")

    def __init__(self, res: int, cells: np.ndarray):
        if res < 1:
            raise DomainError("resolution must be >= 1")
        cells = np.ascontiguousarray(cells, dtype=bool)
        if any(s != res for s in cells.shape):
            raise DimensionMismatchError("occupancy shape must be (m,)*n")
        self.res = res
        self.cells = cells

    @property
    def dim(self) -> int:
        return self.cells.ndim

    @staticmethod
    def from_indices(dim: int, res: int, flat: Iterable[int]) -> "VoxelSet":
        occ = np.zeros(res**dim, dtype=bool)
        for i in flat:
            if not 0 <= i < res**dim:
                raise DomainError(f"cell index {i} out of range")
            occ[i] = True
        return VoxelSet(res, occ.reshape((res,) * dim))

    def flat_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.cells.ravel())]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VoxelSet)
            and self.res == other.res
            and self.dim == other.dim
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __hash__(self):
        return hash((self.res, self.dim, self.cells.tobytes()))

    def count(self) -> int:
        return int(self.cells.sum())

    def volume(self) -> Fraction:
        return Fraction(self.count(), self.res**self.dim)

    def face_count(self) -> int:
        """Number of interior cell faces on the boundary (cube walls excluded)."""
        return int(_face_counts(self.cells, self.dim))

    def relative_perimeter(self) -> Fraction:
        return Fraction(self.face_count(), self.res ** (self.dim - 1))

    def steiner(self, axis: int) -> "VoxelSet":
        """Push every column along ``axis`` down to an anchored run."""
        return VoxelSet(self.res, _steiner_cells(self.cells, self.dim, axis))

    def is_monotone(self) -> bool:
        """True when occupancy is non-increasing along every axis."""
        return _is_monotone_cells(self.cells, self.dim)

    def apply(self, iso: CubeIsometry) -> "VoxelSet":
        if iso.dim != self.dim:
            raise DimensionMismatchError("isometry dimension mismatch")
        return VoxelSet(
            self.res, _transform_cells(self.cells, self.dim, iso.perm, iso.flip)
        )

    def orbit_key(self) -> bytes:
        """Lexicographically smallest occupancy bytes over the full group."""
        best = None
        for g in all_isometries(self.dim):
            b = self.apply(g).cells.tobytes()
            if best is None or b < best:
                best = b
        return best

    def to_cubical(self) -> CubicalSet:
        return devoxelize(self)


def voxelize(x: CubicalSet, res: int) -> VoxelSet:
    """Exact conversion; every coordinate of ``x`` must be a multiple of 1/m."""
    for b in x.boxes:
        for c in b.lo + b.hi:
            if (c * res).denominator != 1:
                raise AlignmentError(c, res)
    return VoxelSet(res, _fill(_uniform_grids(x.dim, res), x.boxes))


def devoxelize(v: VoxelSet) -> CubicalSet:
    """Canonical box union of the occupied cells."""
    boxes = _grid_boxes(_uniform_grids(v.dim, v.res), v.cells)
    return CubicalSet(v.dim, boxes, _canonical=True)


def _uniform_grids(dim: int, res: int) -> list[list[Fraction]]:
    return [[Fraction(k, res) for k in range(res + 1)]] * dim


# -- boundary faces (for mesh export and slice analysis) ---------------------


def boundary_faces(
    x: CubicalSet,
) -> list[tuple[int, Fraction, CubicalSet]]:
    """All interior boundary pieces as ``(axis, position, region)`` with the
    region an (n-1)-dimensional set in the plane's own coordinates."""
    out = []
    for axis in range(x.dim):
        for s in x.internal_coords(axis):
            region = x.boundary_slice(axis, s)
            if not region.is_empty:
                out.append((axis, s, region))
    return out
