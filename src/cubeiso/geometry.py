"""Exact geometry of orthogonal polyhedra in the unit cube.

A :class:`CubicalSet` is a closed subset of ``[0,1]^n`` whose boundary lies
in finitely many axis-orthogonal hyperplanes.  The set *is* its canonical
occupancy grid: per axis, sorted cuts with 0 and 1 cut the cube into cells,
and a boolean array marks the occupied ones.  Canonical means that
occupancy changes across every interior cut somewhere; building a set from
boxes or from another grid drops zero-width cell rows and then every cut
without such a change.  Two sets are equal as point sets (up to measure
zero, which the closed sets erase) exactly when their cuts and occupancies
are equal.  Its canonical boxes, pairwise interior-disjoint closed boxes
from greedily merging the occupied cells along axis 0, then 1, and so on,
are a view of the grid for output.  Cuts are exact fractions
(:class:`fractions.Fraction`).  Measures scale the cuts of each axis once to
integers over their common denominator, sum integer products of cell widths
(in int64 under a checked overflow bound, else in Python ints) and return
one ``Fraction``; nothing in this module rounds or uses floats.

Volume is a weighted count of occupied cells and relative perimeter a
weighted count of the faces between adjacent cells of different occupancy.
The interior cuts are the singular points: across each, the cross-sections
from below and above differ in a cell of positive measure.  A set with at
most one singular point per axis therefore lives on at most two cells per
axis.

A :class:`VoxelSet` is an integer mask, bit ``i`` holding the cell of flat
index ``i`` of the regular grid.  Its kernels are broadword operations
written once: the face count (shift, XOR and popcount per axis) and the
Steiner column push, which keeps a unary counter in every column and lifts
it by one level for each occupied cell read.  They take one set as a
Python int of any size, or a batch of sets as an unsigned word array whose
words hold the grid, and read strides and masks built once per grid shape.
The signed axis permutations act on boolean occupancy arrays, which a voxel
set decodes to on request.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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
MAX_GRID_CELLS = 1 << 24  # cells of the largest grid built from boxes


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
            # 0 <= a < b <= 1 on numerators over positive denominators
            p, q = a.as_integer_ratio()
            r, t = b.as_integer_ratio()
            if not (0 <= p and p * t < r * q and r <= t):
                raise UnitCubeError(
                    f"box side [{a}, {b}] is degenerate or outside [0,1]"
                )

    @property
    def dim(self) -> int:
        return len(self.lo)


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
    """A closed orthogonal polyhedron in [0,1]^n: its canonical occupancy
    grid, ``grids`` (per axis, the sorted cuts with 0 and 1) and ``occ``
    (the read-only occupancy of their cells).

    The constructor makes any grid with sorted cuts canonical; outside this
    package, sets are built with :meth:`from_boxes` or :meth:`from_coords`.
    Derived values (boxes, measures, the integer cell widths) are cached.
    """

    __slots__ = ("dim", "grids", "occ", "_cache")

    def __init__(self, grids: Sequence[Sequence[Fraction]], occ: np.ndarray):
        grids, occ = _reduce(grids, occ)
        for name, value in zip(self.__slots__, (len(grids), grids, occ, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("CubicalSet is immutable")

    def _cached(self, key, compute):
        """``compute()``, evaluated once per set and key."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_boxes(dim: int, boxes: Iterable[AxisBox]) -> "CubicalSet":
        """The union of a (possibly overlapping) collection of boxes."""
        return CubicalSet(*_canonicalize(dim, tuple(boxes)))

    @staticmethod
    def from_coords(dim: int, pairs: Iterable[tuple]) -> "CubicalSet":
        """Build from ``(lo, hi)`` coordinate pairs (ints / 'p/q' allowed)."""
        return CubicalSet.from_boxes(dim, [box(lo, hi) for lo, hi in pairs])

    @staticmethod
    def empty(dim: int) -> "CubicalSet":
        return CubicalSet([(ZERO, ONE)] * dim, np.zeros((1,) * dim, dtype=bool))

    @staticmethod
    def unit(dim: int) -> "CubicalSet":
        return CubicalSet([(ZERO, ONE)] * dim, np.ones((1,) * dim, dtype=bool))

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicalSet)
            and self.grids == other.grids
            and bool(np.array_equal(self.occ, other.occ))
        )

    def __hash__(self) -> int:
        return self._cached("hash", lambda: hash((self.grids, self.occ.tobytes())))

    def __repr__(self) -> str:
        inner = ", ".join(
            "[" + " x ".join(f"({a},{b})" for a, b in zip(bx.lo, bx.hi)) + "]"
            for bx in self.boxes[:4]
        )
        more = "" if len(self.boxes) <= 4 else f", ... ({len(self.boxes)} boxes)"
        return f"CubicalSet(dim={self.dim}, {inner}{more})"

    @property
    def boxes(self) -> tuple[AxisBox, ...]:
        """Canonical boxes of the occupied cells, in sorted order."""
        return self._cached("boxes", lambda: _grid_boxes(self.grids, self.occ))

    @property
    def is_empty(self) -> bool:
        return not self.occ.any()

    def contains(self, point: Sequence[RatLike]) -> bool:
        """Closed-set membership of a rational point."""
        p = tuple(as_rat(x) for x in point)
        if len(p) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        # per axis, the cells whose closure holds the coordinate: none
        # outside [0,1], two at an interior cut, one elsewhere
        cells = tuple(
            slice(max(bisect_left(g, c) - 1, 0), bisect_right(g, c))
            for g, c in zip(self.grids, p)
        )
        return bool(self.occ[cells].any())

    # -- measures ----------------------------------------------------------

    def _widths(self) -> tuple[list[list[int]], list[int]]:
        """Per axis, the cell widths as integers over the common denominator
        of the axis's cuts (the lcm of their denominators), and those
        denominators; computed once per set."""
        def scale():
            widths, dens = [], []
            for g in self.grids:
                den = math.lcm(*(c.denominator for c in g))
                cuts = [c.numerator * (den // c.denominator) for c in g]
                widths.append([b - a for a, b in zip(cuts, cuts[1:])])
                dens.append(den)
            return widths, dens

        return self._cached("widths", scale)

    def volume(self) -> Fraction:
        """Weighted count of the occupied cells."""
        return self._cached("volume", lambda: _volume(self))

    def relative_perimeter(self) -> Fraction:
        """(n-1)-measure of the boundary away from the cube walls.

        A weighted face count on the occupancy grid: every pair of adjacent
        cells with different occupancy adds the exact area of the face the
        two cells share.
        """
        return self._cached("relper", lambda: _face_area(self))

    # -- grids and sections --------------------------------------------

    def internal_coords(self, axis: int) -> list[Fraction]:
        """The interior cuts of one axis: the singular points."""
        return list(self.grids[axis][1:-1])

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
        g = self.grids[axis]
        if side == "below":
            if s == ZERO:
                raise DomainError("no cross-section below 0")
            row = bisect_left(g, s) - 1  # g[row] < s <= g[row + 1]
        elif side == "above":
            if s == ONE:
                raise DomainError("no cross-section above 1")
            row = bisect_right(g, s) - 1  # g[row] <= s < g[row + 1]
        else:
            raise DomainError(f"side must be 'below' or 'above', got {side!r}")
        rest = self.grids[:axis] + self.grids[axis + 1:]
        return CubicalSet(rest, np.take(self.occ, row, axis=axis))

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
        return CubicalSet(self.grids, ~self.occ)

    # -- isometries ------------------------------------------------------

    def apply(self, iso: "CubeIsometry") -> "CubicalSet":
        if iso.dim != self.dim:
            raise DimensionMismatchError("isometry dimension mismatch")
        grids = [
            tuple(ONE - c for c in reversed(self.grids[p])) if f else self.grids[p]
            for p, f in zip(iso.perm, iso.flip)
        ]
        return CubicalSet(grids, _transform_cells(self.occ, self.dim, iso.perm, iso.flip))


# -- the occupancy grid -------------------------------------------------------


def _reduce(grids, occ) -> tuple[tuple, np.ndarray]:
    """Canonical form of a grid: drop the cell rows between equal cuts, then
    every interior cut across which occupancy does not change."""
    grids = [tuple(g) for g in grids]
    occ = np.asarray(occ, dtype=bool)
    for axis, g in enumerate(grids):
        rows = [k for k in range(len(g) - 1) if g[k] < g[k + 1]]
        if len(rows) < len(g) - 1:
            occ = np.take(occ, rows, axis=axis)
            grids[axis] = (g[0],) + tuple(g[k + 1] for k in rows)
    for axis, g in enumerate(grids):
        cells, succ = _neighbours(occ, axis)
        others = tuple(i for i in range(occ.ndim) if i != axis)
        change = np.any(cells != succ, axis=others)
        if not change.all():
            rows = [0] + [k + 1 for k in np.flatnonzero(change).tolist()]
            occ = np.take(occ, rows, axis=axis)
            grids[axis] = (g[0],) + tuple(g[k] for k in rows[1:]) + (g[-1],)
    occ = np.array(occ, dtype=bool)
    occ.flags.writeable = False
    return tuple(grids), occ


def _fill(shape: tuple, spans: Iterable[tuple]) -> np.ndarray:
    """Occupancy array of the cells covered by boxes given as per-axis
    cut ranks ``(lo, hi)``."""
    occ = np.zeros(shape, dtype=bool)
    for lo, hi in spans:
        occ[tuple(map(slice, lo, hi))] = True
    return occ


def _refine(grids, fine, occ: np.ndarray) -> np.ndarray:
    """The occupancy ``occ`` of ``grids`` on the cells of ``fine``, a grid
    that holds every cut of ``grids``."""
    index = []
    for g, f in zip(grids, fine):
        rows, j = [], 0
        for c in f[:-1]:
            while g[j + 1] <= c:
                j += 1
            rows.append(j)
        index.append(rows)
    return occ[np.ix_(*index)] if index else occ


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


def _rank(coords: Iterable) -> tuple[list, dict]:
    """The sorted distinct values of the coordinate objects ``coords``,
    with 0 and 1, and the rank of each object's value among them, keyed
    by the object's ``id``.  Each distinct object is read once, and only
    distinct values are compared, while sorting."""
    objects = {id(c): c for c in coords}
    keys = {i: c.as_integer_ratio() for i, c in objects.items()}  # value keys
    values = {(0, 1): ZERO, (1, 1): ONE}
    for i, key in keys.items():
        values.setdefault(key, objects[i])
    order = sorted(values, key=values.__getitem__)
    rank = {key: r for r, key in enumerate(order)}
    return [values[key] for key in order], {i: rank[key] for i, key in keys.items()}


def _canonicalize(dim: int, boxes: tuple) -> tuple[list, np.ndarray]:
    """The grid of a union of boxes: per axis, the box coordinates with 0
    and 1 as cuts, and the cells the boxes cover.  Coordinates are ranked
    once per axis, and the cells filled by rank.  A grid of more than
    ``MAX_GRID_CELLS`` cells is refused before it is allocated."""
    for b in boxes:
        if b.dim != dim:
            raise DimensionMismatchError(f"box of dim {b.dim} in a dim-{dim} set")
    los = list(zip(*(b.lo for b in boxes))) or [()] * dim  # per axis
    his = list(zip(*(b.hi for b in boxes))) or [()] * dim
    grids, lo_ranks, hi_ranks = [], [], []
    for lo, hi in zip(los, his):
        cuts, rank = _rank(lo + hi)
        grids.append(cuts)
        lo_ranks.append(map(rank.__getitem__, map(id, lo)))
        hi_ranks.append(map(rank.__getitem__, map(id, hi)))
    shape = tuple(len(g) - 1 for g in grids)
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise DomainError(f"the boxes span a grid of {cells} cells, above {MAX_GRID_CELLS}")
    return grids, _fill(shape, zip(zip(*lo_ranks), zip(*hi_ranks)))


def _combine(x: CubicalSet, y: CubicalSet, op) -> CubicalSet:
    """``op`` on the occupancies of both sets, refined onto their merged cuts."""
    if x.dim != y.dim:
        raise DimensionMismatchError("boolean operation dimension mismatch")
    grids = [a if a == b else sorted(set(a).union(b)) for a, b in zip(x.grids, y.grids)]
    occ = op(_refine(x.grids, grids, x.occ), _refine(y.grids, grids, y.occ))
    return CubicalSet(grids, occ)


def _int_array(values, bound: int) -> np.ndarray:
    """``values`` as an int64 array when no number the caller forms from
    them reaches ``bound`` < 2^63, else as an array of Python ints."""
    return np.array(values, dtype=np.int64 if bound < 1 << 63 else object)


def _weigh(values: np.ndarray, widths: list):
    """Sum over the cells of a grid of the non-negative integer ``values``,
    each times the product of its cell's integer widths: an int, or a list
    of them when ``values`` has leading axes ahead of the grid's.

    The widths of an axis sum to its denominator, so no width or partial
    sum exceeds the largest value (at least 1) times the product of those
    sums; the sum runs in int64 below 2^63, otherwise in Python ints."""
    values = np.asarray(values)
    bound = max(int(values.max(initial=0)), 1) * math.prod(sum(w) for w in widths)
    v = _int_array(values, bound)
    for w in reversed(widths):
        v = np.dot(v, _int_array(w, bound))  # contract the last axis
    return np.asarray(v).tolist()


def _volume(x: CubicalSet) -> Fraction:
    """Total measure of the occupied cells."""
    widths, dens = x._widths()
    return Fraction(_weigh(x.occ, widths), math.prod(dens))


def _face_area(x: CubicalSet) -> Fraction:
    """Total area of the faces between adjacent cells of different
    occupancy; faces on the cube walls do not count.  Over the product of
    the axis denominators, a face across ``axis`` weighs the product of the
    other axes' integer widths times the denominator of ``axis``."""
    widths, dens = x._widths()
    total = 0
    for axis in range(x.dim):
        cells, succ = _neighbours(x.occ, axis)
        changes = np.count_nonzero(cells != succ, axis=axis)  # per line
        total += dens[axis] * _weigh(changes, widths[:axis] + widths[axis + 1:])
    return Fraction(total, math.prod(dens))


# -- occupancy kernels: the trailing ``dim`` axes of ``occ`` hold one set ------


def _neighbours(occ: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of every cell that has a successor along ``axis``, and of
    that successor."""
    before = (slice(None),) * (axis % occ.ndim)
    return occ[before + (slice(None, -1),)], occ[before + (slice(1, None),)]


def _transform_cells(occ: np.ndarray, dim: int, perm, flip) -> np.ndarray:
    """Signed axis permutation: axis ``i`` of the result reads source axis
    ``perm[i]``, reversed where ``flip[i]``."""
    lead = occ.ndim - dim
    arr = np.transpose(occ, tuple(range(lead)) + tuple(lead + p for p in perm))
    return arr[(...,) + tuple(slice(None, None, -1 if f else 1) for f in flip)]


def _is_monotone_cells(occ: np.ndarray) -> bool:
    """True when occupancy never increases along any axis."""
    for axis in range(occ.ndim):
        cells, succ = _neighbours(occ, axis)
        if np.any(succ & ~cells):
            return False
    return True


# -- mask kernels: bit ``i`` of a mask holds the cell of flat index ``i`` -------
#
# Each kernel takes one voxel set as a Python int, of any size, or a batch of
# sets as an unsigned word array (``uint32`` for grids of at most 32 cells,
# ``uint64`` for at most 64), and runs the same broadword operations on both
# (Knuth, TAOCP 4A, 7.1.3).  Shift amounts and masks stay Python ints, which
# NumPy casts to the array's word type; an ``np.uint64`` of a mask would cut
# it to 64 bits.  An array's popcounts are ``uint8``: a grid of at most 64
# cells has at most 192 adjacent pairs (the 2^6 grid), so face counts summed
# over the axes stay below 256.


def _popcount(x):
    """The set bits of an int, or of every word of an unsigned array."""
    if isinstance(x, int):
        return x.bit_count()
    return np.bitwise_count(x)


@functools.cache
def _axis_masks(dim: int, res: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per axis of the ``res^dim`` grid: the flat stride of a step along it,
    the mask of the cells that have a successor along it, the mask of its
    bottom level plane, and ``spread``, one bit per level at multiples of
    the stride, whose product with a bottom-plane mask copies that plane
    onto every level; built once per shape."""
    tables = []
    for axis, level in enumerate(np.indices((res,) * dim)):
        stride = res ** (dim - 1 - axis)
        spread = sum(1 << (k * stride) for k in range(res))
        tables.append((stride, _cells_mask(level < res - 1), _cells_mask(level == 0), spread))
    return tuple(tables)


def _face_count(x, dim: int, res: int):
    """Number of faces between adjacent cells of different occupancy: per
    axis, the cells that differ from their successor."""
    total = 0
    for stride, succ, _, _ in _axis_masks(dim, res):
        differ = x >> stride  # a new int or array: the steps below leave x alone
        differ ^= x
        differ &= succ
        total += _popcount(differ)
    return total


def _steiner(x, dim: int, res: int, axis: int):
    """Push every column along ``axis`` down to a run anchored at cell 0.

    Each column holds a unary counter: level ``j`` of the image is set when
    more than ``j`` of the column's cells were read.  Reading level ``k``
    copies its plane onto every level (one product with ``spread``) and,
    in the columns where it is set, lifts the counter by one level."""
    stride, _, bottom, spread = _axis_masks(dim, res)[axis]
    out = x & bottom
    for k in range(1, res):
        plane = (x >> (k * stride)) & bottom
        plane *= spread
        out |= ((out << stride) | bottom) & plane
    return out


def _cells_mask(cells: np.ndarray) -> int:
    """The mask of a boolean occupancy, its cells read in flat (C) order."""
    packed = np.packbits(cells, axis=None, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _mask_cells(mask: int, dim: int, res: int) -> np.ndarray:
    """The read-only boolean occupancy of a mask."""
    n = res**dim
    data = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    cells = np.unpackbits(data, count=n, bitorder="little").view(bool)
    cells.flags.writeable = False
    return cells.reshape((res,) * dim)


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

    def inverse(self) -> "CubeIsometry":
        n = self.dim
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        flip = tuple(self.flip[inv[k]] for k in range(n))
        return CubeIsometry(tuple(inv), flip)


@functools.cache
def all_isometries(n: int) -> tuple[CubeIsometry, ...]:
    """The hyperoctahedral group of [0,1]^n (2^n * n! elements), built once
    per ``n``."""
    return tuple(
        CubeIsometry(perm, flips)
        for perm in itertools.permutations(range(n))
        for flips in itertools.product((False, True), repeat=n)
    )


def equal_up_to_isometry(
    x: CubicalSet, y: CubicalSet
) -> Optional[CubeIsometry]:
    """Witness isometry ``g`` with ``g(x) == y``, or None."""
    if x.dim != y.dim:
        raise DimensionMismatchError("cannot compare sets of different dim")
    def key(z):  # isometry invariants: volume, grid shape, occupied cells
        return z.volume(), sorted(z.occ.shape), np.count_nonzero(z.occ)

    if key(x) != key(y):
        return None
    for g in all_isometries(x.dim):
        if x.apply(g) == y:
            return g
    return None


# -- voxel grids -------------------------------------------------------------


class VoxelSet:
    """Occupancy of the regular m^n grid on [0,1]^n, held as an integer mask.

    Cell ``(a_1, ..., a_n)`` is the box ``prod [a_i/m, (a_i+1)/m]``, and bit
    ``i`` of ``mask`` holds the cell of flat index ``i`` in that axis order.
    ``cells`` decodes the mask to a read-only boolean array on each read.  A
    set is an immutable value: equal when its shape and mask are.
    """

    __slots__ = ("res", "dim", "mask")

    def __init__(self, res: int, cells: np.ndarray):
        if res < 1:
            raise DomainError("resolution must be >= 1")
        cells = np.asarray(cells, dtype=bool)
        if cells.shape != (res,) * cells.ndim:
            raise DimensionMismatchError("occupancy shape must be (m,)*n")
        _set_fields(self, res, cells.ndim, _cells_mask(cells))

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("VoxelSet is immutable")

    @staticmethod
    def from_mask(dim: int, res: int, mask: int) -> "VoxelSet":
        """The set of the cells whose bits ``mask`` sets."""
        mask = operator.index(mask)
        if res < 1:
            raise DomainError("resolution must be >= 1")
        if mask < 0 or mask >> res**dim:
            raise DomainError(f"the mask sets a bit outside the {res**dim} cells of the grid")
        return _voxel(dim, res, mask)

    @staticmethod
    def from_indices(dim: int, res: int, flat: Iterable[int]) -> "VoxelSet":
        mask = 0
        for i in flat:
            if not 0 <= i < res**dim:
                raise DomainError(f"cell index {i} out of range")
            mask |= 1 << i
        return VoxelSet.from_mask(dim, res, mask)

    @property
    def cells(self) -> np.ndarray:
        return _mask_cells(self.mask, self.dim, self.res)

    def flat_indices(self) -> list[int]:
        return np.flatnonzero(self.cells).tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VoxelSet)
            and self.mask == other.mask
            and self.res == other.res
            and self.dim == other.dim
        )

    def __hash__(self):
        return hash((self.res, self.dim, self.mask))

    def count(self) -> int:
        return self.mask.bit_count()

    def volume(self) -> Fraction:
        return Fraction(self.count(), self.res**self.dim)

    def face_count(self) -> int:
        """Number of interior cell faces on the boundary (cube walls excluded)."""
        return _face_count(self.mask, self.dim, self.res)

    def relative_perimeter(self) -> Fraction:
        return Fraction(self.face_count(), self.res ** (self.dim - 1))

    def steiner(self, axis: int) -> "VoxelSet":
        """Push every column along ``axis`` down to an anchored run."""
        if not 0 <= axis < self.dim:
            raise DomainError(f"axis {axis} out of range for dim {self.dim}")
        return _voxel(self.dim, self.res, _steiner(self.mask, self.dim, self.res, axis))

    def apply(self, iso: CubeIsometry) -> "VoxelSet":
        if iso.dim != self.dim:
            raise DimensionMismatchError("isometry dimension mismatch")
        return VoxelSet(
            self.res, _transform_cells(self.cells, self.dim, iso.perm, iso.flip)
        )

    def orbit_key(self) -> bytes:
        """Lexicographically smallest occupancy bytes over the full group."""
        cells = self.cells
        return min(
            _transform_cells(cells, self.dim, g.perm, g.flip).tobytes()
            for g in all_isometries(self.dim)
        )

    def to_cubical(self) -> CubicalSet:
        return devoxelize(self)


def _set_fields(v: VoxelSet, res: int, dim: int, mask: int) -> None:
    object.__setattr__(v, "res", res)
    object.__setattr__(v, "dim", dim)
    object.__setattr__(v, "mask", mask)


def _voxel(dim: int, res: int, mask: int) -> VoxelSet:
    """The voxel set of a mask known to lie in the grid, unchecked."""
    v = object.__new__(VoxelSet)
    _set_fields(v, res, dim, mask)
    return v


def voxelize(x: CubicalSet, res: int) -> VoxelSet:
    """Exact conversion; every cut of ``x`` must be a multiple of 1/m."""
    for g in x.grids:
        for c in g:
            if (c * res).denominator != 1:
                raise AlignmentError(c, res)
    return VoxelSet(res, _refine(x.grids, _uniform_grids(x.dim, res), x.occ))


def devoxelize(v: VoxelSet) -> CubicalSet:
    """The set of the occupied cells."""
    return CubicalSet(_uniform_grids(v.dim, v.res), v.cells)


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
