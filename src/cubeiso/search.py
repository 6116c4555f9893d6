"""Exact lattice minima: the independent verification oracle.

Monotone voxel sets (integer partitions in 2D, plane partitions in 3D) are
exactly the symmetrization fixed points on the grid, so discrete minima over
them equal minima over all voxel sets.  Perimeters come from closed-form
face counts on the height encoding; everything is exact integer arithmetic.

The minima and all their argmin shapes come from a row-transfer DP
(:func:`brute_sweep`), because the face count splits into a sum over rows.
:func:`enumerate_monotone` lists every shape and is kept as the reference
the DP is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DomainError, ResolutionCapError
from .exhaustive import _CHUNK_BITS, _mask_chunks
from .geometry import VoxelSet, _popcount

__all__ = [
    "MonotoneShape",
    "enumerate_monotone",
    "count_monotone",
    "box_count",
    "BruteResult",
    "brute_min",
    "brute_sweep",
    "brute_min_general",
    "strip_brute_min",
]

MAX_EXHAUSTIVE_2D = 6
MAX_EXHAUSTIVE_3D = 4
MAX_GENERAL_2D = 4
MAX_GENERAL_3D = 2


@dataclass(frozen=True)
class MonotoneShape:
    """Column-height encoding of a monotone voxel set.

    2D: ``heights`` is a non-increasing tuple (a partition in an m x m box).
    3D: ``heights`` is a tuple of rows, non-increasing along both indices
    (a plane partition in an m x m x m box).
    """

    dim: int
    res: int
    heights: tuple

    def cell_count(self) -> int:
        if self.dim == 2:
            return sum(self.heights)
        return sum(sum(r) for r in self.heights)

    def face_count(self) -> int:
        m = self.res
        if self.dim == 2:
            h = self.heights
            walls = h[0] - h[m - 1]
            caps = sum(1 for v in h if 0 < v < m)
            return walls + caps
        h = self.heights
        walls_i = sum(h[0][j] - h[m - 1][j] for j in range(m))
        walls_j = sum(h[i][0] - h[i][m - 1] for i in range(m))
        caps = sum(1 for row in h for v in row if 0 < v < m)
        return walls_i + walls_j + caps

    def to_voxel(self) -> VoxelSet:
        m = self.res
        h = np.array(self.heights)
        occ = np.arange(m) < h[..., None]
        return VoxelSet(m, occ)


def _partitions_in_box(cols: int, maxh: int, bound: Optional[tuple] = None):
    """Non-increasing height tuples of length ``cols`` with parts <= maxh,
    optionally bounded pointwise by ``bound``."""

    def rec(k: int, prev: int, acc: tuple):
        if k == cols:
            yield acc
            return
        top = min(prev, bound[k] if bound else maxh)
        for v in range(top, -1, -1):
            yield from rec(k + 1, v, acc + (v,))

    yield from rec(0, maxh, ())


def _check_cap(dim: int, res: int) -> None:
    """Raise unless the m^n box is small enough to search exhaustively."""
    if dim == 2 and res > MAX_EXHAUSTIVE_2D:
        raise ResolutionCapError(
            f"2D exhaustive enumeration is capped at m={MAX_EXHAUSTIVE_2D}"
        )
    if dim == 3 and res > MAX_EXHAUSTIVE_3D:
        raise ResolutionCapError(
            f"3D exhaustive enumeration is capped at m={MAX_EXHAUSTIVE_3D}"
        )
    if dim not in (2, 3):
        raise DomainError("monotone enumeration supports dimensions 2 and 3")


def enumerate_monotone(dim: int, res: int) -> Iterator[MonotoneShape]:
    """Every monotone shape in the m^n box exactly once, in a fixed order.

    The reference that :func:`brute_sweep` is tested against.
    """
    _check_cap(dim, res)
    if dim == 2:
        for h in _partitions_in_box(res, res):
            yield MonotoneShape(2, res, h)
        return

    def rec(i: int, prev: tuple, acc: tuple):
        if i == res:
            yield MonotoneShape(3, res, acc)
            return
        for row in _partitions_in_box(res, res, bound=prev):
            yield from rec(i + 1, row, acc + (row,))

    yield from rec(0, (res,) * res, ())


def count_monotone(dim: int, res: int) -> int:
    return sum(1 for _ in enumerate_monotone(dim, res))


def box_count(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box (product formula)."""
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                out *= Fraction(i + j + k - 1, i + j + k - 2)
    if out.denominator != 1:
        raise DomainError("box count product did not reduce to an integer")
    return out.numerator


# -- discrete minima -----------------------------------------------------------


@dataclass(frozen=True)
class BruteResult:
    dim: int
    res: int
    cells: int
    min_perimeter: Fraction
    minimizers: tuple[VoxelSet, ...]  # orbit representatives


def _dedup_orbits(sets: Iterable[VoxelSet]) -> tuple[VoxelSet, ...]:
    """One representative per cube-isometry orbit, the set of smallest
    occupancy bytes, in order of those bytes."""
    reps: dict[bytes, VoxelSet] = {}
    for v in sets:
        key = v.orbit_key()
        if key not in reps:
            reps[key] = VoxelSet(v.res, np.frombuffer(key, dtype=bool).reshape((v.res,) * v.dim))
    return tuple(reps[k] for k in sorted(reps))


def _keep_min(best: dict, key, faces: int, shapes) -> None:
    """Record ``shapes`` under ``key`` if ``faces`` ties or beats the best."""
    cur = best.get(key)
    if cur is None or faces < cur[0]:
        best[key] = (faces, list(shapes))
    elif faces == cur[0]:
        cur[1].extend(shapes)


@lru_cache(maxsize=8)
def brute_sweep(dim: int, res: int) -> dict:
    """Per-cell-count minima over all monotone shapes:
    ``{k: (min faces, shapes attaining it)}``.

    A row-transfer DP.  A shape is a sequence of rows, each pointwise below
    the one before: the column heights in 2D, the rows of the plane partition
    in 3D.  Its face count is ``|row_0| - |row_last|`` plus a cost per row
    (see :meth:`MonotoneShape.face_count`), so a state (last row, cells so
    far) needs only its cheapest prefixes, all of which are kept.
    """
    _check_cap(dim, res)
    m = res
    rows = list(_partitions_in_box(m, m)) if dim == 3 else [(v,) for v in range(m, -1, -1)]
    size = {r: sum(r) for r in rows}
    cost = {r: r[0] - r[-1] + sum(0 < v < m for v in r) for r in rows}
    below = {r: [s for s in rows if all(b <= a for a, b in zip(r, s))] for r in rows}
    states = {(r, size[r]): (cost[r] + size[r], [(r,)]) for r in rows}
    for _ in range(m - 1):
        after: dict = {}
        for (r, k), (f, prefixes) in states.items():
            for s in below[r]:
                _keep_min(after, (s, k + size[s]), f + cost[s], (p + (s,) for p in prefixes))
        states = after
    best: dict = {}
    for (r, k), (f, prefixes) in states.items():
        _keep_min(best, k, f - size[r], prefixes)

    def shape(p: tuple) -> MonotoneShape:
        return MonotoneShape(dim, m, p if dim == 3 else tuple(v for (v,) in p))

    return {k: (f, [shape(p) for p in ps]) for k, (f, ps) in sorted(best.items())}


def brute_min(dim: int, res: int, cells: int) -> BruteResult:
    """Exact minimum of relative perimeter over monotone shapes with the
    given cell count; minimizers are deduplicated up to cube isometry."""
    if not 0 <= cells <= res**dim / 2:
        raise DomainError(
            "cell count must lie in [0, m^n / 2]; complement the rest"
        )
    faces, shapes = brute_sweep(dim, res)[cells]
    return BruteResult(
        dim,
        res,
        cells,
        Fraction(faces, res ** (dim - 1)),
        _dedup_orbits(s.to_voxel() for s in shapes),
    )


def _all_subsets_minima(dim: int, res: int, chunk_bits: int = _CHUNK_BITS) -> dict:
    """Per-cell-count minima over every voxel subset, as masks, in two
    passes of the exhaustive scan: the minimum face count per cell count,
    then the masks that attain it, in mask order."""
    n_cells = res**dim
    best = np.full(n_cells + 1, 255, dtype=np.uint8)  # above every face count
    for masks, faces in _mask_chunks(dim, res, chunk_bits):
        np.minimum.at(best, _popcount(masks), faces)
    del masks, faces  # the last chunk is not held through the second pass
    found: list[list[int]] = [[] for _ in best]
    for masks, faces in _mask_chunks(dim, res, chunk_bits):
        counts = _popcount(masks)
        hit = faces == best[counts]
        for mask, k in zip(masks[hit].tolist(), counts[hit].tolist()):
            found[k].append(mask)
    return {k: (int(best[k]), argmin) for k, argmin in enumerate(found)}


@lru_cache(maxsize=4)
def _general_sweep(dim: int, res: int) -> dict:
    if dim == 2 and res > MAX_GENERAL_2D or dim == 3 and res > MAX_GENERAL_3D:
        raise ResolutionCapError(
            "general enumeration caps: 2D m<=4, 3D m<=2"
        )
    if dim not in (2, 3):
        raise DomainError("general enumeration supports dimensions 2 and 3")
    return _all_subsets_minima(dim, res)


def brute_min_general(dim: int, res: int, cells: int) -> BruteResult:
    """Exact minimum over ALL voxel subsets with the given cell count.

    Must agree with :func:`brute_min`: symmetrization never increases
    perimeter, so restricting to monotone shapes loses nothing.
    """
    if not 0 <= cells <= res**dim / 2:
        raise DomainError(
            "cell count must lie in [0, m^n / 2]; complement the rest"
        )
    faces, masks = _general_sweep(dim, res)[cells]
    sets = (VoxelSet.from_mask(dim, res, mask) for mask in masks)
    return BruteResult(
        dim,
        res,
        cells,
        Fraction(faces, res ** (dim - 1)),
        _dedup_orbits(sets),
    )


def strip_brute_min(res: int, strip_cells: int, cells: int) -> Fraction:
    """Exact planar minimum over monotone sets confined to the first
    ``strip_cells`` columns (the confined-strip sub-problem on the grid)."""
    if not 0 < strip_cells < res:
        raise DomainError("strip width must be between 1 and m-1 columns")
    if not 0 <= cells <= strip_cells * res:
        raise DomainError("cell count exceeds the strip capacity")
    _check_cap(2, res)
    best = None
    for part in _partitions_in_box(strip_cells, res):
        if sum(part) != cells:
            continue
        h = part + (0,) * (res - strip_cells)
        s = MonotoneShape(2, res, h)
        f = s.face_count()
        if best is None or f < best:
            best = f
    if best is None:
        raise DomainError("no shape with that cell count fits the strip")
    return Fraction(best, res)
