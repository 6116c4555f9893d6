"""Exhaustive lattice search: the independent verification oracle.

Monotone voxel sets (integer partitions in 2D, plane partitions in 3D) are
exactly the symmetrization fixed points on the grid, so discrete minima over
them equal minima over all voxel sets.  Perimeters come from closed-form
face counts on the height encoding; everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, ResolutionCapError
from .geometry import VoxelSet, _all_subsets, _face_counts

__all__ = [
    "MonotoneShape",
    "enumerate_monotone",
    "monotone_prefixes",
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

    def relative_perimeter(self) -> Fraction:
        return Fraction(self.face_count(), self.res ** (self.dim - 1))

    def volume(self) -> Fraction:
        return Fraction(self.cell_count(), self.res**self.dim)

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


def enumerate_monotone(
    dim: int, res: int, prefix=None
) -> Iterator[MonotoneShape]:
    """Every monotone shape in the m^n box exactly once, in a fixed order.

    ``prefix`` restricts the stream to shapes with the given first column
    height (2D) or first row partition (3D); the streams over all prefixes
    partition the full enumeration, which is how parallel consumers split
    the work.
    """
    if dim == 2:
        if res > MAX_EXHAUSTIVE_2D:
            raise ResolutionCapError(
                f"2D exhaustive enumeration is capped at m={MAX_EXHAUSTIVE_2D}"
            )
        for h in _partitions_in_box(res, res):
            if prefix is not None and h[0] != prefix:
                continue
            yield MonotoneShape(2, res, h)
        return
    if dim == 3:
        if res > MAX_EXHAUSTIVE_3D:
            raise ResolutionCapError(
                f"3D exhaustive enumeration is capped at m={MAX_EXHAUSTIVE_3D}"
            )

        def rec(i: int, prev: tuple, acc: tuple):
            if i == res:
                yield MonotoneShape(3, res, acc)
                return
            for row in _partitions_in_box(res, res, bound=prev):
                yield from rec(i + 1, row, acc + (row,))

        if prefix is not None:
            prefix = tuple(prefix)
            yield from rec(1, prefix, (prefix,))
        else:
            yield from rec(0, (res,) * res, ())
        return
    raise DomainError("monotone enumeration supports dimensions 2 and 3")


def monotone_prefixes(dim: int, res: int) -> list:
    """The prefix values accepted by :func:`enumerate_monotone`."""
    if dim == 2:
        return list(range(res, -1, -1))
    if dim == 3:
        return list(_partitions_in_box(res, res))
    raise DomainError("monotone enumeration supports dimensions 2 and 3")


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

    @property
    def volume(self) -> Fraction:
        return Fraction(self.cells, self.res**self.dim)


def _dedup_orbits(shapes: list[MonotoneShape]) -> tuple[VoxelSet, ...]:
    reps: dict[bytes, VoxelSet] = {}
    for s in shapes:
        v = s.to_voxel()
        key = v.orbit_key()
        if key not in reps:
            reps[key] = VoxelSet(v.res, np.frombuffer(key, dtype=bool).reshape(v.cells.shape))
    return tuple(reps[k] for k in sorted(reps))


def _sweep_stream(shapes) -> dict:
    best: dict[int, tuple[int, list]] = {}
    for s in shapes:
        k = s.cell_count()
        f = s.face_count()
        cur = best.get(k)
        if cur is None or f < cur[0]:
            best[k] = (f, [s])
        elif f == cur[0]:
            cur[1].append(s)
    return best


def _merge_sweeps(parts) -> dict:
    """Associative (min, argmin-set) merge; independent of partitioning."""
    best: dict[int, tuple[int, list]] = {}
    for part in parts:
        for k, (f, shapes) in part.items():
            cur = best.get(k)
            if cur is None or f < cur[0]:
                best[k] = (f, list(shapes))
            elif f == cur[0]:
                cur[1].extend(shapes)
    return best


@lru_cache(maxsize=8)
def brute_sweep(dim: int, res: int) -> dict:
    """Per-cell-count minima over all monotone shapes, computed in one
    enumeration pass: ``{k: (min faces, shapes attaining it)}``."""
    return _sweep_stream(enumerate_monotone(dim, res))


def _sweep_prefix(task) -> dict:
    dim, res, prefix = task
    return _sweep_stream(enumerate_monotone(dim, res, prefix=prefix))


def brute_sweep_parallel(dim: int, res: int, jobs: int) -> dict:
    """The same sweep split over first-column prefixes across processes;
    the merge is associative, so the result matches the serial sweep."""
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(dim, res, p) for p in monotone_prefixes(dim, res)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_sweep_prefix, tasks))
    return _merge_sweeps(parts)


def brute_min(dim: int, res: int, cells: int, sweep: Optional[dict] = None) -> BruteResult:
    """Exact minimum of relative perimeter over monotone shapes with the
    given cell count; minimizers are deduplicated up to cube isometry."""
    if not 0 <= cells <= res**dim / 2:
        raise DomainError(
            "cell count must lie in [0, m^n / 2]; complement the rest"
        )
    faces, shapes = (sweep if sweep is not None else brute_sweep(dim, res))[cells]
    return BruteResult(
        dim,
        res,
        cells,
        Fraction(faces, res ** (dim - 1)),
        _dedup_orbits(shapes),
    )


def _all_subsets_minima(dim: int, res: int) -> dict:
    """Per-cell-count minima over every voxel subset (vectorized)."""
    n_cells = res**dim
    occ = _all_subsets(dim, res)
    counts = occ.reshape(len(occ), -1).sum(axis=1)
    faces = _face_counts(occ, dim)
    out: dict[int, tuple[int, list]] = {}
    for k in range(n_cells + 1):
        sel = counts == k
        fmin = int(faces[sel].min())
        idx = np.flatnonzero(sel & (faces == fmin))
        out[k] = (fmin, [int(i) for i in idx])
    return out


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
    reps: dict[bytes, VoxelSet] = {}
    n_cells = res**dim
    for mask in masks:
        flat = [i for i in range(n_cells) if mask >> i & 1]
        v = VoxelSet.from_indices(dim, res, flat)
        key = v.orbit_key()
        if key not in reps:
            reps[key] = VoxelSet(
                res, np.frombuffer(key, dtype=bool).reshape(v.cells.shape)
            )
    return BruteResult(
        dim,
        res,
        cells,
        Fraction(faces, res ** (dim - 1)),
        tuple(reps[k] for k in sorted(reps)),
    )


def strip_brute_min(res: int, strip_cells: int, cells: int) -> Fraction:
    """Exact planar minimum over monotone sets confined to the first
    ``strip_cells`` columns (the confined-strip sub-problem on the grid)."""
    if not 0 < strip_cells < res:
        raise DomainError("strip width must be between 1 and m-1 columns")
    if not 0 <= cells <= strip_cells * res:
        raise DomainError("cell count exceeds the strip capacity")
    if res > MAX_EXHAUSTIVE_2D:
        raise ResolutionCapError(
            f"2D exhaustive enumeration is capped at m={MAX_EXHAUSTIVE_2D}"
        )
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
