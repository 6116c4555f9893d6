"""Deterministic random generators for property suites and demos."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .geometry import CubicalSet, VoxelSet, devoxelize

__all__ = [
    "random_voxel",
    "random_monotone_voxel",
    "random_monotone_set",
    "random_face_subset",
]


def random_voxel(rng: np.random.Generator, dim: int, res: int) -> VoxelSet:
    """Each cell occupied with probability 1/2."""
    return VoxelSet(res, rng.random((res,) * dim) < 0.5)


def _monotone_heights(rng: np.random.Generator, dim: int, res: int) -> np.ndarray:
    if dim == 2:
        h = rng.integers(0, res + 1, res)
        return np.sort(h)[::-1]
    h = rng.integers(0, res + 1, (res, res))
    h = np.sort(h, axis=1)[:, ::-1]  # rows non-increasing
    return np.minimum.accumulate(h, axis=0)  # columns non-increasing


def random_monotone_voxel(
    rng: np.random.Generator,
    dim: int,
    res: int,
    max_cells: int | None = None,
) -> VoxelSet:
    """A random monotone voxel set, optionally trimmed to a cell budget;
    never empty."""
    h = _monotone_heights(rng, dim, res)
    if max_cells is not None:
        while h.sum() > max_cells:
            occupied = np.argwhere(h > 0)
            idx = tuple(occupied[-1])
            h[idx] -= 1
    if h.sum() == 0:
        h.flat[0] = 1
    occ = np.arange(res) < np.asarray(h)[..., None]
    return VoxelSet(res, occ)


def random_monotone_set(
    rng: np.random.Generator, dim: int, res: int, max_cells: int | None = None
) -> CubicalSet:
    return devoxelize(random_monotone_voxel(rng, dim, res, max_cells))


def random_face_subset(
    rng: np.random.Generator,
    width: Fraction,
    height: Fraction,
    res: int = 4,
) -> CubicalSet:
    """A proper nonempty planar cubical subset of [0,width] x [0,height],
    built on a res x res subgrid of the face."""
    while True:
        occ = rng.random((res, res)) < 0.5
        if occ.any() and not occ.all():
            break
    boxes = []
    for i, j in np.argwhere(occ):
        lo = (width * int(i) / res, height * int(j) / res)
        hi = (width * (int(i) + 1) / res, height * (int(j) + 1) / res)
        boxes.append((lo, hi))
    return CubicalSet.from_coords(2, boxes)
