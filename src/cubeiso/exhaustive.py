"""Exhaustive checks over every voxel set of a small grid.

The audited claim: one symmetrization pass preserves relative perimeter
exactly when the input is carried onto its symmetrization by some isometry
of the cube.  The "if" direction is immediate; the audit searches the full
subset lattice for "only if" violations.  The lattice is closed under axis
permutation and isometry equivalence is conjugation-invariant, so one
direction decides every direction: the 3D m=3 audit (2^27 sets) symmetrizes
along axis 2 only, the smaller grids along every axis.

One scan, :func:`_mask_chunks`, yields every mask of a grid of at most 32
cells in ``uint32`` chunks with their face counts, from geometry's mask
kernels; it feeds the audit and ``search``'s general minima.  On every grid
the audit symmetrizes a chunk and keeps the sets whose perimeter survives
before any isometry work; it maps those that move through the isometry
group from stacked chunk tables, a block of isometries per NumPy call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionCapError
from .geometry import (
    VoxelSet,
    _face_count,
    _steiner,
    _transform_cells,
    all_isometries,
)

__all__ = ["AuditOutcome", "equality_case_audit"]


@dataclass
class AuditOutcome:
    dim: int
    res: int
    checked: int
    perimeter_preserving: int
    violations: list  # VoxelSet counterexamples (capped)
    stopped_early: bool

    @property
    def ok(self) -> bool:
        return not self.violations and not self.stopped_early


# Masks per chunk: 2^16 holds every smaller audited grid in one chunk and
# keeps a chunk's arrays near 1 MB; criterion 5's 3x3x3 audit, which stops
# after 4 violations, stops after the first chunk.  A stopped scan reports
# the masks of its whole chunks as checked, so this size is part of its
# outcome (smaller chunks would scan all 2^27 sets faster).
_CHUNK_BITS = 16

# Image words per isometry block: one NumPy call's images stay below 256 KB.
_BLOCK_WORDS = 1 << 16


def _mask_chunks(dim: int, res: int, chunk_bits: int):
    """Every mask of the ``res^dim`` grid (at most 32 cells), in ascending
    ``uint32`` chunks of at most ``2^chunk_bits`` masks, each with its face
    counts."""
    total = 1 << res**dim
    step = 1 << chunk_bits
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint32)
        yield masks, _face_count(masks, dim, res)


@functools.cache
def _iso_chunk_tables(dim: int, res: int) -> tuple:
    """One table per chunk of 9 source cells, stacked over the cube
    isometries in the order of ``all_isometries``: row ``g``, entry ``v``
    holds the image bits under ``g`` of the chunk's cells that ``v`` sets, as
    a ``uint32`` word for grids of at most 32 cells and a ``uint64`` word
    above.  An image of a mask is the OR of its chunks' entries.  Built once
    per shape, on first use."""
    n = res**dim
    word = np.uint32 if n <= 32 else np.uint64
    cells = np.arange(n).reshape((res,) * dim)
    group = all_isometries(dim)
    # bit j of an image reads source cell src[j], so source cell i lands on
    # bit lands[g, i]
    lands = np.empty((len(group), n), dtype=word)
    for row, g in zip(lands, group):
        src = _transform_cells(cells, dim, g.perm, g.flip).ravel()
        row[src] = np.arange(n)
    weights = np.left_shift(word(1), lands)
    tables = []
    for start in range(0, n, 9):
        table = np.zeros((len(group), 1), dtype=word)
        for w in weights[:, start : start + 9].T:  # each cell doubles the table
            table = np.concatenate([table, table | w[:, None]], axis=1)
        tables.append(table)
    return tuple(tables)


def _isometric(xs: np.ndarray, targets: np.ndarray, dim: int, res: int) -> np.ndarray:
    """Whether some isometry carries each mask of ``xs`` onto the matching
    entry of ``targets``; the images of a block of isometries come from one
    lookup per chunk table."""
    tables = _iso_chunk_tables(dim, res)
    n_iso = len(tables[0])
    block = max(1, _BLOCK_WORDS // max(1, len(xs)))
    hit = np.zeros(len(xs), dtype=bool)
    for lo in range(0, n_iso, block):
        images = tables[0][lo : lo + block, xs & 511]
        for k, table in enumerate(tables[1:], 1):
            images |= table[lo : lo + block, (xs >> 9 * k) & 511]
        hit |= (images == targets).any(axis=0)
    return hit


def _audit(dim: int, res: int, limit: int, stop_after: int, chunk_bits: int) -> AuditOutcome:
    """The audit over every mask of the grid, chunk by chunk, along every
    axis of the small grids and axis 2 of the 3x3x3 grid.  The violations of
    each axis are listed in mask order, the axes one after the other."""
    axes = (2,) if (dim, res) == (3, 3) else range(dim)
    found: list[list[int]] = [[] for _ in axes]
    preserved_total = checked = 0
    for masks, faces in _mask_chunks(dim, res, chunk_bits):
        for i, axis in enumerate(axes):
            sym = _steiner(masks, dim, res, axis)
            eq = faces == _face_count(sym, dim, res)
            preserved_total += int(np.count_nonzero(eq))
            room = limit - sum(map(len, found[: i + 1]))  # this axis and the ones before
            if room > 0:
                moved = eq & (sym != masks)  # a set equal to its image needs no search
                xs, targets = masks[moved], sym[moved]
                found[i] += xs[~_isometric(xs, targets, dim, res)][:room].tolist()
        checked += len(masks) * len(axes)
        if stop_after and min(limit, sum(map(len, found))) >= stop_after:
            break
    violations = [VoxelSet.from_mask(dim, res, mask) for mask in sum(found, [])[:limit]]
    stopped = checked < len(axes) << res**dim
    return AuditOutcome(dim, res, checked, preserved_total, violations, stopped)


def equality_case_audit(
    dim: int, res: int, limit: int = 5, stop_after: int = 0
) -> AuditOutcome:
    """Scan every voxel subset of the grid for equality-case violations.

    ``limit`` caps the number of recorded counterexamples; a nonzero
    ``stop_after`` lets the scan stop after the chunk in which that many
    violations are in hand (reported via ``stopped_early``).
    """
    if dim == 2 and res <= 4 or dim == 3 and res <= 3:
        return _audit(dim, res, limit, stop_after, _CHUNK_BITS)
    raise ResolutionCapError("exhaustive audit caps: 2D m<=4, 3D m<=3")
