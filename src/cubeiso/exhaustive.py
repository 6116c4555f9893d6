"""Exhaustive audits of symmetrization over every voxel set of a small grid.

The audited claim: one symmetrization pass preserves relative perimeter
exactly when the input is carried onto its symmetrization by some isometry
of the cube.  The "if" direction is immediate (isometries preserve
perimeter); the audit searches the full subset lattice for "only if"
violations: sets whose perimeter survives symmetrization although no
isometry maps them onto it.

Since the subset lattice is closed under axis permutation and isometry
equivalence is conjugation-invariant, auditing one symmetrization direction
over all sets decides every direction; the 3D m=3 scan (2^27 sets) uses
that reduction and scans the masks in chunks.  Every grid audited has at
most 27 cells, so its masks are ``uint32`` words: the small grids are
scanned as one batch and the 3D m=3 grid chunk by chunk, both with
geometry's mask kernels, so geometry alone holds the rules.  Both map masks
to their isometric images with per-isometry chunk tables.
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


@functools.cache
def _iso_chunk_tables(dim: int, res: int, bits: int = 8) -> tuple:
    """For each cube isometry, in the order of ``all_isometries``, one table
    per chunk of ``bits`` source cells: entry ``v`` holds the image bits of
    the chunk's cells that ``v`` sets, as a ``uint32`` word for grids of at
    most 32 cells and a ``uint64`` word above.  An image of a mask is the OR
    of its chunks' entries.  Built once per shape."""
    n = res**dim
    dtype = np.uint32 if n <= 32 else np.uint64
    cells = np.arange(n).reshape((res,) * dim)
    tables = []
    for g in all_isometries(dim):
        # bit j of the image reads source cell src[j], so source cell i
        # lands on bit lands[i]
        src = _transform_cells(cells, dim, g.perm, g.flip).ravel()
        lands = np.empty(n, dtype=int)
        lands[src] = np.arange(n)
        chunks = []
        for start in range(0, n, bits):
            table = np.zeros(1, dtype=dtype)
            for i in range(start, min(start + bits, n)):  # each cell doubles the table
                table = np.concatenate([table, table | 1 << int(lands[i])])
            chunks.append(table)
        tables.append(tuple(chunks))
    return tuple(tables)


def _audit_small(dim: int, res: int, limit: int) -> AuditOutcome:
    """The audit over every mask of a grid of at most 16 cells as one batch:
    each isometric image is built from 8-bit chunks, one isometry at a time,
    and compared with the Steiner images of every axis."""
    masks = np.arange(1 << res**dim, dtype=np.uint32)
    n = len(masks)
    perim = _face_count(masks, dim, res)
    syms = [_steiner(masks, dim, res, axis) for axis in range(dim)]
    eqs = [perim == _face_count(sym, dim, res) for sym in syms]
    del perim  # not held through the image loop, where the peak lies
    chunks = [((masks >> start) & 0xFF).astype(np.uint8) for start in range(0, res**dim, 8)]
    matched = [np.zeros(n, dtype=bool) for _ in range(dim)]
    for tables in _iso_chunk_tables(dim, res):
        image = tables[0][chunks[0]]
        for table, chunk in zip(tables[1:], chunks[1:]):
            image |= table[chunk]
        for sym, hit in zip(syms, matched):
            hit |= image == sym
    violations = []
    preserved_total = 0
    for eq, hit in zip(eqs, matched):
        preserved_total += int(np.count_nonzero(eq))
        bad = masks[eq & ~hit][: max(0, limit - len(violations))]
        violations += [VoxelSet.from_mask(dim, res, mask) for mask in bad]
        # sanity: isometric sets can never change perimeter
        if np.any(hit & ~eq):
            raise AssertionError("isometric image changed the perimeter")
    return AuditOutcome(dim, res, n * dim, preserved_total, violations, False)


# -- the 3D m=3 scan -----------------------------------------------------------

# Sets per chunk: 2^16 scans all 2^27 sets about as fast as larger chunks
# while a chunk's arrays stay near 1.3 MB; criterion 5's scan, which stops
# after 4 violations, finds them in the first chunk.
_CHUNK_BITS = 16


def _audit_3x3x3(limit: int, stop_after: int) -> AuditOutcome:
    """The audit along axis 2 over every mask of the 3x3x3 grid, chunk by
    chunk; only the sets whose perimeter survives are mapped through the
    isometries."""
    iso_tables = _iso_chunk_tables(3, 3, 9)
    total = 1 << 27
    step = 1 << _CHUNK_BITS
    violations: list[VoxelSet] = []
    preserved_total = 0
    checked = 0
    stopped = False
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint32)
        sym = _steiner(masks, 3, 3, 2)
        eq = _face_count(masks, 3, 3) == _face_count(sym, 3, 3)
        preserved_total += int(np.count_nonzero(eq))
        xs = masks[eq]
        ss = sym[eq]
        matched = np.zeros(len(xs), dtype=bool)
        for t0, t1, t2 in iso_tables:
            tr = t0[xs & 511] | t1[(xs >> 9) & 511] | t2[xs >> 18]
            matched |= tr == ss
        bad = np.flatnonzero(~matched)[: max(0, limit - len(violations))]
        violations += [VoxelSet.from_mask(3, 3, mask) for mask in xs[bad]]
        checked += len(masks)
        if stop_after and len(violations) >= stop_after:
            stopped = checked < total
            break
    return AuditOutcome(3, 3, checked, preserved_total, violations, stopped)


def equality_case_audit(
    dim: int, res: int, limit: int = 5, stop_after: int = 0
) -> AuditOutcome:
    """Scan every voxel subset of the grid for equality-case violations.

    ``limit`` caps the number of recorded counterexamples; a nonzero
    ``stop_after`` allows the heavy 3D m=3 scan to stop once that many
    violations are in hand (reported via ``stopped_early``).
    """
    if dim == 2 and res <= 4 or dim == 3 and res <= 2:
        return _audit_small(dim, res, limit)
    if dim == 3 and res == 3:
        return _audit_3x3x3(limit, stop_after)
    raise ResolutionCapError(
        "exhaustive audit caps: 2D m<=4, 3D m<=3"
    )
