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
that reduction and a chunked bit-parallel pipeline.  The pipeline's lookup
tables (column push, face counts, the isometries' bit maps) are built once
from geometry's occupancy kernels, so geometry alone holds the rules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionCapError
from .geometry import (
    VoxelSet,
    _all_subsets,
    _face_counts,
    _mask_cells,
    _steiner_cells,
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


def _audit_small(dim: int, res: int, limit: int) -> AuditOutcome:
    occ = _all_subsets(dim, res)
    n = len(occ)
    perim = _face_counts(occ, dim)
    violations = []
    preserved_total = 0
    for axis in range(dim):
        sym = _steiner_cells(occ, dim, axis)
        eq = perim == _face_counts(sym, dim)
        preserved_total += int(eq.sum())
        matched = np.zeros(n, dtype=bool)
        for g in all_isometries(dim):
            tr = _transform_cells(occ, dim, g.perm, g.flip)
            matched |= (tr == sym).reshape(n, -1).all(axis=1)
        bad = np.flatnonzero(eq & ~matched)[: max(0, limit - len(violations))]
        violations += [VoxelSet(res, c) for c in _mask_cells(bad, dim, res)]
        # sanity: isometric sets can never change perimeter
        if np.any(matched & ~eq):
            raise AssertionError("isometric image changed the perimeter")
    return AuditOutcome(dim, res, n * dim, preserved_total, violations, False)


# -- bit-parallel 3D m=3 pipeline ---------------------------------------------

_COL_MASK = 0b111
# Sets per chunk: 2^16 scans all 2^27 sets about as fast as larger chunks
# and holds the peak memory near 40 MB; criterion 5's scan, which stops
# after 4 violations, finds them in the first chunk.
_CHUNK_BITS = 16


@functools.cache
def _luts_3x3x3():
    """Per 3-cell column mask (bit ``i`` is cell ``i`` up the column): its
    Steiner push and its faces inside the column; per pair of masks
    (index ``8 a + b``), the faces between two adjacent columns."""
    cols = _mask_cells(np.arange(8), 1, 3)
    fill = np.packbits(_steiner_cells(cols, 1, 0), axis=1, bitorder="little")[:, 0]
    caps = _face_counts(cols, 1)
    diff = np.count_nonzero(cols[:, None] != cols[None, :], axis=2).reshape(64)
    return fill.astype(np.uint32), caps.astype(np.uint32), diff.astype(np.uint32)


@functools.cache
def _iso_chunk_tables():
    """For each cube isometry, three 512-entry tables mapping source bit
    chunks to transformed 27-bit words."""
    chunks = _mask_cells(np.arange(512), 2, 3).reshape(512, 9).astype(np.uint32)
    cells = np.arange(27).reshape(3, 3, 3)
    tables = []
    for g in all_isometries(3):
        # bit j of the image reads source cell src[j]: weigh each source
        # cell with the bit it lands on
        src = _transform_cells(cells, 3, g.perm, g.flip).ravel()
        weight = np.zeros(27, dtype=np.uint32)
        weight[src] = np.uint32(1) << np.arange(27, dtype=np.uint32)
        tables.append(tuple(chunks @ w for w in weight.reshape(3, 9)))
    return tuple(tables)


def _audit_3x3x3(limit: int, stop_after: int) -> AuditOutcome:
    fill, caps, diff64 = _luts_3x3x3()
    iso_tables = _iso_chunk_tables()
    x_pairs = [(c, c + 3) for c in range(6)]
    y_pairs = [(x * 3 + y, x * 3 + y + 1) for x in range(3) for y in range(2)]
    total = 1 << 27
    step = 1 << _CHUNK_BITS
    violations: list[VoxelSet] = []
    preserved_total = 0
    checked = 0
    stopped = False
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint64)
        cols = [((masks >> np.uint64(3 * c)) & np.uint64(_COL_MASK)).astype(np.uint32) for c in range(9)]
        sym = np.zeros_like(masks)
        per = np.zeros(len(masks), dtype=np.uint32)
        per_s = np.zeros(len(masks), dtype=np.uint32)
        sym_cols = []
        for c in range(9):
            sc = fill[cols[c]]
            sym_cols.append(sc)
            sym |= sc.astype(np.uint64) << np.uint64(3 * c)
            per += caps[cols[c]]
            per_s += caps[sc]
        for a, b in x_pairs + y_pairs:
            per += diff64[cols[a] * 8 + cols[b]]
            per_s += diff64[sym_cols[a] * 8 + sym_cols[b]]
        eq = per == per_s
        preserved_total += int(eq.sum())
        idx = np.flatnonzero(eq)
        xs = masks[idx].astype(np.uint32)
        ss = sym[idx].astype(np.uint32)
        matched = np.zeros(len(xs), dtype=bool)
        for t0, t1, t2 in iso_tables:
            tr = t0[xs & 511] | t1[(xs >> 9) & 511] | t2[xs >> 18]
            matched |= tr == ss
        bad = np.flatnonzero(~matched)[: max(0, limit - len(violations))]
        violations += [VoxelSet(3, c) for c in _mask_cells(xs[bad], 3, 3)]
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
