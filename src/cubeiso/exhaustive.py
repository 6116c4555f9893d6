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
that reduction and a chunked bit-parallel pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionCapError
from .geometry import (
    VoxelSet,
    _all_subsets,
    _face_counts,
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
    n_cells = res**dim
    occ = _all_subsets(dim, res)
    n = len(occ)
    perim = _face_counts(occ, dim)
    isos = [(g.perm, g.flip) for g in all_isometries(dim)]
    violations = []
    preserved_total = 0
    for axis in range(dim):
        sym = _steiner_cells(occ, dim, axis)
        eq = perim == _face_counts(sym, dim)
        preserved_total += int(eq.sum())
        matched = np.zeros(n, dtype=bool)
        for perm, flips in isos:
            tr = _transform_cells(occ, dim, perm, flips)
            matched |= (tr == sym).reshape(n, -1).all(axis=1)
        bad = np.flatnonzero(eq & ~matched)
        for mask in bad[: max(0, limit - len(violations))]:
            flat = [i for i in range(n_cells) if int(mask) >> i & 1]
            violations.append(VoxelSet.from_indices(dim, res, flat))
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


def _luts_3x3x3():
    pc = np.array([bin(v).count("1") for v in range(8)], dtype=np.uint32)
    fill = np.array([0, 1, 3, 7], dtype=np.uint32)[pc]
    caps = np.array(
        [bin((v ^ (v >> 1)) & 0b011).count("1") for v in range(8)],
        dtype=np.uint32,
    )
    diff = np.zeros((8, 8), dtype=np.uint32)
    for a in range(8):
        for b in range(8):
            diff[a, b] = bin(a ^ b).count("1")
    return fill, caps, diff.reshape(64)


def _iso_chunk_tables():
    """For each cube isometry, three 512-entry tables mapping source bit
    chunks to transformed 27-bit words."""
    tables = []
    for g in all_isometries(3):
        pos = {}
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    src = (x, y, z)
                    # target index j reads source cell perm/flip-mapped
                    j_coord = []
                    for i in range(3):
                        c = src[g.perm[i]]
                        j_coord.append(2 - c if g.flip[i] else c)
                    # invert: bit j of g(X) equals bit (x,y,z) of X
                    j = j_coord[0] * 9 + j_coord[1] * 3 + j_coord[2]
                    pos[x * 9 + y * 3 + z] = j
        chunk_tabs = []
        for k in range(3):
            tab = np.zeros(512, dtype=np.uint32)
            for v in range(512):
                out = 0
                for b in range(9):
                    if v >> b & 1:
                        out |= 1 << pos[9 * k + b]
                tab[v] = out
            chunk_tabs.append(tab)
        tables.append(chunk_tabs)
    return tables


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
        bad = np.flatnonzero(~matched)
        for mask in xs[bad[: max(0, limit - len(violations))]]:
            flat = [i for i in range(27) if int(mask) >> i & 1]
            violations.append(VoxelSet.from_indices(3, 3, flat))
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
