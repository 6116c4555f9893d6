"""The exhaustive equality-case audit and its own correctness.

The audited claim (perimeter preserved by one symmetrization iff an isometry
carries the set onto its symmetrization) fails on disconnected sets whose
columns anchor at opposite walls, and on face-connected ones as well; the
audit must find such counterexamples and every reported counterexample must
be genuine.
"""

import tracemalloc

import numpy as np
import pytest

from cubeiso import search
from cubeiso.exhaustive import (
    _CHUNK_BITS,
    _audit,
    _isometric,
    _iso_chunk_tables,
    equality_case_audit,
)
from cubeiso.geometry import (
    VoxelSet,
    _face_count,
    _neighbours,
    _steiner,
    _transform_cells,
    all_isometries,
    devoxelize,
)
from cubeiso.symmetrize import steiner


def _is_genuine_violation(v: VoxelSet) -> bool:
    """Recheck a reported counterexample with the exact kernel: perimeter
    preserved along some axis yet no isometry reaches the symmetrization."""
    x = devoxelize(v)
    for axis in range(v.dim):
        s = steiner(x, axis)
        if s.relative_perimeter() != x.relative_perimeter():
            continue
        if s == x:
            continue
        if not any(x.apply(g) == s for g in all_isometries(v.dim)):
            return True
    return False


def test_smallest_grid_is_clean():
    out = equality_case_audit(2, 2)
    assert out.ok
    assert out.checked == 32


def test_2d_m3_finds_opposite_anchor_counterexample():
    out = equality_case_audit(2, 3, limit=5)
    assert not out.ok
    assert all(_is_genuine_violation(v) for v in out.violations)
    # the classic witness: one cell at the top-left wall, one at the
    # bottom-right wall; perimeters match, no isometry matches
    witness = VoxelSet.from_indices(2, 3, [2, 6])
    assert _is_genuine_violation(witness)
    # a face-connected witness: rows 011/010/110 symmetrize along axis 0 to
    # the T-shape 111/010/010, keeping 6 boundary faces
    connected = VoxelSet.from_indices(2, 3, [1, 2, 4, 6, 7])
    assert connected.steiner(0) == VoxelSet.from_indices(2, 3, [0, 1, 2, 4, 7])
    assert connected.face_count() == connected.steiner(0).face_count() == 6
    assert _is_genuine_violation(connected)


def test_3d_m2_also_violates():
    out = equality_case_audit(3, 2, limit=5)
    assert not out.ok
    assert all(_is_genuine_violation(v) for v in out.violations)


def test_3d_m3_bit_pipeline_reports_and_stops():
    out = equality_case_audit(3, 3, limit=2, stop_after=2)
    assert len(out.violations) == 2
    assert out.stopped_early
    assert all(_is_genuine_violation(v) for v in out.violations)


def test_3d_m3_stopped_scan_counts_what_it_checked():
    """A scan that stops early reports the preserved count of the chunks it
    scanned; the batch kernels of the small audit recount those sets."""
    out = equality_case_audit(3, 3, limit=4, stop_after=4)
    assert out.stopped_early and len(out.violations) == 4
    n = out.checked
    assert 0 < n < 1 << 27
    masks = np.arange(n, dtype=np.uint64)
    preserved = _face_count(masks, 3, 3) == _face_count(_steiner(masks, 3, 3, 2), 3, 3)
    assert out.perimeter_preserving == int(preserved.sum())


def _iso_chunk_tables_reference():
    """The per-isometry chunk tables written out cell by cell and bit by bit."""
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


def test_iso_chunk_tables_match_the_written_out_loops():
    """One table per 9-cell chunk, stacked over the 48 isometries."""
    derived = _iso_chunk_tables(3, 3)
    reference = _iso_chunk_tables_reference()
    assert len(reference) == 48
    assert [(t.dtype, t.shape) for t in derived] == [(np.uint32, (48, 512))] * 3
    for g, ref_tabs in enumerate(reference):
        for table, ref in zip(derived, ref_tabs, strict=True):
            assert np.array_equal(table[g], ref)


@pytest.mark.parametrize("dim,res", [(1, 5), (2, 3), (2, 4), (3, 2), (3, 3), (2, 8), (3, 4)])
def test_iso_chunk_tables_map_masks_to_their_images(dim, res):
    rng = np.random.default_rng(47)
    masks = rng.integers(0, 2**64, size=40, dtype=np.uint64) >> (64 - res**dim)
    chunks = [(masks >> start) & 511 for start in range(0, res**dim, 9)]
    tables = _iso_chunk_tables(dim, res)
    group = all_isometries(dim)
    word = np.uint32 if res**dim <= 32 else np.uint64
    assert all(t.dtype == word and len(t) == len(group) and t.shape[1] <= 512 for t in tables)
    for row, g in enumerate(group):
        images = np.bitwise_or.reduce([t[row, c] for t, c in zip(tables, chunks, strict=True)])
        for mask, image in zip(masks.tolist(), images.tolist()):
            assert image == VoxelSet.from_mask(dim, res, mask).apply(g).mask


def test_isometric_reaches_every_block_of_the_group():
    """5000 masks of the 3x3x3 grid map through the 48 isometries in blocks
    of 13; each is matched against its image under one isometry, taken in
    turn, so every block holds the match of some masks."""
    rng = np.random.default_rng(48)
    xs = rng.integers(0, 1 << 27, size=5000, dtype=np.uint32)
    group = all_isometries(3)
    images = [
        VoxelSet.from_mask(3, 3, int(x)).apply(group[i % 48]).mask for i, x in enumerate(xs)
    ]
    targets = np.array(images, dtype=np.uint32)
    assert _isometric(xs, targets, 3, 3).all()
    # every isometry fixes the centre cell, so no image differs from its
    # source there
    assert not _isometric(xs, targets ^ 1 << 13, 3, 3).any()


def _audit_reference(dim, res, masks, axes, limit):
    """The audit of ``masks`` along ``axes`` on boolean cell arrays, with
    per-axis slice comparisons for faces and a height ramp for Steiner."""
    n_cells = res**dim
    words = np.asarray(masks, dtype="<u8").reshape(-1, 1).view(np.uint8)
    bits = np.unpackbits(words, axis=1, count=n_cells, bitorder="little")
    occ = bits.view(bool).reshape((-1,) + (res,) * dim)
    n = len(occ)
    grid = tuple(range(1, dim + 1))

    def faces(cells):
        return sum(np.count_nonzero(np.not_equal(*_neighbours(cells, a)), axis=grid) for a in grid)

    perim = faces(occ)
    violations, preserved_total = [], 0
    for axis in axes:
        heights = occ.sum(axis=axis + 1, keepdims=True)
        sym = np.arange(res).reshape((-1,) + (1,) * (dim - 1 - axis)) < heights
        eq = perim == faces(sym)
        preserved_total += int(eq.sum())
        matched = np.zeros(n, dtype=bool)
        for g in all_isometries(dim):
            tr = _transform_cells(occ, dim, g.perm, g.flip)
            matched |= (tr == sym).reshape(n, -1).all(axis=1)
        bad = np.flatnonzero(eq & ~matched)[: max(0, limit - len(violations))]
        violations += [np.flatnonzero(occ[k]).tolist() for k in bad]
    return n * len(axes), preserved_total, violations


def _audit_small_reference(dim, res, limit):
    """The reference over every subset of the grid along every axis."""
    return _audit_reference(dim, res, np.arange(1 << res**dim), range(dim), limit)


@pytest.mark.parametrize("dim,res", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_small_audit_matches_the_cell_array_reference(dim, res):
    """Below the limit the violations of every axis are listed; at it, the
    later axes give way to the earlier ones.  A small grid is one chunk, so
    it never stops early."""
    for limit, stop_after in ((4, 4), (7, 0), (40, 40)):
        out = equality_case_audit(dim, res, limit=limit, stop_after=stop_after)
        checked, preserved, violations = _audit_small_reference(dim, res, limit)
        assert (out.checked, out.perimeter_preserving) == (checked, preserved)
        assert [v.flat_indices() for v in out.violations] == violations
        assert not out.stopped_early


def _frozen(out):
    return out.checked, out.perimeter_preserving, [v.mask for v in out.violations], out.stopped_early


@pytest.mark.parametrize("limit", [4, 40, 2000])
def test_audit_in_small_chunks_matches_one_chunk(limit):
    """The 4x4 grid in 64 chunks of 2^10 masks gives the outcome of its one
    chunk of 2^16: the same counts and the same violations in order."""
    assert _CHUNK_BITS >= 16
    one = _audit(2, 4, limit, 0, _CHUNK_BITS)
    assert _frozen(_audit(2, 4, limit, 0, 10)) == _frozen(one)
    assert len(one.violations) == min(limit, 864)


def test_general_minima_in_small_chunks_match_one_chunk():
    """The per-k minimum of the first pass is read by the second only once
    every chunk is in; up to half the grid it is the monotone minimum."""
    one = search._all_subsets_minima(2, 4, _CHUNK_BITS)
    assert search._all_subsets_minima(2, 4, 10) == one
    assert [one[k][0] for k in range(9)] == [search.brute_sweep(2, 4)[k][0] for k in range(9)]
    assert one[16] == (0, [(1 << 16) - 1])


def test_3d_m3_first_chunk_matches_the_cell_array_reference():
    """The 3x3x3 scan symmetrizes along axis 2; stopped after its first
    chunk, masks 0 .. 2^16 - 1, it reports that chunk's preserved count and
    its first violations in mask order."""
    out = equality_case_audit(3, 3, limit=8, stop_after=8)
    assert out.stopped_early and out.checked == 1 << 16
    _, preserved, violations = _audit_reference(3, 3, np.arange(1 << 16), [2], 8)
    assert out.perimeter_preserving == preserved
    assert [v.flat_indices() for v in out.violations] == violations


def test_small_audit_holds_no_more_memory_than_the_cell_array_reference():
    peaks = []
    for audit in (_audit_small_reference, equality_case_audit):
        audit(2, 4, 5)  # builds the shape's tables
        tracemalloc.start()
        audit(2, 4, 5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks


@pytest.mark.parametrize("dim,res,stop_after", [(3, 3, 4), (2, 4, 0)])
def test_audits_peak_under_2_5_mb(dim, res, stop_after):
    """The lattice workload's two largest audits, after their tables are
    built: the stopped 3x3x3 scan and the full 4x4 scan."""
    equality_case_audit(dim, res, limit=4, stop_after=stop_after)
    tracemalloc.start()
    equality_case_audit(dim, res, limit=4, stop_after=stop_after)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2.5e6, peak


def test_resolution_cap():
    with pytest.raises(Exception):
        equality_case_audit(3, 4)
