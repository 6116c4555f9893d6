"""Exact geometry kernel: canonical form, measures, sections, isometries."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import grid_or_rational_sets

from cubeiso.errors import AlignmentError, DimensionMismatchError, DomainError, UnitCubeError
from cubeiso.geometry import (
    CubeIsometry,
    CubicalSet,
    VoxelSet,
    _axis_masks,
    _face_count,
    _mask_cells,
    _popcount,
    _steiner,
    all_isometries,
    boundary_faces,
    box,
    devoxelize,
    equal_up_to_isometry,
    voxelize,
)

HALF = F(1, 2)


def cs(dim, pairs):
    return CubicalSet.from_coords(dim, pairs)


class TestNormalize:
    def test_l_shape_two_boxes(self):
        x = cs(2, [((0, 0), (HALF, 1)), ((0, 0), (1, HALF))])
        assert len(x.boxes) == 2
        assert x.volume() == F(3, 4)
        # point-set equality with the input union
        for p in [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), (F(1, 4), F(1, 4))]:
            assert x.contains(p)
        assert not x.contains((F(3, 4), F(3, 4)))

    def test_already_canonical(self):
        x = cs(3, [((0, 0, 0), (HALF, HALF, HALF))])
        assert x.boxes == (box((0, 0, 0), (HALF, HALF, HALF)),)

    def test_overlap_resolution(self):
        x = cs(2, [((0, 0), (F(3, 4), HALF)), ((F(1, 4), 0), (1, HALF))])
        assert x == cs(2, [((0, 0), (1, HALF))])

    def test_idempotent(self):
        x = cs(2, [((0, 0), (HALF, 1)), ((0, 0), (1, HALF))])
        assert CubicalSet.from_boxes(2, x.boxes) == x

    def test_point_set_faithful_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            raw = []
            for _ in range(int(rng.integers(1, 5))):
                lo = [F(int(rng.integers(0, 4)), 8) for _ in range(dim)]
                hi = [c + F(int(rng.integers(1, 4)), 8) for c in lo]
                hi = [min(c, F(1)) for c in hi]
                raw.append((tuple(lo), tuple(hi)))
            x = cs(dim, raw)
            for _ in range(20):
                p = tuple(F(int(rng.integers(0, 17)), 16) for _ in range(dim))
                expected = any(
                    all(a <= c <= b for a, c, b in zip(lo, p, hi))
                    for lo, hi in raw
                )
                assert x.contains(p) == expected

    def test_rejects_bad_boxes(self):
        with pytest.raises(UnitCubeError):
            box((0, 0), (0, 1))  # degenerate side
        with pytest.raises(UnitCubeError):
            box((0, 0), (F(3, 2), 1))  # outside the cube
        with pytest.raises(DimensionMismatchError):
            CubicalSet.from_boxes(2, [box((0,), (1,))])


class TestMeasures:
    def test_volume_examples(self):
        assert cs(3, [((0, 0, 0), (HALF, HALF, HALF))]).volume() == F(1, 8)
        assert CubicalSet.empty(2).volume() == 0
        a, b = F(1, 3), F(1, 5)
        lshape = cs(2, [((0, 0), (a, 1)), ((0, 0), (1, b))])
        assert lshape.volume() == a + b - a * b

    def test_perimeter_examples(self):
        a = F(2, 7)
        assert cs(3, [((0, 0, 0), (a, a, a))]).relative_perimeter() == 3 * a * a
        assert cs(3, [((0, 0, 0), (a, a, 1))]).relative_perimeter() == 2 * a
        assert cs(3, [((0, 0, 0), (F(2, 5), 1, 1))]).relative_perimeter() == 1
        assert CubicalSet.unit(3).relative_perimeter() == 0

    def test_perimeter_1d(self):
        assert cs(1, [((0,), (F(1, 3),))]).relative_perimeter() == 1
        assert cs(1, [((F(1, 4),), (F(1, 2),))]).relative_perimeter() == 2


class TestSections:
    def test_cross_section_constant_column(self):
        x = cs(3, [((0, 0, 0), (HALF, HALF, HALF))])
        sq = cs(2, [((0, 0), (HALF, HALF))])
        assert x.cross_section(2, F(1, 4), "below") == sq
        assert x.cross_section(2, F(1, 4), "above") == sq

    def test_cross_section_at_face(self):
        x = cs(3, [((0, 0, 0), (HALF, HALF, HALF))])
        assert x.cross_section(2, HALF, "below") == cs(2, [((0, 0), (HALF, HALF))])
        assert x.cross_section(2, HALF, "above").is_empty

    def test_cross_section_domain_errors(self):
        x = cs(2, [((0, 0), (HALF, HALF))])
        with pytest.raises(DomainError):
            x.cross_section(0, 0, "below")
        with pytest.raises(DomainError):
            x.cross_section(0, 1, "above")
        with pytest.raises(DomainError):
            x.cross_section(0, HALF, "sideways")

    def test_boundary_slice(self):
        a = F(1, 3)
        x = cs(3, [((0, 0, 0), (a, a, a))])
        face = x.boundary_slice(0, a)
        assert face.volume() == a * a
        assert x.boundary_slice(0, F(1, 5)).volume() == 0

    def test_l_prism_section(self):
        a, b, c = F(1, 4), F(1, 3), F(3, 5)
        prism = cs(3, [((0, 0, 0), (a, 1, c)), ((0, 0, 0), (1, b, c))])
        below = prism.cross_section(2, c, "below")
        assert below == cs(2, [((0, 0), (a, 1)), ((0, 0), (1, b))])
        assert prism.cross_section(2, c, "above").is_empty


class TestBoolean:
    def test_complement(self):
        a = F(2, 5)
        slab = cs(3, [((0, 0, 0), (a, 1, 1))])
        comp = slab.complement()
        assert comp == cs(3, [((a, 0, 0), (1, 1, 1))])
        assert comp.volume() == 1 - slab.volume()
        assert comp.relative_perimeter() == slab.relative_perimeter()
        assert CubicalSet.empty(2).complement() == CubicalSet.unit(2)

    def test_tri_slab_complement_is_corner_cube(self):
        a = F(1, 5)
        tri = cs(
            3,
            [((0, 0, 0), (a, 1, 1)), ((0, 0, 0), (1, a, 1)), ((0, 0, 0), (1, 1, a))],
        )
        corner = cs(3, [((a, a, a), (1, 1, 1))])
        assert tri.complement() == corner
        assert tri.relative_perimeter() == 3 * (1 - a) ** 2
        assert corner.relative_perimeter() == 3 * (1 - a) ** 2

    def test_complement_involution_random(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            v = VoxelSet(4, rng.random((4, 4)) < 0.5)
            x = devoxelize(v)
            assert x.complement().complement() == x
            assert x.volume() + x.complement().volume() == 1
            assert x.complement().relative_perimeter() == x.relative_perimeter()


class TestIsometry:
    def test_apply_examples(self):
        a = F(1, 3)
        slab = cs(3, [((0, 0, 0), (a, 1, 1))])
        ident = CubeIsometry((0, 1, 2), (False, False, False))
        assert slab.apply(ident) == slab
        flip0 = CubeIsometry((0, 1, 2), (True, False, False))
        assert slab.apply(flip0) == cs(3, [((1 - a, 0, 0), (1, 1, 1))])
        b = F(1, 5)
        boxab = cs(3, [((0, 0, 0), (a, b, 1))])
        swap = CubeIsometry((1, 0, 2), (False, False, False))
        assert boxab.apply(swap) == cs(3, [((0, 0, 0), (b, a, 1))])

    def test_group_axioms(self):
        isos = list(all_isometries(3))
        assert len(isos) == 48
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = devoxelize(VoxelSet(3, rng.random((3, 3, 3)) < 0.5))
            images = {x.apply(g) for g in isos}
            for _ in range(30):
                g = isos[int(rng.integers(0, 48))]
                h = isos[int(rng.integers(0, 48))]
                assert x.apply(g).apply(g.inverse()) == x
                assert x.apply(h).apply(g) in images  # closed under composition

    def test_invariance_of_measures(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = VoxelSet(3, rng.random((3, 3, 3)) < 0.5)
            x = devoxelize(v)
            for g in all_isometries(3):
                y = x.apply(g)
                assert y.volume() == x.volume()
                assert y.relative_perimeter() == x.relative_perimeter()

    def test_group_is_built_once(self):
        for n in range(1, 5):
            group = all_isometries(n)
            assert len({(g.perm, g.flip) for g in group}) == 2**n * math.factorial(n)
            assert all_isometries(n) is group

    def test_equal_up_to_isometry(self):
        a = F(1, 4)
        tube_x = cs(3, [((0, 0, 0), (a, a, 1))])
        tube_z = cs(3, [((0, 0, 0), (1, a, a))])
        g = equal_up_to_isometry(tube_x, tube_z)
        assert g is not None
        assert tube_x.apply(g) == tube_z
        # cube and tube of the same volume 1/64 are not isometric
        cube = cs(3, [((0, 0, 0), (a, a, a))])
        thin_tube = cs(3, [((0, 0, 0), (F(1, 8), F(1, 8), 1))])
        assert cube.volume() == thin_tube.volume()
        assert equal_up_to_isometry(cube, thin_tube) is None


@st.composite
def two_sets_and_isometry(draw):
    dim = draw(st.integers(1, 3))
    x = draw(grid_or_rational_sets(dim))
    y = draw(grid_or_rational_sets(dim))
    return x, y, draw(st.sampled_from(list(all_isometries(dim))))


@settings(max_examples=60, deadline=None)
@given(two_sets_and_isometry())
def test_boolean_algebra_laws(sets):
    x, y, _ = sets
    union, inter = x.union(y), x.intersection(y)
    assert union == y.union(x)
    assert inter == y.intersection(x)
    assert x.sym_difference(y) == y.sym_difference(x) == union.difference(inter)
    assert x.difference(y) == x.intersection(y.complement())
    assert union.complement() == x.complement().intersection(y.complement())
    assert x.union(inter) == x == x.intersection(union)
    assert x.intersection(x.complement()).is_empty
    assert union.volume() + inter.volume() == x.volume() + y.volume()


@settings(max_examples=60, deadline=None)
@given(two_sets_and_isometry())
def test_isometry_invariance(sets):
    x, y, g = sets
    gx, gy = x.apply(g), y.apply(g)
    assert gx.volume() == x.volume()
    assert gx.relative_perimeter() == x.relative_perimeter()
    assert x.union(y).apply(g) == gx.union(gy)
    assert x.intersection(y).apply(g) == gx.intersection(gy)
    assert x.complement().apply(g) == gx.complement()
    assert gx.apply(g.inverse()) == x


@settings(max_examples=60, deadline=None)
@given(two_sets_and_isometry())
def test_the_set_is_its_canonical_grid(sets):
    x, y, g = sets
    assert CubicalSet.from_boxes(x.dim, x.boxes) == x
    for axis, cuts in enumerate(x.grids):
        assert cuts[0] == 0 and cuts[-1] == 1 and list(cuts) == sorted(set(cuts))
        for k in range(1, len(cuts) - 1):  # occupancy changes across every interior cut
            below, above = np.take(x.occ, k - 1, axis=axis), np.take(x.occ, k, axis=axis)
            assert np.any(below != above)
    for z in (y, x.apply(g), x.union(x.intersection(y)), x.complement()):
        assert (x == z) == x.sym_difference(z).is_empty
        assert (x == z) == (hash(x) == hash(z) and x.boxes == z.boxes)


@settings(max_examples=60, deadline=None)
@given(grid_or_rational_sets())
def test_complement_keeps_perimeter(x):
    comp = x.complement()
    assert comp.relative_perimeter() == x.relative_perimeter()
    assert comp.volume() == 1 - x.volume()
    assert comp.complement() == x


class TestVoxel:
    def test_roundtrip(self):
        x = cs(3, [((0, 0, 0), (HALF, HALF, HALF))])
        v = voxelize(x, 4)
        assert v.count() == 8
        assert devoxelize(v) == x
        assert voxelize(devoxelize(v), 4) == v

    def test_full_grid(self):
        v = VoxelSet(3, np.ones((3, 3), dtype=bool))
        assert devoxelize(v) == CubicalSet.unit(2)

    def test_alignment_error(self):
        x = cs(3, [((0, 0, 0), (F(1, 3), F(1, 3), F(1, 3)))])
        with pytest.raises(AlignmentError):
            voxelize(x, 4)

    def test_face_count_matches_sweep(self):
        rng = np.random.default_rng(17)
        for dim, m in ((2, 5), (3, 3), (3, 4)):
            for _ in range(8):
                v = VoxelSet(m, rng.random((m,) * dim) < 0.5)
                x = devoxelize(v)
                assert x.volume() == F(v.count(), v.res ** v.dim)
                sweep = sum(region.volume() for _, _, region in boundary_faces(x))
                assert x.relative_perimeter() == sweep == v.relative_perimeter()

    def test_voxel_isometry_matches_exact(self):
        rng = np.random.default_rng(23)
        v = VoxelSet(3, rng.random((3, 3, 3)) < 0.5)
        for g in all_isometries(3):
            assert devoxelize(v.apply(g)) == devoxelize(v).apply(g)

    def test_orbit_key_is_the_least_image(self):
        rng = np.random.default_rng(29)
        for dim, m in ((2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)):
            for _ in range(6):
                v = VoxelSet(m, rng.random((m,) * dim) < 0.5)
                images = [v.apply(g).cells.tobytes() for g in all_isometries(dim)]
                assert v.orbit_key() == min(images)

    def test_voxel_set_is_an_immutable_value(self):
        source = np.zeros((2, 2), dtype=bool)
        v = VoxelSet(2, source)
        held = {v}
        source[0, 0] = True  # the set keeps its own copy
        assert v in held and v.count() == 0 and v == VoxelSet(2, np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            v.cells[0, 0] = True
        for name, value in (("cells", np.ones((2, 2), dtype=bool)), ("res", 1), ("mask", 1)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        assert v.count() == 0 and v.res == 2 and v in held
        for image in (v.steiner(0), v.apply(all_isometries(2)[3])):
            with pytest.raises(ValueError):
                image.cells[0, 0] = True

    def test_counts_are_python_ints(self):
        v = VoxelSet(3, np.eye(3, dtype=bool))
        assert type(v.count()) is int and type(v.face_count()) is int

    def test_cells_and_mask_round_trip(self):
        rng = np.random.default_rng(41)
        for dim, m in ((1, 1), (1, 7), (2, 8), (3, 4), (3, 5), (4, 3)):
            cells = rng.random((m,) * dim) < 0.5
            v = VoxelSet(m, cells)
            assert np.array_equal(v.cells, cells) and not v.cells.flags.writeable
            assert VoxelSet(v.res, v.cells) == v
            assert VoxelSet.from_mask(dim, m, v.mask) == v
            assert VoxelSet.from_indices(dim, m, v.flat_indices()) == v
            assert v.mask == sum(1 << i for i in np.flatnonzero(cells).tolist())
            assert v.count() == np.count_nonzero(cells)

    def test_mask_constructor_checks_its_range(self):
        assert VoxelSet.from_mask(2, 3, (1 << 9) - 1) == VoxelSet(3, np.ones((3, 3), dtype=bool))
        assert VoxelSet.from_mask(3, 5, np.uint64(6)).mask == 6
        for dim, res, mask in ((2, 3, 1 << 9), (2, 3, -1), (3, 5, 1 << 200), (1, 1, 2)):
            with pytest.raises(DomainError):
                VoxelSet.from_mask(dim, res, mask)
        with pytest.raises(DomainError):
            VoxelSet.from_mask(2, 0, 0)
        with pytest.raises(DomainError):
            VoxelSet.from_indices(2, 3, [9])

    def test_steiner_axis_is_checked(self):
        v = VoxelSet(3, np.eye(3, dtype=bool))
        for axis in (-1, 2):
            with pytest.raises(DomainError):
                v.steiner(axis)


def _faces_by_cells(occ):
    """Faces between adjacent cells of different occupancy, one cell at a time."""
    faces = 0
    for cell in np.ndindex(occ.shape):
        for axis in range(occ.ndim):
            succ = cell[:axis] + (cell[axis] + 1,) + cell[axis + 1:]
            if succ[axis] < occ.shape[axis] and occ[cell] != occ[succ]:
                faces += 1
    return faces


def _steiner_by_cells(occ, axis):
    """Cell ``c`` is occupied when fewer cells than its column holds lie below it."""
    out = np.zeros_like(occ)
    for cell in np.ndindex(occ.shape):
        column = cell[:axis] + (slice(None),) + cell[axis + 1:]
        out[cell] = cell[axis] < np.count_nonzero(occ[column])
    return out


@st.composite
def voxel_batches(draw):
    """A batch of 1-3 voxel sets of one grid, dims 1-4 and res 1-8 (up to
    4096 cells), empty and full sets included."""
    dim = draw(st.integers(1, 4))
    res = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((draw(st.integers(1, 3)),) + (res,) * dim) < density


@settings(max_examples=80, deadline=None)
@given(voxel_batches())
def test_kernels_match_per_cell_loops(batch):
    """The mask kernels on one set as a Python int, for grids of any size,
    and on ``uint32`` and ``uint64`` batches of every grid their words hold."""
    dim, res = batch.ndim - 1, batch.shape[1]
    sets = [VoxelSet(res, occ) for occ in batch]
    for v, occ in zip(sets, batch):
        assert _face_count(v.mask, dim, res) == _faces_by_cells(occ)
        for axis in range(dim):
            image = _steiner(v.mask, dim, res, axis)
            assert np.array_equal(_mask_cells(image, dim, res), _steiner_by_cells(occ, axis))
    for dtype in (np.uint32, np.uint64):
        if res**dim > 8 * np.dtype(dtype).itemsize:
            continue
        words = np.array([v.mask for v in sets], dtype=dtype)
        faces = _face_count(words, dim, res)
        assert faces.dtype == np.uint8
        assert faces.tolist() == [_face_count(v.mask, dim, res) for v in sets]
        for axis in range(dim):
            images = _steiner(words, dim, res, axis)
            assert images.dtype == dtype
            assert images.tolist() == [_steiner(v.mask, dim, res, axis) for v in sets]
        assert np.array_equal(words, [v.mask for v in sets])  # the batch is left alone


WORD_SHAPES = [(dim, res) for res in range(2, 65) for dim in range(1, 7) if res**dim <= 64]


@pytest.mark.parametrize("dim,res", WORD_SHAPES)
def test_word_batches_match_the_int_path(dim, res):
    """Every grid of at most 64 cells, in every unsigned word type that holds
    it.  The checkerboards have a face on every adjacent pair, 192 on the
    2^6 grid, so a face count that wraps or a popcount that drops bits of a
    word shows."""
    n = res**dim
    board = VoxelSet(res, np.indices((res,) * dim).sum(axis=0) % 2 == 1).mask
    full = (1 << n) - 1
    rng = np.random.default_rng(n + dim)
    masks = [0, full, board, full ^ board, 1 << (n - 1)]
    masks += [int.from_bytes(rng.bytes(8), "little") >> (64 - n) for _ in range(5)]
    pairs = dim * (res - 1) * res ** (dim - 1)
    assert _face_count(board, dim, res) == _face_count(full ^ board, dim, res) == pairs
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n > 8 * np.dtype(dtype).itemsize:
            continue
        words = np.array(masks, dtype=dtype)
        assert _popcount(words).tolist() == [mask.bit_count() for mask in masks]
        assert _face_count(words, dim, res).tolist() == [_face_count(mask, dim, res) for mask in masks]
        for axis in range(dim):
            assert _steiner(words, dim, res, axis).tolist() == [_steiner(mask, dim, res, axis) for mask in masks]
        assert words.tolist() == masks  # the batch is left alone


@pytest.mark.parametrize("dim,res", [(1, 64), (2, 8), (3, 4), (6, 2)])
def test_steiner_on_full_64_cell_grids(dim, res):
    """Only a 64-cell grid carries the product with ``spread`` into bit 63:
    the ``uint64`` batch, the int path and the per-cell loop agree there."""
    rng = np.random.default_rng(res)
    masks = [0, (1 << 64) - 1, 1 << 63]
    masks += [int.from_bytes(rng.bytes(8), "little") for _ in range(5)]
    words = np.array(masks, dtype=np.uint64)
    for axis in range(dim):
        images = [_steiner(mask, dim, res, axis) for mask in masks]
        assert _steiner(words, dim, res, axis).tolist() == images
        for mask, image in zip(masks, images):
            expected = _steiner_by_cells(_mask_cells(mask, dim, res), axis)
            assert np.array_equal(_mask_cells(image, dim, res), expected)
    assert words.tolist() == masks  # the batch is left alone


def test_shape_tables_are_built_once():
    rng = np.random.default_rng(37)
    VoxelSet(5, rng.random((5, 5, 5)) < 0.5).face_count()
    built = _axis_masks.cache_info().misses
    for _ in range(3):
        v = VoxelSet(5, rng.random((5, 5, 5)) < 0.5)
        v.face_count(), v.steiner(2)
    assert _axis_masks.cache_info().misses == built
    tables = _axis_masks(3, 5)
    assert _axis_masks(3, 5) is tables
    assert [stride for stride, _, _, _ in tables] == [25, 5, 1]
    for stride, succ, bottom, spread in tables:
        assert succ.bit_count() == 4 * 25 and bottom.bit_count() == 25
        # one bit on each of the axis's five levels
        assert [(spread & bottom << k * stride).bit_count() for k in range(5)] == [1] * 5
        assert spread.bit_count() == 5


def _mask_cells_reference(mask, dim, res):
    """Bit ``i`` of the mask, by shifts, as one flat cell per bit."""
    flat = [bool(mask >> i & 1) for i in range(res**dim)]
    return np.array(flat, dtype=bool).reshape((res,) * dim)


class TestMaskCells:
    @pytest.mark.parametrize("dim,res", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 2)])
    def test_every_mask_of_small_grids(self, dim, res):
        for mask in range(1 << res**dim):
            assert np.array_equal(_mask_cells(mask, dim, res), _mask_cells_reference(mask, dim, res))

    def test_random_27_bit_words(self):
        rng = np.random.default_rng(31)
        for mask in rng.integers(0, 1 << 27, size=500).tolist():
            assert np.array_equal(_mask_cells(mask, 3, 3), _mask_cells_reference(mask, 3, 3))
        for mask in (0, (1 << 343) - 1, 1 << 342, rng.integers(0, 1 << 62) << 280):
            assert np.array_equal(_mask_cells(int(mask), 3, 7), _mask_cells_reference(int(mask), 3, 7))


class TestHigherDim:
    def test_4d_box(self):
        a = F(1, 3)
        x = cs(4, [((0, 0, 0, 0), (a, a, a, a))])
        assert x.volume() == a**4
        assert x.relative_perimeter() == 4 * a**3

    def test_boundary_faces_cube(self):
        x = cs(3, [((0, 0, 0), (HALF, HALF, HALF))])
        faces = boundary_faces(x)
        assert len(faces) == 3
        assert all(region.volume() == F(1, 4) for _, _, region in faces)
