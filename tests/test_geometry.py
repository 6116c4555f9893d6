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
    _mask_cells,
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
                assert x.volume() == v.volume()
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


def _mask_cells_reference(masks, dim, res):
    """Bit ``i`` of each mask, by shifts, as one flat cell per bit."""
    n = res**dim
    flat = [[bool(int(mask) >> i & 1) for i in range(n)] for mask in masks]
    return np.array(flat, dtype=bool).reshape((len(flat),) + (res,) * dim)


class TestMaskCells:
    @pytest.mark.parametrize("dim,res", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 2)])
    def test_every_mask_of_small_grids(self, dim, res):
        masks = np.arange(1 << res**dim, dtype=np.uint64)
        assert np.array_equal(_mask_cells(masks, dim, res), _mask_cells_reference(masks, dim, res))

    def test_random_27_bit_words(self):
        rng = np.random.default_rng(31)
        words = rng.integers(0, 1 << 27, size=500, dtype=np.uint32)
        assert np.array_equal(_mask_cells(words, 3, 3), _mask_cells_reference(words, 3, 3))
        assert _mask_cells([], 3, 3).shape == (0, 3, 3, 3)


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
