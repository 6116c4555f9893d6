"""Lattice oracle: enumeration counts, discrete minima, strip problem."""

from fractions import Fraction as F

import numpy as np
import pytest

from cubeiso.errors import DomainError, ResolutionCapError
from cubeiso.geometry import VoxelSet, devoxelize
from cubeiso.search import (
    box_count,
    brute_min,
    brute_min_general,
    brute_sweep,
    count_monotone,
    enumerate_monotone,
    strip_brute_min,
)
from cubeiso.symmetrize import is_symmetrized


class TestEnumeration:
    def test_counts_match_product_formula(self):
        assert count_monotone(2, 2) == 6
        assert count_monotone(3, 2) == 20 == box_count(2, 2, 2)
        assert count_monotone(3, 3) == 980 == box_count(3, 3, 3)

    def test_m4_count(self):
        assert count_monotone(3, 4) == 232_848 == box_count(4, 4, 4)

    def test_no_duplicates_small(self):
        shapes = list(enumerate_monotone(3, 2))
        assert len(set(shapes)) == len(shapes)

    def test_shapes_are_symmetrized(self):
        for s in enumerate_monotone(2, 3):
            assert is_symmetrized(devoxelize(s.to_voxel()))

    def test_caps_are_hard_errors(self):
        with pytest.raises(ResolutionCapError):
            list(enumerate_monotone(2, 7))
        with pytest.raises(ResolutionCapError):
            list(enumerate_monotone(3, 5))

    def test_face_count_matches_voxel(self):
        for s in enumerate_monotone(3, 3):
            assert s.face_count() == s.to_voxel().face_count()
            assert s.cell_count() == s.to_voxel().count()


class TestBruteMin:
    def test_eighth_volume(self):
        r = brute_min(3, 4, 8)
        assert r.min_perimeter == F(3, 4)
        keys = {v.orbit_key() for v in r.minimizers}
        cube = np.zeros((4, 4, 4), dtype=bool)
        cube[:2, :2, :2] = True
        assert VoxelSet(4, cube).orbit_key() in keys
        brick = np.zeros((4, 4, 4), dtype=bool)
        brick[:1, :2, :] = True
        assert VoxelSet(4, brick).orbit_key() in keys

    def test_quarter_volume_2d_tie(self):
        r = brute_min(2, 4, 4)
        assert r.min_perimeter == 1
        keys = {v.orbit_key() for v in r.minimizers}
        square = np.zeros((4, 4), dtype=bool)
        square[:2, :2] = True
        strip = np.zeros((4, 4), dtype=bool)
        strip[:1, :] = True
        assert VoxelSet(4, square).orbit_key() in keys
        assert VoxelSet(4, strip).orbit_key() in keys

    def test_half_volume_slab(self):
        r = brute_min(3, 2, 4)
        assert r.min_perimeter == 1
        assert len(r.minimizers) == 1
        assert devoxelize(r.minimizers[0]).volume() == F(1, 2)

    def test_cell_range_check(self):
        with pytest.raises(DomainError):
            brute_min(3, 2, 7)

    def test_general_equals_monotone(self):
        for m in (2, 3, 4):
            for k in range(0, m * m // 2 + 1):
                assert (
                    brute_min(2, m, k).min_perimeter
                    == brute_min_general(2, m, k).min_perimeter
                )
        for k in range(0, 5):
            assert (
                brute_min(3, 2, k).min_perimeter
                == brute_min_general(3, 2, k).min_perimeter
            )

    def test_sweep_matches_enumeration(self):
        """The row-transfer DP of ``brute_sweep`` reproduces the minima
        collected by one pass over the enumeration: the face counts and the
        exact argmin shape sets."""
        for dim, top in ((2, 6), (3, 4)):
            for m in range(1, top + 1):
                minima = {}
                for s in enumerate_monotone(dim, m):
                    k, f = s.cell_count(), s.face_count()
                    if k not in minima or f < minima[k][0]:
                        minima[k] = (f, {s})
                    elif f == minima[k][0]:
                        minima[k][1].add(s)
                sweep = brute_sweep(dim, m)
                assert sweep.keys() == minima.keys()
                for k, (f, shapes) in sweep.items():
                    assert len(set(shapes)) == len(shapes)
                    assert (f, set(shapes)) == minima[k], (dim, m, k)

    def test_sweep_caps_and_cache(self):
        with pytest.raises(ResolutionCapError):
            brute_sweep(2, 7)
        with pytest.raises(ResolutionCapError):
            brute_sweep(3, 5)
        assert brute_sweep(3, 3) is brute_sweep(3, 3)

    def test_general_cap(self):
        with pytest.raises(ResolutionCapError):
            brute_min_general(3, 3, 1)


class TestStrip:
    def test_square_boundary(self):
        assert strip_brute_min(4, 2, 4) == 1  # 2x2 square, V = a^2

    def test_full_strip(self):
        assert strip_brute_min(4, 2, 8) == 1

    def test_single_cell(self):
        assert strip_brute_min(4, 2, 1) == F(1, 2)

    def test_capacity_check(self):
        with pytest.raises(DomainError):
            strip_brute_min(4, 2, 9)
        with pytest.raises(DomainError):
            strip_brute_min(4, 4, 1)


class TestReductionCrossValidation:
    def test_reduction_never_beats_the_profile(self):
        """Reduce every small monotone shape: volume exact, perimeter never
        above the input and never below the continuous profile bound.

        Off-grid outputs may beat the grid minimum (a staircase can reduce
        to a slab of irrational-free but non-grid width), so the binding
        floor is the profile, certified by power comparisons.
        """
        from fractions import Fraction as F

        from cubeiso.classify import profile
        from cubeiso.enclosure import cmp_power
        from cubeiso.variation import reduce_to_special

        checked = 0
        for s in enumerate_monotone(3, 3):
            k = s.cell_count()
            if not 0 < k <= 13 or k % 3 != 0:  # sample a third of the shapes
                continue
            x = devoxelize(s.to_voxel())
            y, _ = reduce_to_special(x)
            assert y.volume() == x.volume()
            p = y.relative_perimeter()
            assert p <= x.relative_perimeter()
            v = F(k, 27)
            kinds = profile(v).kinds
            if "slab" in kinds:
                assert p >= 1
            elif "tube" in kinds:
                assert cmp_power(F(2), v, 1, 2, p) <= 0
            else:
                assert cmp_power(F(3), v, 2, 3, p) <= 0
            checked += 1
        assert checked > 100
