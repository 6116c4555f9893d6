"""Steiner symmetrization: definition, fixed points, and its five properties."""

from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from strategies import grid_or_rational_sets

from cubeiso.geometry import CubicalSet, _is_monotone_cells, boundary_faces, devoxelize, voxelize
from cubeiso.sampling import random_voxel
from cubeiso.symmetrize import is_symmetrized, steiner, symmetrize_all

HALF = F(1, 2)


def cs(dim, pairs):
    return CubicalSet.from_coords(dim, pairs)


def test_push_to_wall():
    x = cs(3, [((HALF, 0, 0), (1, 1, 1))])
    assert steiner(x, 0) == cs(3, [((0, 0, 0), (HALF, 1, 1))])


def test_disjoint_intervals_concatenate():
    x = cs(2, [((0, 0), (F(1, 4), 1)), ((HALF, 0), (F(3, 4), 1))])
    assert steiner(x, 0) == cs(2, [((0, 0), (HALF, 1))])


def test_tri_slab_fixed_point():
    a, b, c = F(1, 5), F(1, 4), F(1, 6)
    x = cs(3, [((0, 0, 0), (a, 1, 1)), ((0, 0, 0), (1, b, 1)), ((0, 0, 0), (1, 1, c))])
    for i in range(3):
        assert steiner(x, i) == x
    assert is_symmetrized(x)


def test_is_symmetrized_examples():
    assert is_symmetrized(cs(3, [((0, 0, 0), (F(1, 3), F(1, 4), F(1, 5)))]))
    assert not is_symmetrized(cs(3, [((F(1, 4), 0, 0), (F(3, 4), 1, 1))]))


def test_checkerboard_symmetrizes_to_slab():
    x = cs(2, [((0, HALF), (HALF, 1)), ((HALF, 0), (1, HALF))])
    y = symmetrize_all(x)
    assert y == cs(2, [((0, 0), (HALF, 1))]) or y == cs(2, [((0, 0), (1, HALF))])
    assert x.relative_perimeter() == 2
    assert y.relative_perimeter() == 1
    assert y.volume() == x.volume() == HALF


def test_column_profiles_sum_to_volume():
    q = F(1, 4)
    x = cs(2, [((0, 0), (HALF, 1)), ((HALF, q), (1, 3 * q))])
    # column heights along axis 1: 1 over [0, 1/2] and 1/2 over [1/2, 1]
    assert steiner(x, 1) == cs(2, [((0, 0), (HALF, 1)), ((HALF, 0), (1, HALF))])
    # along axis 0: 1/2, 1 and 1/2 over the quarters [0, 1/4], [1/4, 3/4], [3/4, 1]
    assert steiner(x, 0) == cs(2, [((0, 0), (HALF, 1)), ((HALF, q), (1, 3 * q))])
    for axis in range(2):
        y = steiner(x, axis)
        assert y.grids[axis] == (0, HALF, 1)  # the distinct heights with 0 and 1
        assert y.volume() == x.volume() == F(3, 4)  # 1 * 1/2 + 1/2 * 1/2


def test_properties_on_random_voxel_sets():
    rng = np.random.default_rng(41)
    for trial in range(60):
        dim = 2 if trial % 2 == 0 else 3
        m = int(rng.integers(2, 5))
        v = random_voxel(rng, dim, m)
        x = devoxelize(v)
        for axis in range(dim):
            s = steiner(x, axis)
            assert s.volume() == x.volume()
            assert s.relative_perimeter() <= x.relative_perimeter()
            assert steiner(s, axis) == s
            # voxel fast path agrees with the exact kernel
            assert voxelize(s, m) == v.steiner(axis)


def test_stability_property():
    rng = np.random.default_rng(43)
    for _ in range(25):
        v = random_voxel(rng, 3, 3)
        x = devoxelize(v)
        for i in range(3):
            y = steiner(x, i)  # now fixed along i
            for j in range(3):
                z = steiner(y, j)
                assert steiner(z, i) == z


def test_symmetrized_iff_monotone_voxel():
    rng = np.random.default_rng(47)
    for _ in range(40):
        v = random_voxel(rng, 2, 4)
        assert is_symmetrized(devoxelize(v)) == _is_monotone_cells(v.cells)


def test_symmetrize_all_output_is_always_symmetrized():
    rng = np.random.default_rng(53)
    for _ in range(20):
        v = random_voxel(rng, 3, 4)
        y = symmetrize_all(devoxelize(v))
        assert is_symmetrized(y)
        assert y.volume() == v.volume()
        assert y.relative_perimeter() <= v.relative_perimeter()


@settings(max_examples=60, deadline=None)
@given(grid_or_rational_sets())
def test_grid_kernel_laws(x):
    sweep = sum((region.volume() for _, _, region in boundary_faces(x)), F(0))
    assert x.relative_perimeter() == sweep
    for y in (x, steiner(x, 0), symmetrize_all(x)):
        assert is_symmetrized(y) == all(steiner(y, i) == y for i in range(y.dim))
        for i in range(y.dim):
            assert steiner(y, i).volume() == y.volume()
        assert y._widths() is y._widths()  # scaled once per set
