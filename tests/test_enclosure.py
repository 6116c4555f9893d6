"""Integer roots and certified enclosures."""

from fractions import Fraction as F

import pytest

from cubeiso.enclosure import exact_nth_root, iroot, nth_root
from cubeiso.errors import DomainError


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("base", [2, 10**150 + 7, 3**400 - 1])
def test_iroot_of_large_powers(base, n):
    k = base**n
    assert iroot(k, n) == (base, True)
    assert iroot(k - 1, n) == (base - 1, False)
    assert iroot(k + 1, n) == (base, False)


def test_iroot_small_values():
    for n in (1, 2, 3, 4):
        for k in range(200):
            r, exact = iroot(k, n)
            assert r**n <= k < (r + 1) ** n
            assert exact == (r**n == k)
    with pytest.raises(DomainError):
        iroot(-1, 2)


def test_roots_beyond_float_range():
    assert exact_nth_root(F(8, 27 * 10**600), 3) == F(2, 3 * 10**200)
    e = nth_root(F(1, 3 * 10**320), 3)
    assert e.lo**3 <= F(1, 3 * 10**320) <= e.hi**3
