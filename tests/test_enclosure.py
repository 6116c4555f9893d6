"""Integer roots and certified enclosures."""

import random
from fractions import Fraction as F

import pytest

from cubeiso.enclosure import (
    Enclosure,
    bisect_enclosure,
    exact_nth_root,
    iroot,
    nth_root,
    poly_root,
)
from cubeiso.errors import DomainError


def dyadic_cell(x, n, bits):
    """x^(1/n) read off the integer root: the cell [r, r + 1] / 2^bits with
    r = iroot(floor(x * 2^(bits * n)), n), or the exact root."""
    exact = exact_nth_root(x, n)
    if exact is not None:
        return exact
    r, _ = iroot((x.numerator << bits * n) // x.denominator, n)
    return Enclosure(F(r, 2**bits), F(r + 1, 2**bits))


def _unit_fractions(rng):
    """Values in (0, 1] with small, 70-bit and 3 * 2^k denominators, plus
    exact squares and cubes."""
    xs = [F(1), F(1, 4), F(8, 27), F(1, 2), F(2, 3), F(1, 3 * 2**40)]
    for _ in range(6):
        d = rng.randrange(2, 60)
        xs.append(F(rng.randrange(1, d + 1), d))
        d = rng.randrange(2**69, 2**70)
        xs.append(F(rng.randrange(1, d + 1), d))
        d = 3 * 2 ** rng.randrange(0, 80)
        xs.append(F(rng.randrange(1, d + 1), d))
    return xs


@pytest.mark.parametrize("n", [2, 3])
def test_nth_root_ends_in_the_integer_root_cell(n):
    for x in _unit_fractions(random.Random(n)):
        for bits in (0, 1, 2, 8, 64, 67, 256):
            assert nth_root(x, n, bits) == dyadic_cell(x, n, bits), (x, bits)


def test_poly_root_brackets_the_cubics():
    v = F(3, 10)
    tripod = (-2, 3, 0, -v)  # 3a^2 - 2a^3 = 3/10 on [0, 1/2]
    wall = (F(2), F(-6), F(6), F(-1))  # criterion 2's cubic on [0, 3/10]
    for coeffs, lo, hi in ((tripod, F(0), F(1, 2)), (wall, F(0), F(3, 10))):
        def p(t):
            return sum(c * t ** (3 - i) for i, c in enumerate(coeffs))

        for bits in range(81):
            enc = poly_root(coeffs, lo, hi, bits)
            assert enc.hi - enc.lo <= F(1, 2**bits)
            assert p(enc.lo) * p(enc.hi) <= 0, bits
    # stationary_parameters' coefficients visit the midpoints of its old lambda
    for bits in range(81):
        assert poly_root(tripod, F(0), F(1, 2), bits) == bisect_enclosure(
            lambda t: 3 * t * t - 2 * t**3 - v, F(0), F(1, 2), bits
        )


@pytest.mark.parametrize("x", [F(-1, 3), F(-1), F(4, 3), F(9)])
def test_nth_root_outside_unit_interval(x):
    with pytest.raises(DomainError):
        nth_root(x, 2)


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
