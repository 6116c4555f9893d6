"""Certified rational enclosures for the few irrational scalars that occur.

Roots such as V^(1/3), sqrt(V) and cubic roots are either detected as exact
rationals or bracketed by bisection into an interval of width at most
2^-bits.  Verdict-level comparisons never go through floating point: a
comparison of ``c * x^(p/q)`` against a rational reduces to an integer
comparison of powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import DomainError

DEFAULT_BITS = 64
DECIMAL_DIGITS = 12  # fractional digits of format_decimal


@dataclass(frozen=True)
class Enclosure:
    """A closed rational interval certified to contain one real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError("empty enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint())


Scalar = Union[Fraction, Enclosure]


def iroot(k: int, n: int) -> tuple[int, bool]:
    """Integer floor n-th root of k >= 0 with an exactness flag."""
    if k < 0 or n < 1:
        raise DomainError("iroot requires k >= 0, n >= 1")
    if k in (0, 1) or n == 1:
        return k, True
    # Integer Newton from a seed above the root: the iterates decrease
    # until they reach the floor root, with no float range or rounding.
    r = 1 << -(-k.bit_length() // n)
    while True:
        s = ((n - 1) * r + k // r ** (n - 1)) // n
        if s >= r:
            return r, r**n == k
        r = s


def exact_nth_root(x: Fraction, n: int) -> Fraction | None:
    """x^(1/n) when it is rational (numerator and denominator are n-th
    powers in lowest terms), else None."""
    if x < 0:
        raise DomainError("roots of negatives are not needed here")
    pn, p_ok = iroot(x.numerator, n)
    qn, q_ok = iroot(x.denominator, n)
    if p_ok and q_ok:
        return Fraction(pn, qn)
    return None


def nth_root(x: Fraction, n: int, bits: int = DEFAULT_BITS) -> Scalar:
    """x^(1/n) for 0 <= x <= 1: exact, or the dyadic cell
    ``[r, r + 1] / 2^bits`` that holds it, found by bisection of [0, 1]."""
    if not 0 <= x <= 1:
        raise DomainError("nth_root is posed for 0 <= x <= 1")
    exact = exact_nth_root(x, n)
    if exact is not None:
        return exact
    return bisect_enclosure(lambda t: t**n - x, Fraction(0), Fraction(1), bits)


def bisect_enclosure(
    f: Callable[[Fraction], Fraction],
    lo: Fraction,
    hi: Fraction,
    bits: int = DEFAULT_BITS,
) -> Enclosure:
    """Bracket the root of a sign-changing exact function to width 2^-bits.

    ``f`` must be evaluated exactly (rational in, rational out) and satisfy
    f(lo) <= 0 <= f(hi) or f(hi) <= 0 <= f(lo).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return Enclosure(lo, lo)
    if fhi == 0:
        return Enclosure(hi, hi)
    if (flo < 0) == (fhi < 0):
        raise DomainError("no sign change on the bracketing interval")
    target = Fraction(1, 2**bits)
    while hi - lo > target:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return Enclosure(mid, mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return Enclosure(lo, hi)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Exact Horner evaluation; coeffs ordered highest degree first."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_root(
    coeffs: Sequence[Fraction],
    lo: Fraction,
    hi: Fraction,
    bits: int = DEFAULT_BITS,
) -> Enclosure:
    return bisect_enclosure(lambda t: poly_eval(coeffs, t), lo, hi, bits)


def cmp_power(c: Fraction, x: Fraction, p: int, q: int, r: Fraction) -> int:
    """Exact sign of ``c * x^(p/q) - r`` for c, x, r >= 0.

    Raising both sides to the q-th power turns the comparison into exact
    rational arithmetic, so the answer is certified even when x^(p/q) is
    irrational.
    """
    if c < 0 or x < 0 or r < 0:
        raise DomainError("cmp_power expects nonnegative quantities")
    lhs = c**q * x**p
    rhs = r**q
    return (lhs > rhs) - (lhs < rhs)


def format_decimal(q: Fraction, rounding: str = "nearest") -> str:
    """Fixed-point decimal with ``DECIMAL_DIGITS`` fractional digits.

    ``rounding`` is "nearest" (ties to even), "floor", or "ceil"; the
    directed modes keep printed enclosure endpoints genuinely enclosing.
    """
    if rounding not in ("nearest", "floor", "ceil"):
        raise DomainError(f"unknown rounding mode {rounding!r}")
    scaled = q * 10**DECIMAL_DIGITS
    n = scaled.numerator
    d = scaled.denominator
    neg = n < 0
    whole, rem = divmod(abs(n), d)
    if rem:
        if rounding == "nearest":
            if 2 * rem > d or (2 * rem == d and whole % 2 == 1):
                whole += 1
        elif (rounding == "ceil") != neg:
            whole += 1  # directed away from the truncated magnitude
    sign = "-" if neg and whole else ""
    text = str(whole).rjust(DECIMAL_DIGITS + 1, "0")
    return f"{sign}{text[:-DECIMAL_DIGITS]}.{text[-DECIMAL_DIGITS:]}"
