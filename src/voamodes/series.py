"""Exact rationals and the generalized binomials of the series expansions.

A formal series Y(w1, x) w2 is a plain dict {exponent: FockVector} with
`Fraction` exponents (so x^(1/8) is a legal monomial) and no zero
vectors, so equality is plain dict equality.  No log x terms occur:
every module shipped here has semisimple L(0).  The scalar series that
multiply them, powers (1+x)^alpha, enter only through their
coefficients, the generalized binomials C(alpha, m) below.  Nothing here
is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


def rat(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    # isinstance against Fraction runs the ABC check, so it comes last
    if type(value) is Fraction:
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' (lowest terms, q > 0)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def gen_binomial(a, m: int) -> Fraction:
    """Generalized binomial a(a-1)...(a-m+1)/m! for integer or rational a.

    For integer a >= 0 and m > a this vanishes; for negative or fractional
    a it never does.
    """
    if m < 0:
        raise ValueError("lower index of a binomial must be a natural number")
    # an int top keys the same cache entry as the equal Fraction (they hash
    # and compare alike), and the product below is a Fraction either way
    return _binom_cached(a if type(a) is int else rat(a), m)


@lru_cache(maxsize=None)
def _binom_cached(a: Fraction, m: int) -> Fraction:
    num = Fraction(1)
    for i in range(m):
        num *= a - i
    return num / factorial(m)
