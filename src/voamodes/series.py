"""Exact rationals and the generalized binomials of the series expansions.

A formal series Y(w1, x) w2 is a plain dict {exponent: FockVector} with
`Fraction` exponents (so x^(1/8) is a legal monomial) and no zero
vectors, so equality is plain dict equality.  No log x terms occur:
every module shipped here has semisimple L(0).  The scalar series that
multiply them, powers (1+x)^alpha, enter only through their
coefficients, the generalized binomials C(alpha, m) below.  Nothing here
is ever rounded.

Scalars follow the canonical rule of the Fock coefficients: a value is
a Python `int` when it is integral, otherwise a `Fraction` with
denominator > 1.  The two compare and hash alike, so only the speed of
the arithmetic sees the difference.  Since `int / int` is a float,
code that divides such scalars writes `Fraction(a, b)`.
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


def gen_binomial(a, m: int):
    """Generalized binomial a(a-1)...(a-m+1)/m! for integer or rational a.

    For integer a >= 0 and m > a this vanishes; for negative or fractional
    a it never does.  The value is canonical: an `int` when integral,
    otherwise a `Fraction` with denominator > 1.
    """
    if m < 0:
        raise ValueError("lower index of a binomial must be a natural number")
    # an int top keys the same cache entry as the equal Fraction (they hash
    # and compare alike), and the value does not depend on which one came
    return _binom_cached(a if type(a) is int else rat(a), m)


@lru_cache(maxsize=None)
def _binom_cached(a, m: int):
    # a = p/q: the falling factorial is prod(p - i q) / (q^m m!), on integers
    p, q = a.numerator, a.denominator
    num = 1
    for i in range(m):
        num *= p - i * q
    return _quotient(num, q ** m * factorial(m))


def _quotient(num: int, den: int):
    """num/den as a canonical scalar."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q
