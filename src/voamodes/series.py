"""Exact formal Laurent series calculus over the rationals.

A series is a finite map from exponents to coefficients.  Exponents are
`Fraction`s (so x^(1/8) is a legal monomial).  No log x terms occur:
every module shipped here has semisimple L(0).  Coefficients live in any
abelian group written additively in Python: `Fraction`s, or the sparse
vectors from the oscillator modules.  Nothing here is ever rounded; zero
coefficients are dropped eagerly so equality is plain dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

Q = Fraction


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


class Laurent:
    """Finitely supported sum  c_s * x^s  over rational exponents s.

    Immutable; arithmetic returns new instances.  `terms` maps a
    Fraction exponent to a nonzero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                if _is_zero(coeff):
                    continue
                cleaned[Q(exp)] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):
        raise AttributeError("Laurent is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls({rat(exponent): coeff})

    # -- ring-module structure --------------------------------------------

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
        return Laurent(out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + other.scale(Q(-1))

    def scale(self, scalar) -> "Laurent":
        scalar = rat(scalar)
        if scalar == 0:
            return Laurent()
        return Laurent({e: _scale_coeff(c, scalar) for e, c in self.terms.items()})

    def shift(self, exponent) -> "Laurent":
        """Multiply by x^exponent."""
        d = rat(exponent)
        return Laurent({e + d: c for e, c in self.terms.items()})

    def mul_scalar_series(self, other: "Laurent") -> "Laurent":
        """Multiply by a series with Fraction coefficients (on the left)."""
        out = {}
        for e1, c1 in other.terms.items():
            if not isinstance(c1, Fraction) and not isinstance(c1, int):
                raise TypeError("left factor must have scalar coefficients")
            for e2, c2 in self.terms.items():
                key = e1 + e2
                piece = _scale_coeff(c2, Q(c1))
                cur = out.get(key)
                out[key] = piece if cur is None else cur + piece
        return Laurent(out)

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent):
        return self.terms.get(rat(exponent))

    def exponents(self):
        return sorted(self.terms)

    def truncate_above(self, exponent) -> "Laurent":
        """Drop all terms with exponent strictly above the given bound."""
        bound = rat(exponent)
        return Laurent({e: c for e, c in self.terms.items() if e <= bound})

    def __repr__(self):
        if not self.terms:
            return "Laurent(0)"
        bits = [f"[{self.terms[e]}]*x^{rat_str(e)}" for e in sorted(self.terms)]
        return "Laurent(" + " + ".join(bits) + ")"


def _is_zero(coeff) -> bool:
    if isinstance(coeff, (int, Fraction)):
        return coeff == 0
    return coeff.is_zero()


def _scale_coeff(coeff, scalar: Fraction):
    if isinstance(coeff, (int, Fraction)):
        return coeff * scalar
    return coeff.scale(scalar)


def residue(series: Laurent, zero=Q(0)):
    """Coefficient of x^-1.

    `zero` is returned when the term is absent; pass the zero of the
    coefficient space for vector-valued series.
    """
    value = series.coeff(Q(-1))
    return zero if value is None else value


def truncated_taylor(alpha: int, order: int) -> Laurent:
    """Taylor polynomial in x^-1 of the given order of (x+1)^alpha.

    Expanding (x+1)^alpha = sum_m C(alpha,m) x^(alpha-m), the term x^(alpha-m)
    carries x^-1 to the power m-alpha; keeping powers of x^-1 at most `order`
    means keeping m <= alpha + order.  When alpha + order < 0 the polynomial
    is empty.
    """
    out = {}
    for m in range(0, alpha + order + 1):
        c = gen_binomial(alpha, m)
        if c != 0:
            out[Q(alpha - m)] = c
    return Laurent(out)


def binom_series(alpha, maxdeg: int) -> Laurent:
    """(1+x)^alpha as a power series in x, truncated at degree maxdeg.

    alpha may be any exact rational; the coefficients are the generalized
    binomials C(alpha, m).
    """
    alpha = rat(alpha)
    out = {}
    for m in range(0, maxdeg + 1):
        c = gen_binomial(alpha, m)
        if c != 0:
            out[Q(m)] = c
    return Laurent(out)
