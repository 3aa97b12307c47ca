from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voamodes.series import (
    Laurent,
    binom_series,
    gen_binomial,
    rat,
    rat_str,
    residue,
    truncated_taylor,
)


def full_binomial_expansion(alpha, top_m):
    """Term-by-term oracle for (x+1)^alpha = sum_m C(alpha,m) x^(alpha-m)."""
    return {alpha - m: gen_binomial(alpha, m) for m in range(top_m + 1)
            if gen_binomial(alpha, m) != 0}


def test_gen_binomial_examples():
    assert gen_binomial(5, 0) == 1
    assert gen_binomial(2, 5) == 0
    # falling factorial oracle: (-3)(-4)/2
    assert gen_binomial(-3, 2) == Q(-3) * Q(-4) / 2 == 6
    # an int top and the equal Fraction give one Fraction, from either side
    assert all(type(gen_binomial(a, m)) is Q for a in (4, Q(4), -3) for m in range(4))


def test_gen_binomial_rational():
    assert gen_binomial(Q(1, 2), 2) == Q(1, 2) * Q(-1, 2) / 2 == Q(-1, 8)
    with pytest.raises(ValueError):
        gen_binomial(1, -1)


def test_truncated_taylor_examples():
    assert truncated_taylor(-1, 1) == Laurent.monomial(Q(1), -1)
    assert truncated_taylor(1, 0) == (Laurent.monomial(Q(1), 1)
                                      + Laurent.monomial(Q(1), 0))
    assert truncated_taylor(-2, 2) == Laurent.monomial(Q(1), -2)
    # empty truncation
    assert truncated_taylor(-5, 2).is_zero()


@pytest.mark.parametrize("alpha", range(-6, 4))
@pytest.mark.parametrize("order", range(0, 5))
def test_truncated_taylor_against_full_expansion(alpha, order):
    # keep exactly the terms whose power of 1/x is at most `order`
    full = full_binomial_expansion(alpha, 25)
    want = Laurent({Q(e): c for e, c in full.items() if -e <= order})
    assert truncated_taylor(alpha, order) == want


def test_residue():
    s = Laurent.monomial(Q(3), -1) + Laurent.monomial(Q(2), 0)
    assert residue(s) == 3
    assert residue(Laurent.monomial(Q(1), Q(1, 2))) == 0
    assert residue(truncated_taylor(-1, 1)) == 1


def test_binom_series_examples():
    want = (Laurent.monomial(Q(1), 0) + Laurent.monomial(Q(2), 1)
            + Laurent.monomial(Q(1), 2))
    assert binom_series(2, 5) == want
    assert binom_series(0, 3) == Laurent.monomial(Q(1), 0)
    half = binom_series(Q(1, 2), 2)
    assert half.coeff(0) == 1
    assert half.coeff(1) == Q(1, 2)
    assert half.coeff(2) == Q(-1, 8)


@settings(deadline=None, max_examples=60)
@given(st.integers(-10, 0), st.integers(0, 8))
def test_binomial_collapse_identity(a, n):
    # sum_m C(a,m) C(a-m, q-m) (-1)^(q-m) = delta_{q,0} for q <= n
    for q in range(n + 1):
        total = sum(gen_binomial(a, m) * gen_binomial(a - m, q - m)
                    * (-1) ** (q - m) for m in range(q + 1))
        assert total == (1 if q == 0 else 0)


@settings(deadline=None, max_examples=40)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.integers(1, 6))
def test_binom_series_inverse(alpha, d):
    prod = binom_series(alpha, d).mul_scalar_series(binom_series(-alpha, d))
    trimmed = prod.truncate_above(d)
    assert trimmed == Laurent.monomial(Q(1), 0)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.integers(-4, 4), st.fractions(max_denominator=8)),
                max_size=6),
       st.lists(st.tuples(st.integers(-4, 4), st.fractions(max_denominator=8)),
                max_size=6))
def test_residue_linear(terms_a, terms_b):
    a = Laurent({Q(e): Q(c) for e, c in terms_a if c})
    b = Laurent({Q(e): Q(c) for e, c in terms_b if c})
    assert residue(a + b) == residue(a) + residue(b)


def test_rat_roundtrip():
    assert rat("3/4") == Q(3, 4)
    assert rat_str(Q(-2, 6)) == "-1/3"
    assert rat_str(Q(4)) == "4"
    assert all(type(rat(x)) is Q for x in (2, True, Q(1, 3), " -1/2 "))
    with pytest.raises(TypeError):
        rat(0.5)


def test_series_algebra():
    s = Laurent.monomial(Q(1), 1) + Laurent.monomial(Q(2), 2)
    t = s.scale(Q(1, 2))
    assert t.coeff(1) == Q(1, 2) and t.coeff(2) == 1
    assert (s - s).is_zero()
    assert s.shift(Q(1, 3)).coeff(Q(4, 3)) == 1
    assert s.exponents() == [Q(1), Q(2)]
