from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voamodes.series import gen_binomial, rat, rat_str

# the series oracles of the left entries live beside them
from test_matrices import residue, truncated_taylor


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
    assert truncated_taylor(-1, 1) == {Q(-1): Q(1)}
    assert truncated_taylor(1, 0) == {Q(1): Q(1), Q(0): Q(1)}
    assert truncated_taylor(-2, 2) == {Q(-2): Q(1)}
    # empty truncation
    assert not truncated_taylor(-5, 2)


@pytest.mark.parametrize("alpha", range(-6, 4))
@pytest.mark.parametrize("order", range(0, 5))
def test_truncated_taylor_against_full_expansion(alpha, order):
    # keep exactly the terms whose power of 1/x is at most `order`
    full = full_binomial_expansion(alpha, 25)
    want = {Q(e): c for e, c in full.items() if -e <= order}
    assert truncated_taylor(alpha, order) == want


def test_residue():
    s = {Q(-1): Q(3), Q(0): Q(2)}
    assert residue(s) == 3
    assert residue({Q(1, 2): Q(1)}) == 0
    assert residue(truncated_taylor(-1, 1)) == 1


@settings(deadline=None, max_examples=60)
@given(st.integers(-10, 0), st.integers(0, 8))
def test_binomial_collapse_identity(a, n):
    # sum_m C(a,m) C(a-m, q-m) (-1)^(q-m) = delta_{q,0} for q <= n
    for q in range(n + 1):
        total = sum(gen_binomial(a, m) * gen_binomial(a - m, q - m)
                    * (-1) ** (q - m) for m in range(q + 1))
        assert total == (1 if q == 0 else 0)


def test_rat_roundtrip():
    assert rat("3/4") == Q(3, 4)
    assert rat_str(Q(-2, 6)) == "-1/3"
    assert rat_str(Q(4)) == "4"
    assert all(type(rat(x)) is Q for x in (2, True, Q(1, 3), " -1/2 "))
    with pytest.raises(TypeError):
        rat(0.5)

