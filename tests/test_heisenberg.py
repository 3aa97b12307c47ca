from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voamodes import heisenberg
from voamodes.errors import NonHomogeneous, TruncationOverflow
from voamodes.fock import FockIntertwiner, FockModule
from voamodes.heisenberg import (
    FockVector,
    _acc,
    _add_into,
    _insert_part,
    _merge_parts,
    _scale_terms,
    apply_annihilator,
    conformal_vector,
    expand_pair,
    l_zero,
    partitions_of,
    sugawara_l,
    vacuum,
    weight_of,
    zero_vector,
)
from voamodes.series import gen_binomial

# the algebra V is F(0), and its vertex operator is that of FockIntertwiner(0, 0)
V = FockModule(0, level_cap=10)
ONE = vacuum()
OM = conformal_vector()
A1 = FockVector.basis(0, (1,))


# -- independent oracle: explicit oscillator words --------------------------


def word_apply(word, vec: FockVector) -> FockVector:
    """Apply a product of modes (leftmost acts last): creators negative."""
    terms = dict(vec.terms)
    lam = vec.charge
    for m in reversed(word):
        out = {}
        for p, c in terms.items():
            if m < 0:
                q = tuple(sorted(p + (-m,), reverse=True))
                out[q] = out.get(q, Q(0)) + c
            elif m == 0:
                if lam:
                    out[p] = out.get(p, Q(0)) + c * lam
            else:
                cnt = p.count(m)
                if cnt:
                    q = list(p)
                    q.remove(m)
                    q = tuple(q)
                    out[q] = out.get(q, Q(0)) + c * m * cnt
        terms = {p: c for p, c in out.items() if c}
    return FockVector(vec.charge, terms)


def virasoro_oracle(m: int, vec: FockVector) -> FockVector:
    """L(m) = (1/2) sum_j :a(-j) a(j+m): written out as oscillator words."""
    out = zero_vector(vec.charge)
    for j in range(-12, 13):
        a, b = -j, j + m
        lo, hi = min(a, b), max(a, b)
        out = out + word_apply((lo, hi), vec).scale(Q(1, 2))
    return out


def _apply_creator(d: int, terms: dict) -> dict:
    """a(-d) on {partition: coeff} terms: insert the part d."""
    return {_insert_part(p, d): c for p, c in terms.items()}


def dense_sugawara_oracle(m: int, vec: FockVector) -> FockVector:
    """L(m) as (1/2) :a(-j)a(j+m): summed over every j in [-top, top]."""
    out: dict = {}

    def apply(mode: int, terms: dict) -> dict:
        if mode > 0:
            return apply_annihilator(mode, terms)
        if mode == 0:
            return _scale_terms(terms, vec.charge)
        return _apply_creator(-mode, terms)

    top = max((p[0] for p in vec.terms if p), default=0) + abs(m) + 1
    for j in range(-top, top + 1):
        a, b = -j, j + m
        if a < b:
            a, b = b, a
        # normal order: the annihilation-side mode a acts first; each
        # unordered pair occurs for two values of j (one when a == b),
        # so the uniform 1/2 yields the right multiplicity
        _add_into(out, apply(b, apply(a, vec.terms)), Q(1, 2))
    return FockVector(vec.charge, out)


SUGAWARA_CHARGES = (Q(0), Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(3, 2))


@pytest.mark.parametrize("charge", SUGAWARA_CHARGES)
def test_sugawara_matches_dense_oracle(charge):
    vectors = []
    for n in range(8):
        parts = partitions_of(n)
        vectors += [FockVector(charge, {p: c}) for p in parts for c in (1, Q(-2, 3))]
        # every partition of n at once, so terms can meet and cancel
        vectors.append(FockVector(charge, {p: (Q(i, 3) if i % 2 else i - 2)
                                           for i, p in enumerate(parts)}))
    # the engine at every m, the fast paths at the modes they compute
    engine = FockModule(charge, level_cap=12)
    for vec in vectors:
        for m in range(-4, 5):
            want = dense_sugawara_oracle(m, vec)
            assert engine.mode(OM, m + 1, vec) == want, (m, vec)
            if m in (-1, 1):
                got = sugawara_l(m, vec)
            elif m == 0:
                got = l_zero(vec)
            else:
                continue
            assert got == want, (m, vec)
            assert type(got.charge) is Q
            assert all(_canonical_coeff(c) and c != 0 for c in got.terms.values())


@pytest.mark.parametrize("m", [-2, 0, 2])
def test_sugawara_computes_only_odd_unit_modes(m):
    with pytest.raises(ValueError):
        sugawara_l(m, FockVector.basis(Q(1, 2), (2, 1)))


def test_vacuum_and_conformal():
    assert weight_of(ONE) == 0
    assert weight_of(OM) == 2
    assert OM.terms == {(1, 1): Q(1, 2)}
    assert V.mode(OM, 2, OM).is_zero()  # L(1) om


def test_vacuum_axioms():
    for p in [(), (1,), (2, 1), (3, 1, 1)]:
        u = FockVector.basis(0, p)
        assert V.mode(ONE, -1, u) == u
        assert V.mode(u, -1, ONE) == u
        for n in range(0, 4):
            assert V.mode(u, n, ONE).is_zero()


def test_modes_match_virasoro_oracle():
    for p in [(), (1,), (2,), (1, 1), (2, 1), (3,)]:
        u = FockVector.basis(0, p)
        for m in range(-3, 4):
            assert V.mode(OM, m + 1, u) == virasoro_oracle(m, u)


def test_l_operators():
    # L(0) and L(-1) are the modes 1 and 0 of om
    assert V.mode(OM, 1, ONE).is_zero()
    assert V.mode(OM, 0, ONE).is_zero()
    assert V.mode(OM, 1, FockVector.basis(0, (3,))) == FockVector.basis(0, (3,)).scale(3)
    assert V.mode(OM, 1, A1) == A1
    assert V.mode(OM, 0, A1) == FockVector.basis(0, (2,))


def test_central_term():
    # x^-4 coefficient of Y(om, x) om is (c/2) vacuum with c = 1
    assert V.mode(OM, 3, OM) == ONE.scale(Q(1, 2))


def test_virasoro_bracket_grid():
    cap = V.level_cap - 2
    basis = [FockVector.basis(0, p) for n in range(cap + 1 - 2)
             for p in partitions_of(n)]
    for m in range(-2, 3):
        for n in range(-2, 3):
            central = Q(m ** 3 - m, 12) if m + n == 0 else Q(0)
            for u in basis:
                lhs = (V.mode(OM, m + 1, V.mode(OM, n + 1, u))
                       - V.mode(OM, n + 1, V.mode(OM, m + 1, u)))
                rhs = V.mode(OM, m + n + 1, u).scale(m - n) + u.scale(central)
                assert lhs == rhs, (m, n, u)


def test_skew_symmetry_spot_check():
    # modes of Y(u,x)v against e^{x L(-1)} Y(v,-x) u
    from math import factorial

    pairs = [(A1, OM), (OM, A1), (A1, FockVector.basis(0, (2,))),
             (OM, OM), (FockVector.basis(0, (2, 1)), A1)]
    for u, v in pairs:
        for m in range(-3, int(weight_of(u) + weight_of(v))):
            lhs = V.mode(u, m, v)
            rhs = zero_vector(0)
            wt = int(weight_of(u) + weight_of(v))
            for a in range(0, wt + 4):
                t = -m - 1 - a
                sign = Q(-1) if t % 2 else Q(1)
                term = V.mode(v, -t - 1, u)
                for _ in range(a):
                    term = V.mode(OM, 0, term)
                rhs = rhs + term.scale(sign / factorial(a))
            assert lhs == rhs, (u, v, m)


def test_vertex_series_examples():
    Y_V = FockIntertwiner(0, 0, level_cap=10)
    u = FockVector.basis(0, (2, 1))
    ser = Y_V.series(ONE, u, -2, 2)
    assert ser.get(0) == u and ser.get(1) is None and ser.get(-1) is None
    ser = Y_V.series(OM, OM, -4, -4)
    assert ser.get(-4) == ONE.scale(Q(1, 2))
    ser = Y_V.series(A1, A1, -2, -2)
    assert ser.get(-2) == ONE


def test_weight_and_homogeneity():
    with pytest.raises(NonHomogeneous):
        weight_of(ONE + OM)
    assert (ONE + OM).level_component(2) == OM
    assert (ONE + OM).levels() == [0, 2]


def test_truncation_errors():
    small = FockModule(0, level_cap=4)
    with pytest.raises(TruncationOverflow):
        small.mode(OM, -4, OM)  # would land in weight 7
    with pytest.raises(TruncationOverflow):
        FockIntertwiner(0, 0, level_cap=4).series(OM, OM, 0, 3)
    # negative-weight results are genuinely zero, never an error
    assert small.mode(ONE, 5, ONE).is_zero()


def test_partitions_of():
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [len(partitions_of(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_vector_algebra():
    assert (A1 + A1).terms == {(1,): Q(2)}
    assert (A1 - A1).is_zero()
    with pytest.raises(ValueError):
        A1 + FockVector.basis(Q(1, 2), (1,))
    with pytest.raises(AttributeError):
        A1.terms = {}


def _canonical(c):
    return c.numerator if c.denominator == 1 else c


_PARTITIONS = st.lists(st.integers(1, 3), max_size=3).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
# canonical coefficients: nonzero, an int when integral
_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(2, 4)).map(_canonical))
_TERMS = st.dictionaries(_PARTITIONS, _COEFFS, max_size=8)
_MULTIPLIERS = st.one_of(
    st.integers(-3, 3),
    st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(2, 4)).filter(
        lambda q: q.denominator > 1),
    st.builds(Q, st.integers(-3, 3)),
    st.just(0))


@settings(deadline=None, max_examples=300)
@given(_TERMS, _TERMS, _MULTIPLIERS)
def test_add_into_matches_fraction_reference(target, terms, s):
    # the sum of plain Fractions, zeros dropped, against the canonical
    # accumulate: no zero value is kept and every integral value is an int
    expected = {}
    for p in target.keys() | terms.keys():
        c = Q(target.get(p, 0)) + Q(s) * Q(terms.get(p, 0))
        if c:
            expected[p] = c
    before = dict(terms)
    _add_into(target, terms, s)
    assert target == expected
    assert terms == before
    assert all(c != 0 for c in target.values())
    assert all(type(c) is int or (type(c) is Q and c.denominator > 1)
               for c in target.values())


@given(_TERMS)
def test_add_into_copies_into_an_empty_target(terms):
    target = {}
    _add_into(target, terms, 1)
    assert target == terms
    assert target is not terms
    assert [type(c) for c in target.values()] == [type(c) for c in terms.values()]


# -- engine oracle: the same three stages in Fraction arithmetic -------------


def _oracle_exp_annihilation(states, lam1, top):
    """exp(-lam1 sum_{n>0} a(n) x^-n / n) on {xoffset: terms}."""
    for n in range(1, top + 1):
        out = {}
        for t, terms in states.items():
            j = 0
            factor = Q(1)
            cur = terms
            while cur:
                _add_into(out.setdefault(t - n * j, {}), cur, factor)
                j += 1
                factor = factor * (-lam1) / (n * j)
                cur = apply_annihilator(n, cur)
        states = {t: v for t, v in out.items() if v}
    return states


@lru_cache(maxsize=None)
def _oracle_dressing(pending, lam1, budget):
    """{(xoffset, inserted partition): coeff} of the creation stage; read only."""
    dressing = {(0, ()): Q(1)}
    for ni in pending:
        nxt = {}
        for (t, ins), c in dressing.items():
            for d in range(ni, budget - sum(ins) + 1):
                _acc(nxt, (t + d - ni, _insert_part(ins, d)),
                     c * gen_binomial(d - 1, ni - 1))
        dressing = nxt
    if lam1 != 0:
        for n in range(1, budget + 1):
            nxt = {}
            for (t, ins), c in dressing.items():
                j = 0
                factor = Q(1)
                cur = ins
                while sum(cur) <= budget:
                    _acc(nxt, (t + n * j, cur), c * factor)
                    j += 1
                    factor = factor * lam1 / (n * j)
                    cur = _insert_part(cur, n)
            dressing = nxt
    return dressing


def fraction_engine_oracle(nu, lam1, mu, lam2, max_level):
    """{t: terms} of Y(a(-nu)|lam1>, x) a(-mu)|lam2>, every step a Fraction.

    The engine's stages with each coefficient reduced as it is formed:
    the exponential factors lam^j/(n^j j!) and the current binomials
    come from gen_binomial and Fraction products, not from integer
    numerators over a common denominator.
    """
    r = len(nu)
    start = {0: {mu: Q(1)}}
    if lam1 != 0:
        start = _oracle_exp_annihilation(start, lam1, sum(mu))
    by_pending = {}
    for take in range(r + 1):
        for right in combinations(range(r), take):
            states = start
            for i in right:
                ni = nu[i]
                nxt = {}
                for t, terms in states.items():
                    if lam2 != 0:
                        _add_into(nxt.setdefault(t - ni, {}), terms,
                                  lam2 * gen_binomial(-1, ni - 1))
                    for k in range(1, max((p[0] for p in terms if p), default=0) + 1):
                        hit = apply_annihilator(k, terms)
                        if hit:
                            _add_into(nxt.setdefault(t - k - ni, {}), hit,
                                      gen_binomial(-k - 1, ni - 1))
                states = {t: v for t, v in nxt.items() if v}
                if not states:
                    break
            if not states:
                continue
            pending = tuple(sorted((nu[i] for i in range(r) if i not in right),
                                   reverse=True))
            bucket = by_pending.setdefault(pending, {})
            for t, terms in states.items():
                _add_into(bucket.setdefault(t, {}), terms)
    out = {}
    for pending, states in by_pending.items():
        dressing = _oracle_dressing(pending, lam1, max_level)
        for t, terms in states.items():
            for p, c in terms.items():
                room = max_level - sum(p)
                for (dt, ins), dc in dressing.items():
                    if sum(ins) <= room:
                        _acc(out.setdefault(t + dt, {}), _merge_parts(p, ins),
                             c * dc)
    return {t: v for t, v in out.items() if v}


# single-level reads in this order fill the levels in four passes of one,
# three, two and three levels
READ_ORDER = (0, 3, 1, 2, 5, 4, 8, 6, 7)


def _assert_engine_matches_oracle(nu, lam1, mu, lam2, max_level):
    """The range read and the single-level reads, each from a cold pair entry."""
    want = fraction_engine_oracle(nu, lam1, mu, lam2, max_level)
    base = sum(nu) + sum(mu)
    key = heisenberg.expand_key(nu, lam1, mu, lam2)
    heisenberg._EXPAND_CACHE.pop(key, None)
    levels = expand_pair(nu, lam1, mu, lam2, max_level)
    assert list(levels) == list(range(max_level + 1)), key
    got = {lev - base: terms for lev, terms in levels.items() if terms}
    assert got == want, key
    assert all(_canonical_coeff(c) for terms in got.values() for c in terms.values())
    heisenberg._EXPAND_CACHE.pop(key)
    for level in (lev for lev in READ_ORDER if lev <= max_level):
        got = expand_pair(nu, lam1, mu, lam2, level)[level]
        assert got == want.get(level - base, {}), (key, level)


def _canonical_coeff(c):
    """An int when the value is integral, otherwise a Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Q and c.denominator > 1)


SMALL_NU = [p for n in range(4) for p in partitions_of(n)]
SMALL_MU = [p for n in range(7) for p in partitions_of(n)]
CHARGES = [Q(0), Q(1, 2), Q(-1, 2), Q(1), Q(-1)]


@pytest.mark.parametrize("lam1", CHARGES)
def test_engine_matches_fraction_oracle(lam1):
    for lam2 in CHARGES:
        for nu in SMALL_NU:
            for mu in SMALL_MU:
                _assert_engine_matches_oracle(nu, lam1, mu, lam2, 8)


def _thirds_and_quarters():
    return st.builds(Q, st.integers(-7, 7).filter(bool), st.sampled_from([3, 4]))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(SMALL_NU), _thirds_and_quarters(),
       st.sampled_from([p for n in range(6) for p in partitions_of(n)]),
       _thirds_and_quarters())
def test_engine_matches_oracle_at_thirds_and_quarters(nu, lam1, mu, lam2):
    _assert_engine_matches_oracle(nu, lam1, mu, lam2, 8)


def test_expansions_independent_of_cache_state_and_order(clear_engine_caches):
    pairs = [((2, 1), Q(1, 2), (3, 1), Q(-1)), ((1,), Q(-1, 3), (2, 2), Q(3, 4)),
             ((3,), Q(0), (1, 1), Q(1, 2)), ((1, 1), Q(1), (), Q(0))]
    levels = range(0, 10)

    def sweep(order):
        clear_engine_caches()
        out = {}
        for lev in order:
            for i, (nu, lam1, mu, lam2) in enumerate(pairs):
                top = sum(nu) + sum(mu) + lev
                got = expand_pair(nu, lam1, mu, lam2, top)
                out[(i, lev)] = {level: got[level] for level in range(top + 1)}
        # every entry's levels run contiguously from 0
        for _, got in heisenberg._EXPAND_CACHE.values():
            assert list(got) == list(range(len(got)))
        return out

    ascending = sweep(levels)
    descending = sweep(reversed(levels))
    assert ascending == descending
