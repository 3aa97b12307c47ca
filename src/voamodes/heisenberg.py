"""Rank-1 free boson: oscillator algebra, Fock vectors, vertex-operator engine.

States are finite rational combinations of partition basis vectors
a(-n_1)...a(-n_r)|q> over a charge q, with the oscillator relations
[a(m), a(n)] = m delta_{m+n,0} and a(0)|q> = q|q>.  The vertex-operator
engine expands

    Y(a(-n_1)...a(-n_r)|q1>, x) w
      = :d^(n_1-1)a(x)/(n_1-1)! ... d^(n_r-1)a(x)/(n_r-1)!
         E-(q1,x) E+(q1,x) S_{q1} x^{q1 a(0)}: w

with E-+(q,x) the usual exponentials of creation/annihilation halves of
the current and S_q the charge shift.  Normal ordering puts every
annihilation or zero mode to the right of every creation mode; the zero
modes (including x^{q1 a(0)}) act before the charge shift, so they read
the charge of w.  All arithmetic is exact.

Every coefficient of a Fock vector is held in one canonical form: a
Python `int` when its value is integral, otherwise a `Fraction` with
denominator > 1.  The two compare and hash alike (1 == Fraction(1) and
hash(1) == hash(Fraction(1))), so equality, cache keys and printed
forms do not see the difference, and integral arithmetic stays on
`int`s.  The scalars that multiply coefficients follow the same rule:
`series.gen_binomial`, the residue weights and Jacobi sums built from
it, and `weight_of` of an algebra vector.  Since `int / int` is a
float, a quotient of two such scalars is written `Fraction(a, b)`.
Exponents stay `Fraction`s.

Charges are interned: `intern_charge` gives every charge value one
shared plain `Fraction`, and the charge-bearing objects (`FockVector`,
the modules, intertwiners, matrices and map tables) store that object,
so the vectors they return carry it too.  Every charge check tests
identity first (`a is b or a == b`), which makes the common check one
pointer comparison; an equal but distinct `Fraction` still passes, so
nothing depends on the interning.

`_EXPAND_CACHE` holds, per basis pair, the annihilation stage (integer
rows over one scale, which do not depend on the level) and the levels
computed so far.  `expand_key` keys it on the integer numerators and
denominators of the two charges, which hash far faster than `Fraction`s;
an `int` charge and the equal `Fraction` share one entry.  `expand_pair`
is the one read of the cache: it returns the pair's `{level: terms}`
dict, and a request above the filled levels computes the levels from
the first missing one up to it, in one creation pass built up to the
request (the budget).  So the levels of an entry always run
contiguously from 0, and every reader indexes the levels it asked
for.  The engine carries integer numerators over one common
denominator per pass and divides once, when the levels go into the
cache as canonical coefficients.  With lam1 = p1/q1 and lam2 = p2/q2
the denominator has three sources:

- each exponential mode n applied at most J times is scaled by
  S_n = (q1 n)^J J!, which makes every factor (+-lam1)^j/(n^j j!) an
  integer; J = mu.count(n) in the annihilation stage and J = budget//n
  in the creation stage;
- each current hit in the annihilation stage is scaled by q2 (the zero
  mode contributes p2), and every group of remaining currents is lifted
  to q2^r for r currents;
- the current binomials have integer tops, C(-k-1, m) =
  (-1)^m C(k+m, m) and C(d-1, m), and are exact integers already.

The algebra of the conformal vector w = (1/2)a(-1)^2 |0> acts through
the same engine.  The three Virasoro modes the program uses are also
provided directly as fast paths, independent of the engine, and the
test suite checks them against the engine and against the dense sum
over all mode pairs: `l_zero` is L(0), and `sugawara_l` computes L(-1)
and L(1) through one core, `_sugawara_core`, on integer numerators: at
charge P/Qd it gives Qd L(m).  `sugawara_l` puts a vector over one
common denominator and divides once per output term; the right vertex
operator and the operator chains of the right-operator oracle call the
core directly and divide once per sum (`_NumeratorSum`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .errors import NonHomogeneous
from .series import _quotient, rat, rat_str

Q = Fraction

EMPTY = ()


# ---------------------------------------------------------------------------
# charges

# (numerator, denominator) -> the one shared Fraction of that value
_CHARGES: dict = {}


def intern_charge(value) -> Fraction:
    """The shared plain `Fraction` of a charge value (int, Fraction or 'p/q')."""
    q = rat(value)
    key = (q.numerator, q.denominator)
    got = _CHARGES.get(key)
    if got is None:
        got = _CHARGES[key] = q if type(q) is Fraction else Fraction(*key)
    return got


ALGEBRA_CHARGE = intern_charge(0)


def same_charge(a, b) -> bool:
    """Charge equality, identity first: interned charges meet by `is`."""
    return a is b or a == b


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(parts) -> tuple:
    if isinstance(parts, tuple) and all(
            parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
        out = parts
    else:
        out = tuple(sorted((int(p) for p in parts), reverse=True))
    if out and out[-1] <= 0:
        raise ValueError("partition parts must be positive")
    return out


def partitions_of(n: int):
    """All partitions of n as non-increasing tuples, lexicographically sorted."""

    def gen(total, largest):
        if total == 0:
            yield EMPTY
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return sorted(gen(n, n))


def _insert_part(p: tuple, d: int) -> tuple:
    for i, q in enumerate(p):
        if d >= q:
            return p[:i] + (d,) + p[i:]
    return p + (d,)


# ---------------------------------------------------------------------------
# raw oscillator actions on {partition: coeff} dicts


def _canon(c):
    """The canonical coefficient: c as an int when it is integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _acc(target: dict, key, coeff) -> None:
    """Add coeff at key in target: a zero sum is deleted, an integral one is an int."""
    cur = target.get(key)
    if cur is not None:
        coeff = cur + coeff
        if not coeff:
            del target[key]
            return
    # _canon inlined, as in _add_into's loop
    if type(coeff) is Fraction and coeff.denominator == 1:
        coeff = coeff.numerator
    target[key] = coeff


def apply_annihilator(k: int, terms: dict) -> dict:
    out = {}
    for p, c in terms.items():
        mult = p.count(k)
        if mult:
            q = list(p)
            q.remove(k)
            _acc(out, tuple(q), c * k * mult)
    return out


def _scale_terms(terms: dict, s) -> dict:
    s = _canon(s)
    if s == 1:
        return dict(terms)
    if s == 0:
        return {}
    return {p: _canon(c * s) for p, c in terms.items()}


def _add_into(target: dict, terms: dict, s=1) -> None:
    """Add s * terms into target; terms must be canonical, with no zeros.

    The accumulate of _acc runs inline, with _canon inlined: this runs
    once per term of every sum.  A sum that reaches zero is deleted, and
    an integral one is stored as an int.
    """
    if s == 1:
        if not target:
            target.update(terms)
            return
        get = target.get
        for p, c in terms.items():
            cur = get(p)
            if cur is None:
                # a term of terms is canonical already
                target[p] = c
                continue
            c = cur + c
            if not c:
                del target[p]
            elif type(c) is Fraction and c.denominator == 1:
                target[p] = c.numerator
            else:
                target[p] = c
        return
    if type(s) is Fraction and s.denominator == 1:
        s = s.numerator
    if not s:
        return
    get = target.get
    for p, c in terms.items():
        c = c * s
        cur = get(p)
        if cur is not None:
            c = cur + c
            if not c:
                del target[p]
                continue
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        target[p] = c


# ---------------------------------------------------------------------------
# the vertex-operator engine

# expand_key(nu, lam1, mu, lam2) -> (annihilation stage, {level: terms});
# see expand_pair
_EXPAND_CACHE: dict = {}


def expand_key(nu: tuple, lam1, mu: tuple, lam2) -> tuple:
    """The `_EXPAND_CACHE` key of a basis pair: integers only, one per pair."""
    return (nu, lam1.numerator, lam1.denominator, mu, lam2.numerator, lam2.denominator)


def _exp_factors(p: int, qn: int, top: int) -> list:
    """[S, S*r, ..., S*r^top/top!] for r = p/qn, with S = qn^top * top!.

    These are the first top+1 terms of S*exp(r) scaled by S so that every
    one is an integer: S*r^j/j! = p^j qn^(top-j) top!/j!.
    """
    out = [qn ** top * factorial(top)]
    for j in range(1, top + 1):
        out.append(out[-1] * p // (qn * j))
    return out


def _apply_exp_annihilation(mu: tuple, p1: int, q1: int) -> tuple:
    """exp(-lam1 sum_{n>0} a(n) x^-n / n) a(-mu)|.>, lam1 = p1/q1.

    Returns (scale, terms) with integer coefficients; the true
    coefficients are these divided by scale.  Mode n acts at most
    J = mu.count(n) times, so it contributes the factor (q1 n)^J J!.
    """
    scale = 1
    terms = {mu: 1}
    for n in sorted(set(mu)):
        factors = _exp_factors(-p1, q1 * n, mu.count(n))
        scale *= factors[0]
        out: dict = {}
        cur = terms
        for f in factors:
            if not cur:
                break
            _add_into(out, cur, f)
            cur = apply_annihilator(n, cur)
        terms = out
    return scale, terms


@lru_cache(maxsize=None)
def _creation_dressing(pending: tuple, p1: int, q1: int, budget: int) -> tuple:
    """(scale, by_size) for the creation stage; by_size[s] lists (partition, coeff).

    The creation halves of the pending currents and the creation
    exponential only ever insert parts, with coefficients independent of
    what they act on; the whole stage collapses to this finite table of
    insertions of size at most `budget`, grouped by size (an insertion
    moves the x-exponent by its size less sum(pending)).  Coefficients
    are integers over `scale`: the currents contribute binomials
    C(d-1, n_i-1), and exponential mode n acts at most J = budget//n
    times, contributing (q1 n)^J J!.
    """
    dressing = {EMPTY: 1}
    for ni in pending:
        nxt: dict = {}
        for ins, c in dressing.items():
            for d in range(ni, budget - sum(ins) + 1):
                _acc(nxt, _insert_part(ins, d), c * comb(d - 1, ni - 1))
        dressing = nxt
    scale = 1
    if p1:
        for n in range(1, budget + 1):
            factors = _exp_factors(p1, q1 * n, budget // n)
            scale *= factors[0]
            nxt = {}
            for ins, c in dressing.items():
                cur = ins
                for f in factors:
                    if sum(cur) > budget:
                        break
                    _acc(nxt, cur, c * f)
                    cur = _insert_part(cur, n)
            dressing = nxt
    by_size: list = [[] for _ in range(budget + 1)]
    for ins, c in dressing.items():
        by_size[sum(ins)].append((ins, c))
    return scale, by_size


def _merge_parts(p: tuple, ins: tuple) -> tuple:
    if not ins:
        return p
    if not p:
        return ins
    return tuple(sorted(p + ins, reverse=True))


def _current_step(terms: dict, ni: int, p2: int, q2: int) -> dict:
    """The annihilation half of one current a(-ni), scaled by q2, on integer rows.

    The zero mode contributes p2 C(-1, ni-1) and a(k) contributes
    q2 C(-k-1, ni-1) = q2 (-1)^(ni-1) C(k+ni-1, ni-1).
    """
    sign = 1 if ni % 2 else -1
    nxt: dict = {}
    if p2:
        _add_into(nxt, terms, sign * p2)
    for k in sorted({part for p in terms for part in p}):
        _add_into(nxt, apply_annihilator(k, terms),
                  sign * q2 * comb(k + ni - 1, ni - 1))
    return nxt


def _annihilation_stage(nu: tuple, lam1: Fraction, mu: tuple, lam2: Fraction) -> tuple:
    """(scale, {pending: {partition: coeff}}): everything but creation.

    Applies the annihilation exponential, then the currents' annihilation
    halves (`_current_step`), and groups the integer rows by the currents
    left pending for the creation stage; every group is lifted to the
    common scale q2^r.  The halves commute and depend only on the part
    size n_j, so every subset of the currents that takes t_j of the m_j
    currents of size n_j gives the same rows: the stage walks the count
    vectors t, prod(m_j + 1) of them rather than 2^r subsets, and weights
    each by its prod C(m_j, t_j) subsets.  A count vector extends its
    prefix, kept from the round of the next smaller total, by one current
    of its last size, so each costs one step.  The rows do not depend on
    the level: the x-exponent of a term is fixed by its level.
    """
    p1, q1 = lam1.numerator, lam1.denominator
    p2, q2 = lam2.numerator, lam2.denominator
    r = len(nu)
    sizes = sorted(set(nu), reverse=True)
    counts = [nu.count(n) for n in sizes]
    if p1:
        scale, start = _apply_exp_annihilation(mu, p1, q1)
    else:
        scale, start = 1, {mu: 1}
    by_pending: dict = {}
    # (currents taken per size, index of the last size taken, nonzero rows)
    rows = [((0,) * len(sizes), 0, start)]
    while rows:
        longer = []
        for taken, last, terms in rows:
            pending = tuple(n for n, m, t in zip(sizes, counts, taken)
                            for _ in range(m - t))
            weight = prod(comb(m, t) for m, t in zip(counts, taken))
            _add_into(by_pending.setdefault(pending, {}), terms,
                      weight * q2 ** len(pending))
            for j in range(last, len(sizes)):
                if taken[j] < counts[j]:
                    step = _current_step(terms, sizes[j], p2, q2)
                    if step:
                        longer.append(
                            (taken[:j] + (taken[j] + 1,) + taken[j + 1:], j, step))
        rows = longer
    return scale * q2 ** r, {pending: terms for pending, terms in by_pending.items()
                             if terms}


def _fill_levels(entry: tuple, p1: int, q1: int, top: int) -> None:
    """Compute the levels of a cache entry from its first missing one up to top.

    One creation pass: the dressing is built up to top and each row only
    meets the insertions that land it on a missing level; the sums are
    divided by the common denominator once, here.
    """
    (scale, by_pending), levels = entry
    first = len(levels)
    out = {lev: {} for lev in range(first, top + 1)}
    dscale = 1
    for pending, terms in by_pending.items():
        dscale, by_size = _creation_dressing(pending, p1, q1, top)
        for p, c in terms.items():
            s = sum(p)
            for lev in range(max(first, s), top + 1):
                target = out[lev]
                for ins, dc in by_size[lev - s]:
                    key = _merge_parts(p, ins)
                    target[key] = target.get(key, 0) + c * dc
    scale *= dscale
    for lev, terms in out.items():
        levels[lev] = {p: _quotient(c, scale) for p, c in terms.items() if c}


def _numerators(terms: dict) -> tuple:
    """(den, {p: int}) with terms = nums / den over the least common denominator.

    All-integer terms come back as they are, shared, with den = 1.
    """
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den == 1:
        return 1, terms
    return den, {p: c * den if type(c) is int else c.numerator * (den // c.denominator)
                 for p, c in terms.items()}


class _NumeratorSum:
    """A sum of integer numerator dicts kept over one common denominator.

    `add` widens the denominator to a common multiple when a new one
    arrives; `canonical` divides once per term.
    """

    __slots__ = ("den", "nums")

    def __init__(self):
        self.den = 1
        self.nums: dict = {}

    def add(self, den: int, nums: dict) -> None:
        """Add nums / den."""
        mine = self.den
        s = 1
        if den != mine:
            common = lcm(mine, den)
            if common != mine:
                up = common // mine
                self.nums = {p: c * up for p, c in self.nums.items()}
                self.den = mine = common
            s = mine // den
        acc = self.nums
        get = acc.get
        if s == 1:
            for p, c in nums.items():
                acc[p] = get(p, 0) + c
        else:
            for p, c in nums.items():
                acc[p] = get(p, 0) + c * s

    def canonical(self) -> dict:
        """The sum as fresh canonical terms, zeros left out."""
        den = self.den
        return {p: _quotient(c, den) for p, c in self.nums.items() if c}


def expand_pair(nu: tuple, lam1, mu: tuple, lam2, level: int) -> dict:
    """The cached {level: terms} of Y(a(-nu)|lam1>, x) a(-mu)|lam2>, filled up to `level`.

    Level sum(nu) + sum(mu) + t holds the coefficient of x^(lam1*lam2 + t),
    at charge lam1 + lam2, as an empty dict when it is zero.  The levels
    run contiguously from 0 to at least `level`; levels above it may be
    present, so a reader indexes only the levels it asked for.  The
    charges are ints or `Fraction`s.  The dict and its terms are shared
    with the cache and must not be mutated.

    The cache entry of a pair holds its annihilation stage and the levels;
    a request above them fills the missing ones in one pass.
    """
    key = expand_key(nu, lam1, mu, lam2)
    entry = _EXPAND_CACHE.get(key)
    if entry is None:
        entry = _EXPAND_CACHE[key] = (_annihilation_stage(nu, lam1, mu, lam2), {})
    levels = entry[1]
    if len(levels) <= level:
        _fill_levels(entry, lam1.numerator, lam1.denominator, level)
    return levels


# ---------------------------------------------------------------------------
# Fock vectors


class FockVector:
    """Finite rational combination of partition basis vectors over one charge."""

    __slots__ = ("charge", "terms", "_hash")

    def __init__(self, charge, terms=None):
        object.__setattr__(self, "charge", intern_charge(charge))
        cleaned = {}
        if terms:
            for p, c in terms.items():
                if type(c) is not int:
                    c = _canon(rat(c))
                if c != 0:
                    cleaned[normalize_partition(p)] = c
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("FockVector is immutable")

    @classmethod
    def basis(cls, charge, partition) -> "FockVector":
        return cls(charge, {tuple(partition): 1})

    def __add__(self, other: "FockVector") -> "FockVector":
        if not same_charge(self.charge, other.charge):
            raise ValueError("cannot add vectors of different charge")
        out = dict(self.terms)
        _add_into(out, other.terms)
        return _trusted_vector(self.charge, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, s) -> "FockVector":
        if type(s) is not int:
            s = rat(s)
        return _trusted_vector(self.charge, _scale_terms(self.terms, s))

    def __eq__(self, other):
        return (isinstance(other, FockVector)
                and same_charge(self.charge, other.charge) and self.terms == other.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.charge, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return not self.terms

    def levels(self):
        terms = self.terms
        if len(terms) == 1:
            (p,) = terms
            return [sum(p)]
        return sorted({sum(p) for p in terms})

    def level_component(self, n: int) -> "FockVector":
        return _trusted_vector(
            self.charge, {p: c for p, c in self.terms.items() if sum(p) == n})

    def level(self) -> int:
        """Level of a homogeneous vector (0 for the zero vector)."""
        levels = self.levels()
        if not levels:
            return 0
        if len(levels) > 1:
            raise NonHomogeneous(f"mixed levels {levels}")
        return levels[0]

    def __repr__(self):
        if not self.terms:
            return f"FockVector({rat_str(self.charge)}; 0)"
        bits = [f"{rat_str(c)}*a{list(p)}" for p, c in sorted(self.terms.items())]
        return f"FockVector({rat_str(self.charge)}; " + " + ".join(bits) + ")"


_new_object = object.__new__
_set_charge = FockVector.charge.__set__
_set_terms = FockVector.terms.__set__
_set_hash = FockVector._hash.__set__


def _trusted_vector(charge: Fraction, terms: dict) -> FockVector:
    """FockVector from terms that are already canonical, skipping the checks.

    The caller guarantees a `Fraction` charge (the interned one, which
    every charge check then meets by identity), non-increasing partition
    keys and nonzero canonical values (an `int` when the value is
    integral, otherwise a `Fraction` with denominator > 1), and hands
    `terms` over: the vector owns the dict, so it must be fresh and must
    not be kept or mutated elsewhere.
    """
    vec = _new_object(FockVector)
    _set_charge(vec, charge)
    _set_terms(vec, terms)
    _set_hash(vec, None)
    return vec


def zero_vector(charge) -> FockVector:
    return FockVector(charge, {})


# ---------------------------------------------------------------------------
# Sugawara fast paths (charge-aware); engine agreement is covered by tests


def sugawara_l(m: int, vec: FockVector) -> FockVector:
    """L(m) = (1/2) sum_j :a(-j)a(j+m):  on a Fock vector, for m = -1 or 1.

    Takes vec over one common denominator, applies `_sugawara_core`
    and divides once per output term.  L(0) is `l_zero`.
    """
    if m not in (-1, 1):
        raise ValueError(f"sugawara_l computes L(-1) and L(1), not L({m})")
    lam = vec.charge
    den, nums = _numerators(vec.terms)
    qd = lam.denominator
    return _trusted_vector(lam, {p: _quotient(c, den * qd) for p, c in
                                 _sugawara_core(m, nums, lam.numerator, qd).items()})


def _sugawara_core(m: int, nums: dict, p_num: int, q_den: int) -> dict:
    """Integer numerators of q_den L(m) on integer numerators, at charge p_num/q_den.

    m is -1 or 1.  In normal order L(m) = sum_{a>=1} a(m-a)a(a) +
    [m = -1] a(-1)a(0), so each part a of a term is annihilated and the
    part a - m created in its place; for a = m (L(1) on a part 1) the
    mode a(m - a) = a(0) reads the charge instead, q_den lam = p_num.
    Zero sums are left out.
    """
    out: dict = {}
    get = out.get
    for p, c in nums.items():
        cs = c * q_den
        for a in set(p):
            q = list(p)
            q.remove(a)
            if a == m:
                if p_num:
                    key = tuple(q)
                    out[key] = get(key, 0) + c * p_num * p.count(a)
            else:
                key = _insert_part(tuple(q), a - m)
                out[key] = get(key, 0) + cs * a * p.count(a)
        if m < 0 and p_num:
            # a(-1)a(0)
            key = _insert_part(p, 1)
            out[key] = get(key, 0) + c * p_num
    return {p: c for p, c in out.items() if c}


def l_zero(vec: FockVector) -> FockVector:
    out: dict = {}
    h0 = vec.charge * vec.charge / 2
    for p, c in vec.terms.items():
        _acc(out, p, c * (h0 + sum(p)))
    return FockVector(vec.charge, out)


def weight_of(vec: FockVector):
    """Conformal weight of a homogeneous vector: charge^2/2 + level.

    An algebra vector's weight is its level, an `int`.
    """
    if same_charge(vec.charge, ALGEBRA_CHARGE):
        return vec.level()
    return vec.charge * vec.charge / 2 + vec.level()


# ---------------------------------------------------------------------------
# distinguished vectors of the algebra V = F(0)


def vacuum() -> FockVector:
    return FockVector(0, {EMPTY: 1})


def conformal_vector() -> FockVector:
    return FockVector(0, {(1, 1): Q(1, 2)})
