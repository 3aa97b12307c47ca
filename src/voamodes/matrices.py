"""Doubly indexed matrices over the boson algebra and its modules.

The product on matrices with algebra entries, and the left/right module
actions, all share one shape: the (k,l) entry of a product through the
middle index n is the residue of

    T_{k+l+1}((x+1)^(-k+n-l-1)) * (1+x)^l * Y((1+x)^{L(0)} u, x) v

with T the Taylor polynomial in x^-1 of order k+l+1 (so its inner sum
runs to m = n).  The right action replaces the last factor by
Y((1+x)^{-L(0)} v, -x(1+x)^{-1}) w and (1+x)^l by (1+x)^k.
`right_entry` evaluates it in the conjugated form; the direct and
right-op forms are oracles, separate code paths called by name where
they are compared, so their agreement is a real check.  On the t-th mode
of Y_W(v_h, .) w (h = wt v_h):

    direct       multiplies the two scalar series (1+x)^{-h} and
                 z^t = (-1)^t x^t (1+x)^{-t} (z = -x(1+x)^{-1}) out as a
                 Cauchy product of binomials;
    conjugated   multiplies by the single series (-1)^t x^t (1+x)^{-h-t}
                 that the L(0)-conjugation collapses to, so it agrees with
                 the direct form by the Vandermonde identity;
    right-op     multiplies e^{x L(-1)} Y_W(v, -x) (built from the modes
                 and the Sugawara operator) by the dressing (1+x)^{L(0)} of
                 w and the operator binomial (1+x)^{-(L(-1)+L(0))}; its
                 operator chains run on integer numerators over one
                 denominator, divided once per term of the sum.

Residue entries accumulate in plain {partition: coefficient} dicts and
wrap each result in exactly one FockVector, built through the trusted
constructor.  An entry reads its form's series up to x^{k+l}, which does
not depend on the middle index n, and the series up to x^t is a prefix
of the series up to any larger t.  So each form caches its own series
per (w, v), built to the largest k+l asked for so far, in a bounded
cache of its own; no form reads another's series.  `left_entry` and
`right_entry` memoize whole entries for the verify suites, which read
many entries more than once; `tables` reads each entry once, so it
calls the memo-free `left_entry_sum` and `right_entry_conjugated`.

Matrix entries are exact and uncapped: products routinely pass through
weights above the module truncation bound on their way to a residue, and
nothing is dropped.  So the builders behind them -- `mode_series`,
`right_vertex_op`, the residue entries and a kernel element's mode sum --
check no cap.  The caps hold where results are promised: an evaluation
map checks both levels it names, a mode or a series where it lands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, update_wrapper

from .fock import FockIntertwiner, FockModule, _pair_sum, mode_series, right_vertex_op
from .heisenberg import (
    ALGEBRA_CHARGE,
    FockVector,
    _add_into,
    _canon,
    _NumeratorSum,
    _numerators,
    _sugawara_core,
    _trusted_vector,
    conformal_vector,
    expand_pair,
    intern_charge,
    same_charge,
    sugawara_l,
    vacuum,
    weight_of,
    zero_vector,
)
from .series import gen_binomial, rat

Q = Fraction


class IndexedMatrix:
    """Sparse N x N matrix with entries in one Fock space (fixed charge)."""

    __slots__ = ("charge", "entries")

    def __init__(self, charge, entries=None):
        object.__setattr__(self, "charge", intern_charge(charge))
        cleaned = {}
        if entries:
            for (k, l), vec in entries.items():
                if k < 0 or l < 0:
                    raise ValueError("matrix indices are naturals")
                if not same_charge(vec.charge, self.charge):
                    raise ValueError("entry charge mismatch")
                if not vec.is_zero():
                    cleaned[(int(k), int(l))] = vec
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, *a):
        raise AttributeError("IndexedMatrix is immutable")

    @classmethod
    def single(cls, vec: FockVector, k: int, l: int) -> "IndexedMatrix":
        return cls(vec.charge, {(k, l): vec})

    @classmethod
    def zero(cls, charge) -> "IndexedMatrix":
        return cls(charge, {})

    def __add__(self, other: "IndexedMatrix") -> "IndexedMatrix":
        if not same_charge(self.charge, other.charge):
            raise ValueError("charge mismatch")
        out = dict(self.entries)
        for key, vec in other.entries.items():
            out[key] = out[key] + vec if key in out else vec
        return IndexedMatrix(self.charge, out)

    def __sub__(self, other: "IndexedMatrix") -> "IndexedMatrix":
        return self + other.scale(-1)

    def scale(self, s) -> "IndexedMatrix":
        s = rat(s)
        if s == 0:
            return IndexedMatrix(self.charge, {})
        return IndexedMatrix(self.charge,
                             {key: vec.scale(s) for key, vec in self.entries.items()})

    def entry(self, k: int, l: int) -> FockVector:
        return self.entries.get((k, l), zero_vector(self.charge))

    def __eq__(self, other):
        return (isinstance(other, IndexedMatrix)
                and same_charge(self.charge, other.charge)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.charge, frozenset(self.entries.items())))

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        body = ", ".join(f"({k},{l}): {v!r}" for (k, l), v in sorted(self.entries.items()))
        return f"IndexedMatrix[{body}]"


# ---------------------------------------------------------------------------
# canonical algebra matrices


def identity_n(n: int) -> IndexedMatrix:
    one = vacuum()
    return IndexedMatrix(0, {(k, k): one for k in range(n + 1)})


def omega0_n(n: int) -> IndexedMatrix:
    w = conformal_vector()
    return IndexedMatrix(0, {(k, k): w for k in range(n + 1)})


def omega1_n(n: int) -> IndexedMatrix:
    w = conformal_vector()
    return IndexedMatrix(0, {(k + 1, k): w for k in range(n)})


# ---------------------------------------------------------------------------
# entry-level residue formulas


def left_entry(v: FockVector, w: FockVector, k: int, n: int, l: int) -> FockVector:
    """`left_entry_sum`, memoized: the verify suites read entries again."""
    return _left_entry_cached(v, w, k, n, l)


def left_entry_sum(v: FockVector, w: FockVector, k: int, n: int, l: int) -> FockVector:
    """Res_x T_{k+l+1}((x+1)^(-k+n-l-1)) (1+x)^l Y((1+x)^{L(0)}v, x) w.

    Computed afresh on every call; `tables` reads each entry once.
    """
    if not same_charge(v.charge, ALGEBRA_CHARGE):
        raise ValueError("left factor must be an algebra vector")
    # every exponent s of the weights is at most k + l, so the engine
    # levels it reads, sum(nu) + sum(mu) + s, are filled (or negative,
    # and absent)
    out: dict = {}
    for nu, cv in v.terms.items():
        weights = _residue_weights(k, n, l, l + sum(nu))
        for mu, cw in w.terms.items():
            base = sum(nu) + sum(mu)
            levels = expand_pair(nu, ALGEBRA_CHARGE, mu, w.charge, base + k + l)
            c_pair = cv * cw
            for s, c in weights.items():
                got = levels.get(base + s)
                if got:
                    _add_into(out, got, c_pair * c)
    return _trusted_vector(w.charge, out)


# a miss raises before anything is cached, so the charge check holds for hits
_left_entry_cached = lru_cache(maxsize=1 << 18)(left_entry_sum)


@lru_cache(maxsize=1 << 10)
def _residue_weights(k: int, n: int, l: int, e: int) -> dict:
    """{s: c} with c = Res_x T_{k+l+1}((x+1)^(-k+n-l-1)) (1+x)^e x^s, c != 0."""
    alpha = -k + n - l - 1
    out: dict = {}
    for m in range(0, n + 1):
        cm = gen_binomial(alpha, m)
        if cm == 0:
            continue
        for j in range(0, e + 1):
            s = -1 - (alpha - m) - j
            out[s] = out.get(s, 0) + cm * gen_binomial(e, j)
    return {s: _canon(c) for s, c in out.items() if c != 0}


def _residue_against(stuff: dict, charge, k: int, n: int, l: int) -> FockVector:
    """Res_x T_{k+l+1}((x+1)^(-k+n-l-1)) (1+x)^k * sum_s stuff[s] x^s.

    `stuff` maps s to canonical {partition: coeff} terms; it is only read,
    at exponents s <= k + l, so any longer series gives the same entry.
    """
    out: dict = {}
    for s, c in _residue_weights(k, n, l, k).items():
        terms = stuff.get(s)
        if terms:
            _add_into(out, terms, c)
    return _trusted_vector(charge, out)


class _SeriesCache:
    """One right-action series per (w, v), read for every window it covers.

    The series up to x^t is a prefix of the series up to any larger t,
    and a residue entry with k + l = t reads only exponents <= t, so the
    series built to t_hi serves every request at or below it; a larger
    request builds anew and replaces it.  At most `maxsize` pairs are
    kept, the oldest dropped first.  The series are shared and must not
    be mutated.
    """

    def __init__(self, build, maxsize: int):
        update_wrapper(self, build)
        self._build = build
        self._maxsize = maxsize
        self._series: dict = {}

    def __call__(self, w: FockVector, v: FockVector, t_hi: int) -> dict:
        key = (w, v)
        got = self._series.get(key)
        if got is not None and got[0] >= t_hi:
            return got[1]
        series = self._build(w, v, t_hi)
        # popped first, so the pair counts as the newest
        self._series.pop(key, None)
        self._series[key] = (t_hi, series)
        if len(self._series) > self._maxsize:
            del self._series[next(iter(self._series))]
        return series

    def cache_clear(self) -> None:
        self._series.clear()


def _series_cache(maxsize: int):
    """Decorator: a `_SeriesCache` of its own around a series builder."""
    return lambda build: _SeriesCache(build, maxsize)


@_series_cache(64)
def _conjugated_series(w: FockVector, v: FockVector, t_hi: int) -> dict:
    """{s: terms} of (1+x)^{-L(0)} Y_W(v, -x) (1+x)^{L(0)} w up to x^t_hi.

    Per homogeneous pieces the conjugation collapses to the scalar factor
    (1+x)^(-h - t) on the t-th mode of Y_W(v, -x) w (h = wt v): the
    fractional parts of the two L(0) weights cancel exactly.
    """
    stuff: dict = {}
    for h in v.levels():
        v_h = v.level_component(h)
        series = mode_series(v_h.terms, ALGEBRA_CHARGE, w.terms, w.charge, t_hi)
        for t, terms in series.items():
            sign = -1 if t % 2 else 1
            for j in range(0, t_hi - t + 1):
                cj = gen_binomial(-h - t, j)
                if cj != 0:
                    _add_into(stuff.setdefault(t + j, {}), terms, sign * cj)
    return {s: terms for s, terms in stuff.items() if terms}


def right_entry_conjugated(w: FockVector, v: FockVector, k: int, n: int,
                           l: int) -> FockVector:
    """Right action entry via (1+x)^{-L(0)} Y_W(v, -x) (1+x)^{L(0)} w."""
    if not same_charge(v.charge, ALGEBRA_CHARGE):
        raise ValueError("right factor must be an algebra vector")
    return _residue_against(_conjugated_series(w, v, k + l), w.charge, k, n, l)


def right_entry_direct(w: FockVector, v: FockVector, k: int, n: int,
                       l: int) -> FockVector:
    """Right action entry via Y_W((1+x)^{-L(0)} v, -x(1+x)^{-1}) w; an oracle."""
    if not same_charge(v.charge, ALGEBRA_CHARGE):
        raise ValueError("right factor must be an algebra vector")
    return _residue_against(_direct_series(w, v, k + l), w.charge, k, n, l)


@_series_cache(16)
def _direct_series(w: FockVector, v: FockVector, t_hi: int) -> dict:
    """{s: terms} of Y_W((1+x)^{-L(0)} v, -x(1+x)^{-1}) w up to x^t_hi.

    Substitutes z = -x(1+x)^{-1} into the mode expansion: the t-th mode
    of v_h gets (1+x)^{-h} z^t = (-1)^t x^t (1+x)^{-h} (1+x)^{-t}, whose
    x^(t+j) coefficient is the product sum_i C(-h,i) C(-t,j-i).
    """
    stuff: dict = {}
    for h in v.levels():
        v_h = v.level_component(h)
        series = mode_series(v_h.terms, ALGEBRA_CHARGE, w.terms, w.charge, t_hi)
        for t, terms in series.items():
            sign = -1 if t % 2 else 1
            top = t_hi - t + 1
            dress = [gen_binomial(-h, i) for i in range(top)]
            subst = [gen_binomial(-t, i) for i in range(top)]
            for j in range(top):
                cj = sum(dress[i] * subst[j - i] for i in range(j + 1))
                if cj != 0:
                    _add_into(stuff.setdefault(t + j, {}), terms, sign * cj)
    return {s: terms for s, terms in stuff.items() if terms}


def right_entry_right_op(w: FockVector, v: FockVector, k: int, n: int,
                         l: int) -> FockVector:
    """Right action entry via the right vertex operator; an oracle:

    Res_x T (1+x)^k (1+x)^{-(L(-1)+L(0))} Y_{WV}((1+x)^{L(0)} w, x) v.
    """
    if not same_charge(v.charge, ALGEBRA_CHARGE):
        raise ValueError("right factor must be an algebra vector")
    return _residue_against(_right_op_series(w, v, k + l), w.charge, k, n, l)


@_series_cache(16)
def _right_op_series(w: FockVector, v: FockVector, t_hi: int) -> dict:
    """{s: terms} of (1+x)^{-(L(-1)+L(0))} Y_{WV}((1+x)^{L(0)} w, x) v up to x^t_hi.

    Built from the right vertex operator and the Sugawara core alone,
    sharing no series code with the other two forms.  Each chain of the
    operator binomial runs on integer numerators over one denominator,
    and each exponent sums its chain elements over a common denominator
    and divides once per term.
    """
    charge = w.charge
    lowest = -(max(w.levels(), default=0) + max(v.levels(), default=0) + 1)
    # Y_{WV}((1+x)^{L(0)} w, x) v: on level lev of w the dressing is the
    # scalar series (1+x)^{h_W + lev}, so one right vertex operator per
    # level, each mode shifted by the binomial's degree d
    assembled: dict = {}
    for lev in w.levels():
        hw = charge * charge / 2 + lev
        ser = right_vertex_op(w.level_component(lev), v, lowest, t_hi)
        for e, vec in ser.items():
            for d in range(t_hi - e + 1):
                _add_into(assembled.setdefault(e + d, {}), vec.terms,
                          gen_binomial(hw, d))
    # (1+x)^{-(L(-1)+L(0))} through the operator binomial: step d takes
    # cur to -(L(-1) + L(0) + d - 1) cur / d.  At charge P/Qd, with
    # S = 2 Qd^2, S (L(-1) + L(0) + d - 1) is 2 Qd (Qd L(-1)) plus the
    # scalar P^2 + S (level + d - 1) per partition, and the chain's
    # denominator takes the factor S d.
    p_num, q_den = charge.numerator, charge.denominator
    big_s = 2 * q_den * q_den
    p_sq = p_num * p_num
    sums: dict = {}
    for s, terms in assembled.items():
        den, nums = _numerators(terms)
        d = 0
        while s + d <= t_hi and nums:
            acc = sums.get(s + d)
            if acc is None:
                acc = sums[s + d] = _NumeratorSum()
            acc.add(den, nums)
            d += 1
            step = {p: -2 * q_den * c
                    for p, c in _sugawara_core(-1, nums, p_num, q_den).items()}
            get = step.get
            for p, c in nums.items():
                step[p] = get(p, 0) - c * (p_sq + big_s * (sum(p) + d - 1))
            nums = {p: c for p, c in step.items() if c}
            den *= big_s * d
    return {s: terms for s, acc in sums.items() if (terms := acc.canonical())}


def right_entry(w: FockVector, v: FockVector, k: int, n: int, l: int) -> FockVector:
    """`right_entry_conjugated`, memoized: the verify suites read entries again."""
    return _right_entry_cached(w, v, k, n, l)


# a miss raises before anything is cached, so the charge check holds for hits
@lru_cache(maxsize=1 << 18)
def _right_entry_cached(w, v, k, n, l):
    return right_entry_conjugated(w, v, k, n, l)


# ---------------------------------------------------------------------------
# matrix-level products


def _diamond(a: IndexedMatrix, b: IndexedMatrix, entry, charge) -> IndexedMatrix:
    """sum over the middle index n of entry(a_{kn}, b_{nl}, k, n, l) at (k, l)."""
    out: dict = {}
    for (k, n1), x in a.entries.items():
        for (n2, l), y in b.entries.items():
            if n1 != n2:
                continue
            piece = entry(x, y, k, n1, l)
            if not piece.is_zero():
                key = (k, l)
                out[key] = out[key] + piece if key in out else piece
    return IndexedMatrix(charge, out)


def diamond_left(a: IndexedMatrix, b: IndexedMatrix) -> IndexedMatrix:
    """Product/left action: entries of a are algebra vectors."""
    if not same_charge(a.charge, ALGEBRA_CHARGE):
        raise ValueError("left factor must be a matrix over the algebra")
    return _diamond(a, b, left_entry, b.charge)


def diamond_wv(a: IndexedMatrix, b: IndexedMatrix) -> IndexedMatrix:
    """Right action: entries of b are algebra vectors."""
    if not same_charge(b.charge, ALGEBRA_CHARGE):
        raise ValueError("right factor must be a matrix over the algebra")
    return _diamond(a, b, right_entry, a.charge)


# ---------------------------------------------------------------------------
# kernel elements from the Jacobi identity


@lru_cache(maxsize=1 << 14)
def jacobi_sums(k: int, l: int, n: int, p: int, hv: int, lev: int):
    """The three (index, coefficient) tuples of the residue-form Jacobi identity.

    For v of weight hv and w of top level lev, the identity at (k, l, n, p)
    pairs the lists with
      sum (-1)^j C(p,j) [v]_{k,i} . [w]_{i,l+p}          (i = n+p-j)
      sum (-1)^(p-j) C(p,j) [w]_{k,q} . [v]_{q,l+p}      (q = l-n+k+p-j)
      sum C(hv + n - k - 1, j) [(Y)_i(v) w]_{k,l+p}      (i = p+j)
    Matrix indices run over the naturals only, and the last sum stops at
    j = lev + hv - 1 - p, past which the mode (Y)_{p+j}(v) w vanishes.
    Zero coefficients are left out.  The result is cached and shared, so
    it is made of tuples.
    """
    def signed(m, c):
        # (-1) ** m is a float for m < 0; the parity gives the exact sign
        return -c if m % 2 else c

    left = [(n + p - j, signed(j, gen_binomial(p, j))) for j in range(n + p + 1)]
    right = [(l - n + k + p - j, signed(p - j, gen_binomial(p, j)))
             for j in range(l - n + k + p + 1)]
    modes = [(p + j, gen_binomial(hv + n - k - 1, j))
             for j in range(max(0, lev + hv - 1 - p) + 1)]
    return tuple(tuple((i, c) for i, c in sums if c != 0)
                 for sums in (left, right, modes))


@lru_cache(maxsize=1 << 12)
def _module_mode(lam, v: FockVector, i: int, w: FockVector) -> FockVector:
    """(Y_W)_i(v) w on W = F(lam), uncapped: a matrix entry is exact.

    The caller checks the charges.  A sweep asks for few distinct modes.
    """
    return _trusted_vector(lam, _pair_sum(v.terms, ALGEBRA_CHARGE, w.terms.items(),
                                          lam, -i - 1))


def jacobi_kernel_element(module: FockModule, k: int, l: int, n: int, p: int,
                          v: FockVector, w: FockVector) -> IndexedMatrix:
    """The three-sum combination sitting in every evaluation kernel.

    For homogeneous v and p with l+p >= 0 the single (k, l+p) entry of

      first sum - second sum - third sum     (see `jacobi_sums`)

    lies in the kernel of every evaluation map.  A combination that is the
    zero vector gives the zero matrix.
    """
    if l + p < 0:
        raise ValueError("l + p must be a natural number")
    if not (same_charge(v.charge, ALGEBRA_CHARGE) and same_charge(w.charge, module.lam)):
        raise ValueError("kernel elements take (algebra, module) vectors")
    left, right, modes = jacobi_sums(k, l, n, p, weight_of(v),
                                     max(w.levels(), default=0))
    # one fresh dict; the cached entries' terms are only read
    acc: dict = {}
    for i, c in left:
        _add_into(acc, left_entry(v, w, k, i, l + p).terms, c)
    for q, c in right:
        _add_into(acc, right_entry(w, v, k, q, l + p).terms, -c)
    for i, c in modes:
        _add_into(acc, _module_mode(module.lam, v, i, w).terms, -c)
    if not acc:
        return IndexedMatrix.zero(w.charge)
    return IndexedMatrix.single(_trusted_vector(w.charge, acc), k, l + p)


# ---------------------------------------------------------------------------
# opposite-algebra map


def opposite_map(mat: IndexedMatrix) -> IndexedMatrix:
    """Transpose indices and send entries v to e^{L(1)} (-1)^{L(0)} v.

    The one sign that satisfies the adjoint pairing identity against the
    contragredient action; the `opposite` suite checks that the identity
    holds for this map and fails for its negative.
    """
    if not same_charge(mat.charge, ALGEBRA_CHARGE):
        raise ValueError("the opposite map acts on matrices over the algebra")
    # the images are cached and shared, so each entry gets its own copy
    return IndexedMatrix(0, {(l, k): _exp_l1_parity(vec).scale(1)
                             for (k, l), vec in mat.entries.items()})


@lru_cache(maxsize=1 << 10)
def _exp_l1_parity(vec: FockVector) -> FockVector:
    """e^{L(1)} (-1)^{L(0)} vec for an algebra vector."""
    acc = zero_vector(0)
    for lev in vec.levels():
        comp = vec.level_component(lev)
        term = comp.scale(Q(-1) if lev % 2 else Q(1))
        fact = Q(1)
        j = 0
        while not term.is_zero():
            acc = acc + term.scale(fact)
            j += 1
            fact = fact / j
            term = sugawara_l(1, term)
    return acc


# ---------------------------------------------------------------------------
# equality after evaluation


def first_nonzero_image(Y: FockIntertwiner, mat: IndexedMatrix):
    """The first nonzero Y.theta(k, l, entry, w2), w2 over the level-l basis.

    None when Y kills every entry of mat, i.e. mat lies in its kernel.
    """
    for (k, l), vec in mat.entries.items():
        for w2 in Y.right_input.basis(l):
            img = Y.theta(k, l, vec, w2)
            if not img.is_zero():
                return img
    return None


def probe_equal(a: IndexedMatrix, b: IndexedMatrix, intertwiners) -> bool:
    """Equality after evaluation: every intertwiner kills a - b."""
    if not intertwiners:
        raise ValueError("probe_equal needs at least one intertwiner")
    diff = a - b
    return diff.is_zero() or all(first_nonzero_image(Y, diff) is None
                                 for Y in intertwiners)
