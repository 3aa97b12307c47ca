"""Fock modules over the rank-1 boson, their intertwiners, and evaluation maps.

F(q) is the charge-q Fock module with lowest weight q^2/2; its basis at
level n is the set of partitions of n acting on |q>.  All weights of
F(q) live in one congruence class mod Z.  The intertwiner of type
(F(q1+q2); F(q1) F(q2)) is the free-field one, normalized so that
Y(|q1>, x)|q2> = x^(q1 q2)(|q1+q2> + ...); its exponents sit in q1*q2 + Z.

The evaluation maps turn doubly indexed matrices into operators:

    theta(k, l, v, w)      kills w unless level(w) = l, else extracts the
                           residue of x^(l-k-1) Y(x^L(0) v, x) w  -- lands
                           in level k;
    theta of intertwiner   same with the exponent shifted by the lowest
                           weights of source and target;
    theta_dual(k, l, v, w') the one evaluation map of the contragredient W'
                           (Frenkel-Huang-Lepowsky 1993): theta(k, l, sigma v, w').

A module W = F(q) acts through its vertex operator Y_W, which is the
intertwiner of type (W; V W) (Frenkel-Huang-Lepowsky 1993):
FockModule(q).mode and .theta are those of FockIntertwiner(0, q), its
`vertex_operator`.  The algebra V is F(0) as a module over itself, so
its vertex operator is FockIntertwiner(0, 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import TruncationOverflow
from .heisenberg import (
    ALGEBRA_CHARGE,
    FockVector,
    _add_into,
    _NumeratorSum,
    _numerators,
    _sugawara_core,
    _trusted_vector,
    expand_pair,
    intern_charge,
    same_charge,
    partitions_of,
    zero_vector,
)
from .series import rat, rat_str

Q = Fraction


def _pair_sum(v_terms: dict, lam1, w_items, lam2, t: int) -> dict:
    """Terms of the sum of cv cw [x^(lam1*lam2 + t)] Y(a(-nu)|lam1>, x) a(-mu)|lam2>.

    The sum runs over (nu, cv) in v_terms and (mu, cw) in w_items: one
    engine read per pair, of the one level sum(nu) + sum(mu) + t.  The
    modes of the intertwiners, and so of the modules, are this loop.
    """
    out: dict = {}
    for nu, cv in v_terms.items():
        a = sum(nu) + t
        for mu, cw in w_items:
            level = a + sum(mu)
            if level >= 0:
                got = expand_pair(nu, lam1, mu, lam2, level)[level]
                if got:
                    _add_into(out, got, cv * cw)
    return out


def mode_series(v_terms: dict, lam1, w_terms: dict, lam2, t_hi: int) -> dict:
    """{t: terms} of the x^(lam1*lam2 + t) coefficients of Y(v, x) w, t <= t_hi.

    v = sum cv a(-nu)|lam1> and w = sum cw a(-mu)|lam2> are given by
    their terms.  Each pair is one engine read of levels 0 to
    sum(nu) + sum(mu) + t_hi.  The term dicts are fresh and canonical,
    and zero coefficients are absent.
    """
    by_t: dict = {}
    for nu, cv in v_terms.items():
        a = sum(nu)
        for mu, cw in w_terms.items():
            base = a + sum(mu)
            top = base + t_hi
            levels = expand_pair(nu, lam1, mu, lam2, top)
            for lev in range(top + 1):
                terms = levels[lev]
                if terms:
                    _add_into(by_t.setdefault(lev - base, {}), terms, cv * cw)
    return {t: terms for t, terms in by_t.items() if terms}


def _check_result_level(v: FockVector, w: FockVector, t: int, cap: int, what: str) -> None:
    """Raise TruncationOverflow if some basis pair of v, w reads a level above cap."""
    if v.terms and w.terms:
        top = max(map(sum, v.terms)) + max(map(sum, w.terms)) + t
        if top > cap:
            raise TruncationOverflow(f"{what} level {top} exceeds cap {cap}")


def fock_norm(partition: tuple) -> int:
    """<a(-p)|q>, a(-p)|q>> for the diagonal free-field pairing."""
    z = 1
    seen: dict = {}
    for part in partition:
        seen[part] = seen.get(part, 0) + 1
    for part, mult in seen.items():
        z *= part ** mult * factorial(mult)
    return z


def sigma(v: FockVector) -> FockVector:
    """The automorphism a -> -a of V (Frenkel-Lepowsky-Meurman 1988): (-1)^len(nu) on a(-nu)|0>."""
    return _trusted_vector(v.charge, {nu: -c if len(nu) % 2 else c
                                      for nu, c in v.terms.items()})


@lru_cache(maxsize=None)
def _basis(lam: Fraction, level: int) -> tuple:
    """The level-`level` partition basis of F(lam), built once per (lam, level)."""
    return tuple(FockVector.basis(lam, p) for p in partitions_of(level))


class FockModule:
    """The Fock module F(lam): charge lam, lowest weight lam^2/2.

    `level_cap` is the hard truncation bound: operations whose stated
    result would live above it raise TruncationOverflow.
    """

    def __init__(self, lam, level_cap: int = 6):
        self.lam = intern_charge(lam)
        self.level_cap = int(level_cap)
        self.h = self.lam * self.lam / 2
        self._vertex_operator = None

    def highest(self) -> FockVector:
        return FockVector(self.lam, {(): 1})

    def zero(self) -> FockVector:
        return zero_vector(self.lam)

    def basis(self, level: int):
        """The partition basis at `level`: a fresh list of shared vectors."""
        return list(_basis(self.lam, level))

    def omega0_basis(self, n: int):
        """Basis of Omega_n^0: all levels 0..n."""
        if n > self.level_cap:
            raise TruncationOverflow(f"level {n} above cap {self.level_cap}")
        return [v for m in range(n + 1) for v in _basis(self.lam, m)]

    # -- module vertex operator modes ---------------------------------------

    @property
    def vertex_operator(self) -> "FockIntertwiner":
        """Y_W, the intertwiner of type (W; V W), built on first use.

        Built lazily: an intertwiner builds modules of its own.
        """
        vo = self._vertex_operator
        if vo is None:
            vo = self._vertex_operator = FockIntertwiner(ALGEBRA_CHARGE, self.lam,
                                                         self.level_cap)
        return vo

    def mode(self, v: FockVector, n_index, w: FockVector) -> FockVector:
        """(Y_W)_n(v) w for v in the algebra; zero for non-integer n."""
        return self.vertex_operator.mode(n_index, v, w)

    # -- evaluation map of matrices over the algebra ------------------------

    def theta(self, k: int, l: int, v: FockVector, w: FockVector) -> FockVector:
        """Residue map sending [v]_{kl} to an operator: level l -> level k.

        On a(-nu)|0> of level h this is the mode of index h + l - k - 1,
        so each pair with the level-l terms of w is one engine read at
        level k.
        """
        return self.vertex_operator.theta(k, l, v, w)

    # -- contragredient module ----------------------------------------------

    def inner(self, a: FockVector, b: FockVector) -> Fraction:
        """Diagonal pairing with a(n)* = a(-n), <|q>,|q>> = 1 (bilinear)."""
        total = Q(0)
        small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
        for p, c in small.items():
            other = large.get(p)
            if other is not None:
                total += c * other * fock_norm(p)
        return total

    def theta_dual(self, k: int, l: int, v: FockVector, wprime: FockVector) -> FockVector:
        """The evaluation map of W', theta(k, l, sigma v, w'): level l -> level k.

        W' has <Y'(v,x)w', w> = <w', Y(e^{xL(1)}(-x^-2)^{L(0)} v, x^-1) w>, so
        it is W twisted by sigma: a'(n) = -a(n), and sigma fixes the conformal
        vector.  On v of weight h this is the mode of index h + l - k - 1, zero
        for k < 0.  Above the cap, k or a level l of w' that v meets raises.
        """
        if not same_charge(v.charge, ALGEBRA_CHARGE):
            raise ValueError("contragredient modes take algebra vectors")
        if not same_charge(wprime.charge, self.lam):
            raise ValueError("vector does not belong to this module")
        if k > self.level_cap:
            raise TruncationOverflow(f"target level {k} above cap")
        # theta() checks the target level only
        if l > self.level_cap and k >= 0 and v.terms and any(
                sum(mu) == l for mu in wprime.terms):
            raise TruncationOverflow(f"contragredient mode level {l} exceeds cap")
        return self.theta(k, l, sigma(v), wprime)

    def __repr__(self):
        return f"FockModule(lam={rat_str(self.lam)}, cap={self.level_cap})"


class FockIntertwiner:
    """Free-field intertwiner of type (F(q1+q2); F(q1) F(q2)).

    The modules have semisimple L(0), so the operator has no log x
    terms; the fusion space is one-dimensional, and Y(|q1>,x)|q2> has
    leading coefficient 1.  FockIntertwiner(0, q) is the vertex operator
    of the module F(q), and FockIntertwiner(0, 0) that of the algebra V.
    """

    # always 1 and read by nothing here; it stays solely because the
    # benchmark's tracer keys theta calls on it
    scale = 1

    def __init__(self, lam1, lam2, level_cap: int = 6):
        self.lam1 = intern_charge(lam1)
        self.lam2 = intern_charge(lam2)
        self.lam3 = intern_charge(self.lam1 + self.lam2)
        self.level_cap = int(level_cap)
        self.source = FockModule(self.lam1, level_cap)
        self.right_input = FockModule(self.lam2, level_cap)
        self.target = FockModule(self.lam3, level_cap)
        self.base_exponent = self.lam1 * self.lam2

    def h_shift(self) -> Fraction:
        """h2 - h3: the lowest-weight shift entering the residue exponents."""
        return self.right_input.h - self.target.h

    def mode(self, m, w1: FockVector, w2: FockVector) -> FockVector:
        """The mode Y_m(w1) w2, of weight wt w1 + wt w2 - m - 1."""
        if not (same_charge(w1.charge, self.lam1) and same_charge(w2.charge, self.lam2)):
            raise ValueError("intertwiner modes take (source, right input) vectors")
        m = rat(m)
        t = -m - 1 - self.base_exponent
        if t.denominator != 1:
            return self.target.zero()
        t = int(t)
        _check_result_level(w1, w2, t, self.level_cap, "intertwiner mode")
        return _trusted_vector(self.lam3, _pair_sum(
            w1.terms, self.lam1, w2.terms.items(), self.lam2, t))

    def series(self, w1: FockVector, w2: FockVector, lo, hi) -> dict:
        """Y(w1, x) w2 over the exponent window [lo, hi]: {exponent: nonzero vector}."""
        if not (same_charge(w1.charge, self.lam1) and same_charge(w2.charge, self.lam2)):
            raise ValueError("intertwiner series take (source, right input) vectors")
        lo = rat(lo)
        t_hi = (rat(hi) - self.base_exponent).__floor__()
        _check_result_level(w1, w2, t_hi, self.level_cap, "series window")
        # mode_series leaves out empty terms, so no value is the zero vector
        out: dict = {}
        for t, terms in mode_series(w1.terms, self.lam1, w2.terms, self.lam2,
                                    t_hi).items():
            s = self.base_exponent + t
            if s >= lo:
                out[s] = _trusted_vector(self.lam3, terms)
        return out

    def theta(self, k: int, l: int, w1: FockVector, w2: FockVector) -> FockVector:
        """Evaluation of [w1]_{kl}: kills w2 off level l, lands in level k.

        Extracts the residue of x^(h2 - h3 + l - k - 1) Y(x^{L(0)} w1, x) w2;
        the target is a single congruence class.  Since h1 + h2 - h3 =
        -lam1 lam2, a(-nu)|lam1> of level a contributes its
        x^(lam1 lam2 + k - l - a) coefficient: level k of the engine's
        expansion of each pair with a(-mu)|lam2> of level l, zero for k < 0.
        """
        if not (same_charge(w1.charge, self.lam1) and same_charge(w2.charge, self.lam2)):
            raise ValueError("intertwiner modes take (source, right input) vectors")
        if k > self.level_cap:
            raise TruncationOverflow(f"target level {k} above cap")
        out: dict = {}
        if k >= 0:
            w2_l = [(mu, c2) for mu, c2 in w2.terms.items() if sum(mu) == l]
            for nu, c1 in w1.terms.items():
                for mu, c2 in w2_l:
                    got = expand_pair(nu, self.lam1, mu, self.lam2, k)[k]
                    if got:
                        _add_into(out, got, c1 * c2)
        return _trusted_vector(self.lam3, out)

    def __repr__(self):
        return (f"FockIntertwiner({rat_str(self.lam1)}, {rat_str(self.lam2)}; "
                f"cap={self.level_cap})")


def right_vertex_op(module: FockModule, w: FockVector, v: FockVector,
                    lo: int, hi: int) -> dict:
    """Y(w, x)v on the right: e^{x L(-1)} Y_W(v, -x) w, over [lo, hi].

    Returns {integer exponent: nonzero vector}.

    The modes of Y_W(v, z) w come from `mode_series`; the exponential of
    L(-1) is applied with the Sugawara core on integer numerators: at
    charge P/Qd the core gives Qd L(-1), so step a of each chain
    multiplies its denominator by Qd a.  Each exponent sums its chain
    elements over one common denominator and divides once per term.
    """
    if not (same_charge(w.charge, module.lam) and same_charge(v.charge, ALGEBRA_CHARGE)):
        raise ValueError("right vertex operator takes (module, algebra) vectors")
    _check_result_level(v, w, hi, module.level_cap, "window")
    p_num, q_den = module.lam.numerator, module.lam.denominator
    sums: dict = {}
    series = mode_series(v.terms, ALGEBRA_CHARGE, w.terms, module.lam, hi)
    for t, terms in series.items():
        den, nums = _numerators(terms)
        if t % 2:
            nums = {p: -c for p, c in nums.items()}
        a = 0
        while t + a <= hi and nums:
            if t + a >= lo:
                acc = sums.get(t + a)
                if acc is None:
                    acc = sums[t + a] = _NumeratorSum()
                acc.add(den, nums)
            a += 1
            nums = _sugawara_core(-1, nums, p_num, q_den)
            den *= q_den * a
    out: dict = {}
    for s, acc in sums.items():
        terms = acc.canonical()
        if terms:
            out[s] = _trusted_vector(module.lam, terms)
    return out
