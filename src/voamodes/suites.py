"""Verification suites: every computable identity, exactly, at desk scale.

Each suite sweeps a finite grid and compares both sides of one identity
in exact rational arithmetic, counting each case through
`SuiteReport.check` under a named sub-check; a report carries the counts
and the first failure, rendered in the partition basis.  Grids are
deterministic given the configuration and seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .correspondence import (
    MapTable,
    SuiteReport,
    certify_jacobi,
    certify_l1_derivative,
    jacobi_points,
    reachability_closure,
    roundtrip,
    yf_series,
)
from .errors import TruncationOverflow
from .fock import FockIntertwiner, FockModule
from .heisenberg import (
    conformal_vector,
    l_zero,
    sugawara_l,
    vacuum,
    weight_of,
)
from .matrices import (
    IndexedMatrix,
    diamond_left,
    diamond_wv,
    first_nonzero_image,
    identity_n,
    jacobi_kernel_element,
    left_entry,
    omega0_n,
    omega1_n,
    opposite_map,
    probe_equal,
    right_entry,
    right_entry_direct,
    right_entry_right_op,
)
from .series import gen_binomial, rat, rat_str

Q = Fraction

SUITE_NAMES = (
    "homomorphism",
    "unit",
    "bimodule",
    "three-forms",
    "kernel",
    "omega-commutators",
    "binomial-218",
    "conjugation",
    "exp-L",
    "roundtrip",
    "jacobi-cert",
    "L1-cert",
    "opposite",
    "reachability",
)

BIMODULE_PAIRS = ((Q(1, 2), Q(1, 2)), (Q(1), Q(-1, 2)), (Q(0), Q(1)))


class ConfigError(Exception):
    pass


class RunConfig:
    """The settings of one run; immutable, built by keyword."""

    __slots__ = ("n", "l_max", "charges", "p_window", "max_v_weight", "suites", "seed")

    def __init__(self, *, n: int = 2, l_max: int = 6,
                 charges: tuple = (Q(0), Q(1, 2), Q(1)), p_window: tuple = (-2, 2),
                 max_v_weight: int = 3, suites: tuple = SUITE_NAMES, seed: int = 0):
        for name, value in zip(self.__slots__, (n, l_max, charges, p_window,
                                                max_v_weight, suites, seed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("RunConfig is immutable")

    def validate(self) -> "RunConfig":
        if self.n < 0:
            raise ConfigError("N must be a natural number")
        if self.l_max < 4:
            raise ConfigError("L_max must be at least 4")
        if self.n > self.l_max:
            raise ConfigError("N must not exceed L_max")
        if not self.charges:
            raise ConfigError("charges must name at least one charge")
        repeated = list(dict.fromkeys(
            c for c in self.charges if self.charges.count(c) > 1))
        if repeated:
            # equal values (1/2, 2/4, 0.5) would run every case again
            raise ConfigError(
                f"duplicate charges: {', '.join(rat_str(c) for c in repeated)}")
        if self.p_window[0] > self.p_window[1]:
            raise ConfigError("empty p window")
        if self.max_v_weight < 1:
            raise ConfigError("max_v_weight must be positive")
        if not self.suites:
            raise ConfigError("suites must name at least one suite")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(unknown)}")
        repeated = list(dict.fromkeys(
            s for s in self.suites if self.suites.count(s) > 1))
        if repeated:
            # each would run again and add a second row to the report
            raise ConfigError(f"duplicate suites: {', '.join(repeated)}")
        return self

    def echo(self) -> dict:
        return {
            "N": self.n,
            "L_max": self.l_max,
            "charges": [rat_str(c) for c in self.charges],
            "p_window": list(self.p_window),
            "max_v_weight": self.max_v_weight,
            "suites": list(self.suites),
            "seed": self.seed,
        }


def algebra_basis(top: int) -> list:
    """The partition basis of V = F(0) at weights 0..top, weight by weight.

    The seeded samples index this list, so its order fixes the report.
    """
    return FockModule(0, level_cap=top).omega0_basis(top)


class RunContext:
    """Shared, lazily built objects for one verification run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.v_basis = algebra_basis(cfg.max_v_weight)
        self._modules: dict = {}
        self._intertwiners: dict = {}
        self._cert = None

    def module(self, lam) -> FockModule:
        lam = rat(lam)
        if lam not in self._modules:
            self._modules[lam] = FockModule(lam, self.cfg.l_max)
        return self._modules[lam]

    def intertwiner(self, lam1, lam2) -> FockIntertwiner:
        key = (rat(lam1), rat(lam2))
        if key not in self._intertwiners:
            self._intertwiners[key] = FockIntertwiner(*key, self.cfg.l_max)
        return self._intertwiners[key]

    def cert_table(self):
        """The shared map table used by the certification suites."""
        if self._cert is None:
            cfg = self.cfg
            kmax = 2 * cfg.n + max(cfg.p_window[1], 0)
            if kmax > cfg.l_max:
                raise TruncationOverflow(
                    "certification grid needs levels beyond L_max")
            Y = self.intertwiner(Q(1, 2), Q(1, 2))
            self._cert = MapTable.from_intertwiner(Y, kmax, cfg.l_max)
        return self._cert

    def module_probes(self) -> list:
        """The modules' vertex operators, the intertwiners that probe_equal applies."""
        return [self.module(c).vertex_operator for c in self.cfg.charges]

    def rng(self) -> random.Random:
        return random.Random(self.cfg.seed)


# ---------------------------------------------------------------------------
# individual suites


def suite_homomorphism(ctx: RunContext) -> SuiteReport:
    """theta(u . v) = theta(u) theta(v) on every module, plus associativity."""
    cfg = ctx.cfg
    rep = SuiteReport("homomorphism")
    modules = [(M, M.omega0_basis(cfg.n))
               for M in (ctx.module(c) for c in cfg.charges)]
    idx = range(cfg.n + 1)
    for u in ctx.v_basis:
        for v in ctx.v_basis:
            for k in idx:
                for n in idx:
                    for l in idx:
                        entry = left_entry(u, v, k, n, l)
                        for M, basis in modules:
                            for w in basis:
                                lhs = M.theta(k, l, entry, w)
                                rhs = M.theta(k, n, u, M.theta(n, l, v, w))
                                rep.check("homomorphism", lhs == rhs, lhs, rhs,
                                          k=k, n=n, l=l, u=u, v=v, w=w, module=M)
    rng = ctx.rng()
    probes = ctx.module_probes()
    for _ in range(10):
        a = IndexedMatrix.single(rng.choice(ctx.v_basis), rng.randrange(cfg.n + 1),
                                 rng.randrange(cfg.n + 1))
        b = IndexedMatrix.single(rng.choice(ctx.v_basis), rng.randrange(cfg.n + 1),
                                 rng.randrange(cfg.n + 1))
        c = IndexedMatrix.single(rng.choice(ctx.v_basis), rng.randrange(cfg.n + 1),
                                 rng.randrange(cfg.n + 1))
        lhs = diamond_left(diamond_left(a, b), c)
        rhs = diamond_left(a, diamond_left(b, c))
        rep.check("associativity", probe_equal(lhs, rhs, probes), lhs, rhs,
                  a=a, b=b, c=c)
    return rep


def suite_unit(ctx: RunContext) -> SuiteReport:
    """Identity matrix facts and the coset identity for off-diagonal units."""
    cfg = ctx.cfg
    rep = SuiteReport("unit")
    one = vacuum()
    probes = ctx.module_probes()
    for c in cfg.charges:
        M = ctx.module(c)
        ident = identity_n(cfg.n)
        for w in M.omega0_basis(cfg.n):
            img = M.zero()
            for (k, l), entry in ident.entries.items():
                img = img + M.theta(k, l, entry, w)
            rep.check("identity acts as id", img == w, img, w, module=M, w=w)
    for v in ctx.v_basis:
        for n in range(cfg.n + 1):
            for l in range(cfg.n + 1):
                got = left_entry(one, v, n, n, l)
                rep.check("[1]_{nn}.[v]_{nl}", got == v, got, v, n=n, l=l, v=v)
    for k in range(cfg.n + 1):
        for l in range(cfg.n + 1):
            lhs = IndexedMatrix.single(one, k, l)
            rhs = IndexedMatrix.single(one, l, l) if k == l else \
                IndexedMatrix.zero(0)
            rep.check("unit coset", probe_equal(lhs, rhs, probes), lhs, rhs, k=k, l=l)
    # unit element under the probe family, random single entries
    rng = ctx.rng()
    ident = identity_n(cfg.n)
    for _ in range(10):
        a = IndexedMatrix.single(rng.choice(ctx.v_basis),
                                 rng.randrange(cfg.n + 1), rng.randrange(cfg.n + 1))
        left = diamond_left(ident, a)
        right = diamond_left(a, ident)
        ok = probe_equal(left, a, probes) and probe_equal(right, a, probes)
        rep.check("unit element", ok, left, right, a=a)
    # the module action, read as an intertwiner, evaluates like the module
    for c in cfg.charges:
        M = ctx.module(c)
        Y0 = ctx.intertwiner(0, c)
        for v in ctx.v_basis:
            for k in range(cfg.n + 1):
                for l in range(cfg.n + 1):
                    for w in M.omega0_basis(cfg.n):
                        a = Y0.theta(k, l, v, w)
                        b = M.theta(k, l, v, w)
                        rep.check("action-as-intertwiner", a == b, a, b,
                                  k=k, l=l, v=v, w=w)
    return rep


def suite_bimodule(ctx: RunContext) -> SuiteReport:
    """Evaluation commutes with the left and right actions.

    Each residue entry is computed outside the w2 loop.
    """
    cfg = ctx.cfg
    rep = SuiteReport("bimodule")
    idx = range(cfg.n + 1)
    for lam1, lam2 in BIMODULE_PAIRS:
        Y = ctx.intertwiner(lam1, lam2)
        W1, W2, W3 = Y.source, Y.right_input, Y.target
        w1_basis = W1.omega0_basis(cfg.n)
        for v in ctx.v_basis:
            for w1 in w1_basis:
                for k in idx:
                    for n in idx:
                        for l in idx:
                            left = left_entry(v, w1, k, n, l)
                            right = right_entry(w1, v, k, n, l)
                            for w2 in W2.basis(l):
                                lhs = Y.theta(k, l, left, w2)
                                rhs = W3.theta(k, n, v, Y.theta(n, l, w1, w2))
                                rep.check("left action", lhs == rhs, lhs, rhs,
                                          Y=Y, k=k, n=n, l=l, v=v, w1=w1, w2=w2)
                                lhs = Y.theta(k, l, right, w2)
                                rhs = Y.theta(k, n, w1, W2.theta(n, l, v, w2))
                                rep.check("right action", lhs == rhs, lhs, rhs,
                                          Y=Y, k=k, n=n, l=l, v=v, w1=w1, w2=w2)
    return rep


def suite_three_forms(ctx: RunContext) -> SuiteReport:
    """The right action agrees with its two oracles entry by entry."""
    cfg = ctx.cfg
    rep = SuiteReport("three-forms")
    small_v = [v for v in ctx.v_basis if weight_of(v) <= 2]
    cases = []
    for c in cfg.charges:
        M = ctx.module(c)
        for w in M.omega0_basis(min(1, cfg.n)):
            for v in small_v:
                # the largest k + l first: each form builds one series per
                # (w, v) and reads the smaller windows off it
                for k in reversed(range(cfg.n + 1)):
                    for n in range(cfg.n + 1):
                        for l in reversed(range(cfg.n + 1)):
                            cases.append((w, v, k, n, l))
    rng = ctx.rng()
    all_w = [w for c in cfg.charges for w in ctx.module(c).omega0_basis(cfg.n)]
    for _ in range(20):
        cases.append((rng.choice(all_w), rng.choice(ctx.v_basis),
                      rng.randrange(cfg.n + 1), rng.randrange(cfg.n + 1),
                      rng.randrange(cfg.n + 1)))
    for w, v, k, n, l in cases:
        a = right_entry(w, v, k, n, l)
        b = right_entry_direct(w, v, k, n, l)
        c_ = right_entry_right_op(w, v, k, n, l)
        rep.check("three forms", a == b == c_, a, (b, c_), k=k, n=n, l=l, v=v, w=w)
    return rep


def suite_kernel(ctx: RunContext) -> SuiteReport:
    """The Jacobi-identity combinations evaluate to zero everywhere.

    The combinations that are nonzero vectors sit at l = 2, p = -2: 72 per pair at N = 2.
    """
    cfg = ctx.cfg
    rep = SuiteReport("kernel")
    idx = range(cfg.n + 1)
    p_lo, p_hi = cfg.p_window
    for lam1, lam2 in BIMODULE_PAIRS:
        Y = ctx.intertwiner(lam1, lam2)
        W1 = Y.source
        for v in ctx.v_basis:
            for w in W1.omega0_basis(cfg.n):
                for k in idx:
                    for l in idx:
                        for n in idx:
                            for p in range(max(p_lo, -l), p_hi + 1):
                                km = jacobi_kernel_element(W1, k, l, n, p, v, w)
                                bad = first_nonzero_image(Y, km)
                                rep.check("kernel", bad is None, bad, 0,
                                          Y=Y, k=k, l=l, n=n, p=p, v=v, w=w)
    return rep


def suite_omega_commutators(ctx: RunContext) -> SuiteReport:
    """The conformal-vector matrices implement L(-1) and L(0) commutators."""
    cfg = ctx.cfg
    rep = SuiteReport("omega-commutators")
    om = conformal_vector()
    for c in cfg.charges:
        M = ctx.module(c)
        Y = ctx.intertwiner(c, Q(1, 2))
        for n in range(cfg.n + 1):
            for l in range(cfg.n + 1):
                for w in M.omega0_basis(cfg.n):
                    lw = sugawara_l(-1, w)
                    # diagonal:    [om]_{nn}.[w]_{nl} - [w]_{nl}.[om]_{ll}
                    #              = [(L(-1)+L(0)) w]_{nl}
                    # subdiagonal: [om]_{n+1,n}.[w]_{nl} - [w]_{n+1,l+1}.[om]_{l+1,l}
                    #              = [L(-1) w]_{n+1,l}
                    # each modulo every kernel
                    for name, k, r, shifted in (("omega diagonal", n, l, lw + l_zero(w)),
                                                ("omega subdiagonal", n + 1, l + 1, lw)):
                        km = jacobi_kernel_element(M, k, l, n, 0, om, w)
                        direct = (left_entry(om, w, k, n, l)
                                  - right_entry(w, om, k, r, l) - shifted)
                        entry = km.entry(k, l)
                        rep.check(name, entry == direct, entry, direct,
                                  module=M, n=n, l=l, w=w)
                        bad = first_nonzero_image(Y, km)
                        rep.check(f"{name} kernel", bad is None, bad, 0,
                                  module=M, n=n, l=l, w=w)
        # single-entry matrices agree with the banded matrices (the band
        # has one entry with a matching middle index)
        for k in range(cfg.n + 1):
            for l in range(cfg.n + 1):
                for w in M.basis(min(l, cfg.n)):
                    wm = IndexedMatrix.single(w, k, l)
                    a = diamond_left(IndexedMatrix.single(om, k, k), wm)
                    b = diamond_left(omega0_n(cfg.n + 1), wm)
                    rep.check("omega0 band", a == b, a, b, module=M, k=k, l=l, w=w)
                    a = diamond_wv(wm, IndexedMatrix.single(om, l, l))
                    b = diamond_wv(wm, omega0_n(cfg.n + 1))
                    rep.check("omega0 right band", a == b, a, b,
                              module=M, k=k, l=l, w=w)
                    wm1 = IndexedMatrix.single(w, k, l + 1)
                    a = diamond_wv(wm1, IndexedMatrix.single(om, l + 1, l))
                    b = diamond_wv(wm1, omega1_n(cfg.n + 1))
                    rep.check("omega1 band", a == b, a, b, module=M, k=k, l=l, w=w)
    return rep


def suite_binomial_218(ctx: RunContext) -> SuiteReport:
    """sum_m C(a,m) C(a-m, q-m) (-1)^(q-m) collapses to delta_{q,0}."""
    rep = SuiteReport("binomial-218")
    for k in range(5):
        for l in range(5):
            for n in range(7):
                a = -k + n - l - 1
                for q in range(n + 1):
                    total = sum(gen_binomial(a, m) * gen_binomial(a - m, q - m)
                                * (-1) ** (q - m) for m in range(q + 1))
                    want = Q(1) if q == 0 else Q(0)
                    rep.check("binomial", total == want, total, want, k=k, l=l, n=n, q=q)
    return rep


def suite_conjugation(ctx: RunContext) -> SuiteReport:
    """Modes are recoverable from the one-point evaluation of the series."""
    cfg = ctx.cfg
    rep = SuiteReport("conjugation")
    for lam1, lam2 in ((Q(1, 2), Q(1, 2)), (Q(1), Q(-1, 2))):
        Y = ctx.intertwiner(lam1, lam2)
        for w1 in Y.source.omega0_basis(cfg.n):
            wt1 = weight_of(w1)
            for w2 in Y.right_input.omega0_basis(cfg.n):
                wt2 = weight_of(w2)
                lev = w1.level() + w2.level()
                lo = Y.base_exponent - lev
                hi = Y.base_exponent + (cfg.l_max - lev)
                ser = Y.series(w1, w2, lo, hi)
                at_one = Y.target.zero()
                for vec in ser.values():
                    at_one = at_one + vec
                for r in range(cfg.l_max + 1):
                    m = wt1 + wt2 - (Y.target.h + r) - 1
                    direct = Y.mode(m, w1, w2)
                    recovered = at_one.level_component(r)
                    rep.check("conjugation", direct == recovered, direct, recovered,
                              Y=Y, w1=w1, w2=w2, level=r)
    return rep


def suite_exp_l(ctx: RunContext) -> SuiteReport:
    """e^{x L(-1)} (1+x)^{L(0)} = (1+x)^{L(0)+L(-1)} coefficient by coefficient."""
    cfg = ctx.cfg
    rep = SuiteReport("exp-L")
    fact = [1]
    for i in range(1, cfg.l_max + 2):
        fact.append(fact[-1] * i)
    for c in cfg.charges:
        M = ctx.module(c)
        for w in M.omega0_basis(cfg.l_max):
            lev = w.level()
            hw = M.h + lev
            top = min(6, cfg.l_max - lev)
            # binomial of the combined operator
            lhs_terms = [w]
            for d in range(1, top + 1):
                prev = lhs_terms[-1]
                nxt = (sugawara_l(-1, prev) + l_zero(prev)
                       + prev.scale(-(d - 1))).scale(Q(1, d))
                lhs_terms.append(nxt)
            # exponential times scalar binomial
            powers = [w]
            for a in range(1, top + 1):
                powers.append(sugawara_l(-1, powers[-1]))
            for d in range(top + 1):
                rhs = M.zero()
                for a in range(d + 1):
                    coeff = Q(gen_binomial(hw, d - a), fact[a])
                    if coeff != 0:
                        rhs = rhs + powers[a].scale(coeff)
                rep.check("exp-L", lhs_terms[d] == rhs, lhs_terms[d], rhs,
                          module=M, w=w, degree=d)
    return rep


def suite_roundtrip(ctx: RunContext) -> SuiteReport:
    """Reconstruction lands back on the table, and on the operator."""
    cfg = ctx.cfg
    rep = SuiteReport("roundtrip")
    Y = ctx.intertwiner(Q(1, 2), Q(1, 2))
    f = MapTable.from_intertwiner(Y, cfg.n, min(cfg.l_max, cfg.n + 2))
    rep.absorb(roundtrip(f))
    # the reconstructed series matches the operator's own expansion
    shift = Y.target.h - Y.right_input.h
    for w1 in Y.source.omega0_basis(cfg.n):
        wt1 = weight_of(w1)
        for l in range(cfg.n + 1):
            for w2 in Y.right_input.basis(l):
                lo = shift - l - wt1
                hi = shift - l + cfg.n - wt1
                ser_f = yf_series(f, w1, w2)
                ser_y = Y.series(w1, w2, lo, hi)
                e = lo
                while e <= hi:
                    a = ser_f.get(e) or Y.target.zero()
                    b = ser_y.get(e) or Y.target.zero()
                    rep.check("series round trip", a == b, a, b, w1=w1, w2=w2, exponent=e)
                    e += 1
    # zero and scaled tables
    zero_ok = roundtrip(f.zeros_like()).ok
    rep.check("zero table round trip", zero_ok, zero_ok, True)
    third = f.scale(Q(1, 3))
    rt = roundtrip(third)
    same = all(third.entries[key] == f.entries[key].scale(Q(1, 3))
               for key in f.sorted_keys())
    rep.check("scaled table round trip", rt.ok and same, (rt.ok, same), (True, True))
    return rep


def suite_jacobi_cert(ctx: RunContext) -> SuiteReport:
    """Residue-level Jacobi identity for the reconstruction, plus sensitivity."""
    cfg = ctx.cfg
    rep = SuiteReport("jacobi-cert")
    f = ctx.cert_table()
    w1_list = f.source.omega0_basis(cfg.n)
    cert = certify_jacobi(f, ctx.v_basis, w1_list, kmax=cfg.n,
                          p_lo=cfg.p_window[0], p_hi=cfg.p_window[1])
    rep.absorb(cert)
    # a corrupted entry must be detected; the sweep stops at its first failure
    bad = f.perturbed((0, 0, (), ()), f.target.highest())
    points = jacobi_points(bad, ctx.v_basis, w1_list, kmax=cfg.n,
                           p_lo=cfg.p_window[0], p_hi=cfg.p_window[1])
    caught = (not all(lhs == rhs for lhs, rhs, _ in points)
              or not certify_l1_derivative(bad, w1_list, w2_levels=cfg.n).ok)
    rep.check("corrupted table caught", caught, caught, True)
    return rep


def suite_l1_cert(ctx: RunContext) -> SuiteReport:
    """L(-1)-derivative property of the reconstructed series."""
    cfg = ctx.cfg
    rep = SuiteReport("L1-cert")
    f = ctx.cert_table()
    w1_list = f.source.omega0_basis(cfg.n)
    rep.absorb(certify_l1_derivative(f, w1_list, w2_levels=cfg.n))
    zero = f.zeros_like()
    rep.absorb(certify_l1_derivative(zero, w1_list, w2_levels=cfg.n))
    return rep


def suite_opposite(ctx: RunContext) -> SuiteReport:
    """Adjoint identity for the map but not its negative; anti-multiplicativity."""
    cfg = ctx.cfg
    rep = SuiteReport("opposite")
    holds = _adjoint_holds(ctx, opposite_map)
    negated = _adjoint_holds(ctx, lambda mat: opposite_map(mat).scale(-1))
    rep.check("adjoint identity (map, negative)", holds and not negated,
              (holds, negated), (True, False))
    probes = ctx.module_probes()
    rng = ctx.rng()
    for _ in range(100):
        u = rng.choice(ctx.v_basis)
        v = rng.choice(ctx.v_basis)
        k, n, l = (rng.randrange(cfg.n + 1) for _ in range(3))
        a = IndexedMatrix.single(u, k, n)
        b = IndexedMatrix.single(v, n, l)
        lhs = opposite_map(diamond_left(a, b))
        rhs = diamond_left(opposite_map(b), opposite_map(a))
        rep.check("anti-homomorphism", probe_equal(lhs, rhs, probes), lhs, rhs,
                  u=u, v=v, k=k, n=n, l=l)
    return rep


def _adjoint_holds(ctx: RunContext, opposite) -> bool:
    cfg = ctx.cfg
    for lam in (Q(1, 2), Q(1)):
        M = ctx.module(lam)
        basis = M.omega0_basis(cfg.n)
        for v in ctx.v_basis:
            for k in range(cfg.n + 1):
                for l in range(cfg.n + 1):
                    omat = opposite(IndexedMatrix.single(v, k, l))
                    # each image depends on w or on w' alone
                    duals = [M.theta_dual(k, l, v, wp) for wp in basis]
                    for w in basis:
                        images = [M.theta(a, b, entry, w)
                                  for (a, b), entry in omat.entries.items()]
                        for wp, dual in zip(basis, duals):
                            lhs = M.inner(dual, w)
                            rhs = Q(0)
                            for image in images:
                                rhs += M.inner(wp, image)
                            if lhs != rhs:
                                return False
    return True


def suite_reachability(ctx: RunContext) -> SuiteReport:
    """Bottom levels generate every truncated basis vector."""
    cfg = ctx.cfg
    rep = SuiteReport("reachability")
    gens = algebra_basis(2)
    for c in cfg.charges:
        rep.absorb(reachability_closure(ctx.module(c), cfg.n, gens))
    for c in (Q(1, 2), Q(1)):
        rep.absorb(reachability_closure(ctx.module(c), cfg.n, gens, dual=True))
    return rep


# ---------------------------------------------------------------------------
# runner


_SUITE_FUNCS = {
    "homomorphism": suite_homomorphism,
    "unit": suite_unit,
    "bimodule": suite_bimodule,
    "three-forms": suite_three_forms,
    "kernel": suite_kernel,
    "omega-commutators": suite_omega_commutators,
    "binomial-218": suite_binomial_218,
    "conjugation": suite_conjugation,
    "exp-L": suite_exp_l,
    "roundtrip": suite_roundtrip,
    "jacobi-cert": suite_jacobi_cert,
    "L1-cert": suite_l1_cert,
    "opposite": suite_opposite,
    "reachability": suite_reachability,
}


def run_suites(cfg: RunConfig, echo=None):
    """Run the configured suites in request order, one after another.

    Each report is passed to echo, when given, as its suite ends.
    """
    ctx = RunContext(cfg)
    # kernel evaluates on module levels l + p up to N + p_hi
    if "kernel" in cfg.suites and cfg.n + max(cfg.p_window[1], 0) > cfg.l_max:
        raise TruncationOverflow("kernel grid needs levels beyond L_max")
    # omega-commutators evaluates its subdiagonal kernel elements at level N + 1
    if "omega-commutators" in cfg.suites and cfg.n + 1 > cfg.l_max:
        raise TruncationOverflow("omega-commutators needs level N + 1 within L_max")
    if "jacobi-cert" in cfg.suites or "L1-cert" in cfg.suites:
        ctx.cert_table()  # surface truncation problems before any suite runs
    reports = []
    for name in cfg.suites:
        start = time.perf_counter()
        report = _SUITE_FUNCS[name](ctx)
        report.wall_ms = (time.perf_counter() - start) * 1000.0
        reports.append(report)
        if echo is not None:
            echo(report)
    return reports
