from fractions import Fraction as Q
from math import factorial

import pytest

from voamodes import heisenberg
from voamodes.errors import TruncationOverflow
from voamodes.fock import (
    FockIntertwiner,
    FockModule,
    fock_norm,
    mode_series,
    right_vertex_op,
    sigma,
)
from voamodes.heisenberg import (
    FockVector,
    conformal_vector,
    expand_pair,
    l_zero,
    partitions_of,
    sugawara_l,
    vacuum,
    weight_of,
)

ONE = vacuum()
OM = conformal_vector()
A1 = FockVector.basis(0, (1,))


@pytest.fixture(scope="module")
def m_half():
    return FockModule(Q(1, 2), level_cap=8)


def test_module_mode_examples(m_half):
    hw = m_half.highest()
    for w in [hw, m_half.basis(2)[0]]:
        assert m_half.mode(ONE, -1, w) == w
    # charge extraction
    assert m_half.mode(A1, 0, hw) == hw.scale(Q(1, 2))
    # Sugawara eigenvalue: L(0)|q> = (q^2/2)|q>
    assert m_half.mode(OM, 1, hw) == hw.scale(Q(1, 8))
    # non-integer mode indices of algebra vectors vanish
    assert m_half.mode(OM, Q(1, 2), hw).is_zero()


def test_module_mode_against_sugawara(m_half):
    for lev in range(4):
        for w in m_half.basis(lev):
            assert m_half.mode(OM, 1, w) == l_zero(w)
            for m in (-1, 1):
                assert m_half.mode(OM, m + 1, w) == sugawara_l(m, w)


def test_theta_examples(m_half):
    hw = m_half.highest()
    # unit: delta_{kl} on the matching level
    for k in range(3):
        for l in range(3):
            for lev in range(3):
                for w in m_half.basis(lev):
                    got = m_half.theta(k, l, ONE, w)
                    if k == l == lev:
                        assert got == w
                    else:
                        assert got.is_zero()
    # charge reading on the diagonal
    for l in range(3):
        for w in m_half.basis(l):
            assert m_half.theta(l, l, A1, w) == w.scale(Q(1, 2))
    # off-level input dies
    assert m_half.theta(0, 1, OM, hw).is_zero()
    # lands in the stated level
    got = m_half.theta(2, 1, OM, m_half.basis(1)[0])
    assert got.levels() in ([], [2])


def test_omega0_basis(m_half):
    assert [v.level() for v in m_half.omega0_basis(0)] == [0]
    assert len(m_half.omega0_basis(1)) == 2
    assert len(m_half.omega0_basis(2)) == 4
    with pytest.raises(TruncationOverflow):
        m_half.omega0_basis(9)


def test_fock_norm():
    assert fock_norm(()) == 1
    assert fock_norm((1,)) == 1
    assert fock_norm((1, 1)) == 2
    assert fock_norm((2,)) == 2
    assert fock_norm((2, 2, 1)) == 8


def test_inner_product(m_half):
    a = m_half.basis(2)
    gram = [[m_half.inner(x, y) for y in a] for x in a]
    # diagonal in the partition basis
    assert gram[0][1] == gram[1][0] == 0
    assert gram[0][0] == fock_norm((1, 1))
    assert gram[1][1] == fock_norm((2,))


def test_contragredient_current_mode(m_half):
    # e^{xL(1)}(-x^-2)^{L(0)} a(-1)|0> = -x^-2 a(-1)|0>, so the dual mode
    # of the current is -a(q) under the pairing a(n)* = a(-n); on w' of
    # level l, theta_dual(l - q, l, a(-1)|0>, w') is that mode of index q
    from voamodes.heisenberg import _insert_part, apply_annihilator

    for lev in range(4):
        for wp in m_half.basis(lev):
            for q in range(-2, 3):
                got = m_half.theta_dual(lev - q, lev, A1, wp)
                if q > 0:
                    want = FockVector(m_half.lam,
                                      apply_annihilator(q, wp.terms)).scale(-1)
                elif q == 0:
                    want = wp.scale(-m_half.lam)
                else:
                    created = {_insert_part(p, -q): c for p, c in wp.terms.items()}
                    want = FockVector(m_half.lam, created).scale(-1)
                assert got == want, (lev, q)


def test_contragredient_vacuum_identity(m_half):
    # Y'(1, x) is the identity: only the -1 mode survives, and on w' of
    # level l the mode of index n is theta_dual(l - n - 1, l, 1, w')
    for lev in range(3):
        for wp in m_half.basis(lev):
            assert m_half.theta_dual(lev, lev, ONE, wp) == wp
            for n in (-3, -2, 0, 1, 2):
                assert m_half.theta_dual(lev - n - 1, lev, ONE, wp).is_zero()


def test_contragredient_pairing_duality(m_half):
    # <Y'(v,x)w', w> = <w', Y(e^{xL(1)}(-x^-2)^{L(0)} v, x^-1) w>, checked
    # mode by mode through the expansion sum_j (-1)^h/j! (Y)_{2h-j-n-2}(L(1)^j v);
    # the dual mode of index n takes w' of level l to level l + h - n - 1
    for v in [A1, OM, FockVector.basis(0, (2, 1))]:
        h = int(weight_of(v))
        for lev_p in range(3):
            for wp in m_half.basis(lev_p):
                for n in range(-2, 3):
                    target = lev_p + h - n - 1
                    lhs_vec = m_half.theta_dual(target, lev_p, v, wp)
                    if target < 0:
                        assert lhs_vec.is_zero()
                        continue
                    for w in m_half.basis(target):
                        rhs = Q(0)
                        u = v
                        for j in range(h + 1):
                            if u.is_zero():
                                break
                            rhs += (Q(-1) ** h / factorial(j)) * m_half.inner(
                                wp, m_half.mode(u, 2 * h - j - n - 2, w))
                            u = sugawara_l(1, u)
                        assert m_half.inner(lhs_vec, w) == rhs


def pairing_dual_mode(M, v, n_index, wprime):
    """Contragredient mode read off the engine terms, without the sigma
    twist that `theta_dual` applies: the a(-p) coordinate pairs
    the norm-weighted w' with the image of a(-p) under the (2h-j-n-2)-th
    mode of L(1)^j v_h, weighted (-1)^h / j!, over <a(-p), a(-p)>.  A
    target level or a w' level above the cap raises, whenever the target
    is a level."""
    n = int(n_index)
    coords = {}
    for h in v.levels():
        chain = []
        u = v.level_component(h)
        for j in range(0, h + 1):
            if u.is_zero():
                break
            chain.append((j, Q((-1) ** h, factorial(j)), u.terms))
            u = sugawara_l(1, u)
        for lev_p in wprime.levels():
            target = lev_p + h - n - 1
            if target < 0:
                continue
            if max(target, lev_p) > M.level_cap:
                raise TruncationOverflow(f"level {max(target, lev_p)} exceeds cap")
            paired = {q: c * fock_norm(q) for q, c in wprime.terms.items()
                      if sum(q) == lev_p}
            for p in partitions_of(target):
                for j, cj, terms in chain:
                    for nu, cu in terms.items():
                        # the (2h-j-n-2)-th mode of a(-nu)|0>, of level h - j,
                        # takes a(-p)|lam> to level lev_p
                        image = expand_pair(nu, 0, p, M.lam, lev_p)[lev_p]
                        val = sum(c * image[q] for q, c in paired.items() if q in image)
                        if val:
                            coords[p] = coords.get(p, 0) + cj * cu * val / fock_norm(p)
    return FockVector(M.lam, coords)


def pairing_theta_dual(M, k, l, v, wprime):
    """The contragredient residue map as a sum of `pairing_dual_mode` over
    the levels of v, each mode landing at level k."""
    if k > M.level_cap:
        raise TruncationOverflow(f"target level {k} above cap")
    wp = wprime.level_component(l)
    out = M.zero()
    if wp.is_zero():
        return out
    for h in v.levels():
        out = out + pairing_dual_mode(M, v.level_component(h), h + l - k - 1, wp)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TruncationOverflow:
        return TruncationOverflow


# charges of both signs, integral and not; v of weight <= 3 and w' of
# level <= 3, basis vectors plus one mixed vector each
DUAL_GRID_CHARGES = (Q(0), Q(2), Q(1, 3), Q(-1, 2), Q(3, 2))


def _dual_grid_inputs(lam, cap):
    M = FockModule(lam, level_cap=cap)
    vs = [FockVector.basis(0, p) for lev in range(4) for p in partitions_of(lev)]
    vs.append(ONE.scale(Q(1, 2)) + A1 - OM.scale(3)
              + FockVector.basis(0, (2, 1)).scale(Q(-1, 3)))
    ws = [M.basis(lev)[i] for lev in range(4) for i in range(len(partitions_of(lev)))]
    ws.append(M.highest().scale(Q(2, 3)) - M.basis(1)[0].scale(Q(5, 2))
              + M.basis(3)[1].scale(Q(1, 7)))
    return M, vs, ws


@pytest.mark.parametrize("cap", (2, 8))
@pytest.mark.parametrize("lam", DUAL_GRID_CHARGES, ids=str)
def test_theta_dual_matches_pairing_oracle_on_grid(lam, cap):
    M, vs, ws = _dual_grid_inputs(lam, cap)
    for v in vs:
        for wp in ws:
            for k in range(-1, 4):
                for l in range(4):
                    got = _outcome(M.theta_dual, k, l, v, wp)
                    assert got == _outcome(pairing_theta_dual, M, k, l, v, wp), \
                        (k, l, v, wp)


def _sigma_breaks_products(sig):
    """The first (u, n, v) with sig(u_n v) != (sig u)_n (sig v) on V, or None.

    u and v run over the basis of weight <= 3 and n over [-3, 3].
    """
    V = FockModule(0, level_cap=8)
    basis = V.omega0_basis(3)
    for u in basis:
        for v in basis:
            for n in range(-3, 4):
                if sig(V.mode(u, n, v)) != V.mode(sig(u), n, sig(v)):
                    return u, n, v
    return None


def test_sigma_is_an_automorphism_of_v():
    # the contragredient path rests on this: theta_dual(k, l, v, w') is
    # theta(k, l, sigma v, w') only because a -> -a respects every product
    assert _sigma_breaks_products(sigma) is None

    def flip_even(v):
        # the sign on even-length parts instead of odd: -sigma, which
        # reverses the sign of every nonzero product
        return FockVector(v.charge, {nu: c if len(nu) % 2 else -c
                                     for nu, c in v.terms.items()})

    assert _sigma_breaks_products(flip_even) is not None


def test_dual_mode_truncation():
    # the images of the modes land at the level l of w', the result at
    # k = l + wt v - n - 1 for the mode of index n; either above the cap raises
    M = FockModule(Q(1, 2), level_cap=3)
    with pytest.raises(TruncationOverflow):
        M.theta_dual(2, 4, OM, M.basis(4)[0])       # n = 3
    with pytest.raises(TruncationOverflow):
        M.theta_dual(4, 2, OM, M.basis(2)[0])       # n = -1
    assert M.theta_dual(3, 2, OM, M.basis(2)[0]).levels() == [3]     # n = 0


def test_mode_truncation():
    # a mode raises when any basis pair lands above the cap, whatever the
    # other pairs do; pairs that land below level 0 contribute nothing
    M = FockModule(Q(1, 2), level_cap=3)
    w = M.highest() + M.basis(2)[0]
    # a(-1)|0> has weight 1, so its mode n moves levels by -n
    assert M.mode(A1, -1, w).levels() == [1, 3]
    with pytest.raises(TruncationOverflow):
        M.mode(A1, -2, w)
    assert M.mode(A1, 3, w).is_zero()
    # here the exponent of the mode m is m = -t - 3/2 for a level shift t
    Y = FockIntertwiner(Q(1, 2), Q(1), level_cap=3)
    w1 = Y.source.highest()
    w2 = Y.right_input.highest() + Y.right_input.basis(2)[0]
    assert Y.mode(Q(-5, 2), w1, w2).levels() == [1, 3]
    with pytest.raises(TruncationOverflow):
        Y.mode(Q(-7, 2), w1, w2)
    assert Y.mode(Q(3, 2), w1, w2).is_zero()


def test_engine_reads_match_cold_in_every_cache_state(clear_engine_caches):
    # a read fills an entry's missing levels from the first one up, so an
    # entry is absent or filled from 0 to some level; each reader must give
    # its cold result however far the entry is filled, and so must read no
    # level above its own request
    cases = [((2, 1), Q(1, 2), (3, 1), Q(-1)), ((1,), Q(0), (2, 2), Q(1)),
             ((), Q(1), (1, 1), Q(1, 2)), ((1, 1), Q(0), (), Q(0))]
    for nu, lam1, mu, lam2 in cases:
        base = sum(nu) + sum(mu)
        v, w = {nu: 1}, {mu: 1}
        module = FockModule(lam2, level_cap=16)
        reads = [(("expand_pair", level), lambda level=level: {
                     lev: terms for lev, terms in
                     expand_pair(nu, lam1, mu, lam2, level).items() if lev <= level})
                 for level in range(13)]
        reads += [(("mode_series", t_hi), lambda t_hi=t_hi: mode_series(
                      v, lam1, w, lam2, t_hi)) for t_hi in range(-base - 1, 13 - base)]
        if lam1 == 0:
            reads += [(("theta", k), lambda k=k: module.theta(
                          k, sum(mu), FockVector.basis(0, nu), FockVector.basis(lam2, mu)))
                      for k in range(13)]
        cold = {}
        for what, read in reads:
            clear_engine_caches()
            cold[what] = read()
            clear_engine_caches()
            expand_pair(nu, lam1, mu, lam2, 5)
            assert read() == cold[what], (nu, lam1, mu, lam2, what, 5)
        # no read goes above 16, so the entry stays as filled here
        clear_engine_caches()
        levels = expand_pair(nu, lam1, mu, lam2, 16)
        for what, read in reads:
            assert read() == cold[what], (nu, lam1, mu, lam2, what, 16)
        assert list(levels) == list(range(17))
        assert len(heisenberg._EXPAND_CACHE) == 1


def test_contragredient_grading(m_half):
    # the dual mode with index n moves levels by wt v - n - 1: the mode
    # of index 0 of the conformal vector is theta_dual(l + 1, l, ...)
    for lev in range(3):
        for wp in m_half.basis(lev):
            assert m_half.theta_dual(lev + 1, lev, OM, wp).levels() == [lev + 1]


def test_intertwiner_leading_terms():
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)
    w1, w2 = Y.source.highest(), Y.right_input.highest()
    base = Q(1, 4)
    ser = Y.series(w1, w2, base, base + 3)
    l3 = Y.target.highest()
    assert ser.get(base) == l3
    assert ser.get(base + 1) == FockVector(Q(1), {(1,): Q(1, 2)})
    # exponential-operator oracle at degree 2 and 3 with q1 = 1/2:
    #   x^2: q1 a(-2)/2 + q1^2 a(-1)^2/2
    #   x^3: q1 a(-3)/3 + q1^2 a(-2)a(-1)/2 + q1^3 a(-1)^3/6
    assert ser.get(base + 2) == FockVector(Q(1), {(2,): Q(1, 4), (1, 1): Q(1, 8)})
    assert ser.get(base + 3) == FockVector(
        Q(1), {(3,): Q(1, 6), (2, 1): Q(1, 8), (1, 1, 1): Q(1, 48)})


def test_intertwiner_zero_charge_reduction():
    lam2 = Q(1, 2)
    Y0 = FockIntertwiner(0, lam2, level_cap=8)
    M = FockModule(lam2, level_cap=8)
    for lev in range(3):
        for w in M.basis(lev):
            for v in [ONE, A1, OM]:
                for m in range(-2, 3):
                    assert Y0.mode(m, v, w) == M.mode(v, m, w)


def test_intertwiner_exponent_lattice():
    Y = FockIntertwiner(Q(1, 2), Q(1), level_cap=8)
    ser = Y.series(Y.source.basis(1)[0], Y.right_input.basis(2)[0],
                   Q(1, 2) - 4, Q(1, 2) + 4)
    for e in sorted(ser):
        assert (e - Q(1, 2)).denominator == 1
    # off-lattice modes vanish
    assert Y.mode(Q(1, 3), Y.source.highest(), Y.right_input.highest()).is_zero()


def test_intertwiner_lowest_mode():
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)
    w1, w2 = Y.source.highest(), Y.right_input.highest()
    assert Y.mode(Q(-5, 4), w1, w2) == Y.target.highest()


def test_intertwiner_mode_weights():
    # weight of Y_m(w1) w2 is wt w1 + wt w2 - m - 1, on 20 random pairs
    import random

    rng = random.Random(11)
    Y = FockIntertwiner(Q(1), Q(-1, 2), level_cap=8)
    pool1 = [b for lev in range(3) for b in Y.source.basis(lev)]
    pool2 = [b for lev in range(3) for b in Y.right_input.basis(lev)]
    seen_nonzero = 0
    for _ in range(20):
        w1 = rng.choice(pool1)
        w2 = rng.choice(pool2)
        wt1, wt2 = weight_of(w1), weight_of(w2)
        r = rng.randrange(0, 5)
        m = wt1 + wt2 - (Y.target.h + r) - 1
        got = Y.mode(m, w1, w2)
        if not got.is_zero():
            seen_nonzero += 1
            assert weight_of(got) == wt1 + wt2 - m - 1
            assert got.level() == r
    assert seen_nonzero > 5


def test_theta_y_examples():
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)
    w1, w2 = Y.source.highest(), Y.right_input.highest()
    assert Y.theta(0, 0, w1, w2) == Y.target.highest()
    # level mismatch
    assert Y.theta(0, 1, w1, w2).is_zero()
    # always lands in the slot level
    for k in range(3):
        for l in range(3):
            for w2x in Y.right_input.basis(l):
                got = Y.theta(k, l, Y.source.basis(1)[0], w2x)
                assert got.levels() in ([], [k])
    # scaling the operator scales every theta value
    Ys = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)
    Ys.scale = Q(3)
    assert Ys.theta(0, 0, w1, w2) == Y.theta(0, 0, w1, w2).scale(3)


def test_right_vertex_op():
    M0 = FockModule(0, level_cap=8)
    ser = right_vertex_op(M0, M0.highest(), ONE, -2, 3)
    assert ser.get(0) == M0.highest()
    assert len(ser) == 1
    # creation property: x^0 coefficient of Y(w, x) 1 is w
    for lev in range(3):
        for w in M0.basis(lev):
            ser = right_vertex_op(M0, w, ONE, 0, 0)
            assert ser.get(0) == w
    # agreement with the conjugated expansion e^{xL(-1)} Y(v,-x) w
    M = FockModule(Q(1, 2), level_cap=8)
    import random

    rng = random.Random(3)
    pool = [b for lev in range(3) for b in M.basis(lev)]
    for _ in range(10):
        w = rng.choice(pool)
        v = rng.choice([A1, OM, FockVector.basis(0, (2,))])
        ser = right_vertex_op(M, w, v, -4, 4)
        for s in range(-4, 5):
            want = M.zero()
            for a in range(0, 9):
                t = s - a
                sign = Q(-1) if t % 2 else Q(1)
                term = M.mode(v, -t - 1, w)
                for _i in range(a):
                    term = sugawara_l(-1, term)
                want = want + term.scale(sign / factorial(a))
            got = ser.get(s) or M.zero()
            assert got == want, (w, v, s)


def test_congruence_class_data():
    M = FockModule(Q(3, 2), level_cap=6)
    assert M.h == Q(9, 8)
