import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from voamodes.fock import FockIntertwiner, FockModule
from voamodes.heisenberg import (
    FockVector,
    conformal_vector,
    l_zero,
    partitions_of,
    sugawara_l,
    vacuum,
)
from voamodes.matrices import (
    IndexedMatrix,
    diamond_left,
    first_nonzero_image,
    identity_n,
    jacobi_kernel_element,
    left_entry,
    omega0_n,
    omega1_n,
    opposite_map,
    probe_equal,
    right_entry,
    right_entry_conjugated,
    right_entry_direct,
    right_entry_right_op,
)
from voamodes.series import gen_binomial

V = FockModule(0, level_cap=12)
ONE = vacuum()
OM = conformal_vector()
A1 = FockVector.basis(0, (1,))
CHARGES = (Q(0), Q(1, 2), Q(1))


# the right action and its two oracles, by the name of their form
RIGHT_FORMS = {"conjugated": right_entry, "direct": right_entry_direct,
               "right-op": right_entry_right_op}


def module_probes():
    return [FockIntertwiner(0, c, level_cap=8) for c in CHARGES]


def test_matrix_container():
    m = IndexedMatrix.single(OM, 1, 2)
    assert m.entry(1, 2) == OM and m.entry(0, 0).is_zero()
    assert (m + m).entry(1, 2) == OM.scale(2)
    assert (m - m).is_zero()
    with pytest.raises(ValueError):
        IndexedMatrix(0, {(-1, 0): OM})
    with pytest.raises(ValueError):
        IndexedMatrix(Q(1, 2), {(0, 0): OM})


def test_canonical_matrices():
    ident = identity_n(2)
    assert len(ident.entries) == 3
    assert all(vec == ONE for vec in ident.entries.values())
    om1 = omega1_n(2)
    assert set(om1.entries) == {(1, 0), (2, 1)}
    om0 = omega0_n(2)
    assert set(om0.entries) == {(0, 0), (1, 1), (2, 2)}


def test_unit_entry():
    for n in range(3):
        for l in range(3):
            for v in [A1, OM, FockVector.basis(0, (2, 1))]:
                assert left_entry(ONE, v, n, n, l) == v


def test_index_mismatch_is_zero():
    a = IndexedMatrix.single(ONE, 0, 1)
    b = IndexedMatrix.single(A1, 0, 1)
    assert diamond_left(a, b).is_zero()
    # matching index but vanishing residue: [1]_{01}.[v]_{10} at (0,0)
    c = IndexedMatrix.single(A1, 1, 0)
    got = diamond_left(a, c)
    assert got.is_zero()


def test_omega_omega_product():
    # residue oracle: coefficient of x^0 in (1+x)^2 Y(om, x) om
    got = left_entry(OM, OM, 0, 0, 0)
    want = (V.mode(OM, -1, OM) + V.mode(OM, 0, OM).scale(2) + OM.scale(2))
    assert got == want


def test_identity_acts_as_identity():
    for lam in CHARGES:
        M = FockModule(lam, level_cap=8)
        ident = identity_n(2)
        for w in M.omega0_basis(2):
            img = M.zero()
            for (k, l), entry in ident.entries.items():
                img = img + M.theta(k, l, entry, w)
            assert img == w


def test_general_matrix_product():
    # two-entry matrices multiply through the shared middle index
    a = IndexedMatrix(0, {(0, 1): A1, (1, 1): OM})
    b = IndexedMatrix(0, {(1, 0): A1, (1, 2): ONE})
    prod = diamond_left(a, b)
    assert set(prod.entries) <= {(0, 0), (0, 2), (1, 0), (1, 2)}
    assert prod.entry(0, 0) == left_entry(A1, A1, 0, 1, 0)
    assert prod.entry(1, 2) == left_entry(OM, ONE, 1, 1, 2)


def test_right_unit():
    # [w]_{kn} . [1]_{nl} = delta_{nl} [w]_{kl}: the delta comes out of the
    # residue, not out of index matching
    M = FockModule(Q(1, 2), level_cap=8)
    w = M.basis(2)[0]
    for form, entry in RIGHT_FORMS.items():
        for n in range(3):
            for l in range(3):
                got = entry(w, ONE, 0, n, l)
                assert got == (w if n == l else M.zero()), (form, n, l)


def test_three_forms_agree():
    rng = random.Random(5)
    pools = {lam: [b for lev in range(3)
                   for b in FockModule(lam, 8).basis(lev)] for lam in CHARGES}
    vs = V.omega0_basis(3)
    for _ in range(20):
        lam = rng.choice(CHARGES)
        w = rng.choice(pools[lam])
        v = rng.choice(vs)
        k, n, l = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        a = right_entry(w, v, k, n, l)
        b = right_entry_direct(w, v, k, n, l)
        c = right_entry_right_op(w, v, k, n, l)
        assert a == b == c, (lam, w, v, k, n, l)


def test_kernel_elements_nonzero_but_annihilated():
    W1 = FockModule(Q(1, 2), level_cap=14)
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=14)
    # this grid point produces a genuinely nonzero matrix
    km = jacobi_kernel_element(W1, 0, 2, 0, -2, A1, W1.highest())
    assert not km.is_zero()
    assert first_nonzero_image(Y, km) is None
    # a combination that cancels to the zero vector is the zero matrix
    assert jacobi_kernel_element(W1, 0, 0, 0, 0, ONE, W1.highest()).is_zero()


def test_kernel_element_grid():
    W1 = FockModule(Q(1), level_cap=14)
    Y = FockIntertwiner(Q(1), Q(-1, 2), level_cap=14)
    vs = [ONE, A1, OM]
    for k in range(2):
        for l in range(2):
            for n in range(2):
                for p in (-2, -1, 0, 1, 2):
                    if l + p < 0:
                        continue
                    for v in vs:
                        km = jacobi_kernel_element(W1, k, l, n, p, v,
                                                   W1.basis(1)[0])
                        assert first_nonzero_image(Y, km) is None


def test_kernel_suite_reaches_nonzero_elements(monkeypatch):
    # the suite's grid at N = 2 and N = 3 (default L_max) holds nonzero
    # kernel elements for every charge pair, not only combinations that
    # cancel to the zero vector; they sit at l = 2, p = -2, so a grid
    # narrowed to p >= -1 fails here
    from voamodes import suites

    build = suites.jacobi_kernel_element
    nonzero = Counter()

    def counted(W1, k, l, n, p, v, w):
        km = build(W1, k, l, n, p, v, w)
        if not km.is_zero():
            nonzero[W1.lam] += 1
        return km

    monkeypatch.setattr(suites, "jacobi_kernel_element", counted)
    for n in (2, 3):
        nonzero.clear()
        rep = suites.suite_kernel(suites.RunContext(suites.RunConfig(n=n).validate()))
        assert rep.ok, n
        assert all(nonzero[lam1] > 0 for lam1, _ in suites.BIMODULE_PAIRS), (n, nonzero)


def _kernel_element_chain(module, k, l, n, p, v, w):
    """Oracle: the three-sum combination added up vector by vector.

    Returns the combination and the vectors it was summed from.
    """
    from voamodes.heisenberg import weight_of, zero_vector
    from voamodes.matrices import jacobi_sums

    left, right, modes = jacobi_sums(k, l, n, p, int(weight_of(v)),
                                     max(w.levels(), default=0))
    pieces = []
    acc = zero_vector(w.charge)
    for i, c in left:
        pieces.append(left_entry(v, w, k, i, l + p))
        acc = acc + pieces[-1].scale(c)
    for q, c in right:
        pieces.append(right_entry(w, v, k, q, l + p))
        acc = acc - pieces[-1].scale(c)
    for i, c in modes:
        pieces.append(module.mode(v, i, w))
        acc = acc - pieces[-1].scale(c)
    return acc, pieces


def test_kernel_element_matches_vector_chain():
    # one accumulator per combination against the vector-by-vector sum,
    # over every bimodule pair of the suites and p in [-2, 2]
    from voamodes.suites import BIMODULE_PAIRS

    vs = FockModule(0, level_cap=2).omega0_basis(2)
    zero = nonzero = 0
    for lam1, _ in BIMODULE_PAIRS:
        W1 = FockModule(lam1, level_cap=14)
        for v, w in itertools.product(vs, W1.omega0_basis(1)):
            for k, l, n in itertools.product(range(3), repeat=3):
                for p in range(-2, 3):
                    if l + p < 0:
                        continue
                    km = jacobi_kernel_element(W1, k, l, n, p, v, w)
                    want, pieces = _kernel_element_chain(W1, k, l, n, p, v, w)
                    if want.is_zero():
                        zero += 1
                        assert km == IndexedMatrix.zero(lam1)
                        assert km.is_zero()
                    else:
                        nonzero += 1
                        assert km == IndexedMatrix.single(want, k, l + p)
                        # the sum owns its terms: no cached entry's dict
                        _assert_canonical(km.entry(k, l + p),
                                          [x.terms for x in pieces])
    # both outcomes occur, cancellation to the zero matrix included
    assert zero > 0 and nonzero > 0


def test_kernel_element_precondition():
    from voamodes.errors import NonHomogeneous

    W1 = FockModule(Q(1, 2), level_cap=8)
    with pytest.raises(ValueError):
        jacobi_kernel_element(W1, 0, 0, 0, -1, OM, W1.highest())
    with pytest.raises(NonHomogeneous):
        jacobi_kernel_element(W1, 0, 1, 0, 0, ONE + OM, W1.highest())


def test_omega_specializations():
    # diagonal and subdiagonal kernel elements match their displayed forms
    from voamodes.heisenberg import l_zero, sugawara_l

    M = FockModule(Q(1), level_cap=8)
    for n in range(2):
        for l in range(2):
            for w in M.basis(l):
                km = jacobi_kernel_element(M, n, l, n, 0, OM, w)
                direct = (left_entry(OM, w, n, n, l)
                          - right_entry(w, OM, n, l, l)
                          - (sugawara_l(-1, w) + l_zero(w)))
                assert km.entry(n, l) == direct
                km = jacobi_kernel_element(M, n + 1, l, n, 0, OM, w)
                direct = (left_entry(OM, w, n + 1, n, l)
                          - right_entry(w, OM, n + 1, l + 1, l)
                          - sugawara_l(-1, w))
                assert km.entry(n + 1, l) == direct


def test_opposite_map_fixed_points():
    for k in range(3):
        for l in range(3):
            got = opposite_map(IndexedMatrix.single(ONE, k, l))
            assert got == IndexedMatrix.single(ONE, l, k)
            got = opposite_map(IndexedMatrix.single(OM, k, l))
            assert got == IndexedMatrix.single(OM, l, k)
    with pytest.raises(ValueError):
        opposite_map(IndexedMatrix.single(FockVector.basis(Q(1, 2), ()), 0, 0))


def test_opposite_adjoint_calibration():
    M = FockModule(Q(1, 2), level_cap=6)
    verdict = {}
    signed = {"plus": opposite_map,
              "minus": lambda mat: opposite_map(mat).scale(-1)}
    for sign, opposite in signed.items():
        ok = True
        for v in [A1, OM, FockVector.basis(0, (2, 1))]:
            for k in range(2):
                for l in range(2):
                    omat = opposite(IndexedMatrix.single(v, k, l))
                    for w in M.omega0_basis(2):
                        for wp in M.omega0_basis(2):
                            lhs = M.inner(M.theta_dual(k, l, v, wp), w)
                            rhs = Q(0)
                            for (a, b), entry in omat.entries.items():
                                rhs += M.inner(wp, M.theta(a, b, entry, w))
                            ok = ok and lhs == rhs
        verdict[sign] = ok
    assert verdict == {"plus": True, "minus": False}


def test_opposite_anti_homomorphism():
    rng = random.Random(17)
    probes = module_probes()
    vs = V.omega0_basis(3)
    for _ in range(30):
        a = IndexedMatrix.single(rng.choice(vs), rng.randrange(3), rng.randrange(3))
        b = IndexedMatrix.single(rng.choice(vs), rng.randrange(3), rng.randrange(3))
        lhs = opposite_map(diamond_left(a, b))
        rhs = diamond_left(opposite_map(b), opposite_map(a))
        assert probe_equal(lhs, rhs, probes)


def test_probe_equal_examples():
    probes = module_probes()
    for k in range(3):
        for l in range(3):
            lhs = IndexedMatrix.single(ONE, k, l)
            rhs = (IndexedMatrix.single(ONE, l, l) if k == l
                   else IndexedMatrix.zero(0))
            assert probe_equal(lhs, rhs, probes)
    a = IndexedMatrix.single(OM, 1, 1)
    assert probe_equal(a, a, probes)
    # the charge-1 probe separates [a(-1)1]_{00} from zero
    assert not probe_equal(IndexedMatrix.single(A1, 0, 0),
                           IndexedMatrix.zero(0), probes)


def test_probe_equal_rejects_empty_list():
    a = IndexedMatrix.single(A1, 0, 0)
    with pytest.raises(ValueError):
        probe_equal(a, a, [])


def test_first_nonzero_image_finds_a_witness():
    # [a(-1)|0>]_{00} under the charge-1 action: a(0) acts as 1 on |1>
    Y = FockIntertwiner(0, 1, level_cap=4)
    mat = IndexedMatrix.single(A1, 0, 0)
    assert first_nonzero_image(Y, mat) == Y.target.highest()
    assert first_nonzero_image(FockIntertwiner(0, 0, level_cap=4), mat) is None


def truncated_taylor(alpha: int, order: int) -> dict:
    """Taylor polynomial in x^-1 of the given order of (x+1)^alpha, as {exponent: c}.

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
    return out


def residue(series: dict, zero=Q(0)):
    """Coefficient of x^-1 of {exponent: c}; `zero` when the term is absent."""
    return series.get(Q(-1), zero)


def series_route_left_entry(v, w, k, n, l):
    """Independent evaluation: assemble the whole integrand as one series
    (truncated Taylor polynomial times (1+x)^l times the dressed vertex
    series) and take its residue, instead of collecting engine
    coefficients by index arithmetic."""
    from voamodes.heisenberg import zero_vector

    M = FockModule(w.charge, level_cap=40)
    zero = zero_vector(w.charge)
    out = zero
    for hv in sorted({sum(nu) for nu in v.terms}):
        v_h = FockVector(0, {p: c for p, c in v.terms.items() if sum(p) == hv})
        # Y(v, x) w over a window wide enough for the residue
        lo = -int(max(w.levels(), default=0) + hv + 1)
        hi = k + l + 1
        modes = {t: M.mode(v_h, -t - 1, w) for t in range(lo, hi + 1)}
        # order k+l+1 makes the Taylor polynomial stop at m = n; times
        # (1+x)^l (1+x)^{L(0)} on the weight-hv piece
        scalar = {}
        for e, c in truncated_taylor(-k + n - l - 1, k + l + 1).items():
            for m in range(l + hv + 1):
                scalar[e + m] = scalar.get(e + m, 0) + c * gen_binomial(l + hv, m)
        full = {}
        for e, c in scalar.items():
            for t, vec in modes.items():
                full[e + t] = full.get(e + t, zero) + vec.scale(c)
        out = out + residue(full, zero)
    return out


def test_left_entry_series_route():
    M = FockModule(Q(1, 2), level_cap=12)
    vs = [ONE, A1, OM, FockVector.basis(0, (2, 1)), FockVector.basis(0, (3,))]
    ws = [M.highest(), M.basis(1)[0], M.basis(2)[1]]
    for v in vs:
        for w in ws:
            for k in range(3):
                for n in range(3):
                    for l in range(3):
                        assert left_entry(v, w, k, n, l) == \
                            series_route_left_entry(v, w, k, n, l)


def _vector_strategy(charge, max_level=3, min_size=0):
    from hypothesis import strategies as st
    from voamodes.heisenberg import partitions_of

    parts = [p for n in range(max_level + 1) for p in partitions_of(n)]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.sampled_from(parts), coeff, min_size=min_size,
                           max_size=3).map(lambda d: FockVector(charge, d))


@pytest.mark.parametrize("lam1, lam2", [
    (Q(1, 2), Q(1)), (Q(1), Q(-1, 2)), (Q(-1, 2), Q(-1, 2)), (Q(0), Q(1, 2)),
], ids=["1/2,1", "1,-1/2", "-1/2,-1/2", "module-1/2"])
def test_theta_is_the_mode_landing_in_level_k(lam1, lam2):
    # theta(k, l, w1, w2) sums, over the levels a of w1, the mode of
    # index wt w1_a + wt w2_l - (h3 + k) - 1, read at level k
    from hypothesis import given, settings

    Y = FockIntertwiner(lam1, lam2, level_cap=12)
    h1, h2, h3 = Y.source.h, Y.right_input.h, Y.target.h

    @settings(deadline=None, max_examples=30)
    @given(_vector_strategy(lam1, min_size=2), _vector_strategy(lam2, min_size=2))
    def check(w1, w2):
        for k in range(-1, 4):
            for l in range(4):
                w2_l = w2.level_component(l)
                want = Y.target.zero()
                for a in w1.levels():
                    m = (h1 + a) + (h2 + l) - (h3 + k) - 1
                    want = want + Y.mode(m, w1.level_component(a), w2_l).level_component(k)
                assert Y.theta(k, l, w1, w2) == want

    check()


def test_entry_bilinearity():
    from hypothesis import given, settings

    @settings(deadline=None, max_examples=25)
    @given(_vector_strategy(0), _vector_strategy(0), _vector_strategy(Q(1, 2)))
    def check(u, v, w):
        k, n, l = 1, 2, 1
        assert left_entry(u + v, w, k, n, l) == \
            left_entry(u, w, k, n, l) + left_entry(v, w, k, n, l)
        assert right_entry(w, u + v, k, n, l) == \
            right_entry(w, u, k, n, l) + right_entry(w, v, k, n, l)
        assert left_entry(u.scale(Q(2, 3)), w, k, n, l) == \
            left_entry(u, w, k, n, l).scale(Q(2, 3))

    check()


def test_theta_linearity():
    from hypothesis import given, settings

    M = FockModule(Q(1), level_cap=8)
    Y = FockIntertwiner(Q(1, 2), Q(1), level_cap=8)
    # first-slot summands at different levels: levels 1 and 2 in the
    # algebra, levels 0 and 2 in the intertwiner's source
    v1, v2 = A1.scale(3), FockVector(0, {(2,): Q(1, 2), (1, 1): Q(-1)})
    u1 = FockVector.basis(Q(1, 2), ())
    u2 = FockVector(Q(1, 2), {(2,): Q(1, 3), (1, 1): Q(2)})

    @settings(deadline=None, max_examples=25)
    @given(_vector_strategy(0), _vector_strategy(Q(1)), _vector_strategy(Q(1)))
    def check(v, w1, w2):
        k, l = 2, 1
        assert M.theta(k, l, v, w1 + w2) == \
            M.theta(k, l, v, w1) + M.theta(k, l, v, w2)
        assert M.theta(k, l, v, w1.scale(-5)) == M.theta(k, l, v, w1).scale(-5)
        for theta in (M.theta, M.theta_dual):
            assert theta(k, l, v1 + v2, w1) == \
                theta(k, l, v1, w1) + theta(k, l, v2, w1)
        assert Y.theta(k, l, u1 + u2, w1) == \
            Y.theta(k, l, u1, w1) + Y.theta(k, l, u2, w1)

    check()


_HALF = FockVector.basis(Q(1, 2), ())
_CHARGED = FockVector.basis(Q(1, 2), (1,))


def _half_table():
    from voamodes.correspondence import MapTable

    return MapTable.from_intertwiner(FockIntertwiner(Q(1, 2), Q(1, 2)), 1, 1)


@pytest.mark.parametrize("call", [
    lambda: FockModule(Q(1)).theta(1, 0, _CHARGED, FockVector.basis(Q(1), ())),
    lambda: FockModule(Q(1)).theta_dual(1, 0, _CHARGED, FockVector.basis(Q(1), ())),
    lambda: FockModule(Q(1)).mode(_CHARGED, 0, FockVector.basis(Q(1), ())),
    lambda: FockModule(Q(1)).mode(ONE, 0, _HALF),
    lambda: right_entry(_HALF, _CHARGED, 1, 0, 0),
    lambda: right_entry_conjugated(_HALF, _CHARGED, 1, 0, 0),
    lambda: right_entry_direct(_HALF, _CHARGED, 1, 0, 0),
    lambda: right_entry_right_op(_HALF, _CHARGED, 1, 0, 0),
    lambda: FockIntertwiner(Q(1, 2), Q(1, 2)).theta(
        1, 0, FockVector.basis(Q(1), (1,)), _HALF),
    lambda: FockIntertwiner(Q(1, 2), Q(1, 2)).theta(
        0, 0, _HALF, FockVector.basis(Q(1), ())),
    lambda: FockModule(Q(1)).theta_dual(0, 0, ONE, _HALF),
    lambda: FockIntertwiner(Q(1, 2), Q(1, 2)).series(
        FockVector.basis(Q(1), (1,)), _HALF, 0, 2),
    lambda: _half_table().value(
        1, 1, FockVector.basis(Q(1), ()), FockVector.basis(Q(3), (1,))),
    lambda: FockIntertwiner(0, 0).series(_HALF, ONE, 0, 2),
    # w (or w2) has no level-3 component: the charges are checked first
    lambda: FockModule(Q(1, 2)).theta(0, 3, FockVector.basis(Q(1), (1,)), _HALF),
    lambda: FockModule(Q(1, 2)).theta(0, 3, ONE, FockVector.basis(Q(1), ())),
    lambda: FockModule(Q(1, 2)).theta_dual(0, 3, FockVector.basis(Q(1), (1,)), _HALF),
    lambda: FockModule(Q(1, 2)).theta_dual(0, 3, ONE, FockVector.basis(Q(1), ())),
    lambda: FockIntertwiner(Q(1, 2), Q(1, 2)).theta(
        0, 3, FockVector.basis(Q(1), ()), _HALF),
    lambda: FockIntertwiner(Q(1, 2), Q(1, 2)).theta(
        0, 3, _HALF, FockVector.basis(Q(1), ())),
    lambda: jacobi_kernel_element(FockModule(Q(1)), 0, 0, 0, 0, ONE, _HALF),
    lambda: jacobi_kernel_element(FockModule(Q(1)), 0, 0, 0, 0,
                                  FockVector.basis(Q(2), ()), FockVector.basis(Q(1), ())),
], ids=["module-theta", "module-theta-dual", "module-mode-v", "module-mode-w",
        "right-entry", "right-entry-conjugated",
        "right-entry-direct", "right-entry-right-op", "intertwiner-theta-w1",
        "intertwiner-theta-w2", "module-theta-dual-wprime", "intertwiner-series",
        "table-value", "algebra-vertex-series", "module-theta-v-off-level",
        "module-theta-w-off-level", "module-theta-dual-v-off-level",
        "module-theta-dual-wprime-off-level", "intertwiner-theta-w1-off-level",
        "intertwiner-theta-w2-off-level", "kernel-element-w", "kernel-element-v"])
def test_wrong_charge_raises(call):
    with pytest.raises(ValueError):
        call()


def is_canonical(c) -> bool:
    """An int when the value is integral, otherwise a Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Q and c.denominator > 1)


def _assert_canonical(vec, shared=()):
    """vec is in the form FockVector() builds, and owns its terms dict."""
    from voamodes.heisenberg import _EXPAND_CACHE

    assert vec == FockVector(vec.charge, dict(vec.terms))
    assert type(vec.charge) is Q
    for p, c in vec.terms.items():
        assert type(p) is tuple and all(type(x) is int and x > 0 for x in p)
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
        assert is_canonical(c) and c != 0
    held = [terms for _, levels in _EXPAND_CACHE.values() for terms in levels.values()]
    # the walk must reach the engine's term dicts, or the check is vacuous
    assert all(type(terms) is dict for terms in held) and (held or not _EXPAND_CACHE)
    held = {id(terms) for terms in held}
    held.update(id(terms) for terms in shared)
    assert id(vec.terms) not in held


def test_results_are_canonical_and_own_their_terms():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from voamodes.correspondence import MapTable
    from voamodes.fock import right_vertex_op
    from voamodes.heisenberg import l_zero, sugawara_l
    from voamodes.matrices import (
        _conjugated_series,
        _direct_series,
        _exp_l1_parity,
        _module_mode,
        _right_op_series,
    )

    M = FockModule(Q(1, 2), level_cap=20)
    Y = FockIntertwiner(Q(1, 2), Q(1), level_cap=20)
    e0 = Y.base_exponent
    table = MapTable.from_intertwiner(Y, 2, 3)
    idx = st.integers(0, 2)

    @settings(deadline=None, max_examples=25)
    @given(_vector_strategy(0), _vector_strategy(0), _vector_strategy(Q(1, 2)),
           _vector_strategy(Q(1)), idx, idx, idx, st.integers(-1, 1),
           st.integers(-2, 2))
    def check(u, v, w, w2, k, n, l, m, t):
        # u, v, w and w2 come from the FockVector constructor; the series
        # coefficients come out of the {t: terms} collector
        coeffs = [*Y.series(w, w2, e0 - 6, e0 + t).values(),
                  *right_vertex_op(w, v, -7, t).values()]
        for vec in (u, v, w, w2, u + v, u - u, u.scale(Q(-2, 3)), u.scale(0),
                    u.level_component(2), sugawara_l(-1, w), sugawara_l(1, w),
                    l_zero(w), M.mode(v, t, w), Y.mode(-t - 1 - e0, w, w2),
                    M.theta(k, l, v, w), M.theta_dual(k, l, v, w),
                    Y.theta(k, l, w, w2), table.value(k, l, w, w2), *coeffs):
            _assert_canonical(vec)
        # the cached forms over the whole index grid, the oracles at one point
        for kk, nn, ll in itertools.product(range(3), repeat=3):
            _assert_canonical(left_entry(v, w, kk, nn, ll))
            series = _conjugated_series(w, v, kk + ll).values()
            _assert_canonical(right_entry(w, v, kk, nn, ll), series)
        for oracle in (right_entry_direct, right_entry_right_op):
            series = [*_conjugated_series(w, v, k + l).values(),
                      *_direct_series(w, v, k + l).values(),
                      *_right_op_series(w, v, k + l).values()]
            _assert_canonical(oracle(w, v, k, n, l), series)
        # the kernel element reads memoized modes, the opposite map a
        # memoized image per entry; the results own their terms
        v_top = v.level_component(max(v.levels(), default=0))
        if l + m >= 0:
            km = jacobi_kernel_element(M, k, l, n, m, v_top, w)
            modes = [_module_mode(M.lam, v_top, i, w).terms
                     for i in range(m, m + 8)]
            _assert_canonical(km.entry(k, l + m), modes)
        flipped = opposite_map(IndexedMatrix.single(v, k, l)).entry(l, k)
        _assert_canonical(flipped, [_exp_l1_parity(v).terms])

    check()
    # basis vectors with coefficient 1: one engine read per value, the
    # case where a shortcut would hand out the cached terms themselves
    for k, l in itertools.product(range(3), repeat=2):
        for p in partitions_of(l):
            w = FockVector.basis(Q(1, 2), p)
            w2 = FockVector.basis(Q(1), p)
            for v in (ONE, A1, FockVector.basis(0, (2,))):
                _assert_canonical(M.theta(k, l, v, w))
            for u in (FockVector.basis(Q(1, 2), ()), FockVector.basis(Q(1, 2), (1,))):
                _assert_canonical(Y.theta(k, l, u, w2))
                _assert_canonical(table.value(k, l, u, w2))
                for vec in Y.series(u, w2, e0 - 3, e0 + k).values():
                    _assert_canonical(vec)
            for v in (ONE, A1):
                for vec in right_vertex_op(w, v, -4, k).values():
                    _assert_canonical(vec)


def test_scalars_stay_exact_over_the_n1_grid():
    # int / int is a float, so a division of canonical scalars that lost
    # its Fraction would show here; the grid is what verify --N 1 reads
    # at the default charges, p window and algebra weights
    from voamodes.matrices import (
        _conjugated_series,
        _direct_series,
        _residue_weights,
        _right_op_series,
        jacobi_sums,
    )
    from voamodes.suites import algebra_basis

    scalars = []
    for k, l, n, hv, lev in itertools.product(range(3), range(2), range(2), range(4),
                                              range(2)):
        for p in range(-l, 3):
            scalars += [c for sums in jacobi_sums(k, l, n, p, hv, lev) for _, c in sums]
    for k, n, l, e in itertools.product(range(3), range(4), range(4), range(7)):
        scalars += _residue_weights(k, n, l, e).values()
    for c in CHARGES:
        for w in FockModule(c, level_cap=6).omega0_basis(1):
            for v in algebra_basis(3):
                for build in (_conjugated_series, _direct_series, _right_op_series):
                    for s, terms in build(w, v, 4).items():
                        assert type(s) is int
                        scalars += terms.values()
    assert len(scalars) > 1000
    bad = [c for c in scalars if not is_canonical(c)]
    assert not bad, bad[:5]


def _right_entry_grid(order):
    # mixed-level w and v exercise the per-level split of each form
    M = FockModule(Q(1, 2), level_cap=8)
    ws = [M.highest(), M.basis(1)[0] + M.highest().scale(-2)]
    vs = [A1, ONE.scale(Q(1, 2)) + A1 + OM]
    kls = sorted(((k, l) for k in range(5) for l in range(5) if k + l <= 4),
                 key=lambda kl: sum(kl), reverse=(order == "descending"))
    return {(i, j, k, n, l, form): entry(w, v, k, n, l)
            for k, l in kls for n in range(3)
            for i, w in enumerate(ws) for j, v in enumerate(vs)
            for form, entry in RIGHT_FORMS.items()}


def test_right_entries_independent_of_cache_state_and_order(clear_caches):
    from voamodes import matrices

    clear_caches()
    ascending = _right_entry_grid("ascending")
    # the series stay cached at the largest k + l; the entries are
    # computed again, each reading a prefix of its form's series
    matrices._right_entry_cached.cache_clear()
    warm_descending = _right_entry_grid("descending")
    clear_caches()
    descending = _right_entry_grid("descending")
    matrices._right_entry_cached.cache_clear()
    warm_ascending = _right_entry_grid("ascending")
    assert ascending == warm_descending == descending == warm_ascending
    for (i, j, k, n, l, form), vec in ascending.items():
        assert vec == ascending[(i, j, k, n, l, "conjugated")], (i, j, k, n, l, form)
    # and each entry on cleared caches, its series built to its own k + l
    for (i, j, k, n, l, form), vec in list(ascending.items())[::7]:
        clear_caches()
        assert _right_entry_grid_point(i, j, k, n, l, form) == vec, (i, j, k, n, l, form)


def _right_entry_grid_point(i, j, k, n, l, form):
    M = FockModule(Q(1, 2), level_cap=8)
    ws = [M.highest(), M.basis(1)[0] + M.highest().scale(-2)]
    vs = [A1, ONE.scale(Q(1, 2)) + A1 + OM]
    return RIGHT_FORMS[form](ws[i], vs[j], k, n, l)


def test_series_cache_keeps_the_longest_series(clear_caches):
    from voamodes.matrices import (
        _conjugated_series,
        _direct_series,
        _right_op_series,
        _SeriesCache,
    )

    M = FockModule(Q(1, 2), level_cap=8)
    w, v = M.basis(1)[0] + M.highest(), ONE + OM
    for cache in (_conjugated_series, _direct_series, _right_op_series):
        clear_caches()
        long = cache(w, v, 4)
        # a shorter request reads the longer series, which it prefixes
        assert cache(w, v, 2) is long
        clear_caches()
        short = cache(w, v, 2)
        assert {s: t for s, t in long.items() if s <= 2} == short
        # a longer request builds anew and is kept
        longer = cache(w, v, 5)
        assert longer is not short and cache(w, v, 3) is longer
        assert {s: t for s, t in longer.items() if s <= 4} == long

    # more pairs than the cache keeps, every window asked in a shuffled
    # order: each answer prefixes the series built cold, and a new pair
    # drops the one stored longest ago
    build = _conjugated_series.__wrapped__
    M = FockModule(Q(-1, 2), level_cap=8)
    pairs = [(M.highest(), A1), (M.basis(1)[0], OM), (M.basis(2)[1], ONE + A1),
             (M.basis(2)[0], A1)]
    cold = {(i, t): build(*pair, t) for i, pair in enumerate(pairs) for t in range(5)}
    asks = [(i, t) for i in range(len(pairs)) for t in range(5)]
    for maxsize in (2, 3):
        for seed in range(3):
            cache = _SeriesCache(build, maxsize)
            kept: dict = {}  # pair index -> stored window, oldest first
            for i, t in random.Random(seed).sample(asks, len(asks)):
                got = cache(*pairs[i], t)
                assert {s: terms for s, terms in got.items() if s <= t} == cold[i, t]
                if kept.get(i, -1) < t:
                    kept.pop(i, None)
                    kept[i] = t
                    if len(kept) > maxsize:
                        del kept[next(iter(kept))]
                assert len(cache._series) <= maxsize
                assert [(key, t_hi) for key, (t_hi, _) in cache._series.items()] == \
                    [(pairs[j], t_j) for j, t_j in kept.items()], (maxsize, seed, i, t)


# ---------------------------------------------------------------------------
# the right-operator form against its Fraction-arithmetic loops


def fraction_right_vertex_op(module, w, v, lo, hi):
    """e^{xL(-1)} Y_W(v, -x) w over [lo, hi], one FockVector per chain step."""
    from voamodes.fock import mode_series

    out = {}
    for t, terms in sorted(mode_series(v.terms, Q(0), w.terms, module.lam, hi).items()):
        cur = FockVector(module.lam, terms).scale(-1 if t % 2 else 1)
        a = 0
        while t + a <= hi and not cur.is_zero():
            if t + a >= lo:
                out[t + a] = out[t + a] + cur if t + a in out else cur
            a += 1
            cur = sugawara_l(-1, cur).scale(Q(1, a))
    return {s: vec for s, vec in out.items() if not vec.is_zero()}


def fraction_right_op_series(w, v, t_hi):
    """(1+x)^{-(L(-1)+L(0))} Y_{WV}((1+x)^{L(0)} w, x) v up to x^t_hi, in FockVectors."""
    scratch = FockModule(w.charge, level_cap=10 ** 9)
    lowest = -(max(w.levels(), default=0) + max(v.levels(), default=0) + 1)
    assembled = {}
    for lev in w.levels():
        ser = fraction_right_vertex_op(scratch, w.level_component(lev), v, lowest, t_hi)
        for e, vec in ser.items():
            for d in range(t_hi - e + 1):
                piece = vec.scale(gen_binomial(scratch.h + lev, d))
                assembled[e + d] = assembled[e + d] + piece if e + d in assembled else piece
    final = {}
    for s, cur in sorted(assembled.items()):
        d = 0
        while s + d <= t_hi and not cur.is_zero():
            final[s + d] = final[s + d] + cur if s + d in final else cur
            d += 1
            cur = (sugawara_l(-1, cur) + l_zero(cur) + cur.scale(d - 1)).scale(Q(-1, d))
    return {s: vec for s, vec in final.items() if not vec.is_zero()}


ORACLE_CHARGES = (Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(3, 2), Q(1, 3))


def _oracle_inputs(charge):
    M = FockModule(charge, level_cap=20)
    ws = [M.highest(), M.basis(1)[0], M.basis(2)[0],
          M.highest().scale(Q(2, 3)) - M.basis(1)[0].scale(Q(5, 2))
          + M.basis(3)[1].scale(Q(1, 7))]
    vs = [ONE, A1, OM, FockVector.basis(0, (3,)), FockVector.basis(0, (2, 1)),
          ONE.scale(Q(1, 2)) + A1 - OM.scale(3) + FockVector.basis(0, (3,)).scale(Q(-1, 3))]
    return M, ws, vs


# a coefficient does not depend on the top of the window, so one oracle
# series up to x^3 checks every window below it


@pytest.mark.parametrize("charge", ORACLE_CHARGES, ids=str)
def test_right_vertex_op_matches_fraction_loop(charge):
    from voamodes.fock import right_vertex_op

    M, ws, vs = _oracle_inputs(charge)
    for w in ws:
        for v in vs:
            lowest = -(max(w.levels()) + max(v.levels()) + 1)
            want = fraction_right_vertex_op(M, w, v, lowest, 3)
            for hi in range(4):
                for lo in (lowest, 0):
                    got = right_vertex_op(w, v, lo, hi)
                    assert got == {s: vec for s, vec in want.items() if lo <= s <= hi}, \
                        (w, v, lo, hi)
                    for vec in got.values():
                        _assert_canonical(vec)


@pytest.mark.parametrize("charge", ORACLE_CHARGES, ids=str)
def test_right_op_series_matches_fraction_loop(charge):
    from voamodes.heisenberg import _trusted_vector
    from voamodes.matrices import _right_op_series

    M, ws, vs = _oracle_inputs(charge)
    for w in ws:
        for v in vs:
            want = fraction_right_op_series(w, v, 3)
            for t_hi in range(4):
                # the cached series may run past t_hi (it is kept to the
                # largest t_hi built); a request promises the exponents up
                # to t_hi.  Copies: the cached terms stay unwrapped
                got = {s: _trusted_vector(M.lam, dict(terms))
                       for s, terms in _right_op_series(w, v, t_hi).items()
                       if s <= t_hi}
                assert got == {s: vec for s, vec in want.items() if s <= t_hi}, (w, v, t_hi)
                for vec in got.values():
                    _assert_canonical(vec)
