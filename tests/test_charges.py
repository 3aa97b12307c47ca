"""Charges are interned, and no result depends on the interning.

Every charge-bearing object stores the one shared `Fraction` of its
charge value, so charge checks usually meet by identity.  A vector whose
charge is an equal but distinct `Fraction` must still pass every check
and give the same results.
"""

from fractions import Fraction as Q

from voamodes import heisenberg
from voamodes.correspondence import MapTable, certify_jacobi, jacobi_points
from voamodes.fock import FockIntertwiner, FockModule, right_vertex_op
from voamodes.heisenberg import (
    ALGEBRA_CHARGE,
    FockVector,
    _trusted_vector,
    conformal_vector,
    expand_key,
    expand_pair,
    intern_charge,
    l_zero,
    sugawara_l,
    vacuum,
    zero_vector,
)
from voamodes.matrices import (
    IndexedMatrix,
    diamond_left,
    diamond_wv,
    identity_n,
    jacobi_kernel_element,
    left_entry,
    opposite_map,
    probe_equal,
    right_entry,
    right_entry_direct,
    right_entry_right_op,
)

HALF = intern_charge(Q(1, 2))
OM = conformal_vector()


def _fresh(vec: FockVector) -> FockVector:
    """vec over an equal charge that is not the interned object."""
    charge = Q(vec.charge.numerator, vec.charge.denominator)
    assert charge == vec.charge and charge is not vec.charge
    return _trusted_vector(charge, dict(vec.terms))


def test_equal_charge_values_share_one_object():
    M = FockModule("1/2", level_cap=4)
    Y = FockIntertwiner(Q(1, 4), Q(1, 4), level_cap=4)   # lam3 = 1/4 + 1/4
    X = FockIntertwiner(0, Q(2, 4), level_cap=4)
    f = MapTable.from_intertwiner(X, 1, 1)
    w = M.basis(2)[0]
    halves = [
        intern_charge(Q(1, 2)), intern_charge("1/2"), intern_charge(Q(2, 4)),
        FockVector(Q(1, 2)).charge, FockVector("2/4", {(1,): 3}).charge,
        FockVector.basis(Q(1, 2), (2, 1)).charge, zero_vector(Q(1, 2)).charge,
        M.lam, M.highest().charge, M.zero().charge, w.charge,
        Y.lam3, Y.target.lam, X.lam2, X.lam3,
        f.lam2, f.lam3, f.target.lam,
        IndexedMatrix(Q(1, 2)).charge, IndexedMatrix.single(w, 1, 2).charge,
        # results
        M.theta(2, 2, OM, w).charge, M.mode(OM, 1, w).charge,
        M.theta_dual(2, 2, OM, w).charge,
        X.theta(1, 0, X.source.highest(), X.right_input.highest()).charge,
        X.mode(-1, X.source.highest(), X.right_input.highest()).charge,
        f.value(1, 1, f.source.highest(), f.right_input.basis(1)[0]).charge,
        sugawara_l(-1, w).charge, l_zero(w).charge, (w + w).charge, w.scale(3).charge,
        left_entry(OM, w, 1, 1, 2).charge, right_entry(w, OM, 2, 1, 1).charge,
        diamond_left(identity_n(1), IndexedMatrix.single(w, 1, 1)).charge,
    ]
    assert all(c is HALF for c in halves)
    assert type(HALF) is Q
    zeros = [intern_charge(0), intern_charge(Q(0)), vacuum().charge, OM.charge,
             FockModule(0).lam, IndexedMatrix(0).charge, identity_n(1).charge,
             opposite_map(identity_n(1)).charge, FockIntertwiner(0, 0).lam3]
    assert all(c is ALGEBRA_CHARGE for c in zeros)


def test_equal_but_distinct_charges_pass_every_check(clear_caches):
    M = FockModule(Q(1, 2), level_cap=8)
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=4)
    f = MapTable.from_intertwiner(Y, 2, 2)
    w = M.basis(2)[0] + M.highest()
    w2 = M.basis(1)[0]
    hw1 = Y.source.highest()

    def results(v, w, w2, hw1):
        a = IndexedMatrix.single(v, 1, 1)
        b = IndexedMatrix.single(w, 1, 2)
        return [
            w + w2, w2 + w, w - w2, w == w2,
            M.mode(v, 1, w), M.theta(2, 2, v, w), M.theta_dual(2, 2, v, w),
            Y.mode(Q(-5, 4), hw1, w2), Y.theta(2, 1, hw1, w2),
            Y.series(hw1, w2, Q(-1, 4), Q(7, 4)),
            right_vertex_op(w, v, -3, 1),
            f.value(1, 1, hw1, w2),
            left_entry(v, w, 1, 1, 2),
            *(entry(w, v, 2, 1, 1)
              for entry in (right_entry, right_entry_direct, right_entry_right_op)),
            IndexedMatrix(HALF, {(1, 2): w}), a + a, b + IndexedMatrix.single(w, 1, 2),
            diamond_left(a, b), diamond_wv(b, IndexedMatrix.single(v, 2, 1)),
            jacobi_kernel_element(M, 1, 1, 1, 0, v, w),
            probe_equal(b, b, [FockIntertwiner(0, Q(1, 2), level_cap=4)]),
            list(jacobi_points(f, [v], [hw1], 1, -1, 0)),
        ]

    want = results(OM, w, w2, hw1)
    clear_caches()
    fresh = [_fresh(x) for x in (OM, w, w2, hw1)]
    assert fresh[1] == w and w == fresh[1] and hash(fresh[1]) == hash(w)
    assert results(*fresh) == want
    assert certify_jacobi(f, [fresh[0]], [fresh[3]], 1, -1, 0).ok


def test_int_and_fraction_charges_share_one_engine_entry(clear_engine_caches):
    nu, mu = (2, 1), (1,)
    want = expand_pair(nu, 0, mu, Q(1, 2), 5)
    for lam1 in (Q(0), Q(0, 1)):
        assert expand_pair(nu, lam1, mu, Q(1, 2), 5) is want
        assert expand_pair(nu, lam1, mu, Q(1, 2), 4)[4] is want[4]
    assert len(heisenberg._EXPAND_CACHE) == 1
    # an integral second charge: 1 and Fraction(1) key the same entry
    want = expand_pair(nu, Q(1, 2), mu, 1, 4)
    assert expand_pair(nu, Q(1, 2), mu, Q(1), 4) is want
    assert len(heisenberg._EXPAND_CACHE) == 2
    assert expand_key(nu, 0, mu, 1) == expand_key(nu, Q(0), mu, Q(2, 2))
    key = expand_key(nu, Q(1, 3), mu, Q(-2))
    assert key == (nu, 1, 3, mu, -2, 1)
    assert all(type(x) is int for x in key[1:3] + key[4:])
