import json
from fractions import Fraction as Q
from pathlib import Path

import jsonschema
import pytest

from voamodes.correspondence import (
    MapTable,
    SuiteReport,
    certify_jacobi,
    certify_l1_derivative,
    reachability_closure,
    roundtrip,
    yf_series,
)
from voamodes.errors import OutOfTable, TruncationOverflow
from voamodes.fock import FockIntertwiner, FockModule, right_vertex_op
from voamodes.heisenberg import (
    FockVector,
    conformal_vector,
    partitions_of,
    vacuum,
    weight_of,
)

ONE = vacuum()
OM = conformal_vector()
A1 = FockVector.basis(0, (1,))


@pytest.fixture(scope="module")
def Y():
    return FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)


@pytest.fixture(scope="module")
def table(Y):
    # indices to 2N + p_hi = 6, first-slot levels to 6: the certification
    # grids at N = 2 with p in [-2, 2] look up indices that far out
    return MapTable.from_intertwiner(Y, 6, 6)


def test_rho_entries(table, Y):
    hw1, hw2 = Y.source.highest(), Y.right_input.highest()
    assert table.value(0, 0, hw1, hw2) == Y.target.highest()
    # all slices land in their slot level
    for (k, l, nu, mu), vec in table.entries.items():
        assert vec.levels() == [k]
    # injectivity witness: the table is visibly nonzero
    assert not table.is_zero()


def test_table_restriction(table, Y):
    small = MapTable.from_intertwiner(Y, 2, 6)
    assert small.kmax == 2
    for key, vec in small.entries.items():
        assert table.entries[key] == vec
    tiny = MapTable.from_intertwiner(Y, 0, 2)
    assert all(k == 0 and l == 0 for (k, l, _, _) in tiny.entries)
    assert not tiny.is_zero()


def test_value_lookup_rules(table, Y):
    hw1, hw2 = Y.source.highest(), Y.right_input.highest()
    # off-level second slot gives zero
    assert table.value(0, 1, hw1, hw2).is_zero()
    with pytest.raises(OutOfTable):
        table.value(table.kmax + 1, 0, hw1, hw2)
    with pytest.raises(OutOfTable):
        table.value(0, 0, FockVector.basis(Y.lam1, (7,)), hw2)
    # bilinearity
    w1 = hw1.scale(2) + FockVector.basis(Y.lam1, (1,))
    got = table.value(1, 0, w1, hw2)
    want = (table.value(1, 0, hw1, hw2).scale(2)
            + table.value(1, 0, FockVector.basis(Y.lam1, (1,)), hw2))
    assert got == want


def test_table_value_is_theta(table, Y):
    hw1, hw2 = Y.source.highest(), Y.right_input.highest()
    assert table.value(0, 0, hw1, hw2) == Y.theta(0, 0, hw1, hw2)
    assert table.value(2, 0, hw1, hw2).levels() in ([], [2])
    zero = table.zeros_like()
    assert zero.value(1, 1, hw1, Y.right_input.basis(1)[0]).is_zero()


def eager_entries(Y, kmax, w1_levels):
    """Every nonzero Y.theta on the generator grid, evaluated up front."""
    entries = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            for a in range(w1_levels + 1):
                for nu in partitions_of(a):
                    w1 = FockVector.basis(Y.lam1, nu)
                    for mu in partitions_of(l):
                        w2 = FockVector.basis(Y.lam2, mu)
                        val = Y.theta(k, l, w1, w2)
                        if not val.is_zero():
                            entries[(k, l, nu, mu)] = val
    return entries


def _counted(Y):
    """Y with its theta calls recorded as (k, l, nu, mu) keys."""
    calls = []
    theta = Y.theta

    def counting(k, l, w1, w2):
        (nu,), (mu,) = w1.terms, w2.terms
        calls.append((k, l, nu, mu))
        return theta(k, l, w1, w2)

    Y.theta = counting
    return calls


def test_table_fills_on_first_read():
    Y = FockIntertwiner(0, Q(1, 2), level_cap=8)
    calls = _counted(Y)
    table = MapTable.from_intertwiner(Y, 3, 4)
    assert calls == []
    hw1, hw2 = Y.source.highest(), Y.right_input.highest()
    assert table.value(0, 0, hw1, hw2) == Y.target.highest()
    assert calls == [(0, 0, (), ())]
    table.value(0, 0, hw1, hw2)
    assert len(calls) == 1
    # bilinear reads evaluate each generator they meet once
    w1 = hw1.scale(Q(2, 3)) + FockVector.basis(Y.lam1, (2, 1))
    w2 = FockVector.basis(Y.lam2, (2,)) - FockVector.basis(Y.lam2, (1, 1))
    table.value(2, 2, w1, w2)
    table.value(2, 2, w1, w2)
    assert sorted(calls[1:]) == sorted(
        (2, 2, nu, mu) for nu in ((), (2, 1)) for mu in ((2,), (1, 1)))
    # a generator whose value is zero is remembered too
    a1 = FockVector.basis(Y.lam2, (1,))
    assert table.value(0, 1, hw1, a1).is_zero()
    assert table.value(0, 1, hw1.scale(3), a1).is_zero()
    assert calls[5:] == [(0, 1, (), (1,))]
    # off-level w2 parts and the zero table read nothing
    table.value(3, 1, hw1, hw2)
    table.zeros_like().value(2, 0, hw1, hw2)
    assert len(calls) == 6


def test_values_before_completion_are_theta():
    # the only guard on the read path: a table that read zero on a miss
    # would still pass both certificates, as the zero table does
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)
    table = MapTable.from_intertwiner(Y, 4, 5)
    grid = [(k, l, nu, mu) for k in range(5) for l in range(5)
            for a in range(6) for nu in partitions_of(a) for mu in partitions_of(l)]
    picked = grid[::7]
    assert {k for k, _, _, _ in picked} == set(range(5))
    assert {l for _, l, _, _ in picked} == set(range(5))
    assert {sum(nu) for _, _, nu, _ in picked} == set(range(6))
    nonzero = 0
    for k, l, nu, mu in picked:
        w1, w2 = FockVector.basis(Y.lam1, nu), FockVector.basis(Y.lam2, mu)
        want = Y.theta(k, l, w1, w2)
        assert table.value(k, l, w1, w2) == want, (k, l, nu, mu)
        nonzero += not want.is_zero()
    assert nonzero > len(picked) // 2
    # still partly read: the reads above did not complete the grid
    assert len(table._pending) == len(grid) - len(picked)


@pytest.mark.parametrize("lam1, lam2", [(Q(1, 2), Q(1, 2)), (Q(-1, 2), Q(1)), (0, Q(1, 2))])
def test_completed_table_is_the_eager_grid(lam1, lam2):
    Y = FockIntertwiner(lam1, lam2, level_cap=8)
    eager = eager_entries(Y, 3, 4)
    fresh = MapTable.from_intertwiner(Y, 3, 4)
    assert repr(fresh) == f"MapTable({fresh.lam1},{fresh.lam2}; kmax=3, {len(eager)} entries)"
    assert fresh.entries == eager
    partly = MapTable.from_intertwiner(Y, 3, 4)
    hw1 = Y.source.highest()
    for w2 in Y.right_input.basis(2):
        partly.value(1, 2, hw1, w2)
    assert partly.sorted_keys() == sorted(eager)
    assert partly.entries == eager
    scaled = MapTable.from_intertwiner(Y, 3, 4).scale(Q(-2, 5))
    assert scaled.entries == {key: vec.scale(Q(-2, 5)) for key, vec in eager.items()}
    assert not MapTable.from_intertwiner(Y, 3, 4).is_zero()


def test_perturbed_leaves_a_partly_read_table_alone():
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=8)
    table = MapTable.from_intertwiner(Y, 3, 4)
    vs = [ONE, A1, OM]
    w1s = table.source.omega0_basis(1)
    hw1, hw2 = Y.source.highest(), Y.right_input.highest()
    table.value(1, 1, hw1, Y.right_input.basis(1)[0])
    read = dict(table._entries)
    pending = set(table._pending)
    bad = table.perturbed((0, 0, (), ()), table.target.highest())
    assert bad.value(0, 0, hw1, hw2) == Y.target.highest().scale(2)
    assert not certify_jacobi(bad, vs, w1s, kmax=1, p_lo=-1, p_hi=1).ok
    bad.entries  # completes the copy only
    assert table._entries == {**read, (0, 0, (), ()): Y.target.highest()}
    assert table._pending == pending - {(0, 0, (), ())}
    assert table.value(0, 0, hw1, hw2) == Y.target.highest()
    assert certify_jacobi(table, vs, w1s, kmax=1, p_lo=-1, p_hi=1).ok
    assert table.entries == eager_entries(Y, 3, 4)


def test_from_intertwiner_checks_the_cap():
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=4)
    with pytest.raises(TruncationOverflow):
        MapTable.from_intertwiner(Y, 5, 2)
    assert not MapTable.from_intertwiner(Y, 4, 2).is_zero()


def test_yf_series_matches_operator(table, Y):
    shift = Y.target.h - Y.right_input.h
    for w1 in [Y.source.highest()] + Y.source.basis(1) + Y.source.basis(2):
        wt1 = weight_of(w1)
        for l in range(3):
            for w2 in Y.right_input.basis(l):
                lo = shift - l - wt1
                hi = shift - l + 4 - wt1
                ser_f = yf_series(table, w1, w2)
                ser_y = Y.series(w1, w2, lo, hi)
                e = lo
                while e <= hi:
                    a = ser_f.get(e) or Y.target.zero()
                    b = ser_y.get(e) or Y.target.zero()
                    assert a == b, (w1, w2, e)
                    e += 1


def test_yf_series_zero_charge_is_module_action(Y):
    Y0 = FockIntertwiner(0, Q(1, 2), level_cap=8)
    f0 = MapTable.from_intertwiner(Y0, 3, 3)
    M = FockModule(Q(1, 2), level_cap=8)
    w2 = M.basis(1)[0]
    ser = yf_series(f0, ONE, w2)
    # Y(1, x) w = w: a single x^0 coefficient
    assert ser.get(0) == w2
    assert all(vec == w2 for vec in ser.values())


def test_series_values_are_never_zero(table, Y):
    """No series maps an exponent to the zero vector, even where terms cancel."""
    hw3 = Y.target.highest()
    # the two entries meet at exponent h3 - h2 - 1 - 1/8 = -3/4, with
    # opposite signs on w1 = |1/2> - a(-1)|1/2> and w2 = |1/2> + a(-1)|1/2>
    f = (table.zeros_like().perturbed((0, 1, (), (1,)), hw3)
         .perturbed((0, 0, (1,), ()), hw3))
    hw1, a1 = Y.source.highest(), Y.source.basis(1)[0]
    w2 = Y.right_input.highest() + Y.right_input.basis(1)[0]
    assert yf_series(f, hw1 - a1, w2) == {}
    assert yf_series(f, hw1, w2) == {Q(-3, 4): hw3}
    # e^{xL(-1)} Y(a(-1), -x)|1> at x^0: a(-1)|1> - L(-1)|1> = 0
    M1 = FockModule(1, level_cap=8)
    assert 0 not in right_vertex_op(M1, M1.highest(), A1, -1, 2)
    mixed1 = [hw1 - a1, hw1 + a1.scale(Q(1, 2)) - Y.source.basis(2)[1]]
    mixed2 = [w2, Y.right_input.highest() - Y.right_input.basis(2)[0]]
    for w1 in mixed1:
        for w2 in mixed2:
            for g in (f, table):
                ser = yf_series(g, w1, w2)
                assert all(not vec.is_zero() for vec in ser.values())
            e0 = Y.base_exponent
            ser = Y.series(w1, w2, e0 - 4, e0 + 2)
            assert all(not vec.is_zero() for vec in ser.values())
    M = FockModule(Q(1, 2), level_cap=8)
    for module, w in ((M1, M1.highest()), (M1, M1.basis(1)[0] - M1.highest()),
                      (M, M.highest() + M.basis(2)[0])):
        for v in (A1, ONE - A1, OM + A1):
            ser = right_vertex_op(module, w, v, -4, 3)
            assert all(not vec.is_zero() for vec in ser.values())


def test_roundtrip(table):
    rep = roundtrip(table)
    assert rep.ok and rep.cases == len(table.entries)
    assert roundtrip(table.zeros_like()).ok
    third = table.scale(Q(1, 3))
    assert roundtrip(third).ok
    for key in table.sorted_keys():
        assert third.entries[key] == table.entries[key].scale(Q(1, 3))


def _add_tables(a: MapTable, b: MapTable) -> MapTable:
    """The entrywise sum of two tables on one grid; zero sums are dropped."""
    out = dict(a.entries)
    for key, vec in b.entries.items():
        merged = out[key] + vec if key in out else vec
        if merged.is_zero():
            out.pop(key, None)
        else:
            out[key] = merged
    return MapTable(a.lam1, a.lam2, a.kmax, a.w1_levels, out, a.level_cap)


def test_table_linearity(table, Y):
    # tables add entrywise
    s = _add_tables(table, table.scale(-1))
    assert s.is_zero()


def test_table_is_a_module_map(table, Y):
    # value([v].[w1] (x) w2) = theta3(v) value([w1] (x) w2) and
    # value([w1].[v] (x) w2) = value([w1] (x) theta2(v) w2)
    from voamodes.matrices import left_entry, right_entry

    W2, W3 = Y.right_input, Y.target
    for v in [A1, OM]:
        for w1 in [Y.source.highest()] + Y.source.basis(1):
            for k in range(2):
                for n in range(2):
                    for l in range(2):
                        for w2 in W2.basis(l):
                            entry = left_entry(v, w1, k, n, l)
                            lhs = table.value(k, l, entry, w2)
                            rhs = W3.theta(k, n, v,
                                           table.value(n, l, w1, w2))
                            assert lhs == rhs
                            entry = right_entry(w1, v, k, n, l)
                            lhs = table.value(k, l, entry, w2)
                            rhs = table.value(k, n, w1,
                                              W2.theta(n, l, v, w2))
                            assert lhs == rhs


def test_certify_jacobi_passes(table):
    vs = [ONE, A1, OM, FockVector.basis(0, (3,))]
    w1s = [table.source.highest()] + table.source.basis(1)
    rep = certify_jacobi(table, vs, w1s, kmax=2, p_lo=-2, p_hi=2)
    assert rep.ok and rep.cases > 500
    # the zero table satisfies the identity trivially
    rep0 = certify_jacobi(table.zeros_like(), vs, w1s, kmax=2, p_lo=-2, p_hi=2)
    assert rep0.ok


def test_certify_l1_passes(table):
    w1s = table.source.omega0_basis(2)
    rep = certify_l1_derivative(table, w1s, w2_levels=2)
    assert rep.ok
    rep = certify_l1_derivative(table.zeros_like(), w1s, w2_levels=2)
    assert rep.ok


def test_corruption_detected(table):
    vs = [ONE, A1, OM]
    w1s = table.source.omega0_basis(1)
    bad = table.perturbed((0, 0, (), ()), table.target.highest())
    jac = certify_jacobi(bad, vs, w1s, kmax=2, p_lo=-2, p_hi=2)
    l1 = certify_l1_derivative(bad, w1s, w2_levels=2)
    assert not jac.ok or not l1.ok
    assert (jac.first_failure is not None) or (l1.first_failure is not None)


def test_failing_certificate_row(table):
    # the failure is kept as data, named by its sub-check, and rendered as
    # text in the row
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src" / "voamodes" / "schemas"
         / "report-v1.schema.json").read_text())
    bad = table.perturbed((0, 0, (), ()), table.target.highest())
    cert = certify_jacobi(bad, [ONE, A1], [table.source.highest()], kmax=1,
                          p_lo=0, p_hi=0)
    assert not cert.ok and cert.failure[0] == "jacobi"
    assert list(cert.failure[1]) == ["k", "l", "n", "p", "v", "w1", "w2"]
    rep = SuiteReport("jacobi-cert")
    rep.check("unused", True, None, None)
    rep.absorb(cert)
    assert (rep.cases, rep.passed) == (cert.cases + 1, cert.passed + 1)
    row = rep.row()
    assert row["first_failure"] == cert.first_failure
    assert row["first_failure"].startswith("jacobi at k=")
    jsonschema.validate(row, schema["properties"]["suites"]["items"])
    assert not rep.ok


def test_suite_report_failure():
    rep = SuiteReport("s")
    rep.check("a", True, 1, 1, k=0)
    assert rep.ok and rep.failure is None and rep.first_failure is None
    assert rep.row()["first_failure"] is None
    # with no where, the text has no "at"
    rep.check("flag", False, (False, True), (True, False))
    rep.check("later", False, 1, 2, k=1)
    assert rep.failure == ("flag", {}, (False, True), (True, False))
    assert rep.first_failure == "flag: lhs=(False, True) rhs=(True, False)"
    # absorbing keeps the absorbing report's own first failure
    other = SuiteReport("t")
    other.check("b", False, "x", "y", k=2, w="w")
    assert other.first_failure == "b at k=2, w='w': lhs='x' rhs='y'"
    rep.absorb(other)
    assert rep.failure[0] == "flag" and (rep.cases, rep.passed) == (4, 1)
    fresh = SuiteReport("u")
    fresh.absorb(other)
    assert fresh.failure == other.failure


def test_zero_table_zero_modes(table, Y):
    # grid-level injectivity implication: an all-zero table reconstructs
    # the zero operator on the whole stored grid
    zero = table.zeros_like()
    for w1 in [Y.source.highest()] + Y.source.basis(1):
        for l in range(3):
            for w2 in Y.right_input.basis(l):
                assert not yf_series(zero, w1, w2)


def test_reachability(table):
    gens = FockModule(0, level_cap=6).omega0_basis(2)
    for lam in (Q(0), Q(1, 2), Q(1)):
        M = FockModule(lam, level_cap=6)
        rep = reachability_closure(M, 2, gens)
        assert rep.ok
        repd = reachability_closure(M, 2, gens, dual=True)
        assert repd.ok
    # without generators nothing above the seed levels is reached
    M = FockModule(Q(1, 2), level_cap=6)
    rep = reachability_closure(M, 2, [ONE])
    assert not rep.ok


@pytest.mark.parametrize("dual", [False, True])
def test_reachability_skips_full_levels(monkeypatch, dual):
    from voamodes import correspondence
    from voamodes.heisenberg import partitions_of

    made = []

    class RecordingSpan(correspondence._Span):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(correspondence, "_Span", RecordingSpan)
    M = FockModule(Q(1, 2), level_cap=6)
    name = "theta_dual" if dual else "theta"
    inner = getattr(M, name)
    calls = []

    def theta(k, l, v, w):
        # one span per level, made in level order
        assert made[k].dim() < len(partitions_of(k)), (k, l)
        calls.append(k)
        return inner(k, l, v, w)

    setattr(M, name, theta)
    gens = FockModule(0, level_cap=6).omega0_basis(2)
    rep = reachability_closure(M, 1, gens, dual=dual)
    assert rep.ok and rep.cases == 7
    assert len(made) == 7 and calls and max(calls) == 6


def test_reachability_reports_an_unreached_level():
    # a module whose evaluation maps never land in level 3: the skip of
    # full levels must not hide the missing one
    class Blind(FockModule):
        def theta(self, k, l, v, w):
            return self.zero() if k == 3 else super().theta(k, l, v, w)

    gens = FockModule(0, level_cap=6).omega0_basis(2)
    rep = reachability_closure(Blind(Q(1, 2), level_cap=5), 1, gens)
    assert not rep.ok and rep.cases == 6
    assert rep.failure == ("reachability", {"level": 3}, 0, 3)
    assert rep.first_failure == "reachability at level=3: lhs=0 rhs=3"
    assert rep.passed == 5


def test_span_rows_stay_exact(monkeypatch):
    from voamodes import correspondence

    # integral coefficients: a plain c / lead would store the float 1.5
    span = correspondence._Span()
    assert span.add(FockVector(0, {(1, 1): 2, (2,): 3}))
    entry = span.rows[(1, 1)][(2,)]
    assert type(entry) is Q and entry == Q(3, 2)

    made = []

    class RecordingSpan(correspondence._Span):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(correspondence, "_Span", RecordingSpan)
    gens = FockModule(0, level_cap=6).omega0_basis(2)
    M = FockModule(Q(1), level_cap=4)
    assert reachability_closure(M, 1, gens, dual=True).ok
    entries = [c for s in made for row in s.rows.values() for c in row.values()]
    assert entries and all(isinstance(c, (int, Q)) for c in entries)
