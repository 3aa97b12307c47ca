"""The two-way dictionary between intertwiners and module-map tables.

A map table is the finite data of a module map out of the tensor
product: its values on generators [w1]_{kl} (x) w2 with w2 of level l.
`MapTable.from_intertwiner` backs a table with an intertwiner, whose
theta gives each generator's value the first time the table is read
there; the certifiers read a small part of the grid, and a reader of the
whole grid (`entries`) completes it first.  The inverse direction reads
the table entries as the modes of a reconstructed operator and
assembles its series.
Certification checks the residue-level Jacobi identity and the
L(-1)-derivative property of the reconstruction directly on the table,
and the round trip lands back on the table entry by entry.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OutOfTable, TruncationOverflow
from .fock import FockIntertwiner, FockModule
from .heisenberg import (
    FockVector,
    _add_into,
    _canon,
    _trusted_vector,
    intern_charge,
    partitions_of,
    same_charge,
    sugawara_l,
    weight_of,
    zero_vector,
)
from .matrices import jacobi_sums
from .series import rat, rat_str

Q = Fraction


class MapTable:
    """Values of a module map on the generator grid.

    entries[(k, l, nu, mu)] is the image of [a(-nu)|q1>]_{kl} (x) a(-mu)|q2>
    (mu a partition of l), a vector of level k in the target module; the
    zero images are absent.

    A table built by `from_intertwiner` fills on first read: `value`
    evaluates a generator the first time it needs it and keeps the
    result, a zero included, so no generator is evaluated twice.  The
    readers of the whole grid (`entries`, `sorted_keys`, `scale`,
    `is_zero`, repr) complete it first, so they see every entry.
    """

    def __init__(self, lam1, lam2, kmax: int, w1_levels: int, entries: dict,
                 level_cap: int):
        self.lam1 = intern_charge(lam1)
        self.lam2 = intern_charge(lam2)
        self.lam3 = intern_charge(self.lam1 + self.lam2)
        self.kmax = int(kmax)
        self.w1_levels = int(w1_levels)
        self.level_cap = int(level_cap)
        self._entries = dict(entries)
        # the intertwiner behind the generators not read yet, and their keys
        self._Y = None
        self._pending: set = set()
        self.source = FockModule(self.lam1, level_cap)
        self.right_input = FockModule(self.lam2, level_cap)
        self.target = FockModule(self.lam3, level_cap)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_intertwiner(cls, Y: FockIntertwiner, kmax: int,
                         w1_levels: int) -> "MapTable":
        """The table of Y.theta on the generator grid, filled on first read.

        The grid holds k, l <= kmax and first-slot levels <= w1_levels.
        Its target levels must lie within Y's cap, which is checked here,
        so reading the table cannot overflow later.
        """
        if kmax > Y.level_cap:
            raise TruncationOverflow(f"target level {kmax} above cap {Y.level_cap}")
        table = cls(Y.lam1, Y.lam2, kmax, w1_levels, {}, Y.level_cap)
        table._Y = Y
        nus = [nu for a in range(w1_levels + 1) for nu in partitions_of(a)]
        table._pending = {(k, l, nu, mu) for k in range(kmax + 1)
                          for l in range(kmax + 1) for mu in partitions_of(l)
                          for nu in nus}
        return table

    def _fill(self, key):
        """Evaluate one pending generator and keep it; None when it is zero."""
        k, l, nu, mu = key
        val = self._Y.theta(k, l, FockVector.basis(self.lam1, nu),
                            FockVector.basis(self.lam2, mu))
        if val.is_zero():
            val = None
        else:
            self._entries[key] = val
        self._pending.discard(key)
        return val

    @property
    def entries(self) -> dict:
        """Every nonzero generator value, keyed by (k, l, nu, mu)."""
        for key in list(self._pending):
            self._fill(key)
        return self._entries

    def scale(self, s) -> "MapTable":
        s = rat(s)
        return MapTable(self.lam1, self.lam2, self.kmax, self.w1_levels,
                        {key: vec.scale(s) for key, vec in self.entries.items()},
                        self.level_cap)

    def zeros_like(self) -> "MapTable":
        return MapTable(self.lam1, self.lam2, self.kmax, self.w1_levels, {},
                        self.level_cap)

    def perturbed(self, key, delta: FockVector) -> "MapTable":
        """A copy with one entry shifted; for sensitivity tests.

        The copy fills on first read from the same intertwiner, into its
        own entries, and leaves this table as it is.
        """
        if key in self._pending:
            self._fill(key)
        out = dict(self._entries)
        cur = out.get(key, zero_vector(self.lam3))
        out[key] = cur + delta
        copy = MapTable(self.lam1, self.lam2, self.kmax, self.w1_levels, out,
                        self.level_cap)
        copy._Y = self._Y
        copy._pending = set(self._pending)
        return copy

    # -- lookup ---------------------------------------------------------------

    def value(self, k: int, l: int, w1: FockVector, w2: FockVector) -> FockVector:
        """Bilinear extension of the stored generators.

        w2 components off level l contribute zero (the generator grid is
        exhaustive in that direction); w1 components above the stored
        level bound are genuinely unknown and raise OutOfTable.
        """
        if not (same_charge(w1.charge, self.lam1) and same_charge(w2.charge, self.lam2)):
            raise ValueError("map tables take (source, right input) vectors")
        if not (0 <= k <= self.kmax and 0 <= l <= self.kmax):
            raise OutOfTable(f"indices ({k},{l}) outside the stored grid")
        w2_l = [(mu, c2) for mu, c2 in w2.terms.items() if sum(mu) == l]
        out: dict = {}
        if w2_l:
            entries, pending = self._entries, self._pending
            for nu, c1 in w1.terms.items():
                if sum(nu) > self.w1_levels:
                    raise OutOfTable(
                        f"first-slot level {sum(nu)} beyond stored bound {self.w1_levels}")
                for mu, c2 in w2_l:
                    key = (k, l, nu, mu)
                    vec = entries.get(key)
                    if vec is None and key in pending:
                        vec = self._fill(key)
                    if vec is not None:
                        _add_into(out, vec.terms, c1 * c2)
        return _trusted_vector(self.lam3, out)

    def is_zero(self) -> bool:
        return not self.entries

    def sorted_keys(self):
        return sorted(self.entries)

    def __repr__(self):
        return (f"MapTable({rat_str(self.lam1)},{rat_str(self.lam2)}; "
                f"kmax={self.kmax}, {len(self.entries)} entries)")


# ---------------------------------------------------------------------------
# the reconstructed operator


def yf_series(f: MapTable, w1: FockVector, w2: FockVector) -> dict:
    """The reconstructed operator's series on w1 (x) w2: {exponent: nonzero vector}.

    L(0) is semisimple, so the series has no log x terms: it is
    sum_k f([w1]_{kl} (x) w2) x^(h3-h2-l+k-wt w1) over each level l of w2,
    every exponent the table knows.
    """
    shift = f.target.h - f.right_input.h
    out: dict = {}
    for a in w1.levels():
        w1_a = w1.level_component(a)
        wt1 = f.source.h + a
        for l in w2.levels():
            w2_l = w2.level_component(l)
            for k in range(f.kmax + 1):
                e = shift - l + k - wt1
                val = f.value(k, l, w1_a, w2_l)
                if val.is_zero():
                    continue
                out[e] = out[e] + val if e in out else val
    # contributions from different levels of w1 and w2 can cancel
    return {e: vec for e, vec in out.items() if not vec.is_zero()}


# ---------------------------------------------------------------------------
# certification


class SuiteReport:
    """Outcome of a sweep: exact counts plus the first failure as recorded.

    A certifier's report can be absorbed into a suite's; the failure
    detail (a string or structured data) is rendered with str() only in
    the report row.
    """

    __slots__ = ("suite", "cases", "passed", "first_failure", "wall_ms")

    def __init__(self, suite: str):
        self.suite = suite
        self.cases = 0
        self.passed = 0
        self.first_failure = None
        self.wall_ms = 0.0

    def record(self, ok: bool, detail) -> None:
        self.cases += 1
        if ok:
            self.passed += 1
        elif self.first_failure is None:
            self.first_failure = detail() if callable(detail) else detail

    def absorb(self, other: "SuiteReport") -> None:
        self.cases += other.cases
        self.passed += other.passed
        if self.first_failure is None:
            self.first_failure = other.first_failure

    @property
    def ok(self) -> bool:
        return self.cases == self.passed

    def row(self) -> dict:
        failure = self.first_failure
        return {
            "suite": self.suite,
            "cases_run": self.cases,
            "cases_passed": self.passed,
            "first_failure": None if failure is None else str(failure),
        }


def jacobi_points(f: MapTable, v_list, w1_list, kmax: int, p_lo: int, p_hi: int):
    """Yield (holds, detail) per grid point of the coefficient-extracted Jacobi identity.

    For every grid point (k, l, n <= kmax; p in [p_lo, p_hi]; homogeneous v;
    w1 from w1_list; w2 over the level-(l+p) basis):

      sum_j (-1)^j C(p,j) theta3(k, n+p-j, v, f(n+p-j, l+p, w1, w2))
      = sum_j (-1)^(p-j) C(p,j) f(k, q_j, w1, theta2(q_j, l+p, v, w2))
        + sum_j C(wt v + n - k - 1, j) f(k, l+p, (Y)_{p+j}(v) w1, w2)

    with q_j = l-n+k+p-j and all sums index-guarded.  `detail()` renders
    the point.  The points are computed as they are consumed, so a reader
    looking for one failure stops at it.

    Each image in these sums depends on its own indices, not on the loops
    around it, so it is evaluated once per call: theta2(q, L, v, w2) per v,
    keyed on (q, L, partition of w2); (Y)_i(v) w1 per (v, w1), keyed on i;
    and each summand's image per (v, w1), keyed on its indices and the
    partition of w2.  Small integers and partitions hash faster than
    vectors.
    """
    W1, W2, W3 = f.source, f.right_input, f.target
    for v in v_list:
        hv = weight_of(v)
        if hv.denominator != 1:
            raise ValueError("algebra vectors have integer weight")
        hv = int(hv)
        theta2: dict = {}
        for w1 in w1_list:
            lev1 = w1.level()
            # theta2 is shared by every w1; then (Y)_i(v) w1 by i, and the
            # summand images of the three sums by (k, index, L, mu)
            memo = (theta2, {}, {}, {}, {})
            for k in range(kmax + 1):
                for l in range(kmax + 1):
                    for n in range(kmax + 1):
                        for p in range(p_lo, p_hi + 1):
                            if l + p < 0:
                                continue
                            for w2 in W2.basis(l + p):
                                yield _jacobi_point(f, W1, W2, W3, memo, v, hv,
                                                    w1, lev1, w2, k, l, n, p)


def certify_jacobi(f: MapTable, v_list, w1_list, kmax: int, p_lo: int,
                   p_hi: int) -> SuiteReport:
    """Tally of `jacobi_points` over the whole grid."""
    report = SuiteReport("jacobi")
    for holds, detail in jacobi_points(f, v_list, w1_list, kmax, p_lo, p_hi):
        report.record(holds, detail)
    return report


def _jacobi_point(f, W1, W2, W3, memo, v, hv, w1, lev1, w2, k, l, n, p):
    theta2, shifted, left_images, right_images, mode_images = memo
    L = l + p
    (mu,) = w2.terms
    left, right, modes = jacobi_sums(k, l, n, p, hv, lev1)
    lhs: dict = {}
    for mid, c in left:
        img = left_images.get((k, mid, L, mu))
        if img is None:
            img = left_images[(k, mid, L, mu)] = W3.theta(
                k, mid, v, f.value(mid, L, w1, w2)).terms
        _add_into(lhs, img, c)
    rhs: dict = {}
    for q, c in right:
        img = right_images.get((k, q, L, mu))
        if img is None:
            inner = theta2.get((q, L, mu))
            if inner is None:
                inner = theta2[(q, L, mu)] = W2.theta(q, L, v, w2)
            img = right_images[(k, q, L, mu)] = f.value(k, q, w1, inner).terms
        _add_into(rhs, img, c)
    for i, c in modes:
        img = mode_images.get((k, i, L, mu))
        if img is None:
            y_i = shifted.get(i)
            if y_i is None:
                y_i = shifted[i] = W1.mode(v, i, w1)
            img = mode_images[(k, i, L, mu)] = (
                f.value(k, L, y_i, w2).terms if y_i.terms else {})
        _add_into(rhs, img, c)
    lhs = _trusted_vector(f.lam3, lhs)
    rhs = _trusted_vector(f.lam3, rhs)
    return lhs == rhs, lambda: {
        "point": {"k": k, "l": l, "n": n, "p": p},
        "v": repr(v), "w1": repr(w1), "w2": repr(w2),
        "lhs": repr(lhs), "rhs": repr(rhs)}


def certify_l1_derivative(f: MapTable, w1_list, w2_levels: int) -> SuiteReport:
    """d/dx of the reconstructed series against the L(-1)-shifted table.

    Per slot k the series coefficient sits at exponent e_k; the identity
    reads e_k * f(k, l, w1, w2) = f(k, l, L(-1) w1, w2) for every k.
    """
    report = SuiteReport("l1-derivative")
    shift = f.target.h - f.right_input.h
    for w1 in w1_list:
        lev1 = w1.level()
        wt1 = f.source.h + lev1
        lw1 = sugawara_l(-1, w1)
        for l in range(min(w2_levels, f.kmax) + 1):
            for w2 in f.right_input.basis(l):
                for k in range(f.kmax + 1):
                    e = shift - l + k - wt1
                    lhs = f.value(k, l, w1, w2).scale(e)
                    rhs = f.value(k, l, lw1, w2)
                    ok = lhs == rhs
                    report.record(ok, lambda: {
                        "point": {"k": k, "l": l}, "w1": repr(w1),
                        "w2": repr(w2), "d/dx": repr(lhs), "shifted": repr(rhs)})
    return report


def roundtrip(f: MapTable) -> SuiteReport:
    """Entry-exact comparison of the table with the map of its reconstruction.

    The evaluation map of the reconstructed operator extracts, per slot,
    the series coefficient at the slot's exponent; the report certifies
    it reproduces every stored entry.
    """
    report = SuiteReport("roundtrip")
    shift = f.target.h - f.right_input.h
    series: dict = {}  # (nu, mu) -> yf_series on the two basis vectors
    for key in f.sorted_keys():
        k, l, nu, mu = key
        ser = series.get((nu, mu))
        if ser is None:
            ser = series[(nu, mu)] = yf_series(
                f, FockVector.basis(f.lam1, nu), FockVector.basis(f.lam2, mu))
        wt1 = f.source.h + sum(nu)
        e = shift - l + k - wt1
        got = ser.get(e) or f.target.zero()
        expect = f.entries[key]
        report.record(got == expect, lambda: {
            "entry": {"k": k, "l": l, "w1": list(nu), "w2": list(mu)},
            "reconstructed": repr(got), "stored": repr(expect)})
    return report


# ---------------------------------------------------------------------------
# reachability (generation from the bottom levels)


class _Span:
    """Row space over Q of partition-keyed vectors, per level."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, vec: FockVector) -> bool:
        terms = dict(vec.terms)
        for pivot, row in self.rows.items():
            c = terms.get(pivot)
            if c:
                for p, rc in row.items():
                    cur = terms.get(p, 0) - c * rc
                    if cur == 0:
                        terms.pop(p, None)
                    else:
                        terms[p] = cur
        if not terms:
            return False
        pivot = min(terms)
        lead = terms[pivot]
        # coefficients may be ints, and int / int is a float
        self.rows[pivot] = terms if lead == 1 else {
            p: _canon(Q(c) / lead) for p, c in terms.items()}
        return True

    def dim(self) -> int:
        return len(self.rows)


def reachability_closure(module: FockModule, n: int, generators,
                         dual: bool = False) -> SuiteReport:
    """Check the bottom levels generate everything below the cap.

    Starting from the levels 0..n, repeatedly applies the evaluation maps
    of single-entry matrices over the given algebra vectors and verifies
    the span reaches the full basis of every level up to the module cap.
    A level whose span already has a row per basis vector is not
    evaluated into: a full span rejects every vector, so such an image
    could neither grow a span nor join the frontier, and the recorded
    dimensions are those of the exhaustive closure.
    """
    report = SuiteReport("reachability")
    cap = module.level_cap
    theta = module.theta_dual if dual else module.theta
    spans = {lev: _Span() for lev in range(cap + 1)}
    full = {lev: len(partitions_of(lev)) for lev in range(cap + 1)}
    frontier = []
    for lev in range(min(n, cap) + 1):
        for b in module.basis(lev):
            if spans[lev].add(b):
                frontier.append(b)
    while frontier:
        new_frontier = []
        for w in frontier:
            l = w.level()
            for v in generators:
                for k in range(cap + 1):
                    if spans[k].dim() == full[k]:
                        continue
                    image = theta(k, l, v, w)
                    if image.is_zero():
                        continue
                    if spans[k].add(image):
                        new_frontier.append(image)
        frontier = new_frontier
    for lev in range(cap + 1):
        want = full[lev]
        got = spans[lev].dim()
        report.record(got == want, lambda: {
            "level": lev, "reached": got, "basis": want})
    return report
