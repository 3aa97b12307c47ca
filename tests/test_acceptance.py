"""Acceptance criteria, one test per criterion, all at exact tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The default desk scale is N = 2, L_max = 6, charges
{0, 1/2, 1}, algebra weights <= 3, p in [-2, 2]; every comparison is
exact rational equality.
"""

import json
from fractions import Fraction as Q
from pathlib import Path

import jsonschema
import pytest

from voamodes.cli import main
from voamodes.correspondence import (
    MapTable,
    certify_jacobi,
    certify_l1_derivative,
    yf_series,
)
from voamodes.fock import FockIntertwiner
from voamodes.heisenberg import FockVector, conformal_vector, vacuum
from voamodes.suites import RunConfig, run_suites

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "voamodes" / "schemas"
     / "report-v1.schema.json").read_text())


@pytest.fixture(scope="module")
def reports():
    cfg = RunConfig().validate()
    return {r.suite: r for r in run_suites(cfg)}


def conclude(num: int, title: str, ok: bool, note: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"ACCEPTANCE {num:>2}: {status}  {title}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {title}"


def test_criterion_01_homomorphism(reports):
    rep = reports["homomorphism"]
    conclude(1, "evaluation is an algebra homomorphism on every module",
             rep.ok and rep.cases >= 10_000,
             f"{rep.passed}/{rep.cases} exact")


def test_criterion_02_unit_and_quotient(reports):
    rep = reports["unit"]
    conclude(2, "identity matrix and off-diagonal unit coset identities",
             rep.ok, f"{rep.passed}/{rep.cases} exact")


def test_criterion_03_bimodule(reports):
    rep = reports["bimodule"]
    conclude(3, "evaluation commutes with both actions for three intertwiners",
             rep.ok, f"{rep.passed}/{rep.cases} exact")


def test_criterion_04_right_action_forms(reports):
    forms = reports["three-forms"]
    expl = reports["exp-L"]
    conclude(4, "three right-action forms agree; exp/(1+x) operator identity",
             forms.ok and expl.ok,
             f"forms {forms.passed}/{forms.cases}, "
             f"operator {expl.passed}/{expl.cases}")


def test_criterion_05_kernel_elements(reports):
    kern = reports["kernel"]
    om = reports["omega-commutators"]
    conclude(5, "Jacobi kernel elements evaluate to zero on the full grid",
             kern.ok and om.ok and kern.cases >= 1_000,
             f"kernel {kern.passed}/{kern.cases}, omega {om.passed}/{om.cases}")


def test_criterion_06_binomial_identity(reports):
    rep = reports["binomial-218"]
    # 0 <= q <= n <= 6 and k, l <= 4: 28 * 25 grid points
    conclude(6, "truncation binomial identity collapses to delta_{q,0}",
             rep.ok and rep.cases == 700, f"{rep.passed}/{rep.cases} exact")


def test_criterion_07_roundtrip_and_certification(reports):
    rt = reports["roundtrip"]
    jac = reports["jacobi-cert"]
    l1 = reports["L1-cert"]
    ok = rt.ok and jac.ok and l1.ok
    # direct corruption sensitivity on a compact table
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=6)
    f = MapTable.from_intertwiner(Y, 6, 4)
    bad = f.perturbed((0, 0, (), ()), f.target.highest())
    vs = [vacuum(), FockVector.basis(0, (1,)), conformal_vector()]
    w1s = f.source.omega0_basis(1)
    bad_jac = certify_jacobi(bad, vs, w1s, kmax=2, p_lo=-2, p_hi=2)
    bad_l1 = certify_l1_derivative(bad, w1s, w2_levels=2)
    detected = (not bad_jac.ok) or (not bad_l1.ok)
    conclude(7, "round trip exact; Jacobi and L(-1) certifiers pass and "
                "detect corruption",
             ok and detected,
             f"roundtrip {rt.passed}/{rt.cases}, jacobi {jac.passed}/{jac.cases}, "
             f"L1 {l1.passed}/{l1.cases}, corruption detected={detected}")


def test_criterion_08_injectivity_witnesses(reports):
    reach = reports["reachability"]
    Y = FockIntertwiner(Q(1, 2), Q(1, 2), level_cap=6)
    f = MapTable.from_intertwiner(Y, 2, 2)
    nonzero = not f.is_zero()
    zero = f.zeros_like()
    all_zero = all(
        not yf_series(zero, w1, w2)
        for w1 in f.source.omega0_basis(2)
        for w2 in f.right_input.omega0_basis(2))
    conclude(8, "nonzero table witness; zero table implies zero modes; "
                "bottom levels generate",
             nonzero and all_zero and reach.ok,
             f"reachability {reach.passed}/{reach.cases}")


def test_criterion_09_opposite_algebra(reports):
    rep = reports["opposite"]
    conclude(9, "exactly one sign satisfies the adjoint pairing; "
                "anti-homomorphism on 100 pairs",
             rep.ok and rep.cases >= 101, f"{rep.passed}/{rep.cases} exact")


def test_criterion_10_cli_contract(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a = main(["verify", "--json", str(a)])
    code_b = main(["verify", "--json", str(b)])
    payload = json.loads(a.read_text())
    jsonschema.validate(payload, SCHEMA)
    deterministic = a.read_bytes() == b.read_bytes()
    # tables and intertwiner outputs are byte-reproducible
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    targs = ["tables", "--target", "algebra", "--N", "1", "--max-v-weight", "2"]
    assert main([*targs, "--csv", str(t1)]) == 0
    assert main([*targs, "--csv", str(t2)]) == 0
    i1, i2 = tmp_path / "i1.json", tmp_path / "i2.json"
    iargs = ["intertwiner", "--l1", "1/2", "--l2", "1/2", "--N", "1"]
    assert main([*iargs, "--json", str(i1)]) == 0
    assert main([*iargs, "--json", str(i2)]) == 0
    reproducible = (t1.read_bytes() == t2.read_bytes()
                    and i1.read_bytes() == i2.read_bytes())
    conclude(10, "CLI exits 0 with schema-valid, byte-deterministic outputs",
             code_a == 0 and code_b == 0 and payload["pass"]
             and deterministic and reproducible)
