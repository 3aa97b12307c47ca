"""The three workloads: the command each seed runs, and its correctness gate.

A seed picks one of VARIANTS inputs (seed mod VARIANTS).  The variants of a
workload do about the same amount of work (the charges differ only in
sign; verify's program seeds are chosen for equal traced work), so runs
with different seeds are comparable.  `expected.json` holds, per
workload and variant, what a correct run produces: the sha256 of the
output file, the case count and, for `verify`, the per-suite `cases_run`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

VARIANTS = 4
EXPECTED = Path(__file__).with_name("expected.json")

# verify's seed draws the random sub-grids of four suites.  At N=1 a
# traced run of program seeds 0-11 falls into two cost groups: 243.5k-244.4k
# layer calls with 1,120-1,125 engine expansions, or 275k-307k calls with
# 1,264-1,419.  These four agree within 0.2 %, so every benchmark seed
# does the same work.
VERIFY_SEEDS = (1, 4, 5, 9)
INTERTWINER_CHARGES = (("1/2", "1"), ("1/2", "-1"), ("-1/2", "1"), ("-1/2", "-1"))
TABLE_CHARGES = ("0,1/2,1", "0,-1/2,-1", "0,1/2,-1", "0,-1/2,1")


def variant(seed: int) -> int:
    return seed % VARIANTS


def command(workload: str, var: int, out: Path) -> list:
    """The voa-modes arguments of one run; the output goes to `out`."""
    if workload == "verify-desk":
        return ["verify", "--N", "1", "--workers", "1",
                "--seed", str(VERIFY_SEEDS[var]), "--json", str(out)]
    if workload == "intertwiner-rho":
        l1, l2 = INTERTWINER_CHARGES[var]
        return ["intertwiner", "--N", "4", "--lmax", "8", f"--l1={l1}",
                f"--l2={l2}", "--json", str(out)]
    if workload == "tables-bimodule":
        return ["tables", "--target", "bimodule", "--N", "2",
                f"--charges={TABLE_CHARGES[var]}", "--json", str(out)]
    raise KeyError(workload)


WORKLOADS = ("verify-desk", "intertwiner-rho", "tables-bimodule")


def observe(workload: str, returncode: int, out: Path) -> dict:
    """What a run produced, in the shape stored in expected.json."""
    if returncode != 0 or not out.exists():
        return {"returncode": returncode}
    data = out.read_bytes()
    got = {"returncode": 0, "sha256": hashlib.sha256(data).hexdigest()}
    if workload == "tables-bimodule":
        # one row object per emitted structure constant; ~35 MB, not parsed
        got["cases"] = data.count(b'"action": ')
        return got
    payload = json.loads(data)
    if workload == "verify-desk":
        got["pass"] = payload["pass"]
        got["suites"] = {s["suite"]: s["cases_run"] for s in payload["suites"]}
        got["cases"] = sum(got["suites"].values())
    else:
        got["cases"] = len(payload["entries"])
    return got


def gate(got: dict, want: dict) -> str | None:
    """None if the run matches the recorded output, else the reason it fails."""
    if got.get("returncode") != 0:
        return f"exit code {got.get('returncode')}"
    if got.get("pass") is False:
        return "report says pass: false"
    for key in ("suites", "cases", "sha256"):
        if got.get(key) != want.get(key):
            return f"{key} differs from the recorded value"
    return None


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)
