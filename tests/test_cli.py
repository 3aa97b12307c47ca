import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import jsonschema
import pytest

from voamodes import cli, correspondence, heisenberg, matrices, suites
from voamodes.cli import (
    TABLE_COLUMNS,
    _dump_json,
    _write_table_csv,
    _write_table_json,
    main,
)
from voamodes.errors import TruncationOverflow
from voamodes.fock import FockModule
from voamodes.heisenberg import FockVector
from voamodes.series import rat_str
from voamodes.suites import (
    SUITE_NAMES,
    ConfigError,
    RunConfig,
    algebra_basis,
    run_suites,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "voamodes" / "schemas"
     / "report-v1.schema.json").read_text())

FAST = ["--suite", "binomial-218", "--suite", "unit", "--suite", "exp-L"]


def test_verify_fast_suites(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST, "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["pass"] is True
    names = [row["suite"] for row in payload["suites"]]
    assert names == ["binomial-218", "unit", "exp-L"]
    binom = payload["suites"][0]
    assert binom["cases_run"] >= 200
    assert binom["cases_run"] == binom["cases_passed"]
    console = capsys.readouterr().out
    assert "binomial-218" in console and "PASS" in console


def test_verify_deterministic_json(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", *FAST, "--json", str(a)]) == 0
    assert main(["verify", *FAST, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_validation_exit_codes(tmp_path, capsys):
    assert main(["verify", "--N", "7", "--lmax", "6"]) == 2
    assert main(["verify", "--lmax", "3"]) == 2
    capsys.readouterr()


def test_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# desk-scale run\n"
        "N = 1\n"
        "L_max = 5\n"
        "charges = 0, 1/2\n"
        "p_window = -1, 1\n"
        "suites = binomial-218\n"
        "seed = 9\n")
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfgfile), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["N"] == 1
    assert payload["config"]["charges"] == ["0", "1/2"]
    assert payload["config"]["seed"] == 9
    # CLI flags override the file
    assert main(["verify", "--config", str(cfgfile), "--N", "0",
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["N"] == 0


def test_wide_p_window_sweeps_only_recorded_points(tmp_path):
    # p below -l records nothing, so a window reaching far below zero
    # runs the same cases as p_window = 0, 0 and in the same time
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    counts = {}
    for lo in (-1_000_000_000, 0):
        cfgfile, out = tmp_path / f"{lo}.cfg", tmp_path / f"{lo}.json"
        cfgfile.write_text(f"p_window = {lo}, 0\n")
        subprocess.run([sys.executable, "-m", "voamodes.cli", "verify", "--N", "0",
                        "--suite", "kernel", "--suite", "jacobi-cert",
                        "--config", str(cfgfile), "--json", str(out)],
                       env=env, capture_output=True, check=True, timeout=30)
        counts[lo] = {row["suite"]: row["cases_run"]
                      for row in json.loads(out.read_text())["suites"]}
    assert counts[-1_000_000_000] == counts[0]


def test_kernel_window_above_lmax_is_a_truncation_overflow(tmp_path):
    # kernel reads module levels up to N + p_hi, so p_hi = 20 at N = 0 is
    # refused before any suite runs, as jacobi-cert refuses it;
    # omega-commutators reads level N + 1, so N = L_max = 4 is refused
    # before homomorphism (several seconds) runs
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text("p_window = 0, 20\n")
    for args in (["--N", "0", "--suite", "kernel", "--config", str(cfgfile)],
                 ["--N", "4", "--lmax", "4", "--suite", "homomorphism",
                  "--suite", "omega-commutators"]):
        got = subprocess.run([sys.executable, "-m", "voamodes.cli", "verify", *args],
                             env=env, capture_output=True, text=True, timeout=60)
        assert got.returncode == 3, args
        assert got.stdout == ""
        assert got.stderr.startswith("truncation overflow: ")
        assert got.stderr.count("\n") == 1
        assert "Traceback" not in got.stderr


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text("N 3\n")
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text("suites = not-a-suite\n")
    assert main(["verify", "--config", str(bad)]) == 2


@pytest.mark.parametrize("line", ["suites =\n", "suites = ,\n"])
def test_config_file_empty_suites(tmp_path, capsys, line):
    # an empty suite list would run nothing and report a vacuous pass
    cfgfile = tmp_path / "empty.cfg"
    cfgfile.write_text(line)
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfgfile), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: suites must name at least one suite"]
    assert not out.exists()


def test_duplicate_suites_flag(tmp_path, capsys):
    # a repeated suite would run twice and double-count cases_run
    out = tmp_path / "r.json"
    assert main(["verify", "--N", "0", "--suite", "binomial-218",
                 "--suite", "binomial-218", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: duplicate suites: binomial-218"]
    assert not out.exists()


def test_duplicate_suites_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "dup.cfg"
    cfgfile.write_text("N = 0\nsuites = exp-L, binomial-218, exp-L, binomial-218\n")
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfgfile), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: duplicate suites: exp-L, binomial-218"]
    assert not out.exists()


@pytest.mark.parametrize("charges", ["1/2,2/4,0.5", "1/2,1/2"])
def test_duplicate_charges_flag(tmp_path, capsys, charges):
    # equal charge values would run every case of that charge again
    out = tmp_path / "r.json"
    assert main(["verify", "--N", "0", f"--charges={charges}", "--suite", "unit",
                 "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: duplicate charges: 1/2"]
    assert not out.exists()


def test_duplicate_charges_tables(capsys):
    # tables would write every row of the repeated charge twice
    assert main(["tables", "--target", "bimodule", "--N", "0", "--max-v-weight", "1",
                 "--charges=1/2,1/2", "--csv", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: duplicate charges: 1/2"]


def test_duplicate_charges_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "dup.cfg"
    cfgfile.write_text("N = 0\ncharges = 0, 1/2, 2/4, 0/3, 1\nsuites = unit\n")
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfgfile), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: duplicate charges: 0, 1/2"]
    assert not out.exists()
    # distinct values still run
    assert main(["verify", "--config", str(cfgfile), "--charges=0,1/2",
                 "--json", str(out)]) == 0
    capsys.readouterr()


def test_truncation_exit_code(capsys):
    # the certification grid at N=2 needs index 6, beyond L_max=4
    code = main(["verify", "--lmax", "4", "--suite", "jacobi-cert"])
    assert code == 3
    capsys.readouterr()


def test_tables_algebra(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["tables", "--target", "algebra", "--N", "1", "--max-v-weight", "2"]
    assert main([*args, "--csv", str(a)]) == 0
    assert main([*args, "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "action,charge,k,n,l,left,right,result,coeff"
    # unit row: [1]_{00} . [1]_{00} = [1]_{00}
    assert "product,0,0,0,0,,,,1" in lines
    out = tmp_path / "a.json"
    assert main([*args, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "algebra"
    unit_rows = [r for r in payload["rows"]
                 if r["k"] == 0 and r["n"] == 0 and r["l"] == 0
                 and r["left"] == "" and r["right"] == ""]
    assert unit_rows == [{"action": "product", "charge": "0", "k": 0, "n": 0,
                          "l": 0, "left": "", "right": "", "result": "",
                          "coeff": "1"}]


def test_tables_csv_to_stdout(tmp_path, monkeypatch, capfdbinary):
    # '-' means stdout, as for --json; no file named '-' appears
    monkeypatch.chdir(tmp_path)
    args = ["tables", "--target", "algebra", "--N", "1", "--max-v-weight", "1"]
    assert main([*args, "--csv", "rows.csv"]) == 0
    capfdbinary.readouterr()
    assert main([*args, "--csv", "-"]) == 0
    out = capfdbinary.readouterr().out
    assert out.startswith(b"action,charge,k,n,l,left,right,result,coeff\r\n")
    assert out == (tmp_path / "rows.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


def test_tables_bimodule(tmp_path):
    out = tmp_path / "bim.json"
    args = ["tables", "--target", "bimodule", "--N", "1", "--max-v-weight", "2",
            "--charges", "1/2"]
    assert main([*args, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    actions = {r["action"] for r in payload["rows"]}
    assert actions == {"left", "right"}
    # unit action: [1]_{00} . [w]_{00} = [w]_{00} on the highest vector
    rows = [r for r in payload["rows"]
            if r["action"] == "left" and r["left"] == "" and r["right"] == ""
            and r["k"] == 0 and r["n"] == 0 and r["l"] == 0]
    assert rows[0]["result"] == "" and rows[0]["coeff"] == "1"


@pytest.mark.parametrize("argv", [
    ["--target", "algebra", "--N", "1"],
    ["--target", "bimodule", "--N", "1", "--charges=-1/2,1"],
], ids=["algebra", "bimodule"])
def test_tables_json_is_indented_dumps(argv, tmp_path):
    # the streamed rows against json.dumps, and against the CSV rows
    out, rows_csv = tmp_path / "t.json", tmp_path / "t.csv"
    assert main(["tables", *argv, "--json", str(out)]) == 0
    assert main(["tables", *argv, "--csv", str(rows_csv)]) == 0
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    # line lists compare like the texts, and a mismatch reports its first line
    # instead of a diff of the whole file
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert text.split("\n") == want.split("\n")
    with open(rows_csv, newline="", encoding="utf-8") as fh:
        header, *lines = csv.reader(fh)
    assert header == list(TABLE_COLUMNS)
    assert [[str(row[name]) for name in header] for row in payload["rows"]] == lines
    assert len(lines) > 100


# a vector whose terms cover the empty partition, a negative int and a
# Fraction, listed out of sorted order; and one with no terms
_TERMS = FockVector(Q(1, 2), {(3,): Q(-5, 4), (): 1, (2, 1): -3})
_NO_TERMS = FockVector(Q(1, 2))
_ESCAPED = [("left", "1/2", 0, 1, 2, "", "2,1", _TERMS),
            ("right", "1/2", 1, 1, 1, "1", "1", _NO_TERMS),
            ("a\"b\\\u00e9\n", "\n\u00e9\\\"", 10, 0, 7, "\u2603\"\\\n",
             "\\\n\"\u00e9", _TERMS)]


def _flat_rows(entries):
    """The TABLE_COLUMNS rows of the entries, every field a string."""
    return [(*fixed, ",".join(map(str, p)), rat_str(c))
            for *fixed, entry in entries for p, c in sorted(entry.terms.items())]


@pytest.mark.parametrize("entries", [[], _ESCAPED], ids=["empty", "escaped"])
def test_tables_json_rows_template(entries):
    # one template per entry; quote, backslash, non-ASCII and newline in
    # every string field still come out as json.dumps escapes them
    cfg = RunConfig(n=1, charges=(Q(1, 2),))
    chunks = []
    _write_table_json(chunks.append, cfg, "bimodule", iter(entries))
    payload = {"config": cfg.echo(), "schema": "voa-modes-tables/1",
               "target": "bimodule",
               "rows": [dict(zip(TABLE_COLUMNS, row)) for row in _flat_rows(entries)]}
    assert "".join(chunks) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # each entry with terms is one write
    frame = []
    _write_table_json(frame.append, cfg, "bimodule", iter([]))
    assert len(chunks) == len(frame) + sum(1 for *_, e in entries if e.terms)


@pytest.mark.parametrize("entries", [
    [],
    _ESCAPED,
    [("product", "0", 0, 0, 0, "a,b", "\"q\"\nr", _TERMS),
     ("product", "0", 0, 0, 1, "", "", _NO_TERMS)],
], ids=["empty", "escaped", "comma-quote-newline"])
def test_tables_csv_rows(entries):
    # the writer against csv.writer on the flattened string rows
    got, want = io.StringIO(), io.StringIO()
    _write_table_csv(got, iter(entries))
    writer = csv.writer(want)
    writer.writerow(TABLE_COLUMNS)
    writer.writerows(_flat_rows(entries))
    assert got.getvalue() == want.getvalue()


def test_tables_builds_each_series_once(tmp_path, monkeypatch, clear_caches):
    # widest window first: one conjugated series per (w, v) pair, read for
    # every (k, n, l) of its block, where an ascending order builds one
    # per k + l it meets
    clear_caches()
    series = matrices._conjugated_series
    build = series._build
    builds = []

    def counted(w, v, t_hi):
        builds.append((w, v))
        return build(w, v, t_hi)

    monkeypatch.setattr(series, "_build", counted)
    out = tmp_path / "t.json"
    assert main(["tables", "--target", "bimodule", "--N", "1", "--max-v-weight",
                 "2", "--charges=1/2", "--json", str(out)]) == 0
    M = FockModule(Q(1, 2), 6)
    pairs = {(w, v) for w in M.omega0_basis(1) for v in algebra_basis(2)}
    assert len(pairs) == 8
    assert Counter(builds) == Counter(pairs)


@pytest.mark.parametrize("target", ["algebra", "bimodule"])
@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_tables_keeps_no_entry_memo(target, fmt, tmp_path, clear_caches):
    # tables reads each entry once, so it leaves both entry memos empty
    clear_caches()
    out = tmp_path / "t.out"
    assert main(["tables", "--target", target, "--N", "1", fmt, str(out)]) == 0
    assert out.stat().st_size
    assert matrices._left_entry_cached.cache_info().currsize == 0
    assert matrices._right_entry_cached.cache_info().currsize == 0


def test_tables_check_no_level_cap(tmp_path):
    # residue entries are exact and uncapped: the windows reach k + l = 8,
    # past L_max = 4, and still no entry overflows
    out = tmp_path / "t.json"
    assert main(["tables", "--target", "bimodule", "--N", "4", "--lmax", "4",
                 "--max-v-weight", "1", "--charges=1/2", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["rows"]


def test_intertwiner_command(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["intertwiner", "--l1", "1/2", "--l2", "1/2", "--N", "1"]
    assert main([*args, "--json", str(a)]) == 0
    assert main([*args, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["h_shift"] == "-3/8"
    assert payload["leading_exponent"] == "1/4"
    lead = [e for e in payload["entries"]
            if e["k"] == 0 and e["l"] == 0 and e["w1"] == "" and e["w2"] == ""]
    assert lead[0]["value"] == {"": "1"}
    # level-1 slot carries the first descendant: (1/2) a(-1)|1>
    up = [e for e in payload["entries"]
          if e["k"] == 1 and e["l"] == 0 and e["w1"] == "" and e["w2"] == ""]
    assert up[0]["value"] == {"1": "1/2"}
    # zero first charge reduces to the module action table
    out = tmp_path / "zero.json"
    assert main(["intertwiner", "--l1", "0", "--l2", "1", "--N", "1",
                 "--json", str(out)]) == 0
    payload0 = json.loads(out.read_text())
    assert payload0["h_shift"] == "0"
    assert main(["intertwiner", "--l1", "x", "--l2", "1"]) == 2


def test_full_run_at_smaller_scale(tmp_path):
    # every suite also passes away from the default configuration
    out = tmp_path / "r.json"
    code = main(["verify", "--N", "1", "--lmax", "5", "--seed", "3",
                 "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["pass"] is True
    assert len(payload["suites"]) == 14


def test_results_independent_of_suite_order(clear_caches):
    # every suite at N=1, each order starting from empty caches, and the
    # forward order once more with every cache emptied as each suite ends
    def rows(order, echo=None):
        clear_caches()
        cfg = RunConfig(n=1, suites=tuple(order)).validate()
        return {r.suite: r.row() for r in run_suites(cfg, echo=echo)}

    forward = rows(SUITE_NAMES)
    assert list(forward) == list(SUITE_NAMES)
    assert rows(reversed(SUITE_NAMES)) == forward
    assert rows(SUITE_NAMES, echo=lambda report: clear_caches()) == forward


def test_clear_caches_empties_every_cache(clear_caches):
    # every module-level cache of the package: the lru_caches and the
    # series caches (each has cache_clear) and the engine dict.  The
    # charge intern table is left out: it is not a cache of results but
    # the one shared Fraction per charge value, already held by module
    # constants such as ALGEBRA_CHARGE, and it holds a handful of entries
    import importlib
    import pkgutil

    import voamodes
    from voamodes import heisenberg

    def sizes():
        out = {"heisenberg._EXPAND_CACHE": len(heisenberg._EXPAND_CACHE)}
        for info in pkgutil.iter_modules(voamodes.__path__, "voamodes."):
            for attr, obj in vars(importlib.import_module(info.name)).items():
                if hasattr(obj, "cache_clear") and not isinstance(obj, type):
                    name = f"{obj.__module__}.{obj.__qualname__}"
                    out[name] = (obj.cache_info().currsize if hasattr(obj, "cache_info")
                                 else len(obj._series))
        return out

    clear_caches()
    # opposite fills the one cache the other two suites leave empty
    assert main(["verify", "--N", "1", "--suite", "three-forms", "--suite", "kernel",
                 "--suite", "opposite"]) == 0
    filled = sizes()
    assert len(filled) == 13 and all(filled.values()), filled
    clear_caches()
    assert not any(sizes().values()), sizes()


def test_workers_flag_takes_only_one(tmp_path, capsys):
    # runs are single-threaded; verify keeps a --workers that accepts 1 only
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", *FAST, "--workers", "1", "--json", str(a)]) == 0
    assert main(["verify", *FAST, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for argv in (["verify", *FAST, "--workers", "2"],
                 ["tables", "--target", "algebra", "--workers", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\nsuites = binomial-218\n")
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key 'workers'" in _assert_one_line_error(capsys)


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(n=3, l_max=2).validate()
    with pytest.raises(ConfigError):
        RunConfig(p_window=(2, -2)).validate()
    with pytest.raises(ConfigError):
        RunConfig(suites=("nope",)).validate()
    with pytest.raises(ConfigError, match="duplicate suites: unit"):
        RunConfig(suites=("unit", "kernel", "unit")).validate()
    with pytest.raises(ConfigError, match="duplicate charges: 1/2, 1$"):
        RunConfig(charges=(Q(1, 2), Q(1), Q(2, 4), 1)).validate()
    assert RunConfig().validate().n == 2


def test_runconfig_is_immutable():
    cfg = RunConfig(n=1)
    with pytest.raises(AttributeError):
        cfg.n = 2
    with pytest.raises(AttributeError):
        cfg.extra = 0
    assert cfg.n == 1 and cfg.l_max == 6 and cfg.seed == 0


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # both cost start-up time on every command; neither is needed
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, voamodes.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    got = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert got.stdout == "[]\n"


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_charges_division_by_zero_exit_code(capsys):
    assert main(["verify", "--charges", "1/0", "--suite", "binomial-218"]) == 2
    assert "--charges" in _assert_one_line_error(capsys)


def test_charges_not_a_rational_exit_code(capsys):
    assert main(["verify", "--charges", "x", "--suite", "binomial-218"]) == 2
    assert "--charges" in _assert_one_line_error(capsys)


def test_empty_charges_flag_exit_code(capsys):
    for flag in ("--charges=,", "--charges="):
        assert main(["verify", flag, "--suite", "binomial-218"]) == 2
        assert "charges" in _assert_one_line_error(capsys)


def test_empty_charges_config_key_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("charges = ,\nsuites = binomial-218\n")
    assert main(["verify", "--config", str(cfgfile)]) == 2
    assert "charges" in _assert_one_line_error(capsys)


def test_missing_config_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["verify", "--config", str(missing)]) == 2
    assert str(missing) in _assert_one_line_error(capsys)


def test_unwritable_json_exit_code(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["verify", "--suite", "binomial-218", "--json", str(out)]) == 2
    assert str(out) in _assert_one_line_error(capsys)
    assert not out.exists()


def test_unwritable_csv_exit_code(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "rows.csv"
    assert main(["tables", "--target", "algebra", "--N", "0",
                 "--max-v-weight", "1", "--csv", str(out)]) == 2
    assert str(out) in _assert_one_line_error(capsys)
    assert not out.exists()


def test_missing_output_dir_fails_before_the_suites(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "--json", str(out)]) == 2
    # no suite ran: nothing was echoed to stdout
    assert capsys.readouterr() == (
        "", f"output error: cannot write {out}: No such file or directory\n")


def _no_work(*args):
    raise AssertionError("computed output that cannot be written")


def test_missing_output_dir_fails_before_the_tables(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_table_entries", _no_work)
    out = tmp_path / "missing" / "t.json"
    assert main(["tables", "--target", "bimodule", "--N", "2",
                 "--json", str(out)]) == 2
    assert f"cannot write {out}: " in _assert_one_line_error(capsys)


def test_directory_output_path_fails_before_the_intertwiner(tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.setattr(cli, "FockIntertwiner", _no_work)
    assert main(["intertwiner", "--l1", "1/2", "--l2", "1/2", "--N", "1",
                 "--json", str(tmp_path)]) == 2
    assert _assert_one_line_error(capsys) == \
        f"output error: cannot write {tmp_path}: Is a directory\n"


def _overflow(*args):
    raise TruncationOverflow("level above cap")


@pytest.mark.parametrize("argv, patch, code, prefix", [
    (["verify", "--N", "7", "--lmax", "6"], None, 2, "config error: "),
    (["tables", "--target", "algebra", "--N", "7", "--lmax", "6"], None, 2,
     "config error: "),
    (["intertwiner", "--l1", "1/2", "--l2", "1/2", "--N", "7", "--lmax", "6"],
     None, 2, "config error: "),
    (["verify", "--lmax", "4", "--suite", "jacobi-cert"], None, 3,
     "truncation overflow: "),
    # the small tables tried never overflow, so one entry is made to
    (["tables", "--target", "algebra", "--N", "0", "--max-v-weight", "1"],
     "left_entry_sum", 3, "truncation overflow: "),
    (["intertwiner", "--l1", "1/0", "--l2", "1/2"], None, 2, "config error: "),
], ids=["verify-config", "tables-config", "intertwiner-config",
        "verify-truncation", "tables-truncation", "intertwiner-charge"])
def test_exit_code_map(argv, patch, code, prefix, capsys, monkeypatch):
    # main maps each error to its exit code and one stderr line
    if patch:
        monkeypatch.setattr(cli, patch, _overflow)
    assert main(argv) == code
    assert _assert_one_line_error(capsys).startswith(prefix)


@pytest.mark.parametrize("suite, module, name, broken, first", [
    ("three-forms", suites, "right_entry_direct",
     lambda *args: matrices.right_entry_direct(*args).scale(2),
     "three forms at k=1, n=0, l=0, v=FockVector(0; 1*a[]), w=FockVector(0; 1*a[]):"
     " lhs=FockVector(0; 1*a[]) rhs=(FockVector(0; 2*a[]), FockVector(0; 1*a[]))"),
    ("opposite", suites, "opposite_map",
     lambda *args: matrices.opposite_map(*args).scale(-1),
     "adjoint identity (map, negative): lhs=(False, True) rhs=(True, False)"),
    ("unit", suites, "left_entry",
     lambda *args: matrices.left_entry(*args).scale(2),
     "[1]_{nn}.[v]_{nl} at n=0, l=0, v=FockVector(0; 1*a[]):"
     " lhs=FockVector(0; 2*a[]) rhs=FockVector(0; 1*a[])"),
    ("L1-cert", correspondence, "sugawara_l",
     lambda *args: heisenberg.sugawara_l(*args).scale(2),
     "L(-1) derivative at k=0, l=0, w1=FockVector(1/2; 1*a[]),"
     " w2=FockVector(1/2; 1*a[]): lhs=FockVector(1; 1/4*a[]) rhs=FockVector(1; 1/2*a[])"),
], ids=["three-forms-oracle", "opposite-sign", "unit-left-entry", "L1-cert-sugawara"])
def test_suites_fail_on_a_wrong_map(suite, module, name, broken, first, monkeypatch,
                                    capsys, tmp_path):
    # a wrong oracle entry, the opposite map with the other sign, a doubled
    # left entry or a doubled L(-1) fails its suite, which names the
    # sub-check and the case in its first failure, on the console and in
    # the report; the suite does not adopt the wrong sign
    monkeypatch.setattr(module, name, broken)
    out = tmp_path / "report.json"
    assert main(["verify", "--N", "1", "--suite", suite, "--json", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{suite:<20} FAIL")
    assert lines[1:] == [f"  first failure: {first}"]
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["pass"] is False
    assert payload["suites"][0]["first_failure"] == first


def test_other_errors_keep_their_traceback(monkeypatch):
    def broken(ctx):
        raise ValueError("a defect, not a bad input")

    monkeypatch.setitem(suites._SUITE_FUNCS, "unit", broken)
    with pytest.raises(ValueError, match="a defect"):
        main(["verify", "--suite", "unit"])


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "binomial-218", "--json", ""],
    ["tables", "--target", "algebra", "--N", "0", "--max-v-weight", "1",
     "--json", ""],
    ["tables", "--target", "algebra", "--N", "0", "--max-v-weight", "1",
     "--csv", ""],
    ["intertwiner", "--l1", "1/2", "--l2", "1/2", "--N", "1", "--json", ""],
], ids=["verify-json", "tables-json", "tables-csv", "intertwiner-json"])
def test_empty_output_path_exit_code(argv, capsys):
    assert main(argv) == 2
    assert _assert_one_line_error(capsys).startswith("output error: cannot write : ")


def test_dump_json_matches_indented_dumps(tmp_path):
    out = tmp_path / "payload.json"
    fixed = {"rows": [{"b": "\u00e9\u2603", "a": 1}, {}], "empty": [], "nest": [[], {}],
             "text": "line\nbreak"}
    assert _dump_json(fixed, str(out))
    assert out.read_text(encoding="utf-8") == \
        json.dumps(fixed, indent=2, sort_keys=True) + "\n"


def test_dump_json_to_stdout(capsys):
    payload = {"a": [1, {"b": []}], "c": "\u00fc"}
    assert _dump_json(payload, "-")
    assert capsys.readouterr().out == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_verify_json_to_stdout_is_the_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", *FAST, "--json", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", *FAST, "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == json.loads(out.read_text())
    assert captured.out == out.read_text()
    # the per-suite console lines move to stderr
    assert "binomial-218" in captured.err and "PASS" in captured.err


class _ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["tables", "--target", "algebra", "--N", "0", "--max-v-weight", "1",
     "--json", "-"],
    ["verify", "--suite", "binomial-218"],
    ["intertwiner", "--l1", "1/2", "--l2", "1/2", "--N", "1", "--json", "-"],
    ["tables", "--target", "algebra", "--N", "0", "--max-v-weight", "1",
     "--csv", "-"],
], ids=["tables-json", "verify-echo", "intertwiner-json", "tables-csv"])
def test_closed_stdout_exit_code(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(argv) == 2
    assert "stdout" in _assert_one_line_error(capsys)
