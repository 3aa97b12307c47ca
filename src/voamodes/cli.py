"""Command-line front end: verify / tables / intertwiner.

Exit codes: 0 all checks pass, 1 at least one suite failed, 2 bad
configuration, an unreadable/unwritable file or a stdout closed by its
reader, 3 the configured truncation bounds are too tight for a
requested computation; `main` alone maps errors to exit codes.  JSON
output is json.dumps(..., indent=2, sort_keys=True), byte-for-byte
deterministic for a fixed configuration and seed; timing goes to the
console only, on stderr when the JSON report goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .correspondence import MapTable
from .errors import TruncationOverflow
from .fock import FockIntertwiner, FockModule
from .heisenberg import FockVector
from .matrices import left_entry_sum, right_entry_conjugated
from .series import rat, rat_str
from .suites import ConfigError, RunConfig, SUITE_NAMES, algebra_basis, run_suites

REPORT_SCHEMA = "voa-modes-report/1"
TABLES_SCHEMA = "voa-modes-tables/1"
TABLE_COLUMNS = ("action", "charge", "k", "n", "l", "left", "right", "result",
                 "coeff")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3


def _parse_charges(text: str):
    return tuple(rat(part) for part in text.split(",") if part.strip())


def _parse_pair(text: str):
    bits = [b for b in text.replace("..", ",").split(",") if b.strip()]
    if len(bits) != 2:
        raise ConfigError(f"expected two integers, got {text!r}")
    return (int(bits[0]), int(bits[1]))


def _parse_names(value):
    # a config-file line is one comma-separated string; repeated --suite
    # flags arrive as a list
    names = value.split(",") if isinstance(value, str) else value
    return tuple(x.strip() for x in names if x.strip())


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' comments; rationals as p/q."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# config-file key, which is also the argparse dest of its flag ->
# (RunConfig field, parser of the value, the flag)
_OPTIONS = {
    "N": ("n", int, "--N"),
    "L_max": ("l_max", int, "--lmax"),
    "charges": ("charges", _parse_charges, "--charges"),
    "p_window": ("p_window", _parse_pair, None),
    "max_v_weight": ("max_v_weight", int, "--max-v-weight"),
    "suites": ("suites", _parse_names, "--suite"),
    "seed": ("seed", int, "--seed"),
}


def build_config(args) -> RunConfig:
    """RunConfig from the defaults, then the config file, then the flags."""
    settings = []
    if getattr(args, "config", None):
        settings = [(key, key, value)
                    for key, value in load_config_file(args.config).items()]
    settings += [(flag, key, getattr(args, key))
                 for key, (_, _, flag) in _OPTIONS.items()
                 if getattr(args, key, None) is not None]
    fields = {}
    for name, key, value in settings:
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        field, parse, _ = _OPTIONS[key]
        try:
            fields[field] = parse(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value for {name}: {value!r} ({exc})")
    return RunConfig(**fields).validate()


def _vec_json(vec: FockVector) -> dict:
    return {_partition_str(p): rat_str(c) for p, c in sorted(vec.terms.items())}


def _partition_str(p: tuple) -> str:
    return ",".join(str(x) for x in p)


def _output_error(path, reason) -> bool:
    print(f"output error: cannot write {path}: {reason}", file=sys.stderr)
    return False


def _writable(path) -> bool:
    """Whether path (None or '-' = stdout) can be opened for writing.

    Checked before any work, and it creates nothing.  Other write errors
    surface in _write_file.
    """
    if path is None or path == "-":
        return True
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        return _output_error(path, os.strerror(errno.ENOENT))
    if os.path.isdir(path):
        return _output_error(path, os.strerror(errno.EISDIR))
    return True


def _write_file(path, write, newline=None) -> bool:
    """Call write(fh) on path (None or '-' = stdout); an I/O error is one stderr line."""
    if path is None or path == "-":
        write(sys.stdout)
        return True
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        return _output_error(path, exc.strerror or exc)
    return True


def _dump_json(payload, path) -> bool:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _write_file(path, lambda fh: fh.write(text))


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = build_config(args)
    if not _writable(args.json):
        return EXIT_CONFIG

    # stdout carries nothing but the report when the report goes there
    console = sys.stderr if args.json == "-" else sys.stdout

    def echo(report):
        status = "PASS" if report.ok else "FAIL"
        line = (f"{report.suite:<20} {status}  cases={report.cases}"
                f"  [{report.wall_ms:.0f} ms]")
        print(line, file=console)
        if not report.ok:
            print(f"  first failure: {report.first_failure}", file=console)

    reports = run_suites(cfg, echo=echo)
    payload = {
        "schema": REPORT_SCHEMA,
        "config": cfg.echo(),
        "suites": [r.row() for r in reports],
        "pass": all(r.ok for r in reports),
    }
    if args.json is not None and not _dump_json(payload, args.json):
        return EXIT_CONFIG
    return EXIT_OK if payload["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    cfg = build_config(args)
    path = args.csv if args.csv is not None else args.json
    if not _writable(path):
        return EXIT_CONFIG
    entries = _table_entries(cfg, args.target)
    if args.csv is not None:
        ok = _write_file(path, lambda fh: _write_table_csv(fh, entries), newline="")
    else:
        ok = _write_file(path, lambda fh: _write_table_json(fh.write, cfg, args.target, entries))
    return EXIT_OK if ok else EXIT_CONFIG


def _table_entries(cfg: RunConfig, target: str):
    """(action, charge, k, n, l, left, right, entry) per entry, in row order.

    Both writers read them as they come; the charge and the two factor
    partitions are already rendered.  Each entry is computed once, by the
    memo-free builders: an entry memo would never be read back.  Each
    (w, v) block computes its right entries widest window first, k and l
    descending, so each right-action series is built once at k + l = 2N
    and read for every smaller window; rows go out in (k, n, l) order.
    """
    vb = [(v, _partition_str(next(iter(v.terms))))
          for v in algebra_basis(cfg.max_v_weight)]
    idx = range(cfg.n + 1)
    grid = [(k, n, l) for k in idx for n in idx for l in idx]
    if target == "algebra":
        for u, pu in vb:
            for v, pv in vb:
                for k, n, l in grid:
                    yield ("product", "0", k, n, l, pu, pv,
                           left_entry_sum(u, v, k, n, l))
        return
    widest_first = [(k, n, l) for k in reversed(idx) for n in idx
                    for l in reversed(idx)]
    for charge in cfg.charges:
        M = FockModule(charge, cfg.l_max)
        cs = rat_str(charge)
        for v, pv in vb:
            for lw in idx:
                for w in M.basis(lw):
                    pw = _partition_str(next(iter(w.terms)))
                    right = {knl: right_entry_conjugated(w, v, *knl)
                             for knl in widest_first}
                    for k, n, l in grid:
                        yield ("left", cs, k, n, l, pv, pw,
                               left_entry_sum(v, w, k, n, l))
                        yield ("right", cs, k, n, l, pw, pv, right[k, n, l])


def _write_table_csv(fh, entries) -> None:
    """The TABLE_COLUMNS header, then one row per term of each entry.

    Terms go out partitions sorted, and an entry with no terms writes no
    row.  A canonical coefficient is an int or a Fraction with
    denominator > 1, so csv.writer renders it as rat_str does.
    """
    parts: dict = {}
    writer = csv.writer(fh)
    writer.writerow(TABLE_COLUMNS)
    for action, charge, k, n, l, left, right, entry in entries:
        terms = sorted(entry.terms.items())
        for p, _ in terms:
            if p not in parts:
                parts[p] = _partition_str(p)
        writer.writerows([(action, charge, k, n, l, left, right, parts[p], c)
                          for p, c in terms])


def _write_table_json(write, cfg: RunConfig, target: str, entries) -> None:
    """The tables payload, written as _dump_json would write it, entry by entry.

    Each row object is laid out as json.dumps(indent=2, sort_keys=True)
    lays it out inside the "rows" list, keys sorted: action, charge,
    coeff, k, l, left, n, result, right.  One head/middle/tail template
    per entry holds its fixed fields; each term, partitions sorted, fills
    in its result and its canonical coefficient (digits, '-' and '/' only:
    no escapes), and each entry with terms is one write.  The top-level
    keys go out in sorted order: config, rows, schema, target.
    """
    enc = encode_basestring_ascii
    parts: dict = {}
    config = json.dumps(cfg.echo(), indent=2, sort_keys=True).replace("\n", "\n  ")
    write('{\n  "config": ' + config + ',\n  "rows": [')
    sep = "\n"
    for action, charge, k, n, l, left, right, entry in entries:
        terms = sorted(entry.terms.items())
        if not terms:
            continue
        for p, _ in terms:
            if p not in parts:
                parts[p] = enc(_partition_str(p))
        head = (f'    {{\n      "action": {enc(action)},\n'
                f'      "charge": {enc(charge)},\n      "coeff": "')
        middle = (f'",\n      "k": {k},\n      "l": {l},\n      "left": {enc(left)},'
                  f'\n      "n": {n},\n      "result": ')
        tail = f',\n      "right": {enc(right)}\n    }}'
        write(sep + ",\n".join([f"{head}{c}{middle}{parts[p]}{tail}" for p, c in terms]))
        sep = ",\n"
    # no rows: json.dumps prints an empty list as []
    write(("]" if sep == "\n" else "\n  ]")
          + f',\n  "schema": {enc(TABLES_SCHEMA)},\n  "target": {enc(target)}\n}}\n')


# ---------------------------------------------------------------------------
# intertwiner


def cmd_intertwiner(args) -> int:
    cfg = build_config(args)
    try:
        lam1, lam2 = rat(args.l1), rat(args.l2)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for --l1/--l2: {exc}") from None
    if not _writable(args.json):
        return EXIT_CONFIG
    Y = FockIntertwiner(lam1, lam2, cfg.l_max)
    table = MapTable.from_intertwiner(Y, cfg.n, cfg.l_max)
    entries = []
    for key in table.sorted_keys():
        k, l, nu, mu = key
        entries.append({
            "k": k,
            "l": l,
            "w1": _partition_str(nu),
            "w2": _partition_str(mu),
            "value": _vec_json(table.entries[key]),
        })
    payload = {
        "schema": "voa-modes-intertwiner/1",
        "lam1": rat_str(lam1),
        "lam2": rat_str(lam2),
        "lam3": rat_str(lam1 + lam2),
        "lowest_weights": {
            "h1": rat_str(lam1 * lam1 / 2),
            "h2": rat_str(lam2 * lam2 / 2),
            "h3": rat_str((lam1 + lam2) * (lam1 + lam2) / 2),
        },
        "h_shift": rat_str(Y.h_shift()),
        "leading_exponent": rat_str(lam1 * lam2),
        "N": cfg.n,
        "entries": entries,
    }
    return EXIT_OK if _dump_json(payload, args.json) else EXIT_CONFIG


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voa-modes",
        description="Exact verification of matrix-mode algebra identities "
                    "on free-boson Fock modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads
    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--N", type=int, help="matrix index bound")
        p.add_argument("--lmax", dest="L_max", metavar="LMAX", type=int,
                       help="level truncation bound")

    def grids(p):
        p.add_argument("--max-v-weight", dest="max_v_weight", type=int,
                       help="largest algebra weight in the grids")
        p.add_argument("--charges", help="comma-separated rational charges")

    pv = sub.add_parser("verify", help="run verification suites")
    common(pv)
    pv.add_argument("--seed", type=int, help="seed for randomized grids")
    grids(pv)
    pv.add_argument("--suite", dest="suites", action="append", choices=SUITE_NAMES,
                    help="run only the named suite (repeatable)")
    pv.add_argument("--json", help="write the JSON report here ('-' = stdout)")
    # runs are single-threaded; the flag stays, accepting only 1 and read by
    # nothing, solely because the benchmark's verify command line passes it
    pv.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("tables", help="emit structure-constant tables")
    common(pt)
    grids(pt)
    pt.add_argument("--target", required=True, choices=("algebra", "bimodule"))
    pt.add_argument("--json", help="JSON output path ('-' = stdout)")
    pt.add_argument("--csv", help="CSV output path ('-' = stdout; overrides --json)")
    pt.set_defaults(func=cmd_tables)

    pi = sub.add_parser("intertwiner", help="emit an intertwiner map table")
    common(pi)
    pi.add_argument("--l1", required=True, help="first charge, as p/q")
    pi.add_argument("--l2", required=True, help="second charge, as p/q")
    pi.add_argument("--json", help="JSON output path ('-' = stdout)")
    pi.set_defaults(func=cmd_intertwiner)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes only `-1`-like numbers as option values, so `--l2 -1/2`
    # is joined into `--l2=-1/2`
    for i in reversed(range(1, len(argv))):
        flag, tok = argv[i - 1], argv[i]
        if flag in ("--charges", "--l1", "--l2") and tok[:1] == "-" and tok[1:2].isdigit():
            argv[i - 1:i + 1] = [f"{flag}={tok}"]
    args = make_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        except TruncationOverflow as exc:
            print(f"truncation overflow: {exc}", file=sys.stderr)
            code = EXIT_TRUNCATION
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        print("output error: stdout was closed before the output was written",
              file=sys.stderr)
        return EXIT_CONFIG
    return code


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device.

    What the stream still buffers then goes nowhere at exit, instead of
    failing a second time on the closed pipe.  A stream with no file
    descriptor of its own is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
