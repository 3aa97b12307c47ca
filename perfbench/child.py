"""One cold voa-modes process, started by run.py.

    python3 child.py STAMP TRACE -- ARGS...

Imports the package, writes the monotonic clock at the first call into
`voamodes.cli.main` to STAMP, then runs `main(ARGS)` and exits with its
code.  ARGS `--setup-only` stops right after the stamp.  TRACE is `-`
for an untraced run, else the file the traced run's spans go to.
"""

import sys
import time


def main():
    stamp_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STAMP TRACE -- ARGS...")
    import voamodes.cli as cli

    rec = None
    if trace_path != "-":
        import tracer
        rec = tracer.install()
    entered = time.monotonic()
    with open(stamp_path, "w", encoding="utf-8") as fh:
        fh.write(repr(entered))
    if argv == ["--setup-only"]:
        return 0
    try:
        return cli.main(argv)
    finally:
        if rec is not None:
            tracer.dump(rec, trace_path)


if __name__ == "__main__":
    sys.exit(main())
