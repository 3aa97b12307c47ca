"""voa-modes benchmark: cold-process CLI workloads, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --check
    python3 perfbench/run.py --workload NAME --record

Run from the root of a checkout.  Every run starts a fresh interpreter
on `src/` (PYTHONPATH=src, bytecode compiled once beforehand under
.bench_build/, no `__pycache__` written under src/) and runs one
voa-modes command, whose output is checked against expected.json.

`--trace 0` runs the command back to back for about S seconds and
prints the end-to-end metrics;
`--trace 1` runs the command once untraced and once with the layers
wrapped by tracer.py and prints the per-layer metrics; `--check` runs
once and only checks the output; `--record` runs every input variant of
the workload once and stores its outputs in expected.json.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

sys.dont_write_bytecode = True  # the parent leaves no __pycache__ in perfbench/
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 6        # set-up-only processes before the first command
PROBES_PER_COMMAND = 2  # and after every command
PROBE_GAP_S = 0.05      # pause before each probe


# one child process; setup_s is None if it never reached cli.main
Sample = namedtuple("Sample", "wall_s cpu_s peak_rss_mb returncode setup_s")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
               PYTHONHASHSEED="0")
    return env


def build() -> None:
    """Byte-compile the package and the benchmark once, outside any timing."""
    WORK.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def spawn(args, trace="-") -> Sample:
    """Run child.py in a fresh interpreter; wall, CPU and RSS from wait4."""
    stamp = WORK / "stamp"
    stamp.unlink(missing_ok=True)
    with open(WORK / "child.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(stamp), trace, "--", *args],
            env=child_env(), cwd=ROOT, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.exists() else None
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, setup)


def run_once(name: str, var: int, trace="-"):
    """One run of a workload variant: (Sample, observed output)."""
    out = WORK / "output.json"
    out.unlink(missing_ok=True)
    sample = spawn(workloads.command(name, var, out), trace)
    return sample, workloads.observe(name, sample.returncode, out)


def setup_probes(count):
    """Set-up times of processes that stop at the first call into cli.main."""
    out = []
    for _ in range(count):
        time.sleep(PROBE_GAP_S)
        out.append(spawn(["--setup-only"]).setup_s)
    return out


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def host_line() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"loadavg {load}")


def emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# modes


def timed(name, var, want, seconds) -> bool:
    """Commands back to back for about `seconds`.

    Set-up-only probes run before the first command and after every
    command, so they sample the same host phases as the commands.
    """
    start = time.monotonic()
    probes = setup_probes(SETUP_PROBES)
    samples, failed = [], 0
    while True:
        sample, got = run_once(name, var)
        samples.append(sample)
        reason = workloads.gate(got, want)
        if reason:
            failed += 1
            print(f"run {len(samples)} FAILED: {reason}")
        probes += setup_probes(PROBES_PER_COMMAND)
        # stop when the next command would end past `seconds`
        typical = statistics.median(s.wall_s for s in samples)
        if time.monotonic() - start + typical > seconds:
            break
    # a child that never reached cli.main has no set-up time; its run fails
    setups = [x for x in probes + [s.setup_s for s in samples] if x is not None]
    metrics = end_to_end(samples, setups)
    cases, runs = want["cases"], len(samples)
    print(f"fail_frac    {failed * cases}/{runs * cases} = {failed / runs:.4f}")
    print(f"measured {time.monotonic() - start:.1f} s: {runs} commands, "
          f"{len(setups) - runs} set-up probes")
    print(host_line())
    emit(failed == 0, runs * cases, failed * cases, metrics)
    return failed == 0


def end_to_end(samples, setups) -> dict:
    """Median of each metric over the commands (setup_s: over `setups`);
    prints each with its quartiles, minimum and sample count."""
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    series = {key: [getattr(s, key) for s in samples] for key in units}
    series["setup_s"] = setups or [0.0]
    metrics = {}
    for key, unit in units.items():
        q1, med, q3 = quartiles(series[key])
        metrics[key] = {"value": med, "unit": unit}
        print(f"{key:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"min {min(series[key]):.4f}  (n={len(series[key])})")
    return metrics


def traced(name, var, want) -> bool:
    plain, got_plain = run_once(name, var)
    spans = WORK / "spans.pickle"
    spans.unlink(missing_ok=True)
    sample, got = run_once(name, var, trace=str(spans))
    reasons = {"untraced": workloads.gate(got_plain, want),
               "traced": workloads.gate(got, want)}
    problems = [f"{run}: {r}" for run, r in reasons.items() if r]
    metrics = {}
    if spans.exists():
        with open(spans, "rb") as fh:
            metrics = layer_metrics(pickle.load(fh))
        problems += [f"{k} exceeds the traced wall time" for k, m in metrics.items()
                     if k.endswith("self_s") and m["value"] > sample.wall_s]
    else:
        problems.append("the traced run wrote no spans")
    metrics["trace.wall_s"] = {"value": sample.wall_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": sample.wall_s - plain.wall_s, "unit": "s"}
    for key, m in metrics.items():
        print(f"{key:<48} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"FAILED: {p}")
    print(host_line())
    failed_runs = sum(1 for r in reasons.values() if r)
    emit(not problems, 2 * want["cases"], failed_runs * want["cases"], metrics)
    return not problems


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from the traced child's spans and counters."""
    names = trace["names"]
    calls, total, own = tracer.self_times(len(names), trace["layer"],
                                          trace["parent"], trace["start"],
                                          trace["end"])
    extras = trace["extras"]
    by = {n: (calls[i], total[i], own[i]) for i, n in enumerate(names)}

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for name, (n, tot, self_s) in by.items():
        if name.startswith("suites."):
            key = "suites.cert_table_s" if name == "suites.cert_table" \
                else f"{name}.wall_s"
            out[key] = {"value": tot, "unit": "s"}
        elif name == "cli.cmd_tables":
            out["cli.cmd_tables.self_s"] = {"value": self_s, "unit": "s"}
        else:
            out[f"{name}.calls"] = {"value": n, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name, distinct in extras["distinct"].items():
        out[f"{name}.distinct_frac"] = {
            "value": frac(distinct, by[name][0]), "unit": "ratio"}
    for name, (hits, misses) in extras["cache_info"].items():
        out[f"{name}.hit_frac"] = {"value": frac(hits, hits + misses),
                                   "unit": "ratio"}
    for name, zeros in extras["zero"].items():
        out[f"{name}.zero_frac"] = {"value": frac(zeros, by[name][0]),
                                    "unit": "ratio"}
    out["heisenberg.expand_pair.cold"] = {
        "value": frac(extras["expand_cache_growth"],
                      by["heisenberg.expand_pair"][0]), "unit": "ratio"}
    return out


def check(name, var, want) -> bool:
    sample, got = run_once(name, var)
    reason = workloads.gate(got, want)
    print(f"{name} variant {var}: {'ok' if reason is None else reason} "
          f"({sample.wall_s:.2f} s)")
    return reason is None


def record(name) -> bool:
    expected = workloads.load_expected() if workloads.EXPECTED.exists() else {}
    entry = {}
    for var in range(workloads.VARIANTS):
        sample, got = run_once(name, var)
        if got.get("returncode") != 0 or got.get("pass") is False:
            print(f"{name} variant {var}: run failed ({got}); nothing recorded",
                  file=sys.stderr)
            return False
        got.pop("returncode")
        got.pop("pass", None)
        entry[str(var)] = got
        print(f"{name} variant {var}: {got['cases']} cases, "
              f"sha256 {got['sha256'][:12]} ({sample.wall_s:.2f} s)")
    expected[name] = entry
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run once and check the output; no metrics")
    parser.add_argument("--record", action="store_true",
                        help="store the outputs of every variant")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # kills the child via spawn
    if not (SRC / "voamodes" / "cli.py").is_file():
        print(f"no voamodes package under {SRC}", file=sys.stderr)
        return 2
    if not args.record and not workloads.EXPECTED.is_file():
        print("expected.json is missing; run with --record", file=sys.stderr)
        return 2
    build()
    if args.record:
        return 0 if record(args.workload) else 1
    var = workloads.variant(args.seed)
    want = workloads.load_expected()[args.workload][str(var)]
    print(f"workload {args.workload}, seed {args.seed} (input variant {var})")
    if args.check:
        ok = check(args.workload, var, want)
    elif args.trace:
        ok = traced(args.workload, var, want)
    else:
        ok = timed(args.workload, var, want, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
