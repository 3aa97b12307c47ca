"""Tests of the benchmark's own code (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # layer 0: [0, 10] with children layer 1 [1, 4] and layer 1 [5, 9];
        # the second child has a grandchild layer 2 [6, 8]; a second root
        # span of layer 0 runs [20, 21] with no children.
        layer = [0, 1, 1, 2, 0]
        parent = [-1, 0, 0, 2, -1]
        start = [0.0, 1.0, 5.0, 6.0, 20.0]
        end = [10.0, 4.0, 9.0, 8.0, 21.0]
        calls, total, own = tracer.self_times(3, layer, parent, start, end)
        self.assertEqual(calls, [2, 2, 1])
        self.assertEqual(total, [11.0, 7.0, 2.0])
        # root: 10 - (3 + 4) children, plus the 1 s second root span
        self.assertEqual(own, [4.0, 5.0, 2.0])
        # self times of all spans add up to the root spans' durations
        self.assertEqual(sum(own), 11.0)

    def test_recorder_spans(self):
        rec = tracer.Recorder(["outer", "inner"])
        inner = rec.wrap(1, lambda x: x + 1)
        outer = rec.wrap(0, lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        self.assertEqual(list(rec.layer), [0, 1, 1])
        self.assertEqual(list(rec.parent), [-1, 0, 0])
        calls, total, own = tracer.self_times(2, rec.layer, rec.parent,
                                              rec.start, rec.end)
        self.assertEqual(calls, [1, 2])
        self.assertLessEqual(own[0], total[0])
        self.assertAlmostEqual(own[0] + own[1], total[0], places=9)

    def test_recorder_observers(self):
        rec = tracer.Recorder(["f", "g"])
        f = rec.wrap(0, lambda a, b=0: a, key=lambda a, b=0: (a, b))
        g = rec.wrap(1, lambda v: v, zero=True)
        for a in (1, 1, 2):
            f(a)
        zero = types.SimpleNamespace(is_zero=lambda: True)
        nonzero = types.SimpleNamespace(is_zero=lambda: False)
        g(zero)
        g(nonzero)
        self.assertEqual(len(rec.seen[0]), 2)
        self.assertEqual(rec.zero[1], 1)

    def test_exception_closes_span(self):
        rec = tracer.Recorder(["boom"])

        def boom():
            raise ValueError("x")

        wrapped = rec.wrap(0, boom)
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual(rec.stack, [-1])
        self.assertGreaterEqual(rec.end[0], rec.start[0])


class RebindTest(unittest.TestCase):
    def test_every_binding_is_replaced(self):
        def f():
            return 1

        mods = []
        for suffix in ("a", "b"):
            mod = types.ModuleType(f"{tracer.PKG}._fake_{suffix}")
            mod.f = f
            mod.TABLE = {"f": f}
            sys.modules[mod.__name__] = mod
            mods.append(mod)
        try:
            wrapper = lambda: 2  # noqa: E731
            swaps = {id(f): (f, wrapper)}
            with self.assertRaises(RuntimeError):
                tracer.check_installed(swaps)
            tracer._rebind(swaps)
            tracer.check_installed(swaps)
            for mod in mods:
                self.assertIs(mod.f, wrapper)
                self.assertIs(mod.TABLE["f"], wrapper)
        finally:
            for mod in mods:
                del sys.modules[mod.__name__]


    def test_install_on_the_package(self):
        # in a child, so the wrappers stay out of this process
        code = (
            "import tracer, voamodes.fock as f, voamodes.matrices as m, "
            "voamodes.suites as s, voamodes\n"
            "tracer.install()\n"
            "assert f.expand_pair is m.expand_pair\n"
            "assert m.expand_pair.__wrapped__.__module__ == 'voamodes.heisenberg'\n"
            "assert voamodes.gen_binomial is m.gen_binomial\n"
            "assert all(hasattr(fn, '__wrapped__') for fn in s._SUITE_FUNCS.values())\n"
            "assert hasattr(f.FockModule.theta, '__wrapped__')\n")
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(here), str(run.SRC)]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


class MetricNamesTest(unittest.TestCase):
    def test_traced_metrics_match_benchmark_json(self):
        names = [spec[0] for spec in tracer.LAYERS] + [
            "suites." + s for s in tracer.SUITE_NAMES]
        rec = tracer.Recorder(names)
        for lid, spec in enumerate(tracer.LAYERS):
            if spec[3] is not None:
                rec.wrap(lid, len, key=None if spec[3] == tracer.ZERO else len,
                         zero=spec[3] == tracer.ZERO)
        trace = {"names": names, "layer": [], "parent": [], "start": [], "end": [],
                 "extras": {
                     "distinct": {names[i]: 0 for i in rec.seen},
                     "zero": {names[i]: 0 for i in rec.zero},
                     "expand_cache_growth": 0,
                     "cache_info": {"matrices.left_entry": (0, 0),
                                    "matrices.right_entry": (0, 0)}}}
        got = set(run.layer_metrics(trace)) | {"trace.wall_s", "trace.overhead_s"}
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(got, {m["name"] for m in bench["per_layer"]})


class EndToEndTest(unittest.TestCase):
    def test_medians_and_names_match_benchmark_json(self):
        samples = [run.Sample(w, w - 0.1, 50.0 + w, 0, 0.07) for w in (3.0, 1.0, 2.0)]
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.end_to_end(samples, [0.05, 0.09, 0.06])
        self.assertEqual(metrics["wall_s"], {"value": 2.0, "unit": "s"})
        self.assertAlmostEqual(metrics["cpu_s"]["value"], 1.9)
        self.assertEqual(metrics["setup_s"]["value"], 0.06)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 52.0)
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(metrics), {m["name"] for m in bench["end_to_end"]})


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name) / "out.json"

    def tearDown(self):
        self.tmp.cleanup()

    def _want(self, workload, text):
        self.out.write_text(text)
        want = workloads.observe(workload, 0, self.out)
        want.pop("returncode")
        return want

    def test_changed_output_is_rejected(self):
        want = self._want("intertwiner-rho", '{"entries": [1, 2]}')
        self.assertIsNone(workloads.gate(
            workloads.observe("intertwiner-rho", 0, self.out), want))
        self.out.write_text('{"entries": [1, 3]}')
        got = workloads.observe("intertwiner-rho", 0, self.out)
        self.assertEqual(got["cases"], want["cases"])
        self.assertIn("sha256", workloads.gate(got, want))

    def test_nonzero_exit_fails(self):
        want = self._want("tables-bimodule", '{"rows": [{"action": "left"}]}')
        self.assertEqual(want["cases"], 1)
        got = workloads.observe("tables-bimodule", 3, self.out)
        self.assertEqual(workloads.gate(got, want), "exit code 3")

    def test_verify_case_counts(self):
        report = ('{"pass": true, "suites": [{"suite": "unit", "cases_run": 5}, '
                  '{"suite": "kernel", "cases_run": 7}]}')
        want = self._want("verify-desk", report)
        self.assertEqual(want["cases"], 12)
        self.out.write_text(report.replace("7", "6"))
        got = workloads.observe("verify-desk", 0, self.out)
        self.assertEqual(workloads.gate(got, want),
                         "suites differs from the recorded value")
        self.out.write_text(report.replace("true", "false"))
        got = workloads.observe("verify-desk", 0, self.out)
        self.assertEqual(workloads.gate(got, want), "report says pass: false")

    def test_missing_output_fails(self):
        want = self._want("intertwiner-rho", '{"entries": []}')
        self.out.unlink()
        got = workloads.observe("intertwiner-rho", 0, self.out)
        self.assertIsNotNone(workloads.gate(got, want))


if __name__ == "__main__":
    unittest.main()
