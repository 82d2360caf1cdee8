"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the tracer sees every call of every function it wraps (its counts
must equal those of ``sys.setprofile``, which does not depend on
rebinding), that a fixed Cartan configuration gives fixed counts, and
that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_workloads():
    return [
        workloads.Certify(u_points=20, epsilons=(Fraction(1, 100),)),
        workloads.Cartan(configs=1),
        workloads.ConeReport(samples=40),
        workloads.Scan(n_max=30, x_max=2000, q_max=50),
    ]


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self._cwd = os.getcwd()
        os.chdir(ROOT)

    def tearDown(self):
        shutil.rmtree(workloads.TMP_DIR, ignore_errors=True)
        os.chdir(self._cwd)

    def test_benchmark_json_shape(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for kind in ("end_to_end", "per_layer"):
            for m in SPEC[kind]:
                self.assertRegex(m["name"], name)
                self.assertRegex(m["unit"], unit)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_timed_and_traced_runs_emit_every_metric(self):
        for w in tiny_workloads():
            with self.subTest(workload=w.name):
                metrics, tally, _ = run.timed_run(w, seed=1, seconds=0, probes=1)
                self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared("end_to_end"))
                self.assertGreater(tally.attempted, 0)
                self.assertEqual(tally.failed, 0)
                self.assertTrue(all(v > 0 for v, _ in metrics.values()))

                traced, ttally, _ = run.traced_run(w, seed=1, seconds=0)
                self.assertEqual({k: u for k, (_, u) in traced.items()}, declared("per_layer"))
                self.assertEqual(ttally.failed, 0)
                self.assertEqual(ttally.digest, tally.digest)
                values = {k: v for k, (v, _) in traced.items()}
                self.assertEqual(values["exactnum.sign_exact.calls"], 0)
                self.assertLessEqual(values["exactnum.interval.max_bits"], 512)
                self.assertGreater(values["exactnum.certified_sign.calls"], 0)
                if w.name != "cartan":
                    self.assertEqual(values["rootfind.poly_sign_at.calls"], 0)
                    self.assertEqual(values["rootfind.self_s"], 0)

    def test_tracer_counts_match_the_profiler(self):
        import littlewood as lw

        for w in tiny_workloads():
            with self.subTest(workload=w.name):
                inputs = w.inputs(workloads.pass_rng(1, w.name, 0))
                prepared = w.prepare(lw, inputs)
                w.run(lw, prepared)  # warm caches, as the traced run does
                prepared = w.prepare(lw, inputs)
                tracer = Tracer()
                tracer.install()
                codes = {fn.__code__: name for name, fn in tracer.wrapped.items()}
                seen = Counter()

                def profile(frame, event, arg):
                    if event == "call" and frame.f_code in codes:
                        seen[codes[frame.f_code]] += 1

                try:
                    with tracer.span():
                        sys.setprofile(profile)
                        try:
                            w.run(lw, prepared)
                        finally:
                            sys.setprofile(None)
                finally:
                    tracer.uninstall()
                for name in codes.values():
                    self.assertEqual(tracer.calls(name), seen[name], name)
                self.assertGreater(sum(seen.values()), 0)
                self.assertLess(tracer.closure_error(), 1e-6 * tracer.root_s)

    def test_fixed_cartan_configuration_counts(self):
        import littlewood as lw

        alpha = lw.parse_number_spec("quad:-1,1,1,2", frac=True).value()
        beta = lw.parse_number_spec("quad:-1,1,1,3", frac=True).value()
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span():
                rep = lw.cartan_measure(alpha, beta, 1, 2, Fraction(1, 1000))
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        self.assertTrue(rep.monic_within_bound)
        self.assertEqual(m["rootfind.poly_sign_at.calls"], 1098)
        self.assertEqual(m["rootfind.probes_per_root"], 91.5)
        self.assertEqual(m["exactnum.sign_exact.calls"], 0)
        self.assertEqual(m["exactnum.interval.max_bits"], 64)
        self.assertEqual(m["exactnum.sign_at_64_ratio"], 1.0)

    def test_refuses_to_run_without_library_sources(self):
        bare = ROOT / workloads.TMP_DIR / "bare"
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
