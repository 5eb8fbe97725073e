"""Tests of the benchmark's own machinery: the output checker, the span
self-time arithmetic, the traced-run wrapping and the smoke mode.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checker  # noqa: E402
import run_bench  # noqa: E402
import spans  # noqa: E402
from workloads import Outcome, Read  # noqa: E402


def _outcome(fidelity_raw=0.9995, corrected=0.9995, trace=1.0, mode="full"):
    out = Outcome()
    out.raw["full.r0.fidelity_raw"] = fidelity_raw
    out.raw["full.r0.phase_error_raw"] = math.pi
    out.reads.append(
        Read(
            key="full.r0",
            mode=mode,
            fidelity=corrected,
            corrected={"full.r0.fidelity_corrected": corrected},
        )
    )
    out.traces.append(trace)
    out.invariants["ok"] = True
    return out


class CheckerTest(unittest.TestCase):
    def test_matching_outcome_passes(self):
        ref = checker.reference_entry(_outcome())
        self.assertEqual(checker.check(_outcome(), ref), [])

    def test_raw_number_beyond_tolerance_fails(self):
        ref = checker.reference_entry(_outcome())
        self.assertEqual(checker.check(_outcome(fidelity_raw=0.9995 + 5e-10), ref), [])
        self.assertTrue(checker.check(_outcome(fidelity_raw=0.9995 + 2e-9), ref))

    def test_phases_compare_modulo_two_pi(self):
        ref = checker.reference_entry(_outcome())
        out = _outcome()
        out.raw["full.r0.phase_error_raw"] = -math.pi
        self.assertEqual(checker.check(out, ref), [])

    def test_corrected_number_compared_only_if_read_met_bound(self):
        met = checker.reference_entry(_outcome(corrected=0.9995))
        self.assertTrue(checker.check(_outcome(corrected=0.9996), met))
        missed = checker.reference_entry(_outcome(corrected=0.5))
        self.assertEqual(missed["corrected"], {})
        self.assertEqual(checker.check(_outcome(corrected=0.6), missed), [])

    def test_non_finite_trace_and_invariant_fail_without_reference(self):
        self.assertTrue(checker.check(_outcome(fidelity_raw=float("nan")), None))
        self.assertTrue(checker.check(_outcome(trace=1.0 + 2e-9), None))
        self.assertEqual(checker.check(_outcome(trace=1.0 + 5e-10), None), [])
        broken = _outcome()
        broken.invariants["ok"] = False
        self.assertTrue(checker.check(broken, None))

    def test_probability_outside_unit_interval_fails(self):
        self.assertTrue(checker.check(_outcome(fidelity_raw=1.1), None))

    def test_changed_output_keys_fail(self):
        ref = checker.reference_entry(_outcome())
        out = _outcome()
        out.raw["full.r1.fidelity_raw"] = 0.9995
        self.assertTrue(checker.check(out, ref))

    def test_reads_below_bound_counts_each_mode_against_its_bound(self):
        out = Outcome()
        out.reads += [
            Read("a", "full", 0.9985, {}),  # misses 0.999
            Read("b", "full", 0.9995, {}),
            Read("c", "reduced", 1.0 - 1e-10, {}),
            Read("d", "reduced", 1.0 - 1e-8, {}),  # misses 1 - 1e-9
            Read("e", "reduced", float("nan"), {}),  # a NaN read is counted too
        ]
        self.assertEqual(checker.reads_below_bound(out), 3)

    def test_seeded_jobs_get_invariants_only_on_other_seeds(self):
        refs = checker.References(0, {"w": checker.reference_entry(_outcome())})
        seeded = types.SimpleNamespace(name="w", seeded=True)
        fixed = types.SimpleNamespace(name="w", seeded=False)
        drifted = _outcome(fidelity_raw=0.5)
        self.assertTrue(refs.grade(seeded, 0, drifted))
        self.assertEqual(refs.grade(seeded, 7, drifted), [])
        self.assertTrue(refs.grade(fixed, 7, drifted))
        missing = types.SimpleNamespace(name="other", seeded=False)
        self.assertTrue(refs.grade(missing, 0, _outcome()))


class NormalisationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run_bench.pin_blas()  # imports calibration

    @staticmethod
    def _pass(ops, kernels):
        return run_bench.PassResult(kernel="mixed", op_seconds=list(ops),
                                    kernel_seconds=list(kernels))

    def test_host_speed_cancels(self):
        ref = run_bench.calibration.REF_SECONDS["mixed"]
        quiet = self._pass([0.1, 0.3], [ref, ref, ref])
        self.assertAlmostEqual(run_bench.normalised_pass_seconds([quiet]), 0.4)
        # The same work on a host 1.5x slower, and one that slows mid-pass.
        slow = self._pass([0.15, 0.45], [1.5 * ref] * 3)
        drifting = self._pass([0.1, 0.45], [ref, ref, 2.0 * ref])
        self.assertAlmostEqual(run_bench.normalised_pass_seconds([slow]), 0.4)
        self.assertAlmostEqual(drifting.normalised_op_seconds()[0], 0.1)
        self.assertAlmostEqual(drifting.normalised_op_seconds()[1], 0.3)

    def test_each_job_takes_its_median_over_passes(self):
        ref = run_bench.calibration.REF_SECONDS["mixed"]
        passes = [self._pass([a, b], [ref] * 3) for a, b in ((1.0, 5.0), (2.0, 4.0), (9.0, 3.0))]
        self.assertAlmostEqual(run_bench.normalised_pass_seconds(passes), 2.0 + 4.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # A [0, 100] holds B [10, 40] and D [50, 60]; B holds C [20, 30].
        start = [0, 10, 20, 50]
        end = [100, 40, 30, 60]
        parent = [-1, 0, 1, 0]
        self.assertEqual(spans.self_times(start, end, parent), [60, 20, 10, 10])

    def test_self_times_sum_to_top_level_time(self):
        start = [0, 10, 20, 50, 200, 210]
        end = [100, 40, 30, 60, 300, 290]
        parent = [-1, 0, 1, 0, -1, 4]
        self.assertEqual(sum(spans.self_times(start, end, parent)), 200)

    def test_layer_totals(self):
        totals = spans.layer_self_times({"evolve.a": 1.0, "evolve.b": 2.0, "cli.main": 0.5})
        self.assertEqual(totals["evolve"], 3.0)
        self.assertEqual(totals["cli"], 0.5)
        self.assertEqual(totals["chain"], 0.0)


def _fake_package() -> types.ModuleType:
    """A package with the real layer names; runner re-binds evolve.outer."""
    package = types.ModuleType("fakepkg")
    for layer in spans.LAYERS:
        setattr(package, layer, types.ModuleType(f"fakepkg.{layer}"))
    exec(
        "class QuantumState: pass\n"
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n",
        vars(package.evolve),
    )
    package.runner.outer = package.evolve.outer  # as `from .evolve import outer`
    exec("def run():\n    return outer()\n", vars(package.runner))
    package.run = package.runner.run
    return package


class TracedTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        package = _fake_package()
        original = package.evolve.outer
        recorder = spans.Recorder()
        with spans.traced(recorder, package):
            recorder.start_pass()
            recorder.op = 3
            self.assertEqual(package.run(), 2)
            self.assertIsNot(package.runner.outer, original)
        self.assertIs(package.runner.outer, original)
        self.assertIs(package.evolve.outer, original)
        self_s, calls, by_binding = spans.summarize(recorder.passes[0], recorder.names)
        self.assertEqual(
            calls, {"runner.run": 1, "evolve.outer": 1, "evolve.inner": 2}
        )
        self.assertEqual(by_binding["fakepkg.run"], 1)
        self.assertEqual(by_binding["runner.outer"], 1)
        self.assertEqual(by_binding["evolve.inner"], 2)
        recorded = recorder.passes[0]
        self.assertEqual(set(recorded.op), {3})
        self.assertEqual(list(recorded.parent), [-1, 0, 1, 1])
        top = recorded.end[0] - recorded.start[0]
        self.assertAlmostEqual(sum(self_s.values()), top * 1e-9, places=12)


class EntryPointTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_runner_reports(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run_bench.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run_bench.PER_LAYER),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run_bench.WORKLOADS))
        self.assertEqual(set(run_bench.KERNEL), set(run_bench.WORKLOADS))

    def test_smoke_mode_passes(self):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run_bench.py"), "--smoke"],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count(" ok "), len(run_bench.WORKLOADS))

    def test_refuses_to_run_without_the_sources(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run_bench.py", "--workload", "full_wire",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
