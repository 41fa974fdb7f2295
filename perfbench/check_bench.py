#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic; needs no zfsecrecy import.

    python3 perfbench/check_bench.py
"""

import json
import math
import pathlib
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import calibrate
import spans
import workloads
from run import END_TO_END

HERE = pathlib.Path(__file__).resolve().parent


class SelfTime(unittest.TestCase):
    def test_overlapping_children_from_two_threads(self):
        # Parent [0, 10] on thread 0; children [1, 4] and [2, 6] overlap on
        # threads 1 and 2, [8, 9] on thread 1: they cover 5 + 1 = 6.
        rows = [["p", 0.0, 10.0, None, 0, None],
                ["c", 1.0, 4.0, 0, 1, None],
                ["c", 2.0, 6.0, 0, 2, None],
                ["c", 8.0, 9.0, 0, 1, None]]
        self.assertEqual(spans.self_times(rows), [4.0, 3.0, 4.0, 1.0])

    def test_worker_thread_spans_take_the_spawning_call_as_parent(self):
        tracer = spans.Tracer()
        barrier = threading.Barrier(2, timeout=10)
        leaf = tracer.span("leaf", lambda: barrier.wait())

        def spawning_call():
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(leaf) for _ in range(2)]
                for future in futures:
                    future.result(timeout=10)

        tracer.span("root", spawning_call)()
        root = [i for i, s in enumerate(tracer.spans) if s[0] == "root"]
        leaves = [s for s in tracer.spans if s[0] == "leaf"]
        self.assertEqual(len(root), 1)
        self.assertEqual([s[3] for s in leaves], root * 2)
        self.assertEqual(len({s[4] for s in leaves}), 2)
        # The two leaves overlapped, so the root's self time is its duration
        # minus less than the leaves' summed durations.
        root_span = tracer.spans[root[0]]
        summed = sum(s[2] - s[1] for s in leaves)
        self_time = spans.self_times(tracer.spans)[root[0]]
        self.assertGreater(self_time, (root_span[2] - root_span[1]) - summed)

    def test_counted_calls_leave_the_enclosing_span_self_time(self):
        # Counted calls are children in aggregate: their time is the span's
        # they ran in, not its self time.
        tracer = spans.Tracer()
        cdf = tracer.counted("cdf", lambda: None)
        tracer.span("outer", lambda: tracer.span("ks", lambda: cdf())())()
        ks = [i for i, s in enumerate(tracer.spans) if s[0] == "ks"]
        self.assertEqual(list(tracer.counted_s), ks)
        self.assertEqual(tracer.counted_s[ks[0]],
                         tracer.counters["cdf.busy_s"])
        rows = [["ks", 0.0, 10.0, None, 0, None]]
        self.assertEqual(spans.self_times(rows, {0: 2.5}), [7.5])


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        values = list(range(1, 101))
        value, pct = spans.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_sixty_three_samples(self):
        value, pct = spans.tail([float(v) for v in range(63)])
        self.assertEqual(value, 52.0)
        self.assertAlmostEqual(pct, 100.0 * 53 / 63)

    def test_no_tail_at_or_below_the_median(self):
        self.assertEqual(spans.tail(list(range(15))), (0.0, 0.0))
        self.assertEqual(spans.tail(list(range(20))), (0.0, 0.0))
        self.assertEqual(spans.tail(list(range(21))), (10, 100.0 * 11 / 21))


def _point(alpha, snr_db, mean, stderr=0.01, analytic=1.0, trials=100):
    return SimpleNamespace(alpha=alpha, snr_db=snr_db, r_analytic=analytic,
                           r_mc_mean=mean, r_mc_stderr=stderr,
                           n_trials=trials)


class Gates(unittest.TestCase):
    config = SimpleNamespace(trials=100)

    def test_forced_non_finite_result_is_one_failed_operation(self):
        points = [_point(0.5, 0.0, 1.0), _point(0.5, 10.0, math.nan),
                  _point(1.0, 0.0, 1.01)]
        failures = workloads.gate_qca_points(points, self.config)
        self.assertEqual(len(failures), 1)
        self.assertIn("non-finite", failures[0])

    def test_full_gate_uses_the_reference_not_the_closed_form(self):
        reference = {(0.5, 0.0): {"mean": 0.9, "std_err": 0.001},
                     (1.0, 0.0): {"mean": 0.9, "std_err": 0.001}}
        points = [_point(0.5, 0.0, 0.9, analytic=1.0),   # 10% gap: passes
                  _point(1.0, 0.0, math.inf)]             # non-finite: fails
        failures = workloads.gate_full_points(points, self.config, reference)
        self.assertEqual(len(failures), 1)
        self.assertIn("non-finite", failures[0])

    def test_check_lines(self):
        text = "\n".join([
            "PASS  e1-reference-value: E1(1) = 0.2",
            "FAIL  limit noise nt=2 bits=0 alpha=0.5: closed(-40dB)/R_NL = 1.1",
            # 3.5 sigma: FAIL at the CLI's 3 sigma, within the 5-sigma gate.
            "FAIL  triangle mc-vs-closed nt=2 bits=0 alpha=0.5 snr=0dB: "
            "mc=1.035 closed=1 |diff|=0.035 bound=0.03",
            "FAIL  triangle mc-vs-closed nt=2 bits=0 alpha=0.5 snr=0dB: "
            "mc=1.06 closed=1 |diff|=0.06 bound=0.03",
            "FAIL  ks eavesdropper nt=3 bits=1 alpha=0.5 snr=0dB: "
            "stat=0.01752 threshold=0.01630",
            "FAIL  ks eavesdropper nt=3 bits=1 alpha=0.5 snr=0dB: "
            "stat=0.03000 threshold=0.01630",
            "validate: FAILURES present (6 checks)",
        ])
        attempted, failures = workloads.gate_check_lines(text, 3.0, 10_000)
        self.assertEqual(attempted, 6)
        self.assertEqual(len(failures), 3)
        self.assertIn("limit noise", failures[0])
        self.assertIn("|diff|=0.06", failures[1])
        self.assertIn("stat=0.03000", failures[2])

    def test_gate_level(self):
        self.assertAlmostEqual(workloads.GATE_P, 5.733e-7, delta=1e-9)
        self.assertAlmostEqual(workloads.KS_GATE_COEFF, 2.744, delta=1e-3)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_the_benchmark_file(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))

    def test_every_workload_has_calibration_kernels(self):
        self.assertEqual(set(calibrate.KERNELS), set(workloads.NAMES))
        self.assertEqual(set(calibrate.REFERENCE_S), set(workloads.NAMES))

    def test_reference_covers_the_full_sweep_grid(self):
        reference = workloads.load_reference()
        alphas, snrs = [0.25, 0.5, 1.0], [-10.0, 0.0, 10.0, 20.0, 30.0]
        self.assertEqual(set(reference), {(a, s) for a in alphas for s in snrs})


if __name__ == "__main__":
    unittest.main()
