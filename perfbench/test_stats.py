"""Tests for the benchmark's own statistics and metric naming.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import run
import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(stats.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {10000: 99.9, 9999: 99.0, 1000: 99.0, 999: 90.0, 100: 90.0,
                 99: 50.0, 20: 50.0}
        for n, p in cases.items():
            self.assertEqual(stats.tail_percentile(n), p, n)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_failures_sort_last(self):
        self.assertEqual(stats.percentile([1.0, 2.0, math.inf], 99), math.inf)
        self.assertEqual(stats.percentile([1.0, 2.0, math.inf], 50), 2.0)


class FastestPieces(unittest.TestCase):
    def test_each_piece_on_its_own(self):
        runs = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 0.5]]
        self.assertEqual(stats.fastest_pieces(runs), [1.0, 1.0, 0.5])
        self.assertEqual(stats.fastest_pieces([[4.0, 2.0]]), [4.0, 2.0])

    def test_runs_must_cut_alike(self):
        with self.assertRaises(ValueError):
            stats.fastest_pieces([[1.0, 2.0], [1.0]])
        with self.assertRaises(ValueError):
            stats.fastest_pieces([])

    def test_group_sums(self):
        pieces = [0.5] + [1.0] * 8 + [2.0] * 8 + [3.0]
        self.assertEqual(stats.group_sums(pieces, 1, 8), [8.0, 16.0])
        self.assertEqual(stats.group_sums([1, 2, 3, 4, 5], 0, 2), [3, 7])
        self.assertEqual(stats.group_sums([1, 2], 1, 2), [])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [("root", 0, 100, -1), ("a", 10, 30, 0), ("b", 40, 70, 0)]
        self.assertEqual(stats.self_times(spans), [50, 20, 30])

    def test_only_direct_children_count(self):
        spans = [("root", 0, 100, -1), ("a", 10, 30, 0), ("a.x", 15, 20, 1)]
        self.assertEqual(stats.self_times(spans), [80, 15, 5])

    def test_overlapping_children_count_once(self):
        spans = [("root", 0, 100, -1), ("a", 10, 50, 0), ("b", 30, 60, 0)]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("root", 0, 100, -1), ("a", 90, 120, 0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_leaf_and_empty(self):
        self.assertEqual(stats.self_times([("x", 5, 9, -1)]), [4])
        self.assertEqual(stats.self_times([]), [])


# ---- every printed metric name is declared in BENCHMARK.json --------------

OPS = {c: {"count": 2, "bytes": 64, "s": 0.01}
       for c in ("elementwise", "activation", "matmul", "shape", "reduction", "fused")}
MEM = {"tensor": 1.0, "graph": 1.0, "pma": 1.0, "scratch": 1.0}
CHECKS = [{"name": "synthetic", "ok": True, "detail": ""}]


def epoch_record():
    return {"wall_s": 0.5, "loss_hex": (0.6).hex(), "position_s": 0.01, "view_s": 0.01,
            "stall_s": 0.0, "prefetch_hits": 3, "prefetch_misses": 1, "positioning_s": 0.02,
            "ops_all": OPS, "ops_fb": OPS, "fusion_hits": 4,
            "fusion_misses": 0, "launches": 10, "launch_items": 100, "cpu_s": 1.0}


def epoch_spans(group, t0, base):
    names = ("core.guard", "core.begin_forward_step", "gpma.prefetch", "core.forward",
             "autograd.backward", "nn.optim", "core.verify_drained")
    spans = [["epoch", t0, t0 + 1000, -1, group],
             ["sequence", t0, t0 + 1000, base, group]]
    for i, n in enumerate(names):
        spans.append([n, t0 + 100 * i, t0 + 100 * i + 90, base + 1, group])
    return spans


def window(samples, mean_us, batches, wall_s, busy_s):
    return {"samples": samples, "latency_sum_us": samples * mean_us, "batches": batches,
            "batch_requests": 2.0 * batches, "reader_busy_s": busy_s, "wall_s": wall_s}


def train_raw():
    # Three epochs of 17 steps (two sequences of 8, then one step): each is
    # cut into 18 pieces. Epoch e is slow in piece e only.
    pieces = []
    for e in range(3):
        p = [0.001] + [0.01] * 16 + [0.002]
        p[e] += 1.0
        pieces.append(p)
    pieces[0][12] = 0.03  # sequence 1's step 4, fast elsewhere
    return {"env": {"pool_lanes": 4}, "epoch_pieces_s": pieces,
            "warmup_pieces_s": [[0.5] + [0.02] * 17, [0.4] + [0.03] * 17],
            "sequence_length": 8, "construct_s": [0.1, 0.2], "timestamps": 17,
            "peak_device_mib": 20.0, "losses": [0.7, 0.6], "final_loss_hex": (0.6).hex(),
            "checks": CHECKS}


def serve_raw():
    return {
        "env": {"pool_lanes": 4}, "losses": [0.7, 0.6],
        "final_loss_hex": (0.6).hex(), "peak_device_mib": 4.0, "open_loop_rps": 1000.0,
        "setup_pieces_s": [[0.01, 0.002, 0.003], [0.02, 0.001, 0.004]],
        "ingest_hz": 6.0, "closed_window": 32, "deltas_available": 200,
        "open_sent": 3000, "open_lat_us": [[50.0 + i for i in range(999)] + [None]] * 3,
        "late_us": [0.5] * 3000, "open_shed": 1, "open_failed": 0,
        "open_ok": 2997, "open_sent_lat_sum_us": 2997 * 90.0,
        "closed_ok": [1000, 1100, 900], "closed_window_s": 1.0, "closed_sent": 3000,
        "closed_shed": 0, "closed_failed": 0, "timed_out": 0, "ingest_ms": [1.5, 2.0],
        "ingests": 2, "ingest_failed": 0,
        "server": {"lifetime_p50_us": 32, "lifetime_p99_us": 8192,
                   "lifetime_max_queue_depth": 10, "readers": 2,
                   "open": window(3000, 60.0, 1500, 4.0, 3.0),
                   "burst": window(9000, 400.0, 1000, 1.0, 1.0),
                   "cache_hits": 100, "forward_passes": 2,
                   "forward_s": 0.01, "deltas_applied": 2, "ingest_s": 0.001},
        "frames_out": 6000,
        "gpma": {"position_s": 0.1, "view_s": 0.1, "stall_s": 0.0, "prefetch_hits": 0,
                 "prefetch_misses": 3},
        "ops": OPS, "fusion_hits": 1, "fusion_misses": 0, "launches": 10,
        "launch_items": 100, "cpu_s": 10.0, "wall_s": 5.0, "mem_peak_mib": MEM,
        "checks": CHECKS,
    }


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            cls.cfg = json.load(f)
        cls.e2e = sorted(m["name"] for m in cls.bench["end_to_end"])
        cls.layer = sorted(m["name"] for m in cls.bench["per_layer"])

    def test_layers_json_describes_exactly_the_declared_metrics(self):
        self.assertEqual(sorted(self.cfg["end_to_end"]), self.e2e)
        self.assertEqual(sorted(self.cfg["per_layer"]), self.layer)
        for name, spec in self.cfg["per_layer"].items():
            for target, workloads in spec["moves"].items():
                self.assertIn(target, self.e2e, name)
                for w in workloads:
                    self.assertIn(w, [x["name"] for x in self.bench["workloads"]], name)

    def test_training_end_to_end(self):
        metrics, checks, _ = run.train_end_to_end(train_raw())
        self.assertEqual(sorted(metrics), self.e2e)
        # Each piece at its fastest: 0.001 + 16 * 0.01 + 0.002.
        self.assertAlmostEqual(metrics["time_ms"], 163.0)
        self.assertAlmostEqual(metrics["throughput_per_s"], 17 / 0.163)
        # Quiet sequences take 0.08 s each; the slowest one is the tail.
        self.assertAlmostEqual(metrics["tail_ms"], 80.0)
        # Construction at its fastest (0.1), then the warm-up pieces at
        # theirs (0.4 + 17 * 0.02).
        self.assertAlmostEqual(metrics["setup_s"], 0.84)
        self.assertTrue(all(ok for _, ok, _ in checks))

    def test_training_tail_is_the_slowest_sequence(self):
        raw = train_raw()
        for p in raw["epoch_pieces_s"]:
            p[12] = 0.03  # every epoch: sequence 1 is slower
        metrics, _, _ = run.train_end_to_end(raw)
        self.assertAlmostEqual(metrics["tail_ms"], 100.0)
        self.assertAlmostEqual(metrics["time_ms"], 183.0)

    def test_non_finite_final_loss_fails_its_check(self):
        raw = train_raw()
        raw["losses"] = [0.7, None]
        raw["final_loss_hex"] = "nan"
        raw["checks"] = CHECKS + [{"name": "final_loss_finite", "ok": False, "detail": "nan"}]
        _, checks, details = run.train_end_to_end(raw)
        self.assertFalse(dict((n, ok) for n, ok, _ in checks)["final_loss_finite"])
        self.assertIn("nan", details[-1])

    def test_serve_end_to_end(self):
        metrics, checks, _ = run.serve_end_to_end(serve_raw(), self.cfg)
        self.assertEqual(sorted(metrics), self.e2e)
        self.assertAlmostEqual(metrics["throughput_per_s"], 1100.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.014)
        self.assertTrue(all(ok for _, ok, _ in checks))

    def test_training_per_layer(self):
        raw = {"epochs": [epoch_record(), epoch_record()], "agg_replay_s": [0.01, 0.02, 0.03],
               "mem_peak_mib": MEM, "final_loss_hex": (0.6).hex(), "ref_epoch_s": [0.5],
               "checks": CHECKS}
        spans = epoch_spans(0, 0, 0) + epoch_spans(1, 5000, 9)
        metrics, checks, _ = run.train_layers(raw, spans, self.cfg, self.layer)
        self.assertEqual(sorted(metrics), self.layer)
        self.assertAlmostEqual(metrics["trace_coverage_ratio"], 0.63)
        self.assertFalse(dict((n, ok) for n, ok, _ in checks)["trace_coverage"])

    def test_serve_per_layer(self):
        metrics, _, _ = run.serve_layers(serve_raw(), self.cfg, self.layer)
        self.assertEqual(sorted(metrics), self.layer)
        self.assertAlmostEqual(metrics["serve.step_cache_hit_ratio"], 100 / 102)
        # Window figures come from the open-loop and burst windows alone.
        self.assertAlmostEqual(metrics["serve.server_mean_us"], 60.0)
        self.assertAlmostEqual(metrics["serve.batch_occupancy"], 2.0)
        self.assertAlmostEqual(metrics["serve.reader_util"], 3.0 / (2 * 4.0))
        self.assertAlmostEqual(metrics["serve.burst_server_mean_us"], 400.0)
        self.assertAlmostEqual(metrics["serve.burst_reader_util"], 0.5)
        self.assertAlmostEqual(metrics["net.overhead_mean_us"], 30.0)


if __name__ == "__main__":
    unittest.main()
