"""Tests of the benchmark's own code: statistics, the goodput ladder rule,
span self time, and the shape of every emitted result.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import benchlib
import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def trace(rate, latency_ms, makespan_s=1.0, last_arrival_s=1.0, failed=0):
    return {"rate": rate, "latency_ms": latency_ms, "makespan_s": makespan_s,
            "last_arrival_s": last_arrival_s, "failed": failed,
            "attempted": len(latency_ms) + failed}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile(values, 0), 1)
        self.assertEqual(benchlib.percentile([5, 1, 3], 50), 3)
        self.assertEqual(benchlib.percentile([7.5], 99), 7.5)
        # Nearest rank never interpolates: p99 of 10 values is the maximum.
        self.assertEqual(benchlib.percentile(list(range(10)), 99), 9)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_quartiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4, method="inclusive")))
        self.assertEqual(benchlib.quartiles([2.0]), (2.0, 2.0, 2.0))
        # Reported quartiles stay within the samples, even for two of them.
        self.assertEqual(benchlib.quartiles([1.0, 2.0]), (1.25, 1.5, 1.75))


class GoodputTest(unittest.TestCase):
    LIMIT = 20.0

    def test_highest_passing_rate(self):
        ladder = [trace(100, [2.0] * 200), trace(200, [3.0] * 200),
                  trace(400, [30.0] * 200, makespan_s=1.5)]
        self.assertEqual(benchlib.goodput(ladder, self.LIMIT), 200)

    def test_transient_stall_below_a_passing_rate_is_ignored(self):
        stalled = trace(200, [2.0] * 190 + [40.0] * 10)  # p99 over the limit
        self.assertFalse(benchlib.rate_passes(stalled, self.LIMIT))
        ladder = [trace(100, [2.0] * 200), stalled, trace(400, [4.0] * 200)]
        self.assertEqual(benchlib.goodput(ladder, self.LIMIT), 400)

    def test_a_rate_passes_when_half_of_its_trials_do(self):
        stalled = trace(200, [2.0] * 190 + [40.0] * 10)
        ladder = [trace(100, [2.0] * 200), stalled, trace(200, [3.0] * 200)]
        self.assertEqual(benchlib.goodput(ladder, self.LIMIT), 200)
        ladder = [trace(100, [2.0] * 200)] + [stalled] * 2 + [trace(200, [3.0] * 200)]
        self.assertEqual(benchlib.goodput(ladder, self.LIMIT), 100)

    def test_nothing_passes(self):
        self.assertEqual(benchlib.goodput([trace(100, [50.0] * 100)], self.LIMIT), 0.0)

    def test_failed_requests_miss_the_limit(self):
        self.assertFalse(benchlib.rate_passes(trace(100, [1.0] * 99, failed=1), self.LIMIT))

    def test_backlog_growth_is_detected_under_the_p99_limit(self):
        # Latency ramps up through the trace: p99 stays under the limit but
        # the queue is growing.
        ramp = [1.0 + 18.5 * i / 399 for i in range(400)]
        self.assertLessEqual(benchlib.percentile(ramp, 99), self.LIMIT)
        self.assertTrue(benchlib.backlog_grows(ramp, 1.0, 1.0, self.LIMIT))
        self.assertFalse(benchlib.rate_passes(trace(300, ramp), self.LIMIT))

    def test_backlog_left_after_the_last_arrival_is_detected(self):
        flat = [5.0] * 400
        self.assertFalse(benchlib.backlog_grows(flat, 1.010, 1.0, self.LIMIT))
        self.assertTrue(benchlib.backlog_grows(flat, 1.030, 1.0, self.LIMIT))


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_are_counted_once(self):
        spans = [
            ["train.step", 0.0, 10.0, -1, 0],
            ["plan.sample_bulk", 1.0, 4.0, 0, 0],
            ["nn.forward", 3.0, 6.0, 0, 0],   # overlaps the sample span
            ["nn.backward", 8.0, 12.0, 0, 0],  # runs past its parent
            ["nn.optimizer", 4.5, 5.5, 2, 0],  # grandchild of the step
        ]
        st = benchlib.self_times(spans)
        # Children cover [1, 6] and [8, 10] of the step: 7 of its 10 s.
        self.assertAlmostEqual(st["train"], 3.0)
        self.assertAlmostEqual(st["plan"], 3.0)
        # forward 3 - optimizer 1, backward 4, optimizer 1.
        self.assertAlmostEqual(st["nn"], 2.0 + 4.0 + 1.0)

    def test_union_length(self):
        self.assertEqual(benchlib.union_length([]), 0.0)
        self.assertAlmostEqual(benchlib.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(benchlib.union_length([(0, 5), (1, 2)]), 5.0)


def synthetic_raw():
    """A small raw output of the workload program with every field run.py reads."""
    ops = {op: 0.1 for op in run.PLAN_OPS[:4]}
    comm = {"fetch": {"bytes": 100.0, "msgs": 4.0, "sim_s": 0.001}}
    epoch = {"wall_s": 1.0, "sim_s": 0.1, "loss": 3.5, "overlap_saved": 0.01,
             "stall": 0.02, "cache_hits": 5.0, "cache_misses": 5.0, "cache_local": 2.0,
             "fetch_bytes": 100.0, "ops": ops, "comm": comm}
    replay = {"wall_s": 0.5, "loss": 3.9, "sample_bulk_s": 0.3, "fetch_s": 0.01,
              "forward_s": 0.05, "backward_s": 0.1, "optimizer_s": 0.001,
              "sampled_edges": 1000.0, "input_rows": 500.0, "fetch_bytes": 64.0,
              "gflop": 0.5}
    serve = dict(trace(100.0, [1.0, 2.0, 3.0, 4.0]), busy_s=0.5, wall_busy_s=0.52,
                 batch_mean=1.2, queue_wait_p99_ms=0.5, sample_ms=0.3, gather_ms=0.02,
                 infer_ms=0.05)
    return {
        "roofline": {"gemm_n": 768, "gemm_gflops": 40.0, "stream_bytes": 1.0,
                     "stream_gbps": 10.0},
        "setups": [{"generate_s": 1.0, "pipeline_ctor_s": 0.01, "serve_ctor_s": 0.02,
                    "total_s": 1.03}] * 3,
        "epochs": [epoch] * 3, "fixed_epochs": 2,
        "replays": [replay, dict(replay, wall_s=0.55)],
        "nominal": [serve] * 3,
        "ladder": [dict(serve, rate=100.0 * 2 ** (i // 2 / 4)) for i in range(16)],
        "limit_ms": 25.0, "arena_bytes": 4096.0, "peak_rss_mb": 100.0,
        "spans": [["train.step", 0.0, 1.0, -1, 0], ["nn.forward", 0.2, 0.5, 0, 0]],
    }


class ResultShapeTest(unittest.TestCase):
    def result(self, metrics):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in metrics.items()}}

    def setUp(self):
        self.units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

    def test_emitted_metrics_are_exactly_the_declared_ones(self):
        raw = synthetic_raw()
        e2e = {k: v for k, (v, _) in run.end_to_end(raw).items()}
        self.assertEqual(benchlib.check_result(self.result(e2e), BENCH, 0), [])
        layers = run.per_layer(raw)
        self.assertEqual(set(layers), {m["name"] for m in BENCH["per_layer"]})
        self.assertEqual(benchlib.check_result(self.result(layers), BENCH, 1), [])
        # A printed result line round-trips through JSON.
        line = json.dumps(self.result(e2e))
        self.assertEqual(benchlib.check_result(json.loads(line), BENCH, 0), [])

    def test_undeclared_missing_and_mistyped_metrics_are_reported(self):
        e2e = {k: v for k, (v, _) in run.end_to_end(synthetic_raw()).items()}
        bad = self.result(e2e)
        bad["metrics"]["made_up_ms"] = {"value": 1.0, "unit": "ms"}
        del bad["metrics"]["p50_ms"]
        bad["metrics"]["setup_s"]["unit"] = "ms"
        bad["attempted"] = True
        problems = " | ".join(benchlib.check_result(bad, BENCH, 0))
        for needle in ("made_up_ms", "p50_ms", "setup_s: unit", "attempted"):
            self.assertIn(needle, problems)
        self.assertTrue(benchlib.check_result({"metrics": {}}, BENCH, 0))

    def test_program_workloads_are_the_declared_ones(self):
        src = (ROOT / "perfbench" / "src" / "perfbench.cpp").read_text()
        table = src[src.index("workloads() {"):src.index("return w;")]
        in_program = set(re.findall(r'\{"([a-z0-9-]+)", "', table))
        self.assertEqual(in_program, {w["name"] for w in BENCH["workloads"]})

    def test_benchmark_json_contract(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
