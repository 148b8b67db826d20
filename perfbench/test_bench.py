"""Self-tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/test_bench.py`` or
``python3 perfbench/test_bench.py``. They use small variants of the
workloads (4096 rows), so they take seconds.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

SMALL = {"n": 4096, "arrivals": 2000}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        s = [
            Span("root", "runtime", 0.0, 10.0, -1),
            Span("a", "core", 1.0, 4.0, 0),
            Span("b", "sem", 5.0, 9.0, 0),
            Span("c", "simhw", 6.0, 7.0, 2),
            Span("d", "core", 2.0, 3.0, 1),
        ]
        self.assertEqual(spans.self_times(s), [3.0, 2.0, 3.0, 1.0, 1.0])
        by_layer = spans.self_time_by(s, lambda sp: sp.layer)
        self.assertEqual(by_layer,
                         {"runtime": 3.0, "core": 3.0, "sem": 3.0,
                          "simhw": 1.0})
        self.assertEqual(sum(by_layer.values()), 10.0)

    def test_overlapping_and_overhanging_children(self):
        s = [
            Span("p", "serve", 0.0, 10.0, -1),
            Span("x", "core", 1.0, 5.0, 0),
            Span("y", "core", 3.0, 7.0, 0),
            Span("z", "sem", 9.0, 12.0, 0),
        ]
        # Children cover [1, 7] and [9, 10] of the parent.
        self.assertEqual(spans.self_times(s)[0], 3.0)


class WorkloadTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def traced(self, bench):
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            out = bench.run(tracer)
        finally:
            tracer.restore()
        out.layers = workloads.layer_metrics(tracer)
        return out, tracer

    def test_sim_and_count_metrics_repeat_exactly(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                bench = cls(3, self.tmp / name, **SMALL)
                first, _ = self.traced(bench)
                second, _ = self.traced(cls(3, self.tmp / name, **SMALL))
                self.assertIsNone(first.error)
                self.assertEqual(bench.check(first), [])
                self.assertEqual(first.digest, second.digest)
                self.assertEqual(json.dumps(first.counts),
                                 json.dumps(second.counts))
                sim_and_counts = [k for k in first.layers
                                  if not k.endswith("wall_s")]
                self.assertEqual(
                    json.dumps([first.layers[k] for k in sim_and_counts]),
                    json.dumps([second.layers[k] for k in sim_and_counts]))

    def test_layer_self_times_sum_to_traced_wall(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                out, tracer = self.traced(cls(2, self.tmp / name, **SMALL))
                roots = [sp for sp in tracer.spans if sp.parent < 0]
                self.assertEqual(len(roots), 1)
                layer_sum = sum(out.layers[f"{layer}.wall_s"]
                                for layer in workloads.LAYERS)
                self.assertAlmostEqual(layer_sum, roots[0].end - roots[0].start,
                                       delta=1e-9)

    def test_wrapped_functions_are_restored(self):
        import repro.runtime.backends as backends
        import repro.sched.blocks as blocks
        import repro.serve.query as query
        from repro.simhw.engine import IterationEngine

        before = (backends.build_task_blocks, blocks.build_task_blocks,
                  query.nearest_centroid, IterationEngine.__dict__["run"])
        tracer = spans.Tracer()
        spans.install(tracer)
        patched = list(tracer._patches)
        self.assertIsNot(blocks.build_task_blocks, before[1])
        try:
            workloads.ServeWorkload(1, self.tmp / "s", **SMALL).run(tracer)
        finally:
            tracer.restore()
        self.assertTrue(tracer.spans)
        after = (backends.build_task_blocks, blocks.build_task_blocks,
                 query.nearest_centroid, IterationEngine.__dict__["run"])
        for old, new in zip(before, after):
            self.assertIs(new, old)
        for owner, attr, original in patched:
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            self.assertIs(current, original, f"{owner}.{attr}")

    def test_reference_check_catches_a_wrong_answer(self):
        bench = workloads.KnordWorkload(1, self.tmp / "k", **SMALL)
        out = bench.run()
        self.assertEqual(bench.check(out), [])
        far = bench.result.assignment.copy()
        far[:5] = (far[:5] + 1) % workloads.K
        problems = workloads.check_against_reference(
            bench.x, bench.init, far, bench.result.centroids,
            bench.result.iterations)
        self.assertTrue(problems)

    def test_golden_mismatch_fails_the_run(self):
        bench = workloads.KnordWorkload(1, self.tmp / "g", **SMALL)
        runner = run.Runner(bench, golden="0" * 32, trace=False)
        out = runner.run_once(False)
        self.assertEqual(out.failed, 1)
        self.assertIsNone(runner.reference)


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_what_the_benchmark_emits(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         workloads.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         workloads.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
