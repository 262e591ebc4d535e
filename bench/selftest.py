"""The benchmark's own tests.

    python3 bench/selftest.py

Kept out of pytest's default collection (the file name does not match
test_*.py) because the smoke runs take about a minute.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from checks import check_verdict, check_witness  # noqa: E402
from pairs import SMALL_SLICES, PairStream, construction_labels, oracle_labels  # noqa: E402
from stats import kind_typical, p90, tail  # noqa: E402

from starinv import matrix_star_ring, theorems  # noqa: E402
from starinv.cli import serialize_matrix_document  # noqa: E402
from starinv.orders import MinusWitness, leq_minus  # noqa: E402


def _digests(seed, count, slices=SMALL_SLICES, oracle=None):
    stream = PairStream(seed, slices, oracle=oracle)
    out = []
    while len(out) < count:
        for pair in stream.next_pairs():
            text = serialize_matrix_document(pair.a) + serialize_matrix_document(pair.b)
            text += json.dumps(pair.labels, sort_keys=True)
            out.append(hashlib.sha256(text.encode()).hexdigest())
    return out[:count]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        oracle = matrix_star_ring(3)
        self.assertEqual(_digests(7, 40, oracle=oracle), _digests(7, 40, oracle=oracle))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(_digests(7, 10), _digests(8, 10))


class LabelTest(unittest.TestCase):
    def test_gf3_labels_match_the_exhaustive_oracle(self):
        ring = matrix_star_ring(3)
        bare = PairStream(11, (("gf:3", 2),))
        labelled = PairStream(11, (("gf:3", 2),), oracle=ring)
        checked = 0
        for _ in range(30):
            for plain, pair in zip(bare.next_pairs(), labelled.next_pairs()):
                truth = oracle_labels(ring, pair.a, pair.b)
                self.assertEqual(pair.labels, truth)
                for rel, label in construction_labels(plain.kind).items():
                    if label is not None:
                        self.assertEqual(label, truth[rel], (plain.kind, rel))
                        checked += 1
        self.assertGreater(checked, 300)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        clock = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
        original = spans.perf_counter
        spans.perf_counter = lambda: next(clock)
        try:
            t = spans.Tracer()
            root = t.begin("root")  # 0 .. 10
            a = t.begin("a")  # 1 .. 4, of which 0.5 s in a timed leaf
            t._exclude(0.5)
            t.end(a)
            b = t.begin("b")  # 5 .. 9
            c = t.begin("a")  # 6 .. 7, nested under b
            t.end(c)
            t.end(b)
            t.end(root)
        finally:
            spans.perf_counter = original
        self_times = t.self_times()
        self.assertEqual(self_times["root"], [1, 10.0 - 3.0 - 4.0])
        self.assertEqual(self_times["a"], [2, (3.0 - 0.5) + 1.0])
        self.assertEqual(self_times["b"], [1, 4.0 - 1.0])

    def test_wrappers_record_only_inside_an_op(self):
        t = spans.Tracer()
        traced = t.span("f", lambda x: x + 1)
        self.assertEqual(traced(1), 2)
        self.assertEqual(len(t.span_start), 0)
        root = t.begin("op")
        traced(1)
        t.end(root)
        self.assertEqual(t.self_times()["f"][0], 1)


class StatsTest(unittest.TestCase):
    def test_tail_rank(self):
        self.assertEqual(tail(list(range(100))), (89, 90))
        self.assertEqual(tail(list(range(21))), (20, 21))
        self.assertEqual(tail(list(range(22))), (11, 12))

    def test_p90(self):
        self.assertAlmostEqual(p90(list(range(11))), 9.0)
        self.assertAlmostEqual(p90([1.0, 2.0]), 1.9)
        self.assertEqual(p90([5.0]), 5.0)

    def test_kind_typical_counts_each_kind_once(self):
        kinds = ["a"] * 3 + ["b"]
        typical = kind_typical(kinds, [1.0, 4.0, 2.0, 8.0])
        self.assertAlmostEqual(typical, 4.0)  # sqrt(median 2 * 8)
        # another round of the same kinds leaves it where it was
        self.assertAlmostEqual(kind_typical(kinds * 2, [1.0, 4.0, 2.0, 8.0] * 2), typical)

    def test_speed_scales_a_phase_by_its_own_samples(self):
        from speed import Speed

        speed = Speed()
        speed.times, speed.samples = [1.0, 2.0, 3.0], [0.07, 0.28, 0.07]
        self.assertAlmostEqual(speed.scale(2.0), speed.nominal_s / 0.14)
        self.assertAlmostEqual(speed.scale(9.0), speed.nominal_s / 0.07)  # the latest


class CheckTest(unittest.TestCase):
    def test_a_bad_witness_is_caught(self):
        pair = PairStream(3, (("rational", 3),)).next_pairs()[0]  # a 1mp pair
        verdict = leq_minus(pair.a, pair.b)
        self.assertIsNone(check_verdict("minus", pair, verdict))
        k = verdict.witness.inner
        bad = MinusWitness(k + k, verdict.witness.p, verdict.witness.q)
        self.assertIsNotNone(check_witness("minus", pair.a, pair.b, bad))


class RunPhaseTest(unittest.TestCase):
    def test_a_check_that_raises_is_a_failed_op(self):
        from run import run_phase
        from speed import Speed
        from workloads import Op

        class Workload:
            def rounds(self):
                while True:
                    yield [Op("bad", lambda: None, lambda out: out.witness)]

        latencies, _, _, problems, undecided = run_phase(Workload(), 0.001, Speed())
        self.assertEqual(len(latencies), 1)
        self.assertEqual(len(problems), 1)
        self.assertEqual(undecided, [])

    def test_an_undecided_verdict_is_counted_apart_from_failures(self):
        from run import run_phase
        from speed import Speed
        from workloads import Op, Undecided

        class Workload:
            def rounds(self):
                while True:
                    yield [Op("plus", lambda: None, lambda out: Undecided("undecided"))]

        latencies, _, _, problems, undecided = run_phase(Workload(), 0.001, Speed())
        self.assertEqual(len(latencies), 1)
        self.assertEqual(problems, [])
        self.assertEqual([kind for kind, _ in undecided], ["plus"])

    def test_timed_decisions_get_fresh_matrices(self):
        import workloads

        pair = PairStream(3, (("rational", 3),)).next_pairs()[0]
        seen = []
        original = workloads.od.leq_minus
        workloads.od.leq_minus = lambda a, b: seen.append((a, b))
        try:
            workloads._relation_call("minus", pair.a, pair.b)()
        finally:
            workloads.od.leq_minus = original
        [(a, b)] = seen
        self.assertEqual((a, b), (pair.a, pair.b))
        self.assertIsNot(a, pair.a)
        self.assertIsNot(b, pair.b)


class RegistryTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, unit, _ in spans.LAYER_METRICS],
        )
        self.assertEqual(spans.THEOREM_IDS, theorems.theorem_ids())


def _run(workload, trace=0, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, (json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None)


class SmokeTest(unittest.TestCase):
    """Every workload, with the shortest budget: at least one round each."""

    def _smoke(self, workload):
        proc, result = _run(workload)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0, proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for entry in result["metrics"].values():
            self.assertGreater(entry["value"], 0)

    def test_decide_small_holds(self):
        self._smoke("decide-small-holds")

    def test_decide_small_fails(self):
        self._smoke("decide-small-fails")

    def test_decide_large_holds(self):
        self._smoke("decide-large-holds")

    def test_oracle_sweep(self):
        self._smoke("oracle-sweep")

    def test_cli_oneshot(self):
        self._smoke("cli-oneshot")

    def test_traced_run_prints_every_layer_metric(self):
        proc, result = _run("cli-oneshot", trace=1, seconds=2)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["per_layer"]})
        self.assertGreater(result["metrics"]["cli.command.self_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
