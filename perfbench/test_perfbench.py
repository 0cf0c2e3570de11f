"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

No build and no daemon: these check the statistics, the metric contract
with BENCHMARK.json, and the seeded workload generation.
"""

import json
import os
import unittest

import daemon
import layers
import stats
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(199), 90)
        self.assertEqual(stats.tail_percentile(200), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(1999), 99)
        self.assertEqual(stats.tail_percentile(2000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)

    def test_every_choice_leaves_ten_beyond(self):
        for n in range(20, 5000, 37):
            p = stats.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > stats.percentile(values, p) for v in values)
            self.assertGreaterEqual(beyond, stats.TAIL_MIN_BEYOND, (n, p))

    def test_small_samples_fall_back_to_median(self):
        self.assertEqual(stats.tail_percentile(5), 50)
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (2.0, 50, 3))

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 90), 90.0)
        self.assertEqual(stats.tail(values), (90.0, 90, 100))

    def test_spread_matches_statistics_quantiles(self):
        median, q1, q3, rel = stats.spread([10, 11, 12, 13, 14, 15, 16, 17,
                                            18, 19])
        self.assertEqual(median, 14.5)
        self.assertAlmostEqual(rel, (q3 - q1) / median)


class MetricContract(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_are_well_formed_and_unique(self):
        names = [m[0] for m in stats.END_TO_END]
        names += [m[0] for m in layers.PER_LAYER]
        for name in names:
            self.assertRegex(name, stats.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_matches_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"], m["bound"])
                    for m in self.bench["end_to_end"]]
        self.assertEqual(declared, [tuple(m) for m in stats.END_TO_END])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))

    def test_per_layer_matches_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.bench["per_layer"]]
        self.assertEqual(declared,
                         [(n, u, b) for n, u, b, _, _ in layers.PER_LAYER])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(workloads.BENCHMARKED))
        self.assertLessEqual(set(workloads.BENCHMARKED),
                             set(workloads.WORKLOADS))

    def test_side_write_tail_is_their_median(self):
        seconds = self.bench["run_seconds"]
        for name in workloads.BENCHMARKED:
            w = workloads.build(name, 1, seconds)
            writes = sum(1 for e in w.schedule if e.kind == "w")
            self.assertEqual(stats.tail_percentile(writes), 50, name)


def fake_observations(w):
    """What a clean daemon run of `w` would report: every request ok."""
    bodies, body_of = {}, {}
    for name, cls in w.classes.items():
        body_of[name] = len(bodies)
        exact = 0 if cls.engine == "monte-carlo" else 9
        bodies[body_of[name]] = (9, exact, {cls.engine})
    rows = {}
    for k, e in enumerate(w.schedule):
        rows[e.req["id"]] = {
            "rtt_ms": 1.0 + k % 7, "status": "ok", "degraded": False,
            "plan_cache_hit": True, "queue_ms": 0.1, "solve_ms": 0.5,
            "body": body_of[e.cls] if e.kind == "s" else -1}
    return {"setup": [0.3, 0.2, 0.4], "cpu_s": 2.0, "rss_mb": 7.5,
            "wall_s": 3.0, "rows": rows, "bodies": bodies}


class PerWorkloadMetrics(unittest.TestCase):
    def test_every_workload_reports_every_metric_nonzero(self):
        for name in workloads.WORKLOADS:
            w = workloads.build(name, 7, 1)
            metrics, attempted, failed = daemon.end_to_end_metrics(
                w, fake_observations(w))
            self.assertEqual(list(metrics), [m[0] for m in stats.END_TO_END])
            for metric, value in metrics.items():
                self.assertGreater(value["value"], 0, (name, metric))
            self.assertEqual((attempted, failed), (len(w.schedule), 0))

    def test_wrong_engine_fails_the_run(self):
        w = workloads.build("engine-mix", 7, 1)
        obs = fake_observations(w)
        obs["bodies"][0] = (9, 9, {"brute-force"})
        with self.assertRaises(daemon.WrongAnswer):
            daemon.end_to_end_metrics(w, obs)


class Workloads(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 11, 2)
            b = workloads.build(name, 11, 2)
            self.assertEqual(a.digest(), b.digest())
            self.assertEqual(a.schedule_lines(), b.schedule_lines())
            self.assertEqual(a.tenants, b.tenants)

    def test_other_seed_same_work(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 1, 2)
            b = workloads.build(name, 2, 2)
            self.assertNotEqual(a.digest(), b.digest())

            def shape(w):
                return sorted((e.conn, e.kind, e.cls) for e in w.schedule)
            self.assertEqual(shape(a), shape(b))
            self.assertEqual({t: len(x.splitlines()) for t, x in
                              a.tenants.items()},
                             {t: len(x.splitlines()) for t, x in
                              b.tenants.items()})

    def test_ids_unique_and_connections_bounded(self):
        for name in workloads.WORKLOADS:
            w = workloads.build(name, 3, 2)
            ids = [req["id"] for _, req in w.warm]
            ids += [e.req["id"] for e in w.schedule]
            self.assertEqual(len(ids), len(set(ids)))
            self.assertLessEqual(len({e.conn for e in w.schedule}),
                                 os.cpu_count() or 4)

    def test_every_insert_is_deleted_on_its_own_connection(self):
        for name in workloads.WORKLOADS:
            w = workloads.build(name, 5, 2)
            live = {}
            for e in w.schedule:
                req = e.req
                if e.kind != "w":
                    continue
                key = (req["tenant"], req["fact"].lstrip("+"))
                if req["op"] == "insert_fact":
                    self.assertNotIn(key, live)
                    live[key] = e.conn
                else:
                    self.assertEqual(live.pop(key), e.conn)
            self.assertEqual(live, {})

    def test_write_gates_spread_through_the_solves(self):
        w = workloads.build("mutate-mix", 5, 2)
        solves = sum(1 for e in w.schedule if e.kind == "s")
        gates = [e.gate for e in w.schedule if e.kind == "w"]
        self.assertEqual(gates, sorted(gates))
        self.assertGreater(gates[0], 0)
        self.assertLess(gates[-1], solves)

    def test_engine_mix_lanes_carry_equal_work(self):
        w = workloads.build("engine-mix", 9, 3)
        lanes = [sorted(e.cls for e in w.schedule
                        if e.conn == c and e.kind == "s") for c in (0, 1)]
        self.assertEqual(lanes[0], lanes[1])


if __name__ == "__main__":
    unittest.main()
