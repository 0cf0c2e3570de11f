"""The traced run (--trace 1): per-layer metrics.

Two sources, both run after (never during) an end-to-end measurement:

* a short daemon run of the requested workload, for the attribution only
  the wire shows: serve overhead, queue wait, RTT not spent solving, and
  plan-cache hits;
* perfbench_layers, which sends each workload's generated inputs through
  the library's public functions in-process and times every layer with
  the benchmark's own spans (layers.cc).

PER_LAYER is the contract with BENCHMARK.json's per_layer list: every
metric, its unit and direction, and the end-to-end metric and workload a
change to that layer should move.
"""

import os
import statistics
import subprocess

import daemon
import workloads
from daemon import BenchError, log

# Engine-mix request classes, as workloads.engine_mix names them.
ENGINE_MIX_CLASSES = (
    "closed-form", "lineage-n28", "lineage-n56", "lineage-n112",
    "sum-count-n37", "sum-count-n73", "sum-count-n109", "min-max",
    "count-distinct", "avg-quantile", "has-duplicates", "monte-carlo",
    "deadline")
# Engines whose engine:* spans the engine-mix classes produce.
ENGINES = (
    "closed-form_single-relation", "lineage-circuit", "sum-count_linearity",
    "min-max_all-hierarchical-dp", "count-distinct_boolean-reduction",
    "avg-quantile_q-hierarchical-dp", "has-duplicates_sq-hierarchical-dp",
    "gated-product_prop-7.3")
LADDERS = {"sum-count": (37, 73, 109), "lineage": (28, 56, 112)}

EM, PS, MM = "engine-mix", "pipelined-small", "mutate-mix"


def _per_layer():
    rows = [
        # (name, unit, better, should move, on)
        ("serve.parse_us", "us", "lower",
         "server_cpu_us_per_op, throughput_ops", PS),
        ("serve.build_us", "us", "lower",
         "server_cpu_us_per_op, throughput_ops", PS),
        ("serve.render_us", "us", "lower", "server_cpu_us_per_op", PS),
        ("serve.response_bytes", "bytes", "lower", "server_cpu_us_per_op",
         PS),
        ("serve.journal_append_us", "us", "lower", "server_cpu_us_per_op",
         PS),
        ("serve.journal_append_write_us", "us", "lower", "write_p50_ms", MM),
        ("serve.overhead_us_per_op", "us", "lower", "server_cpu_us_per_op",
         PS),
        ("serve.queue_ms", "ms", "lower", "solve_p50_ms", EM + ", " + PS),
        ("serve.rtt_minus_solve_us", "us", "lower", "solve_p50_ms",
         EM + ", " + PS),
        ("obs.trace_render_us", "us", "lower", "server_cpu_us_per_op", PS),
        ("plan.compile_us", "us", "lower", "setup_s", "all"),
        ("plan.get_us", "us", "lower", "server_cpu_us_per_op", PS),
        ("plan.cache_hit_ratio", "ratio", "higher", "server_cpu_us_per_op",
         PS),
    ]
    for cls in ENGINE_MIX_CLASSES:
        rows.append(("session.compute_all_ms." + cls, "ms", "lower",
                     "solve_p50_ms, throughput_ops", EM))
        rows.append(("session.alloc_calls." + cls, "count", "lower",
                     "solve_p50_ms, throughput_ops", EM))
    for engine in ENGINES:
        rows.append(("engine.%s.self_ms" % engine, "ms", "lower",
                     "solve_tail_ms, throughput_ops", EM))
    for family, sizes in LADDERS.items():
        for n in sizes:
            rows.append(("engine.%s.facts_per_s.n%d" % (family, n), "1/s",
                         "higher", "solve_tail_ms, throughput_ops", EM))
        rows.append(("engine.%s.scaling_exp" % family, "exp", "lower",
                     "solve_tail_ms, throughput_ops", EM))
    rows += [
        ("session.cancel_latency_ms", "ms", "lower", "deadline_rtt_ms", EM),
        ("mc.samples_per_s", "1/s", "higher", "deadline_rtt_ms", EM),
        ("lineage.extract_us", "us", "lower", "solve_p50_ms", EM + ", " + MM),
        ("lineage.compile_us", "us", "lower", "solve_p50_ms", EM + ", " + MM),
        ("lineage.count_us", "us", "lower", "solve_p50_ms", EM + ", " + MM),
        ("lineage.circuit_nodes", "count", "lower", "solve_p50_ms",
         EM + ", " + MM),
        ("lineage.cache_hit_ratio", "ratio", "higher", "solve_p50_ms",
         EM + ", " + MM),
        ("query.homomorphisms_us", "us", "lower", "solve_p50_ms", EM),
        ("query.answers_touching_us", "us", "lower", "write_p50_ms", MM),
        ("data.intersect_ns", "ns", "lower", "solve_p50_ms", EM),
        ("data.load_tenant_ms", "ms", "lower", "setup_s", "all"),
        ("data.insert_us", "us", "lower", "write_p50_ms, write_tail_ms", MM),
        ("data.delete_us", "us", "lower", "write_p50_ms, write_tail_ms", MM),
        ("data.compact_ms", "ms", "lower", "write_p50_ms, write_tail_ms", MM),
    ]
    return rows


PER_LAYER = _per_layer()

# Inputs of the in-process replay: how much of each workload it runs.
_ENGINE_MIX_SOLVES = 48
_PIPELINED_SOLVES = 2000
# The daemon run's nominal length (seconds of work) in a traced run.
_DAEMON_SECONDS = 5


def _write_inputs(root, seed):
    """Generated inputs of every workload, for perfbench_layers."""
    for name in workloads.WORKLOADS:
        # mutate-mix's writes need enough deletes for compaction to fire
        # twice per tenant; the other two need only a slice.
        w = workloads.build(name, seed, 60 if name == MM else 1)
        base = os.path.join(root, name)
        os.makedirs(os.path.join(base, "tenants"))
        for tenant, text in w.tenants.items():
            with open(os.path.join(base, "tenants", tenant + ".db"), "w") as f:
                f.write(text)
        rows = sorted(w.schedule, key=lambda e: e.req["id"])
        if name == MM:
            rows = [e for e in rows if e.kind == "w"]
        else:
            limit = _ENGINE_MIX_SOLVES if name == EM else _PIPELINED_SOLVES
            rows = [e for e in rows if e.kind == "s"][:limit]
        with open(os.path.join(base, "requests.tsv"), "w") as f:
            for e in rows:
                f.write("%s\t%s\t%s\n" % (e.cls, e.kind, workloads.line(e.req)))


def _wire_metrics(w, obs):
    rows = obs["rows"]
    solves = [rows[e.req["id"]] for e in w.schedule
              if e.kind == "s" and rows[e.req["id"]]["status"] == "ok"]
    ops = len(w.schedule)
    solve_us = sum(r["solve_ms"] for r in solves) * 1e3
    return {
        "serve.overhead_us_per_op": (obs["cpu_s"] * 1e6 - solve_us) / ops,
        "serve.queue_ms": statistics.mean(r["queue_ms"] for r in solves),
        "serve.rtt_minus_solve_us": statistics.mean(
            (r["rtt_ms"] - r["queue_ms"] - r["solve_ms"]) * 1e3
            for r in solves),
        "plan.cache_hit_ratio":
            sum(r["plan_cache_hit"] for r in solves) / len(solves),
    }


def run(bins, workload, seed, work):
    """Returns (metrics, attempted, failed) for --trace 1."""
    w = workloads.build(workload, seed, _DAEMON_SECONDS)
    log("traced run of %s seed %d: digest %s" % (workload, seed, w.digest()))
    obs = daemon.run_daemon_phase(bins, w, os.path.join(work, "daemon"),
                                  setups=1, setup_min_s=0)
    _, attempted, failed = daemon.end_to_end_metrics(w, obs)
    values = _wire_metrics(w, obs)

    inputs = os.path.join(work, "layers")
    _write_inputs(inputs, seed)
    proc = subprocess.run([bins["perfbench_layers"], "--inputs", inputs],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=150)
    for text in proc.stderr.splitlines():
        log(text)
    if proc.returncode != 0:
        raise BenchError("perfbench_layers failed")
    for text in proc.stdout.splitlines():
        name, value, _ = text.split("\t")
        values[name] = float(value)

    expected = {name for name, _, _, _, _ in PER_LAYER}
    if set(values) != expected:
        raise BenchError("per-layer metrics differ from PER_LAYER: missing "
                          "%s, unexpected %s"
                          % (sorted(expected - set(values)),
                             sorted(set(values) - expected)))
    metrics = {}
    log("%-48s %14s %-6s  should move (on)" % ("per-layer metric", "value",
                                               "unit"))
    for name, unit, _, moves, on in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        log("%-48s %14.6g %-6s  %s (%s)" % (name, values[name], unit, moves,
                                            on))
    return metrics, attempted, failed
