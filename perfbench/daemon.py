"""Driving the real shapcqd: set-up, the timed schedule, the checks.

The daemon runs as its own process (`--workers 2 --journal`, every other
flag at its default, stderr discarded). Set-up is timed from starting the
process to ready: listening, every tenant loaded over the wire
(op:"load_tenant"), and one warm pass of every request class, each
asserted to be served by its intended engine. The timed schedule then
runs through perfbench_load, the daemon's CPU (utime + stime) and peak
RSS (VmHWM) are read from /proc/<pid>, and perfbench_check proves every
exact answer on the wire against a replay of the daemon's journal.
"""

import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

import stats
import workloads

WORKERS = 2
SETUPS = 7
# A set-up of a small workload takes ~40 ms, within one state of the host;
# repeating it for this long spreads the median over several.
SETUP_MIN_S = 2.0
DAEMON_TIMEOUT_S = 60


class BenchError(Exception):
    """The run cannot produce a result (build, daemon, or wire failure)."""


class WrongAnswer(Exception):
    """The program answered wrong: parity or engine routing."""


def log(message):
    print(message, file=sys.stderr, flush=True)


class Daemon:
    """A shapcqd process: started, set up over the wire, stopped."""

    def __init__(self, binary, journal):
        self.proc = subprocess.Popen(
            [binary, "--workers", str(WORKERS), "--journal", journal],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = None
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while self.port is None:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0, deadline - time.monotonic()))
            text = self.proc.stdout.readline() if ready else ""
            if not text:
                self.stop()
                raise BenchError("shapcqd did not start")
            if "listening on 127.0.0.1:" in text:
                self.port = int(text.split("127.0.0.1:")[1].split()[0])
        self.sock = socket.create_connection(("127.0.0.1", self.port))
        self.sock.settimeout(DAEMON_TIMEOUT_S)
        self.io = self.sock.makefile("rw")

    def call(self, req):
        self.io.write(workloads.line(req) + "\n")
        self.io.flush()
        text = self.io.readline()
        if not text:
            raise BenchError("shapcqd closed the connection")
        return json.loads(text)

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for text in f:
                if text.startswith("VmHWM:"):
                    return int(text.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc")

    def stop(self):
        try:
            self.io.close()
            self.sock.close()
        except AttributeError:
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def check_engines(cls, response):
    """Raises WrongAnswer unless every fact was scored by cls's engine."""
    if response.get("status") != "ok":
        raise WrongAnswer("class %s failed: %s" % (cls.name, response))
    engines = {r["algorithm"] for r in response.get("results", [])}
    if not engines or engines != {cls.engine}:
        raise WrongAnswer("class %s served by %s, expected %s"
                          % (cls.name, sorted(engines), cls.engine))


def set_up(bins, w, journal):
    """Starts shapcqd and makes it ready; returns (daemon, seconds)."""
    start = time.monotonic()
    daemon = Daemon(bins["shapcqd"], journal)
    try:
        for name, text in w.tenants.items():
            reply = daemon.call({"op": "load_tenant", "id": 0, "tenant": name,
                                 "db": text})
            if reply.get("status") != "ok":
                raise BenchError("load_tenant %s: %s" % (name, reply))
        for cls_name, req in w.warm:
            reply = daemon.call(req)
            if cls_name == "write":
                if reply.get("status") != "ok":
                    raise BenchError("warm write failed: %s" % reply)
            else:
                check_engines(w.classes[cls_name], reply)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.monotonic() - start


# --------------------------------------------------------------------------
# One end-to-end run
# --------------------------------------------------------------------------

def write_inputs(work, w):
    tenants = os.path.join(work, "tenants")
    os.makedirs(tenants)
    for name, text in w.tenants.items():
        with open(os.path.join(tenants, name + ".db"), "w") as f:
            f.write(text)
    schedule = os.path.join(work, "schedule.tsv")
    with open(schedule, "w") as f:
        f.write("\n".join(w.schedule_lines()) + "\n")
    return tenants, schedule


def read_responses(prefix):
    with open(prefix + ".tsv") as f:
        wall_ns = int(f.readline().split("\t")[1])
        rows = {}
        for text in f:
            c = text.rstrip("\n").split("\t")
            rows[int(c[1])] = {
                "rtt_ms": (int(c[3]) - int(c[2])) / 1e6,
                "status": c[4], "degraded": c[5] == "1",
                "plan_cache_hit": c[6] == "1", "queue_ms": float(c[7]),
                "solve_ms": float(c[8]), "body": int(c[9])}
    return wall_ns / 1e9, rows


def run_check(bins, journal, tenants, prefix):
    proc = subprocess.run(
        [bins["perfbench_check"], "--journal", journal, "--tenants", tenants,
         "--responses", prefix], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise WrongAnswer(proc.stderr.strip() or "perfbench_check failed")
    bodies = {}
    for text in proc.stdout.splitlines():
        c = text.split("\t")
        if c[0] == "body":
            bodies[int(c[1])] = (int(c[2]), int(c[3]),
                                 set(c[4].split(",")) if c[4] else set())
        elif c[0] == "checked":
            log("parity: %s solves matched their replay, %s exact scores "
                "compared bitwise, %s (state, request) pairs replayed"
                % (c[1], c[2], c[3]))
    return bodies


def run_daemon_phase(bins, w, work, setups=SETUPS, setup_min_s=SETUP_MIN_S):
    """Set up at least `setups` times and for at least `setup_min_s` in
    all, drive the schedule on the last daemon, stop it, and check every
    answer. Returns the raw observations."""
    tenants, schedule = write_inputs(work, w)
    setup_times = []
    while True:
        journal = os.path.join(work, "journal-%d.bin" % len(setup_times))
        daemon, seconds = set_up(bins, w, journal)
        setup_times.append(seconds)
        if len(setup_times) >= setups and sum(setup_times) >= setup_min_s:
            break
        daemon.stop()
        os.remove(journal)
    prefix = os.path.join(work, "responses")
    try:
        cpu_before = daemon.cpu_seconds()
        proc = subprocess.run(
            [bins["perfbench_load"], "--port", str(daemon.port),
             "--schedule", schedule, "--window", str(w.window),
             "--out", prefix], stderr=subprocess.PIPE, text=True,
            timeout=150)
        cpu = daemon.cpu_seconds() - cpu_before
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    if proc.returncode != 0:
        raise BenchError("perfbench_load: %s" % proc.stderr.strip())
    wall_s, rows = read_responses(prefix)
    bodies = run_check(bins, journal, tenants, prefix)
    return {"setup": setup_times, "cpu_s": cpu, "rss_mb": rss,
            "wall_s": wall_s, "rows": rows, "bodies": bodies}


def end_to_end_metrics(w, obs):
    """The END_TO_END metrics of one run, plus attempted/failed counts."""
    rows = obs["rows"]
    attempted = len(w.schedule)
    if len(rows) != attempted:
        raise BenchError("%d responses for %d requests"
                         % (len(rows), attempted))
    solve_rtt, write_rtt, deadline_rtt = [], [], []
    facts = exact = ok = 0
    for entry in w.schedule:
        req = entry.req
        row = rows[req["id"]]
        if row["status"] != "ok":
            continue
        ok += 1
        if entry.kind == "w":
            write_rtt.append(row["rtt_ms"])
            continue
        solve_rtt.append(row["rtt_ms"])
        if "deadline_ms" in req:
            deadline_rtt.append(row["rtt_ms"])
        n, n_exact, engines = obs["bodies"][row["body"]]
        facts += n
        exact += n_exact
        cls = w.classes[entry.cls]
        allowed = {cls.engine, "monte-carlo"} if row["degraded"] \
            else {cls.engine}
        if not engines or not engines <= allowed:
            raise WrongAnswer("request %d (%s) served by %s"
                              % (req["id"], cls.name, sorted(engines)))
    if not solve_rtt or not write_rtt or not deadline_rtt:
        raise BenchError("a request kind has no successful sample")
    solve_tail, solve_p, solve_n = stats.tail(solve_rtt)
    write_tail, write_p, write_n = stats.tail(write_rtt)
    log("solve tail: p%g of %d samples; write tail: p%g of %d samples; "
        "deadline solves: %d" % (solve_p, solve_n, write_p, write_n,
                                 len(deadline_rtt)))
    values = {
        "setup_s": statistics.median(obs["setup"]),
        "throughput_ops": ok / obs["wall_s"],
        "solve_p50_ms": stats.percentile(solve_rtt, 50),
        "solve_tail_ms": solve_tail,
        "write_p50_ms": stats.percentile(write_rtt, 50),
        "write_tail_ms": write_tail,
        "deadline_rtt_ms": stats.percentile(deadline_rtt, 50),
        "server_cpu_us_per_op": obs["cpu_s"] * 1e6 / attempted,
        "ok_ratio": ok / attempted,
        "exact_fact_ratio": exact / facts,
        "peak_rss_mb": obs["rss_mb"],
    }
    units = {name: unit for name, unit, _, _ in stats.END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, _, _, _ in stats.END_TO_END}
    return metrics, attempted, attempted - ok
