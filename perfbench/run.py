#!/usr/bin/env python3
"""The shapcqd benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload engine-mix --seed 1 --seconds 40 \
        --trace 0

Run from the repository root. The first run builds the daemon and the
benchmark's helpers from source into .bench_build (see CMakeLists.txt
here); later runs only check the build is current.

--trace 0 (end to end): starts the real shapcqd as its own process
(`--workers 2 --journal`, every other flag at its default, stderr
discarded), sets it up (load every tenant over the wire, one warm pass of
every request class, asserting each class's engine) at least seven times
and for at least two seconds in all, reports the median set-up time,
then drives the timed schedule with perfbench_load and reads the
daemon's CPU and peak RSS from /proc.
perfbench_check then replays the journal and compares every exact score
on the wire bitwise (daemon.py). A mismatch or a request class served by
the wrong engine exits 1; a failed build or daemon exits 2.

--trace 1 (per layer): a shorter daemon run for the wire-side
attribution, then perfbench_layers, which sends the same generated
inputs through the library's public functions in-process and times each
layer (layers.py, layers.cc).

--steady K runs the workload K times with seeds --seed .. --seed + K - 1
and prints each end-to-end metric's median, quartiles and spread against
its bound.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Everything else goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import daemon  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from daemon import BenchError, WrongAnswer, log  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build(root):
    for need in ("CMakeLists.txt", "src/shapcq", "tools/shapcqd.cc"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError("not a shapcq checkout: %s is missing" % need)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(root, out)
    os.makedirs(out, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    with open(os.path.join(out, "perfbench-build.log"), "w") as logf:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT,
                               env=env, cwd=root) != 0:
                raise BenchError("build failed: %s (log in %s)"
                                 % (" ".join(cmd), logf.name))
    bins = {"shapcqd": os.path.join(out, "shapcq", "shapcqd")}
    for name in ("perfbench_load", "perfbench_check", "perfbench_layers"):
        bins[name] = os.path.join(out, name)
    return bins


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def run_once(root, workload, seed, seconds, trace):
    bins = build(root)
    work = os.path.join(root, ".bench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if trace:
        return layers.run(bins, workload, seed, work)
    w = workloads.build(workload, seed, seconds)
    log("workload %s seed %d: %d tenants, %d timed requests, digest %s"
        % (workload, seed, len(w.tenants), len(w.schedule), w.digest()))
    obs = daemon.run_daemon_phase(bins, w, work)
    return daemon.end_to_end_metrics(w, obs)


def steady(root, workload, first_seed, seconds, k):
    """Runs `workload` k times (seeds first_seed, first_seed + 1, ...) in
    child processes and prints each end-to-end metric's median, quartiles
    and spread (interquartile range over median) against its bound. Exits
    3 when a spread other than setup_s's exceeds its bound."""
    runs = []
    for seed in range(first_seed, first_seed + k):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, cwd=root)
        if out.returncode != 0:
            log("seed %d failed" % seed)
            return 1
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    ok = True
    print("%-22s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for name, unit, _, bound in stats.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, rel = stats.spread(values)
        verdict = ""
        if rel > bound:
            verdict = "  OVER BOUND"
            ok = ok and name == "setup_s"
        elif rel > bound / 3:
            verdict = "  over a third of the bound"
        print("%-22s %12.5g %12.5g %12.5g %8.3f %8.2f %s%s"
              % (name, median, q1, q3, rel, bound, unit, verdict))
    return 0 if ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.steady:
        return steady(root, args.workload, args.seed, args.seconds,
                      args.steady)
    try:
        metrics, attempted, failed = run_once(
            root, args.workload, args.seed, args.seconds, args.trace)
    except WrongAnswer as wrong:
        log("WRONG ANSWER: %s" % wrong)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        log("benchmark failed: %s" % error)
        return 2
    for name, m in metrics.items():
        log("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
