"""Metric definitions and the statistics the benchmark reports.

END_TO_END is the contract with BENCHMARK.json (a test keeps the two
equal): each metric's unit, direction and regression bound, the share of
the parent's median by which it may worsen.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops", "1/s", "higher", 0.25),
    ("solve_p50_ms", "ms", "lower", 0.25),
    ("solve_tail_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_tail_ms", "ms", "lower", 0.25),
    ("deadline_rtt_ms", "ms", "lower", 0.25),
    ("server_cpu_us_per_op", "us", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.05),
    ("exact_fact_ratio", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Candidate tail percentiles, lowest first: the median and the nines. Steps
# between them (p75, p95, p99.5) fell on the edge of a slow share of the
# samples (a scheduler slice, two heavy solves at once) whose size moves
# with the host's load, and spread two to three times wider between runs.
TAIL_LADDER = (50, 90, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def _rank(p, count):
    """Nearest rank of percentile p among count samples. The guard keeps
    float error in p / 100 * count (99.9% of 10000) off the next rank."""
    return max(1, math.ceil(p / 100.0 * count - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = _rank(p, len(ordered))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    ranked above it; the median when even that has fewer."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        rank = _rank(p, count)
        if count - rank >= TAIL_MIN_BEYOND:
            best = p
    return best


def tail(values):
    """(value, percentile, sample count) under the tail rule."""
    p = tail_percentile(len(values))
    return percentile(values, p), p, len(values)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")
