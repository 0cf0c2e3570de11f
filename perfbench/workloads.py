"""Seeded workload generation for the shapcqd benchmark.

Every input the daemon sees comes from here: tenant database text (the
db_io.h line format, sent with op:"load_tenant") and request lines (the
serve/protocol.h wire format). The seed relabels constants, which are
also the aggregated values, and shuffles the request order inside each
round; the join structure of every tenant and the number of requests of
each class are fixed. The work a run does is therefore the same for
every seed, and runs with different seeds stay comparable.

`build(name, seed, seconds)` returns a `Workload`: tenants, the warm-up
pass (one request per class), and the timed schedule for the load
generator. The amount of work is fixed by `seconds` (a nominal rate per
second of this benchmark's reference host), never by the clock, so a
slow moment on the host makes a run longer, not smaller.
"""

import collections
import hashlib
import json
import random

STAR_QUERY = "Q(x) <- R(x, a), S(x, b), T(x, c), U(x, d), V(x, e)"
XYY_QUERY = "Q(x) <- R(x, y), S(y)"
YXY_QUERY = "Q(y) <- R(x, y), S(y)"
SINGLE_QUERY = "Q(x, y) <- R(x, y)"
CHAIN_QUERY = "Q(z) <- R(z, x), S(x, y), T(y)"
# The side tenants' dirty-query probe: an inserted R(x, hub) touches every
# S(hub, z) answer.
HUB_QUERY = "Q(z) <- R(x, y), S(y, z)"

WORKLOADS = ("engine-mix", "pipelined-small", "mutate-mix")
# The workloads BENCHMARK.json declares, so the ones every regression check
# runs. Three workloads do not fit that check's time budget at a run length
# that averages over the host's drift; mutate-mix stays runnable by name.
BENCHMARKED = ("engine-mix", "pipelined-small")

# Inserted facts get labels from a range the base tenants never use.
_NEW_LABELS = (10**6, 10**7)
# Live inserted facts per write tenant: each insert past this depth
# deletes the oldest one, so tenants stay bounded.
_WRITE_DEPTH = 8


# One timed request: its connection, kind ("s" solve, "w" write), the
# solve count it waits for (-1: none) plus a further delay, its class and
# the request itself.
Entry = collections.namedtuple(
    "Entry", ["conn", "kind", "gate", "delay_us", "cls", "req"])


class Class:
    """A request class: its request fields, the engine that must score
    it, and how many of it each round of the schedule holds."""

    def __init__(self, name, fields, engine, per_round=1):
        self.name = name
        self.fields = fields
        self.engine = engine
        self.per_round = per_round


class Workload:
    def __init__(self):
        self.tenants = {}  # name -> db text
        self.classes = {}  # name -> Class
        self.warm = []  # (class name, request): solves and writes
        self.schedule = []  # Entry

        self.window = 1  # requests in flight per solve connection
        self._next_id = 1

    def add_class(self, cls):
        self.classes[cls.name] = cls

    def request(self, cls_name, **overrides):
        fields = dict(self.classes[cls_name].fields)
        fields.update(overrides)
        fields["id"] = self._next_id
        self._next_id += 1
        return fields

    def write(self, op, tenant, fact, query):
        req = {"op": op, "id": self._next_id, "tenant": tenant, "fact": fact,
               "query": query}
        self._next_id += 1
        return req

    def schedule_lines(self):
        return ["%d\t%s\t%d\t%d\t%s" % (e.conn, e.kind, e.gate, e.delay_us,
                                          line(e.req))
                for e in self.schedule]

    def digest(self):
        """A hash of every byte the daemon is sent, for comparing runs."""
        h = hashlib.sha256()
        for name in sorted(self.tenants):
            h.update(("%s\n%s" % (name, self.tenants[name])).encode())
        for _, req in self.warm:
            h.update((line(req) + "\n").encode())
        for text in self.schedule_lines():
            h.update((text + "\n").encode())
        return h.hexdigest()[:16]


def line(req):
    return json.dumps(req, separators=(",", ":"), sort_keys=True)


def _labels(rng, count, lo=1000, hi=999999):
    return rng.sample(range(lo, hi), count)


def _fact(sign, rel, *args):
    return "%s%s(%s)" % (sign, rel, ", ".join(str(a) for a in args))


def _text(lines):
    return "\n".join(lines) + "\n"


def xyy_db(rng, players):
    """Q(x) <- R(x, y), S(y) with `players` endogenous facts.

    A third of the players are S(y) facts; each x joins three y's in a
    fixed pattern. Returns (text, y labels): inserted R facts join a y.
    """
    ny = max(2, players // 3)
    nr = players - ny
    nx = max(2, nr // 3)
    pairs = [(i % nx, (i // nx + 2 * (i % nx)) % ny) for i in range(nr)]
    assert len(set(pairs)) == nr, (players, nx, ny)
    xs = _labels(rng, nx)
    ys = _labels(rng, ny)
    lines = [_fact("+", "R", xs[i], ys[j]) for i, j in pairs]
    lines += [_fact("+", "S", y) for y in ys]
    return _text(lines), ys


def single_db(rng, players):
    """One relation R(x, y), every fact endogenous: the closed forms'
    input for Q(x, y) <- R(x, y)."""
    nx = max(2, players // 4)
    xs = _labels(rng, nx)
    ys = _labels(rng, players)
    return _text(_fact("+", "R", xs[i % nx], ys[i]) for i in range(players))


def chain_db(rng, groups):
    """Q(z) <- R(z, x), S(x, y), T(y) on BlockChainDatabase's shape.

    `groups` independent blocks of 7 endogenous facts (2 R, 3 S, 2 T).
    The query is not hierarchical, so lineage circuits score it. Returns
    (text, x labels): inserted R facts join an x.
    """
    labels = _labels(rng, groups * 5)
    lines, xs = [], []
    for g in range(groups):
        z, x1, x2, y1, y2 = labels[5 * g:5 * g + 5]
        lines += [_fact("+", "R", z, x1), _fact("+", "R", z, x2),
                  _fact("+", "S", x1, y1), _fact("+", "S", x1, y2),
                  _fact("+", "S", x2, y2), _fact("+", "T", y1),
                  _fact("+", "T", y2)]
        xs += [x1, x2]
    return _text(lines), xs


def star_db(rng):
    """bench_daemon's 5-atom star query: 3 facts per relation over two
    x's, 9 of the 15 endogenous."""
    xs = _labels(rng, 2)
    lines = []
    for r, rel in enumerate("RSTUV"):
        vals = _labels(rng, 3)
        for k in range(3):
            sign = "+" if (r + k) % 5 < 3 else "-"
            lines.append(_fact(sign, rel, xs[k % 2], vals[k]))
    return _text(lines)


def hub_db(rng, hubs=4, fanout=2000):
    """The side tenant writes go to: `hubs` y's with `fanout` exogenous
    S(y, z) facts each. Returns (text, hub labels): a write on R(x, hub)
    probes `fanout` dirty answers, about a millisecond of AnswersTouching,
    so the write path does real work next to the scheduler's noise."""
    ys = _labels(rng, hubs)
    zs = _labels(rng, fanout)
    lines = [_fact("-", "S", y, z) for y in ys for z in zs]
    lines += [_fact("+", "R", x, y) for x, y in zip(_labels(rng, hubs), ys)]
    return _text(lines), ys


def _solve(tenant, query, agg, tau="id:1", **extra):
    fields = {"op": "solve", "tenant": tenant, "query": query, "agg": agg,
              "tau": tau}
    fields.update(extra)
    return fields


def _write_ops(rng, targets, per_tenant):
    """Insert/delete pairs on each target, interleaved round-robin.

    `targets` is a list of (tenant, join labels, query). Each tenant gets
    `per_tenant` inserts of fresh R facts joining an existing label, and
    as many deletes: past depth _WRITE_DEPTH an insert is followed by the
    delete of the oldest live insert, and the tail drains the rest, so
    every inserted fact is deleted again.
    """
    streams = []
    for tenant, joins, query in targets:
        fresh = _labels(rng, per_tenant, *_NEW_LABELS)
        live, ops = [], []
        for k in range(per_tenant):
            fact = _fact("", "R", fresh[k], rng.choice(joins))
            ops.append(("insert_fact", tenant, "+" + fact, query))
            live.append(fact)
            if len(live) > _WRITE_DEPTH:
                ops.append(("delete_fact", tenant, live.pop(0), query))
        ops += [("delete_fact", tenant, fact, query) for fact in live]
        streams.append(ops)
    out = []
    for k in range(max(len(s) for s in streams)):
        out += [s[k] for s in streams if k < len(s)]
    return out


def _lay_out(w, rng, lanes, writes, max_delay_us):
    """Each lane is one solve connection's requests, in order. The writes
    go on one more connection, each gated so the writes spread evenly
    through the solves' progress, then delayed by a seeded random amount
    below `max_delay_us` so they fall at every phase of the solves."""
    for conn, lane in enumerate(lanes):
        for cls, req in lane:
            w.schedule.append(Entry(conn, "w" if cls == "write" else "s", -1,
                                    0, cls, req))
    n = sum(len(lane) for lane in lanes)
    for j, (op, tenant, fact, query) in enumerate(writes):
        gate = (j + 1) * n // (len(writes) + 1)
        w.schedule.append(Entry(len(lanes), "w", gate,
                                rng.randrange(max_delay_us), "write",
                                w.write(op, tenant, fact, query)))


def _inline_writes(w, lanes, lane_writes):
    """Spreads each lane's own writes evenly through it, in order. A
    pipelined connection's reader thread is already awake, so a write's
    latency is its own work plus that connection's backlog, not a thread
    wake-up on a saturated host. Each lane inserts and deletes its own
    facts, so no write depends on another connection's progress."""
    out = []
    for lane, writes in zip(lanes, lane_writes):
        step = len(lane) / (len(writes) + 1)
        marks = [round(step * (j + 1)) for j in range(len(writes))]
        merged, j = [], 0
        for i, item in enumerate(lane):
            while j < len(writes) and marks[j] == i:
                merged.append(("write", w.write(*writes[j])))
                j += 1
            merged.append(item)
        merged += [("write", w.write(*op)) for op in writes[j:]]
        out.append(merged)
    return out


def _side_inserts(seconds):
    """Inserts on the side tenant (hub_db) that no solve reads, each
    deleted again: two writes per second. Between a few percent and a
    third of these writes also wait a scheduler slice behind busy
    threads, a share that moves with the host's load. Below 100 writes
    (a 49-second run) their tail rank is the median, so it never sits on
    the edge of that share."""
    return max(_WRITE_DEPTH, round(seconds))


def _warm_writes(w, rng, targets):
    """One insert and its delete per write tenant, for the warm pass."""
    for tenant, joins, query in targets:
        fact = _fact("", "R", _labels(rng, 1, *_NEW_LABELS)[0],
                     rng.choice(joins))
        w.warm.append(("write", w.write("insert_fact", tenant, "+" + fact,
                                        query)))
        w.warm.append(("write", w.write("delete_fact", tenant, fact, query)))


def engine_mix(seed, seconds):
    """One class per engine family, closed loop over two connections.

    The sum-count ladder (37/73/109 players) and the lineage ladder
    (28/56/112) expose how each engine grows with players. The per-round
    counts put the median rank inside the 37-player Sum block and the
    tail rank inside the 109-player Sum block, so neither falls on a
    boundary between classes of very different cost. The deadline slice
    carries a deadline far below its exact time. A third connection
    writes to a tenant no solve reads.
    """
    w = Workload()
    rng = random.Random(seed)
    for n in (37, 73, 109):
        w.tenants["sum-n%d" % n], _ = xyy_db(rng, n)
    w.tenants["avg-n16"], _ = xyy_db(rng, 16)
    for g in (4, 8, 16):
        w.tenants["chain-n%d" % (7 * g)], _ = chain_db(rng, g)
    w.tenants["single-n40"] = single_db(rng, 40)
    w.tenants["writes"], hubs = hub_db(rng)
    add = w.add_class
    add(Class("closed-form", _solve("single-n40", SINGLE_QUERY, "cdist"),
              "closed-form/single-relation", 3))
    for n, count in ((28, 2), (56, 2), (112, 1)):
        add(Class("lineage-n%d" % n,
                  _solve("chain-n%d" % n, CHAIN_QUERY, "sum"),
                  "lineage-circuit", count))
    for n, count in ((37, 8), (73, 1), (109, 1)):
        add(Class("sum-count-n%d" % n, _solve("sum-n%d" % n, XYY_QUERY, "sum"),
                  "sum-count/linearity", count))
    add(Class("min-max", _solve("sum-n37", XYY_QUERY, "max"),
              "min-max/all-hierarchical-dp"))
    add(Class("count-distinct", _solve("sum-n37", XYY_QUERY, "cdist"),
              "count-distinct/boolean-reduction"))
    add(Class("avg-quantile", _solve("avg-n16", YXY_QUERY, "avg"),
              "avg-quantile/q-hierarchical-dp"))
    add(Class("has-duplicates", _solve("sum-n37", YXY_QUERY, "dup"),
              "has-duplicates/sq-hierarchical-dp"))
    # Avg on Q(x) <- R(x, y), S(y) lies outside Avg's frontier, and 37
    # players are past brute force: sampled, with a small budget.
    add(Class("monte-carlo", _solve("sum-n37", XYY_QUERY, "avg", samples=400),
              "monte-carlo"))
    add(Class("deadline", _solve("sum-n109", XYY_QUERY, "sum", deadline_ms=25),
              "sum-count/linearity"))

    targets = [("writes", hubs, HUB_QUERY)]
    for name in w.classes:
        w.warm.append((name, w.request(name)))
    _warm_writes(w, rng, targets)
    # Each round gives both connections the same multiset of requests,
    # each in its own shuffled order, so neither connection ends up with
    # more of the heavy classes than the other.
    rounds = max(1, round(seconds * 1.6))
    lanes = [[], []]
    batch = [name for name, c in w.classes.items() for _ in range(c.per_round)]
    for _ in range(rounds):
        for lane in lanes:
            lane += [(name, w.request(name))
                     for name in rng.sample(batch, len(batch))]
    _lay_out(w, rng, lanes, _write_ops(rng, targets, _side_inserts(seconds)),
             5000)
    return w


def pipelined_small(seed, seconds):
    """Tiny plan-cache-hit solves, 16 in flight on each of two
    connections, round-robin over 8 tenants: the serve layer's work.
    Every 8th solve carries a deadline it never comes near. The side
    tenant's writes ride inside the two pipelines."""
    w = Workload()
    w.window = 16
    rng = random.Random(seed)
    tenants = ["star%d" % t for t in range(8)]
    for name in tenants:
        w.tenants[name] = star_db(rng)
    w.tenants["writes"], hubs = hub_db(rng)
    for name in tenants:
        w.add_class(Class(name, _solve(name, STAR_QUERY, "sum"),
                          "sum-count/linearity"))
    targets = [("writes", hubs, HUB_QUERY)]
    for name in tenants:
        w.warm.append((name, w.request(name)))
    _warm_writes(w, rng, targets)
    total = max(len(tenants), round(seconds * 3700))
    lanes = [[], []]
    for i in range(total):
        name = tenants[i % len(tenants)]
        extra = {"deadline_ms": 1000} if i % 8 == 7 else {}
        lanes[i % 2].append((name, w.request(name, **extra)))
    lanes = _inline_writes(
        w, lanes, [_write_ops(rng, targets, _side_inserts(seconds) // 2)
                   for _ in lanes])
    _lay_out(w, rng, lanes, [], 1)
    return w


def mutate_mix(seed, seconds):
    """Writes beside reads on the same tenants.

    Two closed-loop solve connections each keep one tenant busy: Sum on a
    73-player tenant and lineage-circuit Sum on a 140-player chain, which
    cost about the same (~40 ms, long against the host's ~10 ms stalls).
    A third connection sends insert_fact/delete_fact with the dirty-query
    probe to those same tenants, at random phases of their solves, so a
    write's wait for the in-flight solve's lock spans that solve's whole
    length. Each tenant takes enough deletes for auto-compaction (64
    tombstones) to fire. Every 4th solve carries a deadline it never
    comes near.
    """
    w = Workload()
    rng = random.Random(seed)
    w.tenants["sum-n73"], sum_joins = xyy_db(rng, 73)
    w.tenants["chain-n140"], chain_joins = chain_db(rng, 20)
    w.add_class(Class("sum-count", _solve("sum-n73", XYY_QUERY, "sum"),
                      "sum-count/linearity"))
    w.add_class(Class("lineage", _solve("chain-n140", CHAIN_QUERY, "sum"),
                      "lineage-circuit"))
    targets = [("sum-n73", sum_joins, XYY_QUERY),
               ("chain-n140", chain_joins, CHAIN_QUERY)]
    for name in w.classes:
        w.warm.append((name, w.request(name)))
    _warm_writes(w, rng, targets)
    per_lane = max(4, round(seconds * 22))
    lanes = [[(name, w.request(name, **({"deadline_ms": 1000}
                                         if i % 4 == 3 else {})))
              for i in range(per_lane)]
             for name in ("sum-count", "lineage")]
    inserts = max(_WRITE_DEPTH, round(seconds * 3))
    _lay_out(w, rng, lanes, _write_ops(rng, targets, inserts), 40000)
    return w


def build(name, seed, seconds):
    generators = {"engine-mix": engine_mix,
                  "pipelined-small": pipelined_small,
                  "mutate-mix": mutate_mix}
    return generators[name](seed, seconds)
