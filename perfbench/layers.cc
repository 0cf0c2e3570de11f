// perfbench_layers: the benchmark's traced, in-process replay.
//
// Usage: perfbench_layers --inputs DIR
//
// DIR holds one directory per workload (engine-mix, pipelined-small,
// mutate-mix), each with tenants/<name>.db and requests.tsv
// (`class<TAB>kind<TAB>request json`, kind s = solve, w = write), the
// same generated inputs the daemon is sent. Every request goes through
// the library's public functions the daemon calls for it, in order:
//
//   solve: ParseRequestLine -> BuildAggregateQuery + BuildSolverOptions
//          -> PlanCache::GetOrCompile -> SolverSession::ComputeAll (with a
//          TraceContext, whose engine:*, lineage_* and monte_carlo spans
//          the session records itself) -> FillResults +
//          FormatPlanProvenance + SerializeResponse ->
//          TraceContext::RenderJson -> JournalWriter::Append
//   write: ParseRequestLine -> ParseFactLine -> AnswersTouching ->
//          Database::InsertFact / DeleteFact (+ CompactTombstones under
//          the daemon's rule) -> JournalWriter::Append
//
// This file's own spans (name, start, end, parent) wrap each call; they
// stay in memory and are written to DIR/spans-<workload>.tsv at the end. A layer's
// self time is its span minus its children. Lineage (ExtractLineage,
// CompileDnf, CountModelsBySize), the id join, posting intersection,
// plan compilation and database parsing are also timed directly on the
// engine-mix inputs, and one ComputeAll per deadline request runs with a
// `cancelled` hook that fires at the deadline.
//
// The request passes run three times: once to warm the caches, once
// untraced (no spans, no TraceContext) and once traced; the difference
// between the last two is the tracing overhead, printed on stderr.
// Allocation counts come from the counting allocator hook this binary
// is built with; single-threaded solves make them repeat exactly.
//
// Output: one `name<TAB>value<TAB>unit` line per metric on stdout.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <map>
#include <numeric>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "shapcq/data/column_store.h"
#include "shapcq/data/database.h"
#include "shapcq/data/db_io.h"
#include "shapcq/lineage/circuit.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/lineage/engine.h"
#include "shapcq/lineage/lineage.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/obs/trace.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/report.h"
#include "shapcq/shapley/session.h"
#include "shapcq/util/clock.h"
#include "shapcq/util/combinatorics.h"

using namespace shapcq;  // NOLINT: tool brevity

namespace {

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_layers: %s\n", message.c_str());
  std::exit(1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// ---------------------------------------------------------------------------
// The benchmark's own spans.
// ---------------------------------------------------------------------------

struct BenchSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
};

class Recorder {
 public:
  bool on = false;

  int Begin(std::string name) {
    if (!on) return -1;
    BenchSpan span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = MonotonicNanos();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int span) {
    if (span < 0) return;
    spans_[static_cast<size_t>(span)].end_ns = MonotonicNanos();
    open_.pop_back();
  }
  // Adds the spans a library call recorded into `trace`, under `parent`.
  // Library spans nest by time, so ordering them by start (the longer
  // first on a tie) with a stack of the enclosing ones recovers the tree.
  void Adopt(const TraceContext& trace, int parent) {
    if (!on) return;
    const std::vector<TraceSpan>& spans = trace.spans();
    std::vector<size_t> order(spans.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      return spans[a].end_ns > spans[b].end_ns;
    });
    std::vector<std::pair<uint64_t, int>> open;  // (end_ns, span index)
    for (size_t i : order) {
      const TraceSpan& span = spans[i];
      while (!open.empty() && open.back().first < span.end_ns) open.pop_back();
      int up = open.empty() ? parent : open.back().second;
      spans_.push_back({span.stage, span.start_ns, span.end_ns, up});
      open.emplace_back(span.end_ns, static_cast<int>(spans_.size()) - 1);
    }
  }

  const std::vector<BenchSpan>& spans() const { return spans_; }

  // Self time per span name (total ns minus direct children), and counts.
  void SelfTimes(std::map<std::string, double>* self_ns,
                 std::map<std::string, int64_t>* count) const {
    std::vector<double> child_ns(spans_.size(), 0);
    for (const BenchSpan& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const BenchSpan& span = spans_[i];
      (*self_ns)[span.name] +=
          static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
      ++(*count)[span.name];
    }
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "index\tname\tstart_ns\tend_ns\tparent\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const BenchSpan& s = spans_[i];
      out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
          << '\t' << s.parent << '\n';
    }
  }

 private:
  std::vector<BenchSpan> spans_;
  std::vector<int> open_;
};

class Scoped {
 public:
  Scoped(Recorder* recorder, std::string name)
      : recorder_(recorder), span_(recorder->Begin(std::move(name))) {}
  ~Scoped() { recorder_->End(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder* recorder_;
  int span_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Request {
  std::string cls;
  char kind = 's';
  std::string line;
};

struct WorkloadInput {
  std::map<std::string, std::string> tenant_text;
  std::vector<Request> requests;
};

WorkloadInput LoadInput(const std::string& dir) {
  WorkloadInput input;
  DIR* listing = ::opendir((dir + "/tenants").c_str());
  if (listing == nullptr) Fail("cannot open " + dir + "/tenants");
  while (dirent* entry = ::readdir(listing)) {
    std::string file = entry->d_name;
    if (file.size() > 3 && file.substr(file.size() - 3) == ".db") {
      input.tenant_text[file.substr(0, file.size() - 3)] =
          ReadFile(dir + "/tenants/" + file);
    }
  }
  ::closedir(listing);
  std::stringstream lines(ReadFile(dir + "/requests.tsv"));
  std::string text;
  while (std::getline(lines, text)) {
    size_t t1 = text.find('\t');
    size_t t2 = text.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) {
      Fail("malformed request line in " + dir);
    }
    input.requests.push_back(
        {text.substr(0, t1), text[t1 + 1], text.substr(t2 + 1)});
  }
  return input;
}

std::map<std::string, Database> ParseTenants(const WorkloadInput& input) {
  std::map<std::string, Database> dbs;
  for (const auto& [name, text] : input.tenant_text) {
    StatusOr<Database> db = ParseDatabase(text);
    if (!db.ok()) Fail(name + ": " + db.status().ToString());
    dbs.emplace(name, std::move(db).value());
  }
  return dbs;
}

// ---------------------------------------------------------------------------
// One pass over a workload's requests.
// ---------------------------------------------------------------------------

struct ClassStats {
  std::vector<double> compute_ms;
  std::vector<double> alloc_calls;
  int64_t players = 0;
  int64_t samples = 0;  // Monte Carlo samples drawn, all requests
};

struct PassStats {
  std::map<std::string, ClassStats> classes;
  double response_bytes = 0;
  int64_t responses = 0;
  double wall_ms = 0;
};

class Replayer {
 public:
  Replayer(Recorder* recorder, JournalWriter* journal)
      : recorder_(recorder), journal_(journal) {}

  // Runs every request of `input` against private copies of its tenants.
  PassStats Run(const WorkloadInput& input, bool traced) {
    recorder_->on = traced;
    PassStats stats;
    std::map<std::string, Database> dbs = ParseTenants(input);
    uint64_t start = MonotonicNanos();
    for (const Request& request : input.requests) {
      Scoped top(recorder_, request.kind == 's' ? "request.solve"
                                                : "request.write");
      int parse_span = recorder_->Begin("serve.parse");
      StatusOr<RequestEnvelope> envelope = ParseRequestLine(request.line);
      recorder_->End(parse_span);
      if (!envelope.ok()) Fail("unparsable request: " + request.line);
      if (envelope->op == RequestEnvelope::Op::kSolve) {
        Solve(request.cls, envelope->solve, dbs, traced, &stats);
      } else {
        Write(*envelope, dbs);
      }
    }
    stats.wall_ms = static_cast<double>(MonotonicNanos() - start) / 1e6;
    recorder_->on = false;
    return stats;
  }

 private:
  void Solve(const std::string& cls, const SolveRequest& request,
             std::map<std::string, Database>& dbs, bool traced,
             PassStats* stats) {
    auto db = dbs.find(request.tenant);
    if (db == dbs.end()) Fail("unknown tenant " + request.tenant);
    StatusOr<AggregateQuery> query = InvalidArgumentError("unbuilt");
    StatusOr<SolverOptions> options = InvalidArgumentError("unbuilt");
    {
      Scoped span(recorder_, "serve.build");
      query = BuildAggregateQuery(request);
      options = BuildSolverOptions(request);
    }
    if (!query.ok() || !options.ok()) Fail("unbuildable request");
    bool hit = false;
    std::shared_ptr<const AttributionPlan> plan;
    {
      Scoped span(recorder_, "plan.get_or_compile");
      plan = PlanCache::Global().GetOrCompile(*query, options->score, &hit);
    }
    TraceContext trace(NextTraceId());
    SolverOptions solve_options = *options;
    if (traced) solve_options.trace = &trace;
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> results =
        InternalError("unsolved");
    LineageStatsSnapshot lineage_before = LineageStats::Global().Snapshot();
    int compute_span = recorder_->Begin("session.compute_all");
    uint64_t allocs_before = bench::AllocCalls();
    uint64_t compute_start = MonotonicNanos();
    {
      SolverSession session(plan, db->second);
      results = session.ComputeAll(solve_options);
    }
    uint64_t compute_ns = MonotonicNanos() - compute_start;
    uint64_t allocs = bench::AllocCalls() - allocs_before;
    recorder_->End(compute_span);
    if (!results.ok()) Fail("solve failed: " + results.status().ToString());
    if (traced) {
      ClassStats& c = stats->classes[cls];
      c.compute_ms.push_back(static_cast<double>(compute_ns) / 1e6);
      c.alloc_calls.push_back(static_cast<double>(allocs));
      c.players = static_cast<int64_t>(results->size());
      for (const auto& [fact, result] : *results) c.samples += result.samples;
      recorder_->Adopt(trace, compute_span);
    }
    std::string line;
    {
      Scoped span(recorder_, "serve.render");
      SolveResponse response;
      response.id = request.id;
      response.status = "ok";
      response.plan_cache_hit = hit;
      response.fingerprint = plan->fingerprint();
      FillResults(db->second, *results, &response);
      LineageStatsSnapshot lineage = LineageStatsDelta(
          LineageStats::Global().Snapshot(), lineage_before);
      response.footer = FormatPlanProvenance(*plan, *results, hit,
                                             &solve_options, &lineage);
      response.trace_id = TraceIdHex(trace.trace_id());
      line = SerializeResponse(response);
    }
    stats->response_bytes += static_cast<double>(line.size());
    ++stats->responses;
    if (traced) {
      Scoped span(recorder_, "obs.trace_render");
      std::string json = trace.RenderJson();
      if (json.empty()) Fail("empty trace rendering");
    }
    JournalRecord record;
    record.timestamp_ns = MonotonicNanos();
    record.fingerprint = plan->fingerprint();
    record.request = request;
    record.trace_id = trace.trace_id();
    Append(record);
  }

  void Write(const RequestEnvelope& envelope,
             std::map<std::string, Database>& dbs) {
    auto it = dbs.find(envelope.tenant);
    if (it == dbs.end()) Fail("unknown tenant " + envelope.tenant);
    Database& db = it->second;
    StatusOr<ParsedFact> fact = ParseFactLine(envelope.fact);
    StatusOr<ConjunctiveQuery> probe = ParseQuery(envelope.dirty_query);
    if (!fact.ok() || !probe.ok()) Fail("unparsable write");
    const bool insert = envelope.op == RequestEnvelope::Op::kInsertFact;
    FactId id = -1;
    if (insert) {
      Scoped span(recorder_, "data.insert");
      StatusOr<FactId> inserted =
          db.InsertFact(fact->relation, fact->args, fact->endogenous);
      if (!inserted.ok()) Fail("insert failed: " + envelope.fact);
      id = *inserted;
    } else {
      StatusOr<FactId> found = db.FindFact(fact->relation, fact->args);
      if (!found.ok()) Fail("delete of a missing fact: " + envelope.fact);
      id = *found;
    }
    {
      Scoped span(recorder_, "query.answers_touching");
      AnswersTouching(*probe, db, id);
    }
    if (!insert) {
      Scoped span(recorder_, "data.delete");
      if (!db.DeleteFact(id).ok()) Fail("delete failed: " + envelope.fact);
    }
    // The daemon's auto-compaction rule at its default threshold.
    int dead = db.num_facts() - db.num_live();
    if (dead >= 64 && dead * 4 >= db.num_live()) {
      Scoped span(recorder_, "data.compact");
      db.CompactTombstones();
    }
    JournalRecord record;
    record.timestamp_ns = MonotonicNanos();
    record.op = insert ? JournalOp::kInsertFact : JournalOp::kDeleteFact;
    record.fact = envelope.fact;
    record.request.id = envelope.id;
    record.request.tenant = envelope.tenant;
    Append(record);
  }

  void Append(const JournalRecord& record) {
    Scoped span(recorder_, "serve.journal_append");
    if (!journal_->Append(record).ok()) Fail("journal append failed");
  }

  Recorder* recorder_;
  JournalWriter* journal_;
};

// ---------------------------------------------------------------------------
// Direct layer probes on the engine-mix inputs.
// ---------------------------------------------------------------------------

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Least-squares slope of log(y) against log(x).
double LogLogSlope(const std::vector<std::pair<double, double>>& points) {
  double n = static_cast<double>(points.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : points) {
    double lx = std::log(x), ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

void Emit(const std::string& name, double value, const char* unit) {
  std::printf("%s\t%.9g\t%s\n", name.c_str(), value, unit);
}

std::string MetricSafe(std::string name) {
  for (char& c : name) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--inputs") dir = argv[i + 1];
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: perfbench_layers --inputs DIR\n");
    return 2;
  }
  WorkloadInput engine = LoadInput(dir + "/engine-mix");
  WorkloadInput small = LoadInput(dir + "/pipelined-small");
  WorkloadInput mutate = LoadInput(dir + "/mutate-mix");

  // data.load_tenant_ms: ParseDatabase of every tenant text, all workloads.
  {
    std::vector<double> ms;
    for (const WorkloadInput* input : {&engine, &small, &mutate}) {
      for (const auto& [name, text] : input->tenant_text) {
        uint64_t start = MonotonicNanos();
        StatusOr<Database> db = ParseDatabase(text);
        ms.push_back(static_cast<double>(MonotonicNanos() - start) / 1e6);
        if (!db.ok()) Fail(name + ": " + db.status().ToString());
      }
    }
    Emit("data.load_tenant_ms", Mean(ms), "ms");
  }

  StatusOr<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(dir + "/layers.journal");
  if (!journal.ok()) Fail("journal: " + journal.status().ToString());

  // Per workload: a warm pass, then untraced and traced passes over
  // identical inputs. Each traced pass has its own recorder.
  double untraced_ms = 0, traced_ms = 0;
  std::map<std::string, PassStats> traced;
  std::map<std::string, Recorder> recorders;
  for (const auto& [name, input] :
       {std::pair<std::string, const WorkloadInput*>{"engine-mix", &engine},
        {"pipelined-small", &small},
        {"mutate-mix", &mutate}}) {
    Recorder& recorder = recorders[name];
    Replayer replayer(&recorder, journal->get());
    replayer.Run(*input, false);
    untraced_ms += replayer.Run(*input, false).wall_ms;
    traced[name] = replayer.Run(*input, true);
    traced_ms += traced[name].wall_ms;
    recorder.Write(dir + "/spans-" + name + ".tsv");
  }
  std::fprintf(stderr,
               "perfbench_layers: untraced replay %.1f ms, traced %.1f ms "
               "(tracing overhead %+.1f%%)\n",
               untraced_ms, traced_ms,
               100.0 * (traced_ms - untraced_ms) / untraced_ms);

  // Self time per span name of each workload's traced pass, in ns, and
  // the number of such spans.
  std::map<std::string, std::map<std::string, double>> self_ns;
  std::map<std::string, std::map<std::string, int64_t>> spans;
  for (const auto& [name, recorder] : recorders) {
    recorder.SelfTimes(&self_ns[name], &spans[name]);
  }
  auto self_us = [&](const std::string& workload, const std::string& span) {
    int64_t count = spans[workload][span];
    if (count == 0) Fail("no " + span + " spans on " + workload);
    return self_ns[workload][span] / static_cast<double>(count) / 1e3;
  };

  // serve: the request path around the solve, on the tiny requests.
  Emit("serve.parse_us", self_us("pipelined-small", "serve.parse"), "us");
  Emit("serve.build_us", self_us("pipelined-small", "serve.build"), "us");
  Emit("serve.render_us", self_us("pipelined-small", "serve.render"), "us");
  {
    const PassStats& s = traced["pipelined-small"];
    Emit("serve.response_bytes",
         s.response_bytes / static_cast<double>(s.responses), "bytes");
  }
  Emit("serve.journal_append_us",
       self_us("pipelined-small", "serve.journal_append"), "us");
  Emit("obs.trace_render_us", self_us("pipelined-small", "obs.trace_render"),
       "us");
  Emit("plan.get_us", self_us("pipelined-small", "plan.get_or_compile"), "us");

  // session / engine: per request class of engine-mix.
  const PassStats& em = traced["engine-mix"];
  std::map<std::string, std::vector<std::pair<double, double>>> ladders;
  for (const auto& [cls, c] : em.classes) {
    double ms = Median(c.compute_ms);
    Emit("session.compute_all_ms." + cls, ms, "ms");
    Emit("session.alloc_calls." + cls, Median(c.alloc_calls), "count");
    for (const char* family : {"sum-count", "lineage"}) {
      if (cls.rfind(std::string(family) + "-n", 0) == 0) {
        Emit("engine." + std::string(family) + ".facts_per_s.n" +
                 std::to_string(c.players),
             static_cast<double>(c.players) / (ms / 1e3), "1/s");
        ladders[family].emplace_back(static_cast<double>(c.players), ms);
      }
    }
  }
  for (const auto& [family, points] : ladders) {
    if (points.size() < 2) Fail("ladder " + family + " is too short");
    Emit("engine." + family + ".scaling_exp", LogLogSlope(points), "exp");
  }
  for (const auto& [stage, ns] : self_ns["engine-mix"]) {
    if (stage.rfind("engine:", 0) != 0) continue;
    Emit("engine." + MetricSafe(stage.substr(7)) + ".self_ms",
         ns / static_cast<double>(spans["engine-mix"][stage]) / 1e6, "ms");
  }
  // Samples per second of monte_carlo self time.
  if (self_ns["engine-mix"]["monte_carlo"] <= 0) Fail("no monte_carlo spans");
  Emit("mc.samples_per_s",
       static_cast<double>(em.classes.at("monte-carlo").samples) /
           (self_ns["engine-mix"]["monte_carlo"] / 1e9),
       "1/s");

  // Direct probes on the engine-mix inputs.
  std::map<std::string, Database> dbs = ParseTenants(engine);
  {
    // plan.compile_us: a fresh AttributionPlan::Compile per class.
    std::vector<double> us;
    std::vector<double> homs_us;
    std::vector<double> extract_us, compile_us, count_us;
    double nodes = 0;
    std::set<std::string> seen;
    for (const Request& request : engine.requests) {
      if (request.kind != 's' || !seen.insert(request.cls).second) continue;
      StatusOr<RequestEnvelope> envelope = ParseRequestLine(request.line);
      if (!envelope.ok()) Fail("unparsable request: " + request.line);
      StatusOr<AggregateQuery> query = BuildAggregateQuery(envelope->solve);
      StatusOr<SolverOptions> options = BuildSolverOptions(envelope->solve);
      if (!query.ok() || !options.ok()) Fail("unbuildable " + request.cls);
      const Database& db = dbs.at(envelope->solve.tenant);
      for (int rep = 0; rep < 5; ++rep) {
        uint64_t t0 = MonotonicNanos();
        std::shared_ptr<const AttributionPlan> plan =
            AttributionPlan::Compile(*query, options->score);
        uint64_t t1 = MonotonicNanos();
        IdHomomorphisms homs = EnumerateHomomorphismIds(query->query, db);
        uint64_t t2 = MonotonicNanos();
        us.push_back(static_cast<double>(t1 - t0) / 1e3);
        homs_us.push_back(static_cast<double>(t2 - t1) / 1e3);
        if (plan == nullptr || homs.bindings.empty()) Fail("empty probe");
      }
      if (request.cls.rfind("lineage-n", 0) != 0) continue;
      for (int rep = 0; rep < 5; ++rep) {
        uint64_t t0 = MonotonicNanos();
        LineageSet lineage = ExtractLineage(query->query, db);
        uint64_t t1 = MonotonicNanos();
        double compile_ns = 0, count_ns = 0;
        Combinatorics comb;
        int64_t request_nodes = 0;
        for (const AnswerLineage& answer : lineage.answers) {
          uint64_t c0 = MonotonicNanos();
          StatusOr<LineageCircuit> circuit =
              CompileDnf(answer.clauses, lineage.num_players());
          uint64_t c1 = MonotonicNanos();
          if (!circuit.ok()) Fail("lineage compile failed");
          CircuitModelCounts counts = CountModelsBySize(*circuit, &comb);
          uint64_t c2 = MonotonicNanos();
          compile_ns += static_cast<double>(c1 - c0);
          count_ns += static_cast<double>(c2 - c1);
          request_nodes += circuit->num_nodes();
          if (counts.by_size.empty()) Fail("empty model count");
        }
        extract_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        compile_us.push_back(compile_ns / 1e3);
        count_us.push_back(count_ns / 1e3);
        if (rep == 0) nodes += static_cast<double>(request_nodes);
      }
    }
    Emit("plan.compile_us", Median(us), "us");
    Emit("query.homomorphisms_us", Median(homs_us), "us");
    Emit("lineage.extract_us", Median(extract_us), "us");
    Emit("lineage.compile_us", Median(compile_us), "us");
    Emit("lineage.count_us", Median(count_us), "us");
    Emit("lineage.circuit_nodes", nodes, "count");
    CircuitCache::Stats cache = CircuitCache::Global().stats();
    Emit("lineage.cache_hit_ratio",
         static_cast<double>(cache.hits) /
             static_cast<double>(std::max<uint64_t>(
                 1, cache.hits + cache.misses)),
         "ratio");
  }
  {
    // data.intersect_ns: for every fact of every binary relation, the
    // facts sharing both of its values (two posting lists).
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      uint64_t calls = 0;
      uint64_t t0 = MonotonicNanos();
      for (const auto& [name, db] : dbs) {
        for (RelationId r = 0; r < db.num_relations(); ++r) {
          if (db.columns().arity(r) != 2) continue;
          for (FactId fact : db.FactsOf(r)) {
            std::vector<FactId> hits = IntersectPostings(
                {&db.FactsWith(r, 0, db.ArgId(fact, 0)),
                 &db.FactsWith(r, 1, db.ArgId(fact, 1))});
            if (hits.empty()) Fail("a fact missing from its postings");
            ++calls;
          }
        }
      }
      ns.push_back(static_cast<double>(MonotonicNanos() - t0) /
                   static_cast<double>(calls));
    }
    Emit("data.intersect_ns", Median(ns), "ns");
  }
  {
    // session.cancel_latency_ms: the deadline class with a `cancelled`
    // hook that fires at its deadline; time from the deadline to return.
    std::vector<double> late_ms;
    for (const Request& request : engine.requests) {
      StatusOr<RequestEnvelope> envelope = ParseRequestLine(request.line);
      if (!envelope.ok() || envelope->op != RequestEnvelope::Op::kSolve ||
          envelope->solve.deadline_ms <= 0) {
        continue;
      }
      StatusOr<AggregateQuery> query = BuildAggregateQuery(envelope->solve);
      StatusOr<SolverOptions> options = BuildSolverOptions(envelope->solve);
      if (!query.ok() || !options.ok()) Fail("unbuildable deadline request");
      SolverSession session(
          PlanCache::Global().GetOrCompile(*query, options->score),
          dbs.at(envelope->solve.tenant));
      uint64_t deadline =
          MonotonicNanos() +
          static_cast<uint64_t>(envelope->solve.deadline_ms) * 1000000u;
      options->cancelled = [deadline] { return MonotonicNanos() > deadline; };
      session.ComputeAll(*options);
      uint64_t end = MonotonicNanos();
      late_ms.push_back(end > deadline
                            ? static_cast<double>(end - deadline) / 1e6
                            : 0.0);
    }
    if (late_ms.empty()) Fail("no deadline requests");
    Emit("session.cancel_latency_ms", Median(late_ms), "ms");
  }

  // Mutations (mutate-mix writes).
  Emit("query.answers_touching_us",
       self_us("mutate-mix", "query.answers_touching"), "us");
  Emit("data.insert_us", self_us("mutate-mix", "data.insert"), "us");
  Emit("data.delete_us", self_us("mutate-mix", "data.delete"), "us");
  Emit("data.compact_ms", self_us("mutate-mix", "data.compact") / 1e3, "ms");
  Emit("serve.journal_append_write_us",
       self_us("mutate-mix", "serve.journal_append"), "us");
  return 0;
}
