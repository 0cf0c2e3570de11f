// perfbench_check: proves a benchmark run's answers right.
//
// Usage:
//   perfbench_check --journal PATH --tenants DIR --responses PREFIX
//
// Inputs are the daemon's journal, the tenant texts the run loaded
// (DIR/<tenant>.db, the exact bytes sent with op:"load_tenant"), and the
// load generator's PREFIX.tsv / PREFIX.bodies.
//
// Every journaled mutation and every distinct solve is replayed through
// ReplayJournal (serve/replay.h), which itself checks its cached warm
// pass against a cold, direct SolverSession::ComputeAll bitwise. Each
// exact score on the wire must then equal the replayed one bit for bit:
// the rational's text, the double's bits, the fact text and the engine.
//
// A solve is journaled when it is admitted but runs later, so a write
// that lands in between changes what it sees. The journal and the load
// generator share one monotonic clock: a solve admitted at time A and
// answered at time R saw some tenant state between the last mutation
// journaled before A and the last one journaled before R, and must match
// one of those. Solves between two mutations repeat; each distinct
// (state, request) pair is replayed once.
//
// Prints one line per distinct response body (`body n_facts n_exact
// algorithms`) for the caller's routing and exactness metrics, then a
// summary. Exits 1 on the first mismatch, naming the request.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/data/db_io.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/serve/replay.h"

using namespace shapcq;  // NOLINT: tool brevity

namespace {

struct WireResponse {
  uint64_t recv_ns = 0;
  std::string status;
  int body = -1;
};

// A solve's identity for replay: everything but the id and the serving
// knobs (deadline, trace) that never change the exact answer.
std::string RequestKey(SolveRequest request) {
  request.id = 0;
  request.deadline_ms = 0;
  request.trace = false;
  return SerializeSolveRequest(request);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every exact wire score equals the replayed one bitwise; sampled scores
// (Monte Carlo classes, deadline degradations) only need the same facts.
bool Matches(const std::vector<FactScore>& wire,
             const std::vector<FactScore>& expected) {
  if (wire.size() != expected.size()) return false;
  for (size_t i = 0; i < wire.size(); ++i) {
    const FactScore& w = wire[i];
    const FactScore& e = expected[i];
    if (w.fact != e.fact || w.fact_text != e.fact_text) return false;
    if (!w.exact) continue;
    if (!e.exact || w.exact_value != e.exact_value ||
        !SameBits(w.value, e.value) || w.algorithm != e.algorithm) {
      return false;
    }
  }
  return true;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_check: %s\n", message.c_str());
  std::exit(1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// One tenant's replay: its mutations in order, and the distinct solves
// each state has to answer.
struct TenantPlan {
  std::shared_ptr<const Database> initial;
  std::vector<const JournalRecord*> mutations;
  std::vector<uint64_t> mutation_ns;
  // state -> key -> a journal record of that request
  std::map<int, std::map<std::string, const JournalRecord*>> solves;
  // (state, key) -> expected rendered results
  std::map<std::pair<int, std::string>, std::vector<FactScore>> expected;
  Status status;
};

void ReplayTenant(const std::string& name, TenantPlan* plan) {
  std::vector<JournalRecord> records;
  std::vector<std::pair<int, std::string>> slots;  // per record, solves only
  const int states = static_cast<int>(plan->mutations.size()) + 1;
  for (int k = 0; k < states; ++k) {
    auto it = plan->solves.find(k);
    if (it != plan->solves.end()) {
      for (const auto& [key, record] : it->second) {
        records.push_back(*record);
        slots.emplace_back(k, key);
      }
    }
    if (k + 1 < states) {
      records.push_back(*plan->mutations[static_cast<size_t>(k)]);
      slots.emplace_back(-1, "");
    }
  }
  StatusOr<ReplayResult> replay =
      ReplayJournal(records, {{name, plan->initial}});
  if (!replay.ok()) {
    plan->status = replay.status();
    return;
  }
  // Render each result against the tenant state it was computed on.
  Database db = *plan->initial;
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    if (record.op != JournalOp::kSolve) {
      StatusOr<ParsedFact> fact = ParseFactLine(record.fact);
      if (!fact.ok()) {
        plan->status = fact.status();
        return;
      }
      if (record.op == JournalOp::kInsertFact) {
        StatusOr<FactId> id =
            db.InsertFact(fact->relation, fact->args, fact->endogenous);
        if (!id.ok()) plan->status = id.status();
      } else {
        StatusOr<FactId> id = db.FindFact(fact->relation, fact->args);
        plan->status = id.ok() ? db.DeleteFact(*id) : id.status();
      }
      if (!plan->status.ok()) return;
      continue;
    }
    SolveResponse rendered;
    FillResults(db, replay->results[i], &rendered);
    plan->expected[slots[i]] = std::move(rendered.results);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path, tenants_dir, responses_prefix;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--journal") {
      journal_path = argv[i + 1];
    } else if (flag == "--tenants") {
      tenants_dir = argv[i + 1];
    } else if (flag == "--responses") {
      responses_prefix = argv[i + 1];
    }
  }
  if (journal_path.empty() || tenants_dir.empty() || responses_prefix.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_check --journal PATH --tenants DIR "
                 "--responses PREFIX\n");
    return 2;
  }

  // Wire responses and their distinct result bodies.
  std::unordered_map<uint64_t, WireResponse> wire;
  {
    std::ifstream in(responses_prefix + ".tsv");
    std::string line;
    std::getline(in, line);  // wall_ns header
    while (std::getline(in, line)) {
      std::vector<std::string> cols;
      std::stringstream split(line);
      std::string col;
      while (std::getline(split, col, '\t')) cols.push_back(col);
      if (cols.size() != 10) Fail("malformed response line: " + line);
      WireResponse response;
      response.recv_ns = std::strtoull(cols[3].c_str(), nullptr, 10);
      response.status = cols[4];
      response.body = std::atoi(cols[9].c_str());
      wire[std::strtoull(cols[1].c_str(), nullptr, 10)] = response;
    }
  }
  std::vector<std::vector<FactScore>> bodies;
  {
    std::ifstream in(responses_prefix + ".bodies");
    std::string body;
    while (std::getline(in, body)) {
      StatusOr<SolveResponse> parsed = ParseResponseLine(
          "{\"id\":0,\"status\":\"ok\",\"results\":" + body + "}");
      if (!parsed.ok()) Fail("unparsable result body: " + body);
      bodies.push_back(std::move(parsed->results));
    }
  }

  StatusOr<std::vector<JournalRecord>> journal = ReadJournalChain(journal_path);
  if (!journal.ok()) Fail("journal: " + journal.status().ToString());

  std::map<std::string, TenantPlan> tenants;
  DIR* dir = ::opendir(tenants_dir.c_str());
  if (dir == nullptr) Fail("cannot open " + tenants_dir);
  while (dirent* entry = ::readdir(dir)) {
    std::string file = entry->d_name;
    if (file.size() < 4 || file.substr(file.size() - 3) != ".db") continue;
    StatusOr<Database> db = ParseDatabase(ReadFile(tenants_dir + "/" + file));
    if (!db.ok()) Fail(file + ": " + db.status().ToString());
    tenants[file.substr(0, file.size() - 3)].initial =
        std::make_shared<const Database>(std::move(db).value());
  }
  ::closedir(dir);

  // Mutations per tenant, in journal (= application) order.
  for (const JournalRecord& record : *journal) {
    if (record.op == JournalOp::kSolve) continue;
    auto it = tenants.find(record.request.tenant);
    if (it == tenants.end()) Fail("mutation on unknown tenant");
    it->second.mutations.push_back(&record);
    it->second.mutation_ns.push_back(record.timestamp_ns);
  }

  // Which states each answered solve may have seen.
  struct Pending {
    uint64_t id;
    std::string tenant;
    std::string key;
    int lo, hi, body;
  };
  std::vector<Pending> pending;
  uint64_t journaled_ok = 0;
  for (const JournalRecord& record : *journal) {
    if (record.op != JournalOp::kSolve) continue;
    auto response = wire.find(record.request.id);
    if (response == wire.end() || response->second.status != "ok") continue;
    ++journaled_ok;
    if (response->second.body < 0) continue;
    auto tenant = tenants.find(record.request.tenant);
    if (tenant == tenants.end()) Fail("solve on unknown tenant");
    TenantPlan& plan = tenant->second;
    const std::vector<uint64_t>& ns = plan.mutation_ns;
    int lo = static_cast<int>(
        std::lower_bound(ns.begin(), ns.end(), record.timestamp_ns) -
        ns.begin());
    int hi = static_cast<int>(
        std::lower_bound(ns.begin(), ns.end(), response->second.recv_ns) -
        ns.begin());
    std::string key = RequestKey(record.request);
    for (int k = lo; k <= hi; ++k) plan.solves[k].emplace(key, &record);
    pending.push_back(
        {record.request.id, record.request.tenant, key, lo, hi,
         response->second.body});
  }
  uint64_t wire_ok_solves = 0;
  for (const auto& [id, response] : wire) {
    if (response.status == "ok" && response.body >= 0) ++wire_ok_solves;
  }
  if (static_cast<uint64_t>(pending.size()) != wire_ok_solves) {
    Fail("journal holds " + std::to_string(pending.size()) + " of " +
         std::to_string(wire_ok_solves) + " answered solves");
  }

  // Replay tenants in parallel (each replay owns its databases).
  std::vector<std::thread> threads;
  std::vector<std::pair<const std::string*, TenantPlan*>> work;
  for (auto& [name, plan] : tenants) work.emplace_back(&name, &plan);
  const size_t kThreads = 4;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&work, t] {
      for (size_t i = t; i < work.size(); i += kThreads) {
        ReplayTenant(*work[i].first, work[i].second);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  size_t replayed = 0;
  for (const auto& [name, plan] : tenants) {
    if (!plan.status.ok()) {
      Fail("replay of tenant " + name + ": " + plan.status.ToString());
    }
    replayed += plan.expected.size();
  }

  uint64_t exact_compared = 0;
  for (const Pending& p : pending) {
    const TenantPlan& plan = tenants[p.tenant];
    const std::vector<FactScore>& got = bodies.at(static_cast<size_t>(p.body));
    bool matched = false;
    for (int k = p.lo; k <= p.hi && !matched; ++k) {
      matched = Matches(got, plan.expected.at({k, p.key}));
    }
    if (!matched) {
      Fail("request " + std::to_string(p.id) + " on tenant " + p.tenant +
           " differs from its replay (states " + std::to_string(p.lo) +
           ".." + std::to_string(p.hi) + ")");
    }
    for (const FactScore& fact : got) exact_compared += fact.exact ? 1 : 0;
  }

  for (size_t b = 0; b < bodies.size(); ++b) {
    std::set<std::string> algorithms;
    size_t exact = 0;
    for (const FactScore& fact : bodies[b]) {
      algorithms.insert(fact.algorithm);
      exact += fact.exact ? 1 : 0;
    }
    std::string joined;
    for (const std::string& name : algorithms) {
      joined += (joined.empty() ? "" : ",") + name;
    }
    std::printf("body\t%zu\t%zu\t%zu\t%s\n", b, bodies[b].size(), exact,
                joined.c_str());
  }
  std::printf("checked\t%zu\t%llu\t%zu\t%llu\n", pending.size(),
              static_cast<unsigned long long>(exact_compared), replayed,
              static_cast<unsigned long long>(journaled_ok));
  return 0;
}
