#include "shapcq/serve/protocol.h"

#include <string>
#include <utility>

#include "shapcq/agg/spec.h"
#include "shapcq/query/parser.h"
#include "shapcq/serve/json.h"

namespace shapcq {

namespace {

void WriteSolveFields(const SolveRequest& request, JsonWriter* w) {
  w->Uint("id", request.id)
      .Str("tenant", request.tenant)
      .Str("query", request.query)
      .Str("agg", request.agg)
      .Str("tau", request.tau)
      .Str("score", request.score)
      .Str("method", request.method)
      .Int("threads", request.threads)
      .Int("samples", request.samples)
      .Uint("seed", request.seed)
      .Int("deadline_ms", request.deadline_ms);
  if (request.trace) w->Bool("trace", true);
}

}  // namespace

StatusOr<RequestEnvelope> ParseRequestLine(const std::string& line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return InvalidArgumentError("request must be a JSON object");
  }
  const JsonValue& root = *parsed;

  RequestEnvelope envelope;
  std::string op = root.GetString("op", "solve");
  if (op == "solve") {
    envelope.op = RequestEnvelope::Op::kSolve;
    SolveRequest& solve = envelope.solve;
    solve.id = root.GetUint64("id", 0);
    solve.tenant = root.GetString("tenant");
    solve.query = root.GetString("query");
    solve.agg = root.GetString("agg", solve.agg);
    solve.tau = root.GetString("tau", solve.tau);
    solve.score = root.GetString("score", solve.score);
    solve.method = root.GetString("method", solve.method);
    const int64_t threads = root.GetInt64("threads", solve.threads);
    solve.samples = root.GetInt64("samples", solve.samples);
    solve.seed = root.GetUint64("seed", solve.seed);
    solve.deadline_ms = root.GetInt64("deadline_ms", 0);
    solve.trace = root.GetBool("trace");
    envelope.id = solve.id;
    if (solve.query.empty()) {
      return InvalidArgumentError("solve request needs a \"query\"");
    }
    if (solve.tenant.empty()) {
      return InvalidArgumentError("solve request needs a \"tenant\"");
    }
    if (threads < 0 || threads > 4096) {
      return InvalidArgumentError("threads must be in [0, 4096]");
    }
    solve.threads = static_cast<int>(threads);
    if (solve.samples < 1 || solve.samples > int64_t{1} << 32) {
      return InvalidArgumentError("samples must be in [1, 2^32]");
    }
    if (solve.deadline_ms < 0) {
      return InvalidArgumentError("deadline_ms must be >= 0");
    }
    return envelope;
  }
  envelope.id = root.GetUint64("id", 0);
  if (op == "load_tenant") {
    envelope.op = RequestEnvelope::Op::kLoadTenant;
    envelope.tenant = root.GetString("tenant");
    envelope.db_text = root.GetString("db");
    if (envelope.tenant.empty()) {
      return InvalidArgumentError("load_tenant needs a \"tenant\"");
    }
    return envelope;
  }
  if (op == "insert_fact" || op == "delete_fact") {
    envelope.op = op == "insert_fact" ? RequestEnvelope::Op::kInsertFact
                                      : RequestEnvelope::Op::kDeleteFact;
    envelope.tenant = root.GetString("tenant");
    envelope.fact = root.GetString("fact");
    envelope.fact_id = root.GetInt64("fact_id", -1);
    envelope.dirty_query = root.GetString("query");
    if (envelope.tenant.empty()) {
      return InvalidArgumentError(op + " needs a \"tenant\"");
    }
    if (envelope.op == RequestEnvelope::Op::kInsertFact &&
        envelope.fact.empty()) {
      return InvalidArgumentError("insert_fact needs a \"fact\"");
    }
    if (envelope.op == RequestEnvelope::Op::kDeleteFact &&
        envelope.fact.empty() && envelope.fact_id < 0) {
      return InvalidArgumentError(
          "delete_fact needs a \"fact\" or a \"fact_id\"");
    }
    return envelope;
  }
  if (op == "ping") {
    envelope.op = RequestEnvelope::Op::kPing;
    return envelope;
  }
  if (op == "metrics") {
    envelope.op = RequestEnvelope::Op::kMetrics;
    return envelope;
  }
  return InvalidArgumentError("unknown op: " + op);
}

std::string SerializeSolveRequest(const SolveRequest& request) {
  JsonWriter w;
  w.BeginObject().Str("op", "solve");
  WriteSolveFields(request, &w);
  w.EndObject();
  return w.TakeString();
}

std::string SerializeLoadTenant(uint64_t id, const std::string& tenant,
                                const std::string& db_text) {
  JsonWriter w;
  w.BeginObject()
      .Str("op", "load_tenant")
      .Uint("id", id)
      .Str("tenant", tenant)
      .Str("db", db_text)
      .EndObject();
  return w.TakeString();
}

namespace {

std::string SerializeMutation(const char* op, uint64_t id,
                              const std::string& tenant,
                              const std::string& fact,
                              const std::string& dirty_query) {
  JsonWriter w;
  w.BeginObject()
      .Str("op", op)
      .Uint("id", id)
      .Str("tenant", tenant)
      .Str("fact", fact);
  if (!dirty_query.empty()) w.Str("query", dirty_query);
  w.EndObject();
  return w.TakeString();
}

}  // namespace

std::string SerializeInsertFact(uint64_t id, const std::string& tenant,
                                const std::string& fact,
                                const std::string& dirty_query) {
  return SerializeMutation("insert_fact", id, tenant, fact, dirty_query);
}

std::string SerializeDeleteFact(uint64_t id, const std::string& tenant,
                                const std::string& fact,
                                const std::string& dirty_query) {
  return SerializeMutation("delete_fact", id, tenant, fact, dirty_query);
}

std::string SerializePing(uint64_t id) {
  JsonWriter w;
  w.BeginObject().Str("op", "ping").Uint("id", id).EndObject();
  return w.TakeString();
}

std::string SerializeMetricsRequest(uint64_t id) {
  JsonWriter w;
  w.BeginObject().Str("op", "metrics").Uint("id", id).EndObject();
  return w.TakeString();
}

StatusOr<AggregateQuery> BuildAggregateQuery(const SolveRequest& request) {
  StatusOr<ConjunctiveQuery> query = ParseQuery(request.query);
  if (!query.ok()) return query.status();
  StatusOr<AggregateFunction> alpha = ParseAggregateSpec(request.agg);
  if (!alpha.ok()) return alpha.status();
  StatusOr<ValueFunctionPtr> tau = ParseTauSpec(request.tau);
  if (!tau.ok()) return tau.status();
  return MakeAggregateQuery(std::move(query).value(), std::move(tau).value(),
                            std::move(alpha).value());
}

StatusOr<SolverOptions> BuildSolverOptions(const SolveRequest& request) {
  SolverOptions options;
  if (request.score == "banzhaf") {
    options.score = ScoreKind::kBanzhaf;
  } else if (request.score != "shapley") {
    return InvalidArgumentError("unknown score: " + request.score);
  }
  if (request.method == "auto") {
    options.method = SolveMethod::kAuto;
  } else if (request.method == "exact") {
    options.method = SolveMethod::kExactOnly;
  } else if (request.method == "brute") {
    options.method = SolveMethod::kBruteForce;
  } else if (request.method == "mc") {
    options.method = SolveMethod::kMonteCarlo;
  } else {
    return InvalidArgumentError("unknown method: " + request.method);
  }
  options.num_threads = request.threads;
  options.monte_carlo.num_samples = request.samples;
  options.monte_carlo.seed = request.seed;
  return options;
}

std::string SerializeResponse(const SolveResponse& response) {
  JsonWriter w;
  w.BeginObject().Uint("id", response.id).Str("status", response.status);
  if (response.status != "ok") {
    w.Str("code", response.code).Str("error", response.error);
    w.EndObject();
    return w.TakeString();
  }
  if (response.pong) {
    w.Bool("pong", true).EndObject();
    return w.TakeString();
  }
  if (!response.metrics.empty()) {
    w.Str("metrics", response.metrics).EndObject();
    return w.TakeString();
  }
  if (response.mutation) {
    w.Bool("mutation", true)
        .Int("fact_id", response.fact_id)
        .Uint("epoch", response.epoch)
        .Int("tombstones", response.tombstones);
    if (response.dirty_answers >= 0) {
      w.Int("dirty_answers", response.dirty_answers);
    }
    if (response.compacted) w.Bool("compacted", true);
    w.EndObject();
    return w.TakeString();
  }
  w.Bool("degraded", response.degraded)
      .Bool("plan_cache_hit", response.plan_cache_hit)
      .Str("fingerprint", response.fingerprint)
      .Num("queue_ms", response.queue_ms)
      .Num("solve_ms", response.solve_ms);
  w.BeginArray("results");
  for (const FactScore& fact : response.results) {
    w.BeginObjectInArray()
        .Int("fact", fact.fact)
        .Str("text", fact.fact_text)
        .Bool("exact", fact.exact)
        .Str("algorithm", fact.algorithm);
    if (fact.exact) {
      w.Str("score", fact.exact_value);
    } else {
      w.Num("std_error", fact.std_error).Int("samples", fact.samples);
    }
    w.Num("value", fact.value);
    w.EndObject();
  }
  w.EndArray();
  if (!response.footer.empty()) w.Str("footer", response.footer);
  if (!response.trace_id.empty()) w.Str("trace_id", response.trace_id);
  if (!response.explain.empty()) w.Str("explain", response.explain);
  if (!response.trace.empty()) w.Str("trace", response.trace);
  w.EndObject();
  return w.TakeString();
}

StatusOr<SolveResponse> ParseResponseLine(const std::string& line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return InvalidArgumentError("response must be a JSON object");
  }
  const JsonValue& root = *parsed;
  SolveResponse response;
  response.id = root.GetUint64("id", 0);
  response.status = root.GetString("status");
  if (response.status.empty()) {
    return InvalidArgumentError("response needs a \"status\"");
  }
  response.code = root.GetString("code");
  response.error = root.GetString("error");
  response.degraded = root.GetBool("degraded");
  response.plan_cache_hit = root.GetBool("plan_cache_hit");
  response.fingerprint = root.GetString("fingerprint");
  response.queue_ms = root.GetNumber("queue_ms");
  response.solve_ms = root.GetNumber("solve_ms");
  response.footer = root.GetString("footer");
  response.metrics = root.GetString("metrics");
  response.pong = root.GetBool("pong");
  response.mutation = root.GetBool("mutation");
  response.fact_id = root.GetInt64("fact_id", -1);
  response.epoch = root.GetUint64("epoch", 0);
  response.tombstones = root.GetInt64("tombstones", 0);
  response.dirty_answers = root.GetInt64("dirty_answers", -1);
  response.compacted = root.GetBool("compacted");
  response.trace_id = root.GetString("trace_id");
  response.explain = root.GetString("explain");
  response.trace = root.GetString("trace");
  const JsonValue* results = root.Find("results");
  if (results != nullptr) {
    if (results->kind != JsonValue::Kind::kArray) {
      return InvalidArgumentError("\"results\" must be an array");
    }
    response.results.reserve(results->array.size());
    for (const JsonValue& entry : results->array) {
      if (entry.kind != JsonValue::Kind::kObject) {
        return InvalidArgumentError("result entries must be objects");
      }
      FactScore fact;
      fact.fact = static_cast<FactId>(entry.GetInt64("fact", -1));
      fact.fact_text = entry.GetString("text");
      fact.exact = entry.GetBool("exact");
      fact.exact_value = entry.GetString("score");
      fact.value = entry.GetNumber("value");
      fact.algorithm = entry.GetString("algorithm");
      fact.std_error = entry.GetNumber("std_error");
      fact.samples = entry.GetInt64("samples");
      response.results.push_back(std::move(fact));
    }
  }
  return response;
}

void FillResults(const Database& db,
                 const std::vector<std::pair<FactId, SolveResult>>& results,
                 SolveResponse* response) {
  response->results.clear();
  response->results.reserve(results.size());
  for (const auto& [fact_id, result] : results) {
    FactScore fact;
    fact.fact = fact_id;
    fact.fact_text = db.fact(fact_id).ToString();
    fact.exact = result.is_exact;
    if (result.is_exact) fact.exact_value = result.exact.ToString();
    fact.value = result.approximation;
    fact.algorithm = result.algorithm;
    fact.std_error = result.std_error;
    fact.samples = result.samples;
    response->results.push_back(std::move(fact));
  }
}

}  // namespace shapcq
