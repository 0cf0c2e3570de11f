#include "shapcq/serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "shapcq/data/db_io.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/obs/log.h"
#include "shapcq/persist/artifact.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/serve/json.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/report.h"
#include "shapcq/shapley/session.h"
#include "shapcq/util/clock.h"

namespace shapcq {

namespace {

// A request line (or HTTP header block) larger than this is hostile.
constexpr size_t kMaxLineBytes = 4u << 20;

// Binds a loopback listener; returns the fd and writes the bound port.
StatusOr<int> MakeListener(int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return InternalError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return InternalError("bind(127.0.0.1:" + std::to_string(port) +
                         ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return InternalError("listen() failed");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
    ::close(fd);
    return InternalError("getsockname() failed");
  }
  *bound_port = ntohs(actual.sin_port);
  return fd;
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void CloseListener(std::atomic<int>* fd) {
  int got = fd->exchange(-1);
  if (got >= 0) {
    ::shutdown(got, SHUT_RDWR);  // unblocks a thread parked in accept()
    ::close(got);
  }
}

}  // namespace

AttributionServer::AttributionServer(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.limits),
      flight_recorder_(options_.flight_slowest_capacity,
                       options_.flight_incident_capacity) {}

AttributionServer::~AttributionServer() { Stop(); }

Status AttributionServer::Start() {
  if (running_.load()) return FailedPreconditionError("already started");

  std::unique_ptr<JournalWriter> journal;
  if (!options_.journal_path.empty()) {
    StatusOr<std::unique_ptr<JournalWriter>> opened = JournalWriter::Open(
        options_.journal_path, options_.journal_max_segment_bytes);
    if (!opened.ok()) return opened.status();
    journal = std::move(opened).value();
  }
  StatusOr<int> listener = MakeListener(options_.port, &port_);
  if (!listener.ok()) return listener.status();
  int metrics_fd = -1;
  if (options_.metrics_port >= 0) {
    StatusOr<int> mfd = MakeListener(options_.metrics_port, &metrics_port_);
    if (!mfd.ok()) {
      ::close(*listener);
      return mfd.status();
    }
    metrics_fd = *mfd;
  }

  LoadArtifacts();

  journal_ = std::move(journal);
  listen_fd_ = *listener;
  metrics_fd_ = metrics_fd;
  running_.store(true);
  int workers = options_.worker_threads > 0 ? options_.worker_threads : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  return Status::Ok();
}

void AttributionServer::Stop() {
  if (!running_.exchange(false)) return;

  CloseListener(&listen_fd_);
  CloseListener(&metrics_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();

  // Stop the readers first, so no new work arrives once the workers exit.
  std::vector<ConnectionHandle> handles;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    handles.swap(connections_);
  }
  for (const ConnectionHandle& handle : handles) {
    Connection& connection = *handle.connection;
    std::lock_guard<std::mutex> lock(connection.write_mu);
    connection.closed.store(true);
    // shutdown (not close) unblocks a reader parked in recv(); the
    // reader closes the fd itself on the way out.
    if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
  }
  for (ConnectionHandle& handle : handles) handle.thread.join();

  // Workers drain what is already queued, then exit.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // Backstop for anything enqueued after the workers left.
  std::deque<Job> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(queue_);
  }
  for (Job& job : leftover) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    metrics_.TenantQueueDelta(job.request.tenant, -1);
    admission_.OnDequeue(job.request.tenant);
    admission_.OnComplete(job.request.tenant);
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
    metrics_.CountTenantRequest(job.request.tenant,
                                DaemonMetrics::Outcome::kError);
  }

  if (journal_ != nullptr) journal_->Close();

  // Snapshot the warm state last, after every worker that could still be
  // inserting circuits has exited.
  SaveArtifacts();
}

void AttributionServer::LoadArtifacts() {
  if (options_.artifact_dir.empty()) return;
  ArtifactReader reader(options_.artifact_dir);
  StatusOr<ArtifactLoadStats> plans = reader.ReadPlans(&PlanCache::Global());
  if (plans.ok()) {
    metrics_.artifact_plans_loaded.fetch_add(plans->plans,
                                             std::memory_order_relaxed);
    metrics_.artifact_entries_skipped.fetch_add(plans->skipped,
                                                std::memory_order_relaxed);
    metrics_.artifact_bytes_loaded.fetch_add(plans->bytes,
                                             std::memory_order_relaxed);
  } else {
    metrics_.artifact_load_errors.fetch_add(1, std::memory_order_relaxed);
  }
  StatusOr<ArtifactLoadStats> circuits =
      reader.ReadCircuits(&CircuitCache::Global());
  if (circuits.ok()) {
    metrics_.artifact_circuits_loaded.fetch_add(circuits->circuits,
                                                std::memory_order_relaxed);
    metrics_.artifact_entries_skipped.fetch_add(circuits->skipped,
                                                std::memory_order_relaxed);
    metrics_.artifact_bytes_loaded.fetch_add(circuits->bytes,
                                             std::memory_order_relaxed);
  } else {
    metrics_.artifact_load_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

Status AttributionServer::SaveArtifacts() {
  if (options_.artifact_dir.empty()) return Status::Ok();
  ArtifactWriter writer(options_.artifact_dir);
  Status failure = Status::Ok();
  StatusOr<ArtifactWriteStats> plans =
      writer.WritePlans(PlanCache::Global().Snapshot());
  if (plans.ok()) {
    metrics_.artifact_bytes_persisted.fetch_add(plans->bytes,
                                                std::memory_order_relaxed);
  } else {
    metrics_.artifact_save_errors.fetch_add(1, std::memory_order_relaxed);
    failure = plans.status();
  }
  StatusOr<ArtifactWriteStats> circuits =
      writer.WriteCircuits(CircuitCache::Global().Snapshot());
  if (circuits.ok()) {
    metrics_.artifact_bytes_persisted.fetch_add(circuits->bytes,
                                                std::memory_order_relaxed);
  } else {
    metrics_.artifact_save_errors.fetch_add(1, std::memory_order_relaxed);
    failure = circuits.status();
  }
  if (failure.ok()) {
    metrics_.artifact_snapshots.fetch_add(1, std::memory_order_relaxed);
  }
  return failure;
}

void AttributionServer::RegisterTenant(const std::string& name, Database db) {
  auto state = std::make_shared<TenantState>();
  state->db = std::move(db);
  metrics_.SetTenantStaleness(
      name, state->db.epoch(),
      static_cast<uint64_t>(state->db.num_facts() - state->db.num_live()));
  std::lock_guard<std::mutex> lock(tenants_mu_);
  tenants_[name] = std::move(state);
}

std::shared_ptr<AttributionServer::TenantState> AttributionServer::FindTenant(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::string AttributionServer::MetricsText() const {
  return RenderPrometheus(metrics_, PlanCache::Global().stats(),
                          CircuitCache::Global().stats(),
                          LineageStats::Global().Snapshot());
}

uint64_t AttributionServer::journal_records_written() const {
  return journal_ == nullptr ? 0 : journal_->records_written();
}

void AttributionServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      if (errno == EINTR) continue;
      // EMFILE/ENFILE and friends: reaping finished readers releases
      // their fds, and backing off keeps a persistent failure (fd
      // exhaustion) from busy-spinning this thread at 100% CPU.
      metrics_.accept_errors.fetch_add(1, std::memory_order_relaxed);
      ReapFinishedConnections();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    ReapFinishedConnections();
    metrics_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(connections_mu_);
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    connections_.push_back(ConnectionHandle{
        connection, std::thread([this, connection] {
          ConnectionLoop(connection);
        })});
  }
}

void AttributionServer::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->connection->done.load(std::memory_order_acquire)) {
      it->thread.join();  // already exited; returns immediately
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t AttributionServer::live_connections() {
  ReapFinishedConnections();
  std::lock_guard<std::mutex> lock(connections_mu_);
  return connections_.size();
}

void AttributionServer::ConnectionLoop(std::shared_ptr<Connection> connection) {
  std::string buffer;
  char chunk[4096];
  while (running_.load()) {
    ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline;
    while ((newline = buffer.find('\n', start)) != std::string::npos) {
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) HandleLine(connection, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      WriteError(connection, 0,
                 InvalidArgumentError("request line exceeds 4 MiB"));
      break;
    }
  }
  // The reader owns the fd: close it here (not in Stop) so a
  // long-running daemon reclaims one fd per disconnect instead of
  // accumulating them. write_mu excludes a worker mid-send.
  {
    std::lock_guard<std::mutex> lock(connection->write_mu);
    connection->closed.store(true);
    if (connection->fd >= 0) {
      ::close(connection->fd);
      connection->fd = -1;
    }
  }
  metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  // Publish reapability last: after this store the acceptor may join
  // this thread and erase the handle at any moment.
  connection->done.store(true, std::memory_order_release);
}

void AttributionServer::HandleLine(
    const std::shared_ptr<Connection>& connection, const std::string& line) {
  StatusOr<RequestEnvelope> parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
    WriteError(connection, 0, parsed.status());
    return;
  }
  RequestEnvelope& envelope = *parsed;
  switch (envelope.op) {
    case RequestEnvelope::Op::kPing: {
      SolveResponse response;
      response.id = envelope.id;
      response.status = "ok";
      response.pong = true;
      WriteResponse(connection, response);
      return;
    }
    case RequestEnvelope::Op::kMetrics: {
      SolveResponse response;
      response.id = envelope.id;
      response.status = "ok";
      response.metrics = MetricsText();
      WriteResponse(connection, response);
      return;
    }
    case RequestEnvelope::Op::kLoadTenant: {
      if (!options_.allow_load_tenant) {
        WriteError(connection, envelope.id,
                   FailedPreconditionError(
                       "load_tenant is disabled on this server"));
        return;
      }
      StatusOr<Database> db = ParseDatabase(envelope.db_text);
      if (!db.ok()) {
        metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
        WriteError(connection, envelope.id, db.status());
        return;
      }
      RegisterTenant(envelope.tenant, std::move(db).value());
      SolveResponse response;
      response.id = envelope.id;
      response.status = "ok";
      WriteResponse(connection, response);
      return;
    }
    case RequestEnvelope::Op::kInsertFact:
    case RequestEnvelope::Op::kDeleteFact:
      HandleMutation(connection, envelope);
      return;
    case RequestEnvelope::Op::kSolve:
      EnqueueSolve(connection, std::move(envelope.solve));
      return;
  }
}

void AttributionServer::HandleMutation(
    const std::shared_ptr<Connection>& connection,
    const RequestEnvelope& envelope) {
  const bool is_insert = envelope.op == RequestEnvelope::Op::kInsertFact;
  auto fail = [&](const Status& status) {
    metrics_.mutation_errors.fetch_add(1, std::memory_order_relaxed);
    WriteError(connection, envelope.id, status);
  };
  if (!options_.allow_mutations) {
    fail(FailedPreconditionError("mutations are disabled on this server"));
    return;
  }
  std::shared_ptr<TenantState> tenant = FindTenant(envelope.tenant);
  if (tenant == nullptr) {
    fail(NotFoundError("unknown tenant '" + envelope.tenant +
                       "'; register it with op load_tenant"));
    return;
  }
  // Parse the optional dirty-set probe before taking the lock.
  std::optional<ConjunctiveQuery> probe;
  if (!envelope.dirty_query.empty()) {
    StatusOr<ConjunctiveQuery> parsed = ParseQuery(envelope.dirty_query);
    if (!parsed.ok()) {
      fail(parsed.status());
      return;
    }
    probe.emplace(std::move(parsed).value());
  }
  std::optional<ParsedFact> parsed_fact;
  if (!envelope.fact.empty()) {
    StatusOr<ParsedFact> parsed = ParseFactLine(envelope.fact);
    if (!parsed.ok()) {
      fail(parsed.status());
      return;
    }
    parsed_fact.emplace(std::move(parsed).value());
  }

  SolveResponse response;
  response.id = envelope.id;
  response.status = "ok";
  response.mutation = true;

  // Applied synchronously under the tenant's exclusive lock: solves in
  // flight (shared holders) finish against the pre-mutation state, the
  // journal append below happens inside the lock so journal order IS
  // application order, and the response observes the post-mutation epoch.
  std::unique_lock<std::shared_mutex> lock(tenant->mu);
  Database& db = tenant->db;
  FactId fact_id = -1;
  std::string journal_fact;
  int64_t dirty = -1;
  if (is_insert) {
    StatusOr<FactId> inserted = db.InsertFact(
        parsed_fact->relation, parsed_fact->args, parsed_fact->endogenous);
    if (!inserted.ok()) {
      lock.unlock();
      fail(inserted.status());
      return;
    }
    fact_id = *inserted;
    journal_fact = (parsed_fact->endogenous ? "+" : "-") +
                   db.fact(fact_id).ToString();
    if (probe.has_value()) {
      dirty = static_cast<int64_t>(AnswersTouching(*probe, db, fact_id).size());
    }
    metrics_.mutations_insert.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (envelope.fact_id >= 0) {
      fact_id = static_cast<FactId>(envelope.fact_id);
    } else {
      StatusOr<FactId> found =
          db.FindFact(parsed_fact->relation, parsed_fact->args);
      if (!found.ok()) {
        lock.unlock();
        fail(found.status());
        return;
      }
      fact_id = *found;
    }
    if (!db.live(fact_id)) {
      lock.unlock();
      fail(NotFoundError("fact id " + std::to_string(fact_id) +
                         " is not live"));
      return;
    }
    // Capture content and the dirty set BEFORE tombstoning: the pinned
    // join needs the fact live, and the journal names facts by content.
    journal_fact = db.fact(fact_id).ToString();
    if (probe.has_value()) {
      dirty = static_cast<int64_t>(AnswersTouching(*probe, db, fact_id).size());
    }
    Status deleted = db.DeleteFact(fact_id);
    if (!deleted.ok()) {
      lock.unlock();
      fail(deleted);
      return;
    }
    metrics_.mutations_delete.fetch_add(1, std::memory_order_relaxed);
  }

  int dead = db.num_facts() - db.num_live();
  if (options_.compact_min_tombstones > 0 &&
      dead >= options_.compact_min_tombstones && dead * 4 >= db.num_live()) {
    db.CompactTombstones();
    dead = db.num_facts() - db.num_live();
    response.compacted = true;
    metrics_.compactions.fetch_add(1, std::memory_order_relaxed);
  }

  if (journal_ != nullptr) {
    JournalRecord record;
    record.timestamp_ns = MonotonicNanos();
    record.op = is_insert ? JournalOp::kInsertFact : JournalOp::kDeleteFact;
    record.fact = journal_fact;
    record.trace_id = NextTraceId();
    record.request.id = envelope.id;
    record.request.tenant = envelope.tenant;
    record.request.query = envelope.dirty_query;
    if (journal_->Append(record).ok()) {
      metrics_.journal_records.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_.journal_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }

  response.fact_id = fact_id;
  response.epoch = db.epoch();
  response.tombstones = dead;
  response.dirty_answers = dirty;
  metrics_.SetTenantStaleness(envelope.tenant, db.epoch(),
                              static_cast<uint64_t>(dead));
  lock.unlock();

  if (dirty >= 0) {
    metrics_.dirty_answers_total.fetch_add(static_cast<uint64_t>(dirty),
                                           std::memory_order_relaxed);
    metrics_.dirty_answers_last.store(dirty, std::memory_order_relaxed);
  }
  WriteResponse(connection, response);
}

void AttributionServer::EnqueueSolve(
    const std::shared_ptr<Connection>& connection, SolveRequest request) {
  if (FindTenant(request.tenant) == nullptr) {
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
    WriteError(connection, request.id,
               NotFoundError("unknown tenant '" + request.tenant +
                             "'; register it with op load_tenant"));
    return;
  }
  StatusOr<AggregateQuery> query = BuildAggregateQuery(request);
  if (!query.ok()) {
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
    metrics_.CountTenantRequest(request.tenant,
                                DaemonMetrics::Outcome::kError);
    WriteError(connection, request.id, query.status());
    return;
  }
  StatusOr<SolverOptions> request_options = BuildSolverOptions(request);
  if (!request_options.ok()) {
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
    metrics_.CountTenantRequest(request.tenant,
                                DaemonMetrics::Outcome::kError);
    WriteError(connection, request.id, request_options.status());
    return;
  }
  // Overlay the per-request knobs on the server's base options.
  SolverOptions options = options_.solver;
  options.score = request_options->score;
  options.method = request_options->method;
  options.num_threads = request_options->num_threads;
  options.monte_carlo = request_options->monte_carlo;

  Status admitted = admission_.TryAdmit(request.tenant);
  if (!admitted.ok()) {
    metrics_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    metrics_.CountTenantRequest(request.tenant,
                                DaemonMetrics::Outcome::kRejected);
    WriteError(connection, request.id, admitted);
    return;
  }

  std::string fingerprint = PlanFingerprint(*query, options.score);
  uint64_t enqueued_ns = MonotonicNanos();
  // Every admitted request gets a trace id (the journal stamps it even at
  // trace level off); the span context itself is only allocated when the
  // server traces or the request asked for a trace.
  const uint64_t trace_id = NextTraceId();
  std::unique_ptr<TraceContext> trace;
  if (options_.trace_level != TraceLevel::kOff || request.trace) {
    trace = std::make_unique<TraceContext>(trace_id);
  }
  if (journal_ != nullptr) {
    JournalRecord record;
    record.timestamp_ns = enqueued_ns;
    record.fingerprint = fingerprint;
    record.request = request;
    record.trace_id = trace_id;
    if (journal_->Append(record).ok()) {
      metrics_.journal_records.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The request is still served, but the journal is no longer a
      // complete trace of admitted traffic — surface that loudly so
      // replay-parity consumers can tell.
      metrics_.journal_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Job job{std::move(request),  std::move(query).value(),
          std::move(options),  std::move(fingerprint),
          enqueued_ns,         trace_id,
          std::move(trace),    connection};

  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  metrics_.TenantQueueDelta(job.request.tenant, 1);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void AttributionServer::WorkerLoop() {
  while (true) {
    std::optional<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || !running_.load(); });
      if (queue_.empty()) return;  // only when stopping
      job.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    metrics_.TenantQueueDelta(job->request.tenant, -1);
    RunJob(std::move(*job));
  }
}

void AttributionServer::RunJob(Job job) {
  admission_.OnDequeue(job.request.tenant);
  metrics_.in_flight.fetch_add(1, std::memory_order_relaxed);
  uint64_t dequeued_ns = MonotonicNanos();
  uint64_t queue_micros = (dequeued_ns - job.enqueued_ns) / 1000;
  metrics_.queue_wait.Record(queue_micros);
  // The worker owns the trace for the rest of the request (the queue
  // mutex published it); span sites below only ever see this borrowed
  // pointer on this thread.
  TraceContext* trace = job.trace.get();
  if (trace != nullptr) {
    trace->AddSpan("queue_wait", job.enqueued_ns, dequeued_ns);
  }
  if (options_.pre_solve_hook) options_.pre_solve_hook();

  SolveResponse response;
  response.id = job.request.id;
  response.queue_ms = static_cast<double>(queue_micros) / 1e3;
  response.fingerprint = job.fingerprint;

  std::shared_ptr<TenantState> tenant = FindTenant(job.request.tenant);
  Status failure;
  uint64_t solve_us = 0;
  if (tenant == nullptr) {
    failure = NotFoundError("tenant '" + job.request.tenant +
                            "' disappeared while queued");
  } else {
    // Shared lock for the whole plan+solve+render window: the session
    // borrows the tenant database, and mutations (exclusive holders)
    // wait rather than mutate under a running solve.
    std::shared_lock<std::shared_mutex> db_lock(tenant->mu);
    const Database& db = tenant->db;
    bool cache_hit = false;
    Span plan_span(trace, "plan");
    std::shared_ptr<const AttributionPlan> plan =
        PlanCache::Global().GetOrCompile(job.query, job.options.score,
                                         &cache_hit);
    plan_span.Annotate("cache", cache_hit ? "hit" : "miss");
    plan_span.End();
    response.plan_cache_hit = cache_hit;
    SolverSession session(plan, db);

    SolverOptions options = job.options;
    options.trace = trace;
    // Per-request circuit-cache attribution: the lineage shards add their
    // hit/miss traffic here, and it lands on this tenant's metric series.
    CircuitCacheCounters circuit_counters;
    options.lineage.cache_counters = &circuit_counters;
    bool degraded = false;
    std::string degrade_reason;
    if (job.request.deadline_ms > 0) {
      // The deadline is anchored at admission, so time spent queued
      // counts against it.
      uint64_t deadline_ns =
          job.enqueued_ns +
          static_cast<uint64_t>(job.request.deadline_ms) * 1000000u;
      if (MonotonicNanos() > deadline_ns) {
        // The deadline burned out in the queue: go straight to the
        // bounded estimate.
        options.method = SolveMethod::kMonteCarlo;
        degraded = true;
        degrade_reason = "deadline expired in queue";
      } else {
        options.cancelled = [deadline_ns] {
          return MonotonicNanos() > deadline_ns;
        };
      }
    }

    Span solve_span(trace, "solve");
    solve_span.Annotate("players", static_cast<int64_t>(db.num_endogenous()));
    solve_span.Annotate("hierarchy",
                        HierarchyClassName(session.classification()));
    solve_span.Annotate("method", job.request.method);
    LineageStatsSnapshot lineage_before = LineageStats::Global().Snapshot();
    uint64_t solve_start_ns = MonotonicNanos();
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> results =
        session.ComputeAll(options);
    if (!results.ok() &&
        results.status().code() == StatusCode::kDeadlineExceeded) {
      degraded = true;
      degrade_reason = results.status().message();
      options.cancelled = nullptr;
      options.method = SolveMethod::kMonteCarlo;
      results = session.ComputeAll(options);
    }
    if (degraded) solve_span.Annotate("degrade_reason", degrade_reason);
    solve_span.End();
    uint64_t solve_micros = (MonotonicNanos() - solve_start_ns) / 1000;
    solve_us = solve_micros;
    metrics_.solve.Record(solve_micros);
    response.solve_ms = static_cast<double>(solve_micros) / 1e3;
    metrics_.AddTenantCircuitCache(
        job.request.tenant,
        circuit_counters.hits.load(std::memory_order_relaxed),
        circuit_counters.misses.load(std::memory_order_relaxed));

    if (results.ok()) {
      response.status = "ok";
      response.degraded = degraded;
      FillResults(db, *results, &response);
      LineageStatsSnapshot lineage = LineageStatsDelta(
          LineageStats::Global().Snapshot(), lineage_before);
      response.footer = FormatPlanProvenance(*plan, *results, cache_hit,
                                             &options, &lineage);
      std::unordered_map<std::string, uint64_t> mix;
      for (const auto& [fact, result] : *results) {
        (void)fact;
        ++mix[result.algorithm];
      }
      for (const auto& [engine, facts] : mix) {
        metrics_.CountEngineFacts(engine, facts);
      }
      if (degraded) {
        metrics_.requests_degraded.fetch_add(1, std::memory_order_relaxed);
      }
      metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      failure = results.status();
    }
  }

  if (!failure.ok() || response.status != "ok") {
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
    metrics_.CountTenantRequest(job.request.tenant,
                                DaemonMetrics::Outcome::kError);
    response.status = "error";
    response.code = StatusCodeName(failure.code());
    response.error = failure.message();
  } else {
    metrics_.CountTenantRequest(job.request.tenant,
                                DaemonMetrics::Outcome::kOk);
  }
  const uint64_t total_micros = (MonotonicNanos() - job.enqueued_ns) / 1000;
  metrics_.total.Record(total_micros);
  const char* outcome = response.status == "ok"
                            ? (response.degraded ? "degraded" : "ok")
                            : "error";
  response.trace_id = TraceIdHex(job.trace_id);
  if (trace != nullptr) {
    for (const TraceSpan& span : trace->spans()) {
      metrics_.RecordStage(span.stage, span.duration_micros());
    }
    // Rendered at most once: for the response when it asks for the trace,
    // and for the flight recorder only when the recorder keeps the record.
    std::string rendered;
    auto render = [&rendered, trace]() {
      if (rendered.empty()) rendered = trace->RenderJson();
      return rendered;
    };
    if (job.request.trace || options_.trace_level == TraceLevel::kFull) {
      response.explain = BuildEngineExplanation(*trace);
      response.trace = render();
    }
    TraceRecord flight;
    flight.trace_id = job.trace_id;
    flight.tenant = job.request.tenant;
    flight.request_id = job.request.id;
    flight.outcome = outcome;
    flight.total_micros = total_micros;
    flight_recorder_.Record(std::move(flight), render);
  }
  if (LogEnabled(LogLevel::kInfo)) {
    LogLine(LogLevel::kInfo,
            "request trace=" + TraceIdHex(job.trace_id) + " tenant=" +
                job.request.tenant + " id=" + std::to_string(job.request.id) +
                " outcome=" + outcome + " total_us=" +
                std::to_string(total_micros) + " solve_us=" +
                std::to_string(solve_us));
  }
  WriteResponse(job.connection, response);
  metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
  admission_.OnComplete(job.request.tenant);
}

void AttributionServer::WriteResponse(
    const std::shared_ptr<Connection>& connection,
    const SolveResponse& response) {
  std::string line = SerializeResponse(response);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(connection->write_mu);
  if (connection->closed.load() || connection->fd < 0) return;
  if (!SendAll(connection->fd, line.data(), line.size())) {
    // shutdown (not close) so the reader parked in recv() wakes up and
    // closes the fd itself.
    connection->closed.store(true);
    ::shutdown(connection->fd, SHUT_RDWR);
  }
}

void AttributionServer::WriteError(
    const std::shared_ptr<Connection>& connection, uint64_t id,
    const Status& status) {
  SolveResponse response;
  response.id = id;
  response.status = "error";
  response.code = StatusCodeName(status.code());
  response.error = status.message();
  WriteResponse(connection, response);
}

void AttributionServer::MetricsLoop() {
  while (running_.load()) {
    int fd = ::accept(metrics_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      continue;
    }
    // One request per connection, curl/Prometheus style.
    std::string request;
    char chunk[2048];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < kMaxLineBytes) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      request.append(chunk, static_cast<size_t>(n));
      if (request.find('\n') != std::string::npos &&
          request.find("\r\n") == std::string::npos) {
        break;  // bare-LF client (nc): first line is enough
      }
    }
    std::string body;
    const char* status_line = "HTTP/1.1 404 Not Found\r\n";
    const char* content_type = "text/plain; version=0.0.4";
    if (request.rfind("GET /metrics", 0) == 0) {
      status_line = "HTTP/1.1 200 OK\r\n";
      body = MetricsText();
    } else if (request.rfind("GET /healthz", 0) == 0) {
      status_line = "HTTP/1.1 200 OK\r\n";
      body = "ok\n";
    } else if (request.rfind("GET /debug/traces", 0) == 0) {
      status_line = "HTTP/1.1 200 OK\r\n";
      content_type = "application/json";
      body = DebugTracesJson();
      body.push_back('\n');
    } else {
      body = "not found\n";
    }
    std::string reply = status_line;
    reply += "Content-Type: ";
    reply += content_type;
    reply += "\r\n";
    reply += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    reply += "Connection: close\r\n\r\n";
    reply += body;
    SendAll(fd, reply.data(), reply.size());
    ::close(fd);
  }
}

}  // namespace shapcq
