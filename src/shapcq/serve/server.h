// AttributionServer: the long-running concurrent attribution daemon.
//
// One process serves many tenants: each tenant is a named immutable
// Database, registered up front (RegisterTenant) or over the wire
// (op:"load_tenant"). Clients connect to a loopback TCP port and speak
// the line-delimited JSON protocol of serve/protocol.h; an optional
// second port serves GET /metrics in Prometheus text format.
//
// Request path:
//
//   reader thread (one per connection)
//     parse line -> resolve tenant -> build query/options
//     -> AdmissionController::TryAdmit   (reject: RESOURCE_EXHAUSTED now)
//     -> JournalWriter::Append           (accepted traffic is replayable)
//     -> push on the shared work queue
//   worker pool (worker_threads)
//     dequeue -> PlanCache::GetOrCompile -> SolverSession::ComputeAll
//     with options.cancelled wired to the request deadline; on
//     kDeadlineExceeded (or a deadline that expired in the queue) rerun
//     with method=kMonteCarlo — bounded by the sample budget and
//     deterministic via seeded sample blocks — and mark the response
//     degraded. The response (with the provenance footer's CI line for
//     sampled results) is written back on the request's connection.
//
// Deadlines therefore never wedge a worker: the exact attempt stops at
// the next phase boundary and the degrade pass is time-bounded by
// construction. Responses to one connection may interleave across
// requests (match by id), but each response line is written atomically.
//
// Ordering note: admission happens on reader threads in arrival order
// per connection; the worker pool may complete requests in any order.

#ifndef SHAPCQ_SERVE_SERVER_H_
#define SHAPCQ_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/obs/flight_recorder.h"
#include "shapcq/obs/trace.h"
#include "shapcq/serve/admission.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/metrics.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

struct ServerOptions {
  // TCP ports on 127.0.0.1. 0 picks an ephemeral port (read it back via
  // port() / metrics_port() after Start); metrics_port = -1 disables the
  // HTTP metrics listener (op:"metrics" still works on the main port).
  int port = 0;
  int metrics_port = 0;
  int worker_threads = 4;
  TenantLimits limits;
  // Base solver options; per-request fields (score, method, threads,
  // sampling) are overlaid from each SolveRequest.
  SolverOptions solver;
  // When non-empty, every accepted request is appended here.
  std::string journal_path;
  // Size-based journal rotation (serve/journal.h): when > 0 the journal
  // rolls to a numbered segment once the active file reaches this many
  // bytes. 0 keeps a single unbounded file.
  uint64_t journal_max_segment_bytes = 0;
  // When non-empty, the compiled-artifact directory (persist/artifact.h):
  // Start() warm-loads the plan and circuit caches from it (corrupt or
  // stale files are counted and ignored — cold start, never a crash), and
  // Stop() snapshots both caches back. SaveArtifacts() snapshots on
  // demand (shapcqd wires it to SIGHUP).
  std::string artifact_dir;
  // Whether clients may register tenants over the wire.
  bool allow_load_tenant = true;
  // Whether clients may mutate tenants (insert_fact / delete_fact).
  bool allow_mutations = true;
  // Auto-compaction trigger: after a mutation, compact the tenant when it
  // holds at least this many tombstones AND the dead rows exceed a quarter
  // of the live ones. <= 0 disables auto-compaction.
  int compact_min_tombstones = 64;
  // Tracing (obs/trace.h). Every admitted request gets a trace id at any
  // level (the journal stamps it); kOn additionally collects spans into
  // the per-stage histograms, the flight recorder, and the per-request
  // log line, and kFull puts the span dump + engine explanation on every
  // response (a request with "trace":true gets them at any level).
  // Results are bitwise-identical across levels.
  TraceLevel trace_level = TraceLevel::kOn;
  // Flight-recorder retention (obs/flight_recorder.h): the N slowest ok
  // requests, plus a ring of the most recent degraded/errored ones.
  size_t flight_slowest_capacity = 32;
  size_t flight_incident_capacity = 128;
  // Test seam: run on the worker thread after dequeue, before solving.
  // Lets tests hold workers to saturate admission or outrun deadlines
  // deterministically.
  std::function<void()> pre_solve_hook;
};

class AttributionServer {
 public:
  explicit AttributionServer(ServerOptions options);
  ~AttributionServer();  // calls Stop()

  AttributionServer(const AttributionServer&) = delete;
  AttributionServer& operator=(const AttributionServer&) = delete;

  // Binds the listeners, opens the journal, starts the worker pool and
  // acceptor threads. Fails without side effects (no half-started server).
  Status Start();

  // Stops accepting, shuts down every connection, joins every thread,
  // and closes the journal. Requests already queued are still drained
  // by the workers before they exit, but their responses go nowhere
  // (the connections are shut down first); anything left in the queue
  // after that is dropped and counted as an error. Idempotent.
  void Stop();

  // Bound ports, valid after a successful Start.
  int port() const { return port_; }
  int metrics_port() const { return metrics_port_; }

  // Registers (or replaces) a tenant database.
  void RegisterTenant(const std::string& name, Database db);

  // The current Prometheus exposition text.
  std::string MetricsText() const;

  // Snapshots the plan and circuit caches into options.artifact_dir (a
  // no-op returning OK when unset). Safe while serving: the caches are
  // snapshotted under their own locks and serialization runs outside
  // them. Called by Stop(); shapcqd also calls it on SIGHUP.
  Status SaveArtifacts();

  DaemonMetrics& metrics() { return metrics_; }
  const AdmissionController& admission() const { return admission_; }
  uint64_t journal_records_written() const;

  // The flight recorder's current contents as JSON — what GET
  // /debug/traces on the metrics port serves (shapcqd also dumps it on
  // SIGUSR1).
  std::string DebugTracesJson() const { return flight_recorder_.RenderJson(); }
  const FlightRecorder& flight_recorder() const { return flight_recorder_; }

  // Connections not yet reaped: reaps finished reader threads first,
  // then returns the remaining count. Trends to zero after clients
  // disconnect (observability/test seam).
  size_t live_connections();

 private:
  // A tenant's mutable database plus the lock that orders readers against
  // mutations: solves hold `mu` shared for the whole plan+solve window,
  // insert_fact/delete_fact hold it exclusive (applied synchronously on
  // the reader thread, journal append included, so the journal order is
  // the application order). RegisterTenant/load_tenant swap the whole
  // state pointer; in-flight solves keep the old state alive via
  // shared_ptr.
  struct TenantState {
    mutable std::shared_mutex mu;
    Database db;
  };

  struct Connection {
    // Closed by the reader thread when ConnectionLoop exits (fd becomes
    // -1, under write_mu); other threads only ever shutdown() it.
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> closed{false};  // shutdown requested / peer gone
    std::atomic<bool> done{false};    // reader exited; thread reapable
  };

  // A live connection plus its reader thread, reaped once done.
  struct ConnectionHandle {
    std::shared_ptr<Connection> connection;
    std::thread thread;
  };

  struct Job {
    SolveRequest request;
    AggregateQuery query;
    SolverOptions options;
    std::string fingerprint;
    uint64_t enqueued_ns = 0;
    uint64_t trace_id = 0;  // always set; also journaled
    // Null when span collection is off (trace_level kOff and the request
    // didn't ask). Owned by the job; the queue mutex publishes it from
    // the reader thread to exactly one worker.
    std::unique_ptr<TraceContext> trace;
    std::shared_ptr<Connection> connection;
  };

  void AcceptLoop();
  void MetricsLoop();
  void ConnectionLoop(std::shared_ptr<Connection> connection);
  void WorkerLoop();
  // Joins and erases every connection whose reader has exited.
  void ReapFinishedConnections();

  // Handles one request line; writes any immediate response itself.
  void HandleLine(const std::shared_ptr<Connection>& connection,
                  const std::string& line);
  // The solve path after parsing: admission, journaling, enqueue.
  void EnqueueSolve(const std::shared_ptr<Connection>& connection,
                    SolveRequest request);
  // insert_fact/delete_fact: applied synchronously on the reader thread
  // under the tenant's exclusive lock, journaled, then answered.
  void HandleMutation(const std::shared_ptr<Connection>& connection,
                      const RequestEnvelope& envelope);
  // Runs one admitted job on a worker thread and writes its response.
  void RunJob(Job job);

  // Warm-loads the plan/circuit caches from options.artifact_dir at
  // Start. Never fails the boot: load errors increment
  // artifact_load_errors and the server compiles cold.
  void LoadArtifacts();

  void WriteResponse(const std::shared_ptr<Connection>& connection,
                     const SolveResponse& response);
  void WriteError(const std::shared_ptr<Connection>& connection, uint64_t id,
                  const Status& status);
  std::shared_ptr<TenantState> FindTenant(const std::string& name) const;

  ServerOptions options_;
  int port_ = -1;
  int metrics_port_ = -1;
  // Atomic: Stop() retires these while the accept loops read them.
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> metrics_fd_{-1};

  std::atomic<bool> running_{false};
  std::thread acceptor_;
  std::thread metrics_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex connections_mu_;
  std::vector<ConnectionHandle> connections_;

  mutable std::mutex tenants_mu_;
  std::unordered_map<std::string, std::shared_ptr<TenantState>> tenants_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  AdmissionController admission_;
  DaemonMetrics metrics_;
  FlightRecorder flight_recorder_;
  std::unique_ptr<JournalWriter> journal_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SERVE_SERVER_H_
