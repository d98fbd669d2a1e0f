// ServiceHost: a concurrent multi-session server over AF_UNIX or TCP
// sockets.
//
// The host is a thin shell over ReactorEngine (core/reactor_host.h): a
// fixed set of event-loop threads owns every socket non-blocking, each
// session is one ServerProtocolFsm, and frame processing (handshake,
// homomorphic folds) runs on the process-wide ThreadPool, so CPU
// parallelism and the thread count stay bounded however many clients
// connect. Client public keys are deserialized through one shared
// PublicKeyCache, so repeat sessions from the same client skip the
// Montgomery-context rebuild.
//
// Robustness layer (the daemon must survive slow, crashing, and
// malformed clients):
//  * io_deadline_ms is a whole-frame deadline: a client that does not
//    complete its next frame in time (a trickler included) is evicted
//    with a DeadlineExceeded Error frame; stalled writes are bounded
//    the same way.
//  * max_sessions caps concurrency; over-limit connects are answered
//    with a ResourceExhausted Error frame and closed, which clients
//    treat as retryable (net/retry.h).
//  * Accepting survives transient accept() failures (fd exhaustion,
//    memory pressure) with capped backoff; only listener shutdown stops
//    it.
// The host injects no faults of its own: the chaos suite and
// ablation_service_host --chaos wrap the client's channel in a
// FaultInjectingChannel (net/fault_injection.h), which faults the frames
// of both directions.
//
// Observability: every host owns a private obs::MetricRegistry. Session
// outcomes and query counts live there as registry counters (the Stats
// struct is a thin snapshot view over them), which makes SnapshotStats()
// safe to call at any moment — queries are counted before their
// SumResponse reaches the wire, so live stats are never behind what
// clients have observed. When stats_json_path is set, a dumper thread
// periodically writes the merged host + process metrics as one JSON
// document (atomic rename), and Stop() writes a final snapshot.
//
// Start resolves the one router factory every session's FSM gets its
// QueryRouter from: router_factory when a coordinator sets it, else a
// LocalQueryRouter over the registry, the resolved default column,
// worker_threads and shard_blind. The measured experiment harnesses
// keep driving protocol objects (SumServer, SumClient) directly.

#ifndef PPSTATS_CORE_SERVICE_HOST_H_
#define PPSTATS_CORE_SERVICE_HOST_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/query_exec.h"
#include "crypto/key_io.h"
#include "db/column_registry.h"
#include "net/socket_channel.h"
#include "obs/metrics.h"

namespace ppstats {

class ReactorEngine;

/// Host configuration.
struct ServiceHostOptions {
  /// Column served to queries with an empty column name. Empty picks the
  /// registry's sole column when it has exactly one, else no default.
  std::string default_column;

  /// Fold slices per chunk on the shared ThreadPool (per query).
  size_t worker_threads = 1;

  /// Concurrent session cap; connects beyond it are rejected with a
  /// ResourceExhausted Error frame. 0 = unlimited.
  size_t max_sessions = 0;

  /// Whole-frame read/write deadline on every session: a client that
  /// takes longer than this to complete its next frame (or to drain a
  /// reply) is evicted with DeadlineExceeded. 0 = wait forever (the
  /// paper's assumption).
  uint32_t io_deadline_ms = 0;

  /// Kernel listen(2) backlog for the socket listener.
  int accept_backlog = 16;

  /// Test hook, consulted before each accept. A non-OK return
  /// is handled exactly like a failed accept() with that status. Chaos
  /// tests use it to simulate fd exhaustion (EMFILE/ENFILE), which
  /// cannot be forced reliably from user space: some kernels (and
  /// sandboxes) skip the RLIMIT_NOFILE check on accept's fd allocation.
  std::function<Status()> accept_fault_hook;

  /// When non-empty, the host writes its merged metrics (host registry +
  /// process-wide registry) to this path as a single JSON document —
  /// every stats_interval_ms while running, and once more on Stop().
  /// Writes go through a temp file + rename, so readers never see a
  /// partial document.
  std::string stats_json_path;

  /// Period of the stats dumper thread. 0 disables periodic dumps (the
  /// final Stop() snapshot is still written when stats_json_path is
  /// set).
  uint32_t stats_interval_ms = 0;

  /// Number of event-loop threads. Every shard owns its own listener
  /// (SO_REUSEPORT for tcp, a dup()'d description for unix), and a
  /// session is served by the shard that accepted it.
  size_t reactor_threads = 1;

  /// SO_SNDBUF for accepted session sockets. 0 keeps the kernel
  /// default; tests set tiny values to force partial writes (the kernel
  /// clamps to its floor, ~4.6KB on Linux).
  int so_sndbuf = 0;

  /// When set, each session's query resolution/execution is delegated
  /// to a fresh router from this factory instead of the local
  /// registry + SumServer path (the cluster coordinator plugs in
  /// here; see src/cluster/coordinator.h). A host with a router
  /// factory may run without local columns: Start() skips the
  /// empty-registry check and default-column resolution.
  QueryRouterFactory router_factory;

  /// Shard-side zero-share blinding for the local query path (see
  /// ShardBlindConfig in core/query_exec.h). Ignored when
  /// router_factory is set.
  std::optional<ShardBlindConfig> shard_blind;
};

/// Serves protocol sessions concurrently on a unix or tcp endpoint.
class ServiceHost {
 public:
  /// Aggregate counters across all sessions served so far (reset on
  /// each Start, so a restarted host reports only its current run).
  struct Stats {
    uint64_t sessions_accepted = 0;
    uint64_t sessions_ok = 0;       ///< sessions that ended cleanly
    uint64_t sessions_failed = 0;   ///< sessions that ended with an error
    uint64_t sessions_rejected = 0; ///< connects refused over max_sessions
    uint64_t sessions_evicted = 0;  ///< sessions ended by an I/O deadline
    uint64_t queries_served = 0;    ///< queries answered with a SumResponse
    double server_compute_s = 0;    ///< total homomorphic fold time
    size_t distinct_client_keys = 0;
  };

  /// `registry` must outlive the host and stay unmodified while running.
  explicit ServiceHost(const ColumnRegistry* registry,
                       ServiceHostOptions options = {});

  /// Stops and joins all threads.
  ~ServiceHost();

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  /// Binds `uri` — "unix:/path", "tcp:host:port" (port 0 picks an
  /// ephemeral port; see bound_uri()), or a bare socket path — and
  /// starts accepting clients in the background. Resets per-run state
  /// (stats, key cache), so Stop() + Start() serves a fresh run —
  /// including on the same address.
  [[nodiscard]] Status Start(const std::string& uri);

  /// The resolved listen address after a successful Start(): ephemeral
  /// TCP ports are filled in, bare paths normalized to "unix:...".
  /// Clients can dial this string verbatim (net/retry.h UriDialer).
  std::string bound_uri() const { return bound_endpoint_.ToUri(); }

  /// Stops accepting and drains: idle sessions (in handshake or between
  /// queries, nothing half read) end at once with an Unavailable Error
  /// frame, so a silent client cannot hold Stop() even without
  /// io_deadline_ms; a session with a query in flight finishes that
  /// query (bounded by io_deadline_ms when set) and is then ended the
  /// same way. Then every host thread is joined. Idempotent.
  void Stop() PPSTATS_EXCLUDES(mu_);

  bool running() const { return engine_ != nullptr; }

  /// Sessions currently being served (rejected connects excluded), so a
  /// test can assert it returns to zero between clients.
  size_t active_sessions() const;

  /// Live, race-free view of the host's counters: safe to call at any
  /// moment, including while sessions are mid-query. A query whose
  /// answer a client has already received is guaranteed to be counted
  /// (the session accounts it before the response frame is sent).
  Stats SnapshotStats() const;

  /// The merged host + process-wide metrics this host's stats dumper
  /// exports (counters, gauges, and span histograms).
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// This host's private metric registry (reset on every Start()).
  obs::MetricRegistry& metric_registry() { return metric_registry_; }

 private:
  void DumperLoop() PPSTATS_EXCLUDES(mu_);
  void WriteStatsJson() const;

  const ColumnRegistry* registry_;
  ServiceHostOptions options_;
  PublicKeyCache key_cache_;
  /// Non-null while running; created per Start.
  std::unique_ptr<ReactorEngine> engine_;
  Endpoint bound_endpoint_;  ///< resolved listen address (set by Start)
  std::thread dumper_thread_;
  std::chrono::steady_clock::time_point started_at_{};

  // Host counters, owned by metric_registry_. The pointers stay valid
  // across Reset(), so they are resolved once in the constructor.
  obs::MetricRegistry metric_registry_;
  obs::Counter* sessions_accepted_;
  obs::Counter* sessions_ok_;
  obs::Counter* sessions_failed_;
  obs::Counter* sessions_rejected_;
  obs::Counter* sessions_evicted_;
  obs::Counter* queries_served_;
  obs::Counter* compute_ns_;
  obs::Gauge* active_gauge_;

  Mutex mu_;
  CondVar dumper_cv_;
  bool stopping_ PPSTATS_GUARDED_BY(mu_) = false;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SERVICE_HOST_H_
