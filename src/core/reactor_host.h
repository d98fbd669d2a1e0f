// ReactorEngine: the event-driven session engine behind ServiceHost.
//
// A fixed set of reactor threads (net/reactor.h) owns every fd
// non-blocking: the listeners and all session sockets. Every shard owns
// its own listener — TCP shards bind the same address with SO_REUSEPORT
// so the kernel load-balances connections across them; AF_UNIX shards
// share one listening file description via dup() — so a session is
// accepted on, and pinned to, the shard that will serve it, with no
// cross-shard handoff and no accept bottleneck on shard 0. Each session
// is driven as an explicit state machine:
//
//   accept ─▶ read bytes ─▶ parse length-prefixed frames ─▶ inbox
//     inbox ─▶ ThreadPool::Submit(fsm.OnFrame)   (CPU work off-loop)
//     completion ─▶ Reactor::Post ─▶ append reply frames ─▶ flush
//
// At most one worker task runs per session at a time (frames queue in
// the session's inbox), so the ServerProtocolFsm never sees concurrent
// calls; the reactor thread owns all other session state. Folds land on
// the shared work-stealing ThreadPool, so CPU parallelism stays bounded
// no matter how many clients are connected — the property that lets one
// host hold thousands of idle or slow sessions with a flat thread
// count. Each session's outbox flushes with one gathered sendmsg() over
// every pending frame.
//
// The engine's contract with its clients:
//  * io_deadline_ms is a whole-frame deadline. The read timer arms when
//    the host starts waiting for a frame and is cancelled only by a
//    complete frame, so a client trickling single bytes (Slowloris) is
//    still evicted, with the FSM's DeadlineExceeded Error frame.
//    Stalled writes are bounded the same way.
//  * Stop() ends every idle session (in handshake or between queries,
//    with no fold running and no frame half read) with an Unavailable
//    Error frame, and each other session as soon as it is idle again,
//    so a client that stays connected and silent cannot hold Stop()
//    even with no I/O deadline.
//  * Over-capacity connects get a ResourceExhausted Error frame after a
//    best-effort hello drain (bounded at 100 ms), then the socket
//    closes.
//  * Session outcomes map onto the host.* counters, and queries are
//    counted before their response frame reaches the wire, so a client
//    holding its answer always finds the query in SnapshotStats().
//  * The pool backlog the engine creates is bounded by one in-flight
//    task per session, so by max_sessions when that is set.

#ifndef PPSTATS_CORE_REACTOR_HOST_H_
#define PPSTATS_CORE_REACTOR_HOST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/service_host.h"
#include "core/session_fsm.h"
#include "net/reactor.h"
#include "net/socket_channel.h"
#include "obs/metrics.h"

namespace ppstats {

/// See the file comment. Owned by ServiceHost; one engine per Start().
class ReactorEngine {
 public:
  /// The owning host's registry-backed counters, which back
  /// ServiceHost::SnapshotStats().
  struct HostCounters {
    obs::Counter* accepted = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* evicted = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* compute_ns = nullptr;
    obs::Gauge* active = nullptr;
  };

  /// All pointers must outlive the engine. `router_factory` is the
  /// host's resolved factory: the engine calls it once per accepted
  /// session and hands the router to that session's FSM.
  ReactorEngine(const ServiceHostOptions& options,
                QueryRouterFactory router_factory, HostCounters counters,
                PublicKeyCache* key_cache,
                obs::MetricRegistry* metric_registry);
  ~ReactorEngine();

  ReactorEngine(const ReactorEngine&) = delete;
  ReactorEngine& operator=(const ReactorEngine&) = delete;

  /// Binds one listener per shard on `endpoint` (unix or tcp) and
  /// starts the reactor threads.
  [[nodiscard]] Status Start(const Endpoint& endpoint);

  /// The resolved bind address (ephemeral TCP ports filled in). Valid
  /// after a successful Start() until the next Start().
  const Endpoint& endpoint() const { return endpoint_; }

  /// Stops accepting and ends idle sessions with an Unavailable Error
  /// frame; a session with a query in flight or a frame half read runs
  /// on until it is idle (bounded by io_deadline_ms when set) and is then
  /// ended the same way. Then stops and joins every reactor thread.
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Sessions currently being served (rejected connects excluded).
  size_t active_sessions() const {
    return serving_count_.load(std::memory_order_acquire);
  }

 private:
  struct SessionState;  // defined in the .cc; reactor-thread-owned

  /// One reactor thread plus its listener and the sessions pinned to it
  /// (keyed by fd). Everything but `reactor` and `thread` is touched
  /// only on the shard's reactor thread (or before the threads start).
  struct Shard {
    std::unique_ptr<Reactor> reactor;
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<SessionState>> sessions;
    std::optional<SocketListener> listener;
    bool listener_registered = false;
    uint32_t accept_backoff_ms = 1;
    obs::Counter* accepts = nullptr;  ///< net.accepts.<shard>
  };

  // Accept path (each shard's own reactor thread only).
  void AcceptPass(size_t shard);
  void RemoveListener(size_t shard);
  void OpenSession(size_t shard, int fd, bool reject);

  // Session path (the owning shard's reactor thread only).
  void RegisterSession(size_t shard, std::shared_ptr<SessionState> session);
  void OnSessionEvent(size_t shard, const std::shared_ptr<SessionState>& s,
                      uint32_t ready);
  void ReadPass(size_t shard, const std::shared_ptr<SessionState>& s);
  void ParseFrames(size_t shard, const std::shared_ptr<SessionState>& s);
  void OnFrameParsed(size_t shard, const std::shared_ptr<SessionState>& s,
                     Bytes frame);
  void PumpProcessing(size_t shard, const std::shared_ptr<SessionState>& s);
  void HandleFsmOutput(size_t shard, const std::shared_ptr<SessionState>& s,
                       ServerFsmOutput out);
  void AppendOutbound(const std::shared_ptr<SessionState>& s,
                      BytesView payload);
  void Flush(size_t shard, const std::shared_ptr<SessionState>& s);
  void ArmReadTimer(size_t shard, const std::shared_ptr<SessionState>& s);
  void ArmWriteTimer(size_t shard, const std::shared_ptr<SessionState>& s);
  void ArmFlushDeadline(size_t shard, const std::shared_ptr<SessionState>& s);
  void CancelSessionTimer(size_t shard, uint64_t& id);
  void SetWriteInterest(size_t shard, const std::shared_ptr<SessionState>& s,
                        bool enable);
  void BeginReject(size_t shard, const std::shared_ptr<SessionState>& s);
  void BeginClose(size_t shard, const std::shared_ptr<SessionState>& s);
  void OnReadDeadline(size_t shard, const std::shared_ptr<SessionState>& s);
  /// Sends the FSM's Error frame for `status` and closes the session.
  void EvictSession(size_t shard, const std::shared_ptr<SessionState>& s,
                    Status status);
  /// Once Stop() has begun, evicts `s` with Unavailable if it is idle: in
  /// handshake or between queries, no fold running, no frame half read.
  /// Returns whether it did.
  bool EndIfIdleAtStop(size_t shard, const std::shared_ptr<SessionState>& s);
  void HandleReadFailure(size_t shard, const std::shared_ptr<SessionState>& s,
                         Status error);
  void HandleSendFailure(size_t shard, const std::shared_ptr<SessionState>& s,
                         Status error);
  void FinalizeSession(size_t shard, const std::shared_ptr<SessionState>& s);

  ServiceHostOptions options_;
  QueryRouterFactory router_factory_;
  HostCounters counters_;
  PublicKeyCache* key_cache_;
  obs::MetricRegistry* metric_registry_;

  std::vector<Shard> shards_;
  Endpoint endpoint_;  ///< resolved bind address (set by Start)
  // Session ids count accepted sessions across all shards; atomic
  // because every shard's reactor thread assigns ids during accept.
  std::atomic<uint64_t> next_session_id_{0};
  obs::Counter* writev_calls_ = nullptr;   ///< net.writev_calls
  obs::Counter* writev_frames_ = nullptr;  ///< net.writev_frames

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> serving_count_{0};

  // Stop() blocks here until every session (serving and rejecting) has
  // been finalized by its reactor thread.
  mutable Mutex drain_mu_;
  size_t live_sessions_ PPSTATS_GUARDED_BY(drain_mu_) = 0;
  CondVar drain_cv_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_REACTOR_HOST_H_
