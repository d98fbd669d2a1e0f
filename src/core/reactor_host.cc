#include "core/reactor_host.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

#include "common/thread_pool.h"
#include "core/messages.h"
#include "net/channel.h"

namespace ppstats {

namespace {

/// Cap on the accept-failure backoff. Transient fd exhaustion usually
/// clears in milliseconds; anything longer and we still want the host
/// probing regularly rather than sleeping through recovery.
constexpr uint32_t kMaxAcceptBackoffMs = 100;

/// Bound on the over-capacity hello drain and on flushing the
/// rejection frame: the frame is tiny, so this only guards against a
/// client that connects and then neither talks nor reads.
constexpr uint32_t kRejectWriteDeadlineMs = 100;

/// recv() scratch size per call; the read loop drains to EAGAIN anyway
/// (edge-triggered contract), this only bounds one copy.
constexpr size_t kReadChunkBytes = 64 * 1024;

/// Frames gathered into one sendmsg(). Well under IOV_MAX; one batch
/// per syscall, re-gathered after partial writes.
constexpr size_t kWritevBatchFrames = 64;

}  // namespace

struct ReactorEngine::SessionState {
  enum class Mode : uint8_t { kServing, kRejecting };

  int fd = -1;
  uint64_t id = 0;  ///< protocol session ordinal (serving mode only)
  size_t shard = 0;
  Mode mode = Mode::kServing;

  // Protocol state. The FSM is touched by exactly one thread at a time:
  // a pool worker while `processing` is true, the reactor thread
  // otherwise (the pool and Post() queues provide the handoff fences).
  std::unique_ptr<ServerProtocolFsm> fsm;

  // Read side (reactor thread only).
  Bytes read_buf;
  size_t read_pos = 0;
  std::deque<Bytes> inbox;
  Bytes current_frame;  ///< owned by the worker while processing
  bool processing = false;

  // Write side (reactor thread only).
  /// Wire frames (4-byte length prefix applied), flushed in order.
  std::deque<Bytes> outbox;
  size_t wire_off = 0;  ///< bytes of outbox.front() already sent
  bool want_write = false;
  bool transport_dead = false;
  Status flush_error = Status::OK();  ///< first send-path failure

  // Errors observed while a worker holds the FSM, applied once it
  // returns. `pending_error` (send failures) aborts immediately;
  // `read_error` (EOF/reset) only once the inbox drains, so pipelined
  // frames that arrived before the close still get served.
  std::optional<Status> pending_error;
  std::optional<Status> read_error;

  // Timers (ids into the owning reactor's wheel; 0 = unarmed).
  uint64_t read_timer = 0;
  uint64_t write_timer = 0;
  uint64_t reject_timer = 0;

  bool closing = false;  ///< terminal: flush the outbox, then close
  bool closed = false;
};

ReactorEngine::ReactorEngine(const ServiceHostOptions& options,
                             QueryRouterFactory router_factory,
                             HostCounters counters, PublicKeyCache* key_cache,
                             obs::MetricRegistry* metric_registry)
    : options_(options),
      router_factory_(std::move(router_factory)),
      counters_(counters),
      key_cache_(key_cache),
      metric_registry_(metric_registry) {}

ReactorEngine::~ReactorEngine() { Stop(); }

Status ReactorEngine::Start(const Endpoint& endpoint) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("reactor engine already running");
  }
  const size_t shard_count = std::max<size_t>(1, options_.reactor_threads);

  // One listener per shard. TCP shards each bind the same address with
  // SO_REUSEPORT (set on every listener, including the first), so the
  // kernel spreads incoming connections across shards. AF_UNIX has no
  // per-path SO_REUSEPORT balancing; extra shards dup() the first
  // listening description instead — every shard's epoll sees the edge
  // and the losers read EAGAIN.
  ListenOptions listen_options;
  listen_options.backlog = options_.accept_backlog;
  listen_options.sndbuf_bytes = options_.so_sndbuf;
  listen_options.reuse_port =
      endpoint.kind == EndpointKind::kTcp && shard_count > 1;
  PPSTATS_ASSIGN_OR_RETURN(SocketListener first,
                           SocketListener::Bind(endpoint, listen_options));
  PPSTATS_RETURN_IF_ERROR(SetSocketNonBlocking(first.fd()));
  endpoint_ = first.endpoint();  // ephemeral TCP ports resolve here

  std::vector<SocketListener> listeners;
  listeners.push_back(std::move(first));
  for (size_t i = 1; i < shard_count; ++i) {
    if (endpoint_.kind == EndpointKind::kTcp) {
      PPSTATS_ASSIGN_OR_RETURN(SocketListener extra,
                               SocketListener::Bind(endpoint_, listen_options));
      PPSTATS_RETURN_IF_ERROR(SetSocketNonBlocking(extra.fd()));
      listeners.push_back(std::move(extra));
    } else {
      // Shares the first listener's file description (and its
      // O_NONBLOCK flag); only the first owns the socket path.
      PPSTATS_ASSIGN_OR_RETURN(SocketListener dup, listeners[0].Duplicate());
      listeners.push_back(std::move(dup));
    }
  }

  shards_.clear();
  shards_.resize(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    ReactorOptions reactor_options;
    reactor_options.registry = metric_registry_;
    Result<std::unique_ptr<Reactor>> reactor = Reactor::Create(reactor_options);
    if (!reactor.ok()) {
      shards_.clear();
      return reactor.status();
    }
    shards_[i].reactor = std::move(*reactor);
    shards_[i].listener.emplace(std::move(listeners[i]));
    shards_[i].accepts =
        metric_registry_->GetCounter("net.accepts." + std::to_string(i));
  }
  writev_calls_ = metric_registry_->GetCounter("net.writev_calls");
  writev_frames_ = metric_registry_->GetCounter("net.writev_frames");

  // Register every listener before the loops run (Add is reactor-
  // thread-only once Run() starts).
  for (size_t i = 0; i < shard_count; ++i) {
    Shard& shard = shards_[i];
    Status added =
        shard.reactor->Add(shard.listener->fd(), kReactorReadable,
                           [this, i](uint32_t) { AcceptPass(i); });
    if (!added.ok()) {
      shards_.clear();
      return added;
    }
    shard.listener_registered = true;
    shard.accept_backoff_ms = 1;
  }
  next_session_id_.store(0, std::memory_order_relaxed);
  stopping_.store(false, std::memory_order_release);

  // Folds dispatch to the shared pool; creating it here keeps worker
  // threads out of the per-session accounting observers see after
  // Start() returns.
  (void)ThreadPool::Shared().thread_count();

  for (Shard& shard : shards_) {
    shard.thread = std::thread([r = shard.reactor.get()] { r->Run(); });
  }
  // Kick one accept pass per shard immediately: connections (or
  // injected accept faults) that predate the epoll registration produce
  // no edge, and edge-triggered listeners only wake on new arrivals.
  for (size_t i = 0; i < shard_count; ++i) {
    shards_[i].reactor->Post([this, i] { AcceptPass(i); });
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void ReactorEngine::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (Shard& shard : shards_) {
    if (shard.listener.has_value()) shard.listener->Close();
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].reactor->Post([this, i] {
      RemoveListener(i);
      // Copied first: ending a session erases it from the map.
      std::vector<std::shared_ptr<SessionState>> sessions;
      for (const auto& entry : shards_[i].sessions) {
        sessions.push_back(entry.second);
      }
      for (const auto& s : sessions) EndIfIdleAtStop(i, s);
    });
  }
  {
    // Drain: idle sessions ended just above; the rest run until they are
    // idle (HandleFsmOutput ends them then), bounded by the I/O deadline
    // when one is set. Worker completions keep landing on the reactors
    // until the last session finalizes, so the loops must stay up.
    MutexLock lock(drain_mu_);
    while (live_sessions_ > 0) drain_cv_.Wait(drain_mu_);
  }
  for (Shard& shard : shards_) shard.reactor->Stop();
  for (Shard& shard : shards_) {
    if (shard.thread.joinable()) shard.thread.join();
  }
  shards_.clear();
  running_.store(false, std::memory_order_release);
}

void ReactorEngine::RemoveListener(size_t shard) {
  Shard& sh = shards_[shard];
  if (!sh.listener_registered) return;
  sh.listener_registered = false;
  sh.reactor->Remove(sh.listener->fd());
}

void ReactorEngine::AcceptPass(size_t shard) {
  Shard& sh = shards_[shard];
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return;
    Result<std::optional<int>> next = [&]() -> Result<std::optional<int>> {
      // The hook may be consulted from any shard's reactor thread;
      // hooks that keep state must use atomics.
      if (options_.accept_fault_hook) {
        PPSTATS_RETURN_IF_ERROR(options_.accept_fault_hook());
      }
      return sh.listener->AcceptFd();
    }();
    if (!next.ok()) {
      if (next.status().code() != StatusCode::kResourceExhausted) {
        // The listener is dead (shutdown or a hard kernel error); stop
        // accepting on this shard.
        RemoveListener(shard);
        return;
      }
      // Transient fd/memory pressure: capped exponential backoff. The
      // retry timer re-runs this pass, which also re-drains any
      // connections that queued while we were backing off (the
      // edge-triggered backend will not re-announce them).
      const uint32_t backoff = sh.accept_backoff_ms;
      sh.accept_backoff_ms =
          std::min(sh.accept_backoff_ms * 2, kMaxAcceptBackoffMs);
      sh.reactor->ArmTimer(std::chrono::milliseconds(backoff),
                           [this, shard] { AcceptPass(shard); });
      return;
    }
    if (!next->has_value()) return;  // queue drained (EAGAIN)
    sh.accept_backoff_ms = 1;
    sh.accepts->Increment();

    const int fd = **next;
    if (Status nb = SetSocketNonBlocking(fd); !nb.ok()) {
      ::close(fd);
      continue;
    }
    const bool reject =
        options_.max_sessions > 0 &&
        serving_count_.load(std::memory_order_acquire) >= options_.max_sessions;
    OpenSession(shard, fd, reject);
  }
}

void ReactorEngine::OpenSession(size_t shard, int fd, bool reject) {
  auto session = std::make_shared<SessionState>();
  session->fd = fd;
  // Sessions stay on the shard whose listener accepted them: the
  // registration below runs inline on this shard's own reactor thread,
  // with no cross-shard handoff.
  session->shard = shard;
  if (reject) {
    counters_.rejected->Increment();
    session->mode = SessionState::Mode::kRejecting;
  } else {
    counters_.accepted->Increment();
    // Ids count accepted sessions only (rejected connects get none).
    session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    serving_count_.fetch_add(1, std::memory_order_acq_rel);
    counters_.active->Set(
        static_cast<int64_t>(serving_count_.load(std::memory_order_acquire)));

    ServerFsmOptions fsm_options;
    fsm_options.key_cache = key_cache_;
    fsm_options.registry = metric_registry_;
    fsm_options.queries_counter = counters_.queries;
    fsm_options.compute_ns_counter = counters_.compute_ns;
    session->fsm = std::make_unique<ServerProtocolFsm>(
        router_factory_(), fsm_options, session->id + 1);
  }
  {
    MutexLock lock(drain_mu_);
    ++live_sessions_;
  }
  RegisterSession(shard, std::move(session));
}

void ReactorEngine::RegisterSession(size_t shard,
                                    std::shared_ptr<SessionState> session) {
  Shard& sh = shards_[shard];
  sh.sessions.emplace(session->fd, session);
  Status added =
      sh.reactor->Add(session->fd, kReactorReadable,
                      [this, shard, session](uint32_t ready) {
                        OnSessionEvent(shard, session, ready);
                      });
  if (!added.ok()) {
    if (session->mode == SessionState::Mode::kServing) {
      session->fsm->OnTransportError(added);
    }
    FinalizeSession(shard, session);
    return;
  }
  if (session->mode == SessionState::Mode::kRejecting) {
    // Best-effort hello drain before the Error frame, so the client
    // never races its hello against our close: it gets to read the
    // Error frame instead of dying on a broken pipe mid-send.
    session->reject_timer = sh.reactor->ArmTimer(
        std::chrono::milliseconds(kRejectWriteDeadlineMs),
        [this, shard, session] {
          session->reject_timer = 0;
          if (!session->closed && !session->closing) {
            BeginReject(shard, session);
          }
        });
  } else {
    ArmReadTimer(shard, session);  // the hello is due within the deadline
  }
}

void ReactorEngine::OnSessionEvent(size_t shard,
                                   const std::shared_ptr<SessionState>& s,
                                   uint32_t ready) {
  if (s->closed) return;
  if (ready & (kReactorReadable | kReactorClosed)) ReadPass(shard, s);
  if (s->closed) return;
  if (ready & kReactorWritable) Flush(shard, s);
}

void ReactorEngine::ReadPass(size_t shard,
                             const std::shared_ptr<SessionState>& s) {
  if (s->transport_dead || s->read_error.has_value()) return;
  for (;;) {
    uint8_t buf[kReadChunkBytes];
    const ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      // A closing session drains and discards (it owes the peer nothing
      // more); an open one accumulates for the frame parser.
      if (!s->closing) s->read_buf.insert(s->read_buf.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      ParseFrames(shard, s);  // bytes before the EOF may complete frames
      if (!s->closed && !s->read_error.has_value()) {
        HandleReadFailure(shard, s,
                          Status::ProtocolError("peer closed the channel"));
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    const int recv_errno = errno;  // ParseFrames may clobber errno
    ParseFrames(shard, s);
    if (!s->closed && !s->read_error.has_value()) {
      HandleReadFailure(shard, s,
                        ErrnoStatus(StatusCode::kProtocolError, "recv failed",
                                    recv_errno));
    }
    return;
  }
  ParseFrames(shard, s);
}

void ReactorEngine::ParseFrames(size_t shard,
                                const std::shared_ptr<SessionState>& s) {
  while (!s->closed && !s->closing && !s->read_error.has_value()) {
    const size_t avail = s->read_buf.size() - s->read_pos;
    if (avail < kFrameOverheadBytes) break;
    const Result<uint32_t> prefix =
        DecodeFrameLength(s->read_buf.data() + s->read_pos);
    if (!prefix.ok()) {
      HandleReadFailure(shard, s, prefix.status());
      break;
    }
    const size_t len = *prefix;
    if (avail < kFrameOverheadBytes + len) break;
    const auto frame_begin =
        s->read_buf.begin() +
        static_cast<ptrdiff_t>(s->read_pos + kFrameOverheadBytes);
    Bytes frame(frame_begin, frame_begin + static_cast<ptrdiff_t>(len));
    s->read_pos += kFrameOverheadBytes + len;
    ChannelMetrics& metrics = ChannelMetrics::Get();
    metrics.frames_received->Increment();
    metrics.bytes_received->Add(len + kFrameOverheadBytes);
    OnFrameParsed(shard, s, std::move(frame));
  }
  if (s->read_pos > 0) {
    s->read_buf.erase(s->read_buf.begin(),
                      s->read_buf.begin() + static_cast<ptrdiff_t>(s->read_pos));
    s->read_pos = 0;
  }
}

void ReactorEngine::OnFrameParsed(size_t shard,
                                  const std::shared_ptr<SessionState>& s,
                                  Bytes frame) {
  if (s->mode == SessionState::Mode::kRejecting) {
    // The hello arrived (content irrelevant): answer and close.
    if (!s->closing) BeginReject(shard, s);
    return;
  }
  // A complete frame is what satisfies the whole-frame deadline; partial
  // bytes never reset it (Slowloris-proof).
  CancelSessionTimer(shard, s->read_timer);
  s->inbox.push_back(std::move(frame));
  PumpProcessing(shard, s);
}

void ReactorEngine::PumpProcessing(size_t shard,
                                   const std::shared_ptr<SessionState>& s) {
  if (s->processing || s->closed || s->closing || s->inbox.empty()) return;
  if (s->fsm->done()) {
    s->inbox.clear();  // late frames are noise; the session is over
    return;
  }
  s->current_frame = std::move(s->inbox.front());
  s->inbox.pop_front();
  s->processing = true;
  // The worker exclusively owns fsm + current_frame until its
  // completion posts back; the reactor thread will not touch either
  // while `processing` is set.
  auto task = [this, shard, s] {
    ServerFsmOutput out = s->fsm->OnFrame(s->current_frame);
    shards_[shard].reactor->Post([this, shard, s, out = std::move(out)]() mutable {
      HandleFsmOutput(shard, s, std::move(out));
    });
  };
  // ppstats-analyze: allow(reactor-blocking): Submit() only takes the
  // pool mutex to enqueue (never waits for the task), and the backlog it
  // builds is bounded by one in-flight task per session (`processing`).
  ThreadPool::Shared().Submit(task);
}

void ReactorEngine::HandleFsmOutput(size_t shard,
                                    const std::shared_ptr<SessionState>& s,
                                    ServerFsmOutput out) {
  s->processing = false;
  s->current_frame.clear();
  if (s->closed) return;
  for (const Bytes& frame : out.frames) {
    AppendOutbound(s, frame);
  }
  Flush(shard, s);
  if (s->closed) return;
  if (s->pending_error.has_value()) {
    // A send failed while the worker held the FSM; the session cannot
    // continue.
    if (!s->fsm->done()) s->fsm->OnTransportError(*s->pending_error);
    FinalizeSession(shard, s);
    return;
  }
  if (!s->inbox.empty() && !s->fsm->done()) {
    PumpProcessing(shard, s);
    return;
  }
  if (s->read_error.has_value() && !s->fsm->done()) {
    // EOF/reset observed earlier; every pipelined frame has now been
    // served, so the error finally lands.
    s->fsm->OnTransportError(*s->read_error);
  }
  if (s->fsm->done()) {
    BeginClose(shard, s);
    return;
  }
  if (EndIfIdleAtStop(shard, s)) return;
  ArmReadTimer(shard, s);  // back to waiting on the client
}

void ReactorEngine::AppendOutbound(const std::shared_ptr<SessionState>& s,
                                   BytesView payload) {
  if (s->transport_dead) return;
  Bytes wire;
  wire.reserve(kFrameOverheadBytes + payload.size());
  const auto prefix = EncodeFrameLength(payload.size());
  wire.insert(wire.end(), prefix.begin(), prefix.end());
  wire.insert(wire.end(), payload.begin(), payload.end());
  s->outbox.push_back(std::move(wire));
}

void ReactorEngine::Flush(size_t shard, const std::shared_ptr<SessionState>& s) {
  if (s->closed || s->transport_dead) return;
  while (!s->outbox.empty()) {
    // Gather the pending frames into one sendmsg().
    struct iovec iov[kWritevBatchFrames];
    size_t iov_count = 0;
    for (const Bytes& wire : s->outbox) {
      if (iov_count == kWritevBatchFrames) break;
      const size_t off = iov_count == 0 ? s->wire_off : 0;
      iov[iov_count].iov_base = const_cast<uint8_t*>(wire.data() + off);
      iov[iov_count].iov_len = wire.size() - off;
      ++iov_count;
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(s->fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) {
      writev_calls_->Increment();
      // Advance across the batch: whole frames pop (a gathered call can
      // complete several at once), a partial tail resumes at wire_off.
      size_t sent = static_cast<size_t>(n);
      do {
        const Bytes& front = s->outbox.front();
        const size_t remaining = front.size() - s->wire_off;
        if (sent < remaining) {
          s->wire_off += sent;
          break;
        }
        sent -= remaining;
        ChannelMetrics& metrics = ChannelMetrics::Get();
        metrics.frames_sent->Increment();
        metrics.bytes_sent->Add(front.size());
        writev_frames_->Increment();
        s->wire_off = 0;
        s->outbox.pop_front();
      } while (sent > 0 && !s->outbox.empty());
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SetWriteInterest(shard, s, true);
      ArmWriteTimer(shard, s);
      return;
    }
    // Same "send failed" prefix as SocketChannel::Send.
    HandleSendFailure(
        shard, s, ErrnoStatus(StatusCode::kProtocolError, "send failed", errno));
    return;
  }
  // Outbox drained.
  CancelSessionTimer(shard, s->write_timer);
  SetWriteInterest(shard, s, false);
  if (s->closing) FinalizeSession(shard, s);
}

void ReactorEngine::ArmReadTimer(size_t shard,
                                 const std::shared_ptr<SessionState>& s) {
  if (options_.io_deadline_ms == 0 || s->read_timer != 0 || s->closing ||
      s->closed) {
    return;
  }
  s->read_timer = shards_[shard].reactor->ArmTimer(
      std::chrono::milliseconds(options_.io_deadline_ms),
      [this, shard, s] {
        s->read_timer = 0;
        OnReadDeadline(shard, s);
      });
}

void ReactorEngine::ArmWriteTimer(size_t shard,
                                  const std::shared_ptr<SessionState>& s) {
  // Same guard as ArmReadTimer: the steady-state timer never arms on a
  // session that is tearing down. A closing session's final flush is
  // still bounded — BeginClose/BeginReject arm the flush deadline
  // explicitly via ArmFlushDeadline.
  if (s->closing || s->closed) return;
  ArmFlushDeadline(shard, s);
}

void ReactorEngine::ArmFlushDeadline(size_t shard,
                                     const std::shared_ptr<SessionState>& s) {
  const uint32_t deadline_ms = s->mode == SessionState::Mode::kRejecting
                                   ? kRejectWriteDeadlineMs
                                   : options_.io_deadline_ms;
  if (deadline_ms == 0 || s->write_timer != 0) return;
  s->write_timer = shards_[shard].reactor->ArmTimer(
      std::chrono::milliseconds(deadline_ms), [this, shard, s] {
        s->write_timer = 0;
        if (s->closed) return;
        ChannelMetrics::Get().deadline_expirations->Increment();
        HandleSendFailure(
            shard, s,
            Status::DeadlineExceeded("channel i/o ran past the deadline"));
      });
}

void ReactorEngine::CancelSessionTimer(size_t shard, uint64_t& id) {
  if (id == 0) return;
  shards_[shard].reactor->CancelTimer(id);
  id = 0;
}

void ReactorEngine::SetWriteInterest(size_t shard,
                                     const std::shared_ptr<SessionState>& s,
                                     bool enable) {
  if (s->want_write == enable) return;
  s->want_write = enable;
  uint32_t interest = kReactorReadable;
  if (enable) interest |= kReactorWritable;
  shards_[shard].reactor->Modify(s->fd, interest).IgnoreError();
}

void ReactorEngine::BeginReject(size_t shard,
                                const std::shared_ptr<SessionState>& s) {
  CancelSessionTimer(shard, s->reject_timer);
  AppendOutbound(s, EncodeErrorFrame(Status::ResourceExhausted(
                        "server at capacity; retry later")));
  s->closing = true;
  Flush(shard, s);
  // Closing sessions get their flush bound here (ArmWriteTimer refuses
  // to arm once closing), so a peer that never drains cannot pin the
  // rejection through Stop().
  if (!s->closed && !s->outbox.empty()) ArmFlushDeadline(shard, s);
}

void ReactorEngine::BeginClose(size_t shard,
                               const std::shared_ptr<SessionState>& s) {
  s->closing = true;
  CancelSessionTimer(shard, s->read_timer);
  Flush(shard, s);  // finalizes once the outbox drains
  if (!s->closed && !s->outbox.empty()) ArmFlushDeadline(shard, s);
}

void ReactorEngine::OnReadDeadline(size_t shard,
                                   const std::shared_ptr<SessionState>& s) {
  // The timer is only armed while the session idles waiting on the
  // client, so the FSM is safe to touch here.
  if (s->closed || s->closing || s->processing) return;
  ChannelMetrics::Get().deadline_expirations->Increment();
  EvictSession(shard, s,
               Status::DeadlineExceeded("session i/o deadline exceeded"));
}

void ReactorEngine::EvictSession(size_t shard,
                                 const std::shared_ptr<SessionState>& s,
                                 Status status) {
  ServerFsmOutput out = s->fsm->Evict(std::move(status));
  for (const Bytes& frame : out.frames) {
    AppendOutbound(s, frame);
  }
  BeginClose(shard, s);
}

bool ReactorEngine::EndIfIdleAtStop(size_t shard,
                                    const std::shared_ptr<SessionState>& s) {
  if (!stopping_.load(std::memory_order_acquire) ||
      s->mode != SessionState::Mode::kServing || s->closed || s->closing ||
      s->processing || !s->inbox.empty() || !s->read_buf.empty()) {
    return false;
  }
  const ServerFsmPhase phase = s->fsm->phase();
  if (phase != ServerFsmPhase::kHandshake &&
      phase != ServerFsmPhase::kAwaitQuery) {
    return false;
  }
  EvictSession(shard, s, Status::Unavailable("server shutting down"));
  return true;
}

void ReactorEngine::HandleReadFailure(size_t shard,
                                      const std::shared_ptr<SessionState>& s,
                                      Status error) {
  CancelSessionTimer(shard, s->read_timer);
  if (s->mode == SessionState::Mode::kRejecting) {
    // The hello drain is best effort; the Error frame is sent
    // regardless.
    if (!s->closing) BeginReject(shard, s);
    return;
  }
  s->read_error = std::move(error);
  if (s->processing || !s->inbox.empty()) return;  // applied after drain
  if (!s->fsm->done()) s->fsm->OnTransportError(*s->read_error);
  BeginClose(shard, s);
}

void ReactorEngine::HandleSendFailure(size_t shard,
                                      const std::shared_ptr<SessionState>& s,
                                      Status error) {
  s->transport_dead = true;
  if (s->flush_error.ok()) s->flush_error = error;
  s->outbox.clear();
  s->wire_off = 0;
  CancelSessionTimer(shard, s->write_timer);
  if (s->mode == SessionState::Mode::kRejecting) {
    FinalizeSession(shard, s);
    return;
  }
  if (s->processing) {
    s->pending_error = std::move(error);  // applied when the worker returns
    return;
  }
  if (!s->fsm->done()) s->fsm->OnTransportError(std::move(error));
  FinalizeSession(shard, s);
}

void ReactorEngine::FinalizeSession(size_t shard,
                                    const std::shared_ptr<SessionState>& s) {
  if (s->closed) return;
  s->closed = true;
  CancelSessionTimer(shard, s->read_timer);
  CancelSessionTimer(shard, s->write_timer);
  CancelSessionTimer(shard, s->reject_timer);
  shards_[shard].reactor->Remove(s->fd);
  ::close(s->fd);
  shards_[shard].sessions.erase(s->fd);

  if (s->mode == SessionState::Mode::kServing) {
    // The FSM's own abort status wins; a send-path failure only
    // surfaces when the protocol itself ended cleanly.
    Status status = s->fsm->final_status();
    if (status.ok() && !s->fsm->done()) {
      status = Status::Internal("session closed before completion");
    }
    if (status.ok() && !s->flush_error.ok()) status = s->flush_error;
    if (status.ok()) {
      counters_.ok->Increment();
    } else {
      counters_.failed->Increment();
      if (status.code() == StatusCode::kDeadlineExceeded) {
        counters_.evicted->Increment();
      }
    }
    serving_count_.fetch_sub(1, std::memory_order_acq_rel);
    counters_.active->Set(
        static_cast<int64_t>(serving_count_.load(std::memory_order_acquire)));
  }
  {
    MutexLock lock(drain_mu_);
    --live_sessions_;
  }
  drain_cv_.NotifyAll();
}

}  // namespace ppstats
