// The session protocol (core/session.h) as two sans-IO state machines,
// one per side — the only implementation of each.
//
// ServerProtocolFsm is the server side, driven by the reactor host
// (core/reactor_host.h), which cannot block. The host hands each
// machine the QueryRouter that answers its queries; the machine itself
// only speaks the frame protocol:
//
//   kHandshake ──ClientHello──▶ kAwaitQuery ──QueryHeader──▶ kAwaitChunks
//        │                       │      ▲     (QueryAccept)       │
//        │bad hello              │      └──────SumResponse────────┘
//        ▼                       │Goodbye/Error          (after IndexBatch*)
//      kDone ◀───────────────────┘
//
// The driver feeds each complete inbound frame to OnFrame() and writes
// the returned frames to its transport in order; a session the host ends
// — a peer that missed its deadline, or an idle one when the host stops —
// enters through Evict() (which yields the eviction Error frame), a dead
// transport through OnTransportError(). Frame processing
// is CPU-heavy (key deserialization, homomorphic folds), so event loops
// run OnFrame on a worker pool, never on the loop thread.
//
// Every protocol failure — bad hello, unsupported version (anything but
// kSessionProtocolV2), malformed or unparseable frame, unknown kind or
// column, zero-row cover — aborts with an Error frame carrying its
// status. queries_counter is bumped *before* the SumResponse frame is
// handed back, so a client that has its answer is guaranteed to find
// the query in the host's snapshot.
//
// ClientProtocolFsm is the client side. It needs only the client's
// public key, so its one blocking driver, ClientConnection
// (core/session.h), serves both QuerySession and the cluster
// coordinator's shard legs:
//
//   kStart ─Hello()─▶ kAwaitHello ─OnServerHello()─▶ kIdle ─Goodbye()─▶ kDone
//   kIdle ─Query()─▶ kAwaitAccept ─OnAccept()─▶ kAwaitAnswer ─OnAnswer()─▶ kIdle
//                              (the driver uploads IndexBatch* in kAwaitAnswer)
//
// A peer Error frame ends the session with the peer's status. A failure
// the client detects (undecodable frame, wrong version, unrequested
// PartialResult) ends it too, and Abort() hands the driver the Error
// frame to send. An out-of-phase call fails with FailedPrecondition and
// changes nothing.

#ifndef PPSTATS_CORE_SESSION_FSM_H_
#define PPSTATS_CORE_SESSION_FSM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/query.h"
#include "core/query_exec.h"
#include "core/selected_sum.h"
#include "core/session.h"
#include "crypto/key_io.h"
#include "obs/metrics.h"

namespace ppstats {

/// Protocol phases of a server-side session.
enum class ServerFsmPhase : uint8_t {
  kHandshake,    ///< waiting for ClientHello
  kAwaitQuery,   ///< waiting for QueryHeader / Goodbye
  kAwaitChunks,  ///< waiting for IndexBatch frames of the open query
  kDone,         ///< terminal; final_status() says how it ended
};

/// What one FSM entry point produced: frames to send, in order, and
/// whether the session reached its terminal state.
struct ServerFsmOutput {
  std::vector<Bytes> frames;
  bool done = false;
};

/// The host's per-session hooks; every field is optional.
struct ServerFsmOptions {
  /// When set, client public keys are deserialized through this shared
  /// cache, so repeat sessions from the same client reuse the key's
  /// Montgomery context instead of rebuilding it.
  PublicKeyCache* key_cache = nullptr;

  /// Registry receiving the session's phase spans (handshake). Null
  /// uses the process-wide obs::MetricRegistry::Global(). ServiceHost
  /// points this at its per-host registry.
  obs::MetricRegistry* registry = nullptr;

  /// Live host counters. They are bumped *before* the final SumResponse
  /// frame of each query is handed to the transport, so by the time a
  /// client observes its answer the host's snapshot already includes
  /// the query — this is what makes ServiceHost::SnapshotStats current
  /// while sessions are still running. compute_ns_counter accumulates
  /// fold time in integer nanoseconds.
  obs::Counter* queries_counter = nullptr;
  obs::Counter* compute_ns_counter = nullptr;
};

/// See the file comment. Not thread-safe: the owner must serialize
/// calls (the reactor host runs at most one worker task per session).
class ServerProtocolFsm {
 public:
  /// `router` (required, non-null) resolves and executes this session's
  /// queries; `session_ordinal` becomes the 1-based session id in span
  /// contexts (0 = unattributed).
  ServerProtocolFsm(std::shared_ptr<QueryRouter> router,
                    ServerFsmOptions options = {},
                    uint64_t session_ordinal = 0);

  /// Consumes one complete inbound frame. CPU-heavy; run off the event
  /// loop. Frames arriving after kDone are ignored.
  ServerFsmOutput OnFrame(BytesView frame);

  /// The host ends the session (DeadlineExceeded for a peer that
  /// stalled past its I/O deadline, Unavailable for an idle one when the
  /// host stops): produces the Error frame for `status` and moves to
  /// kDone with it. Once done, produces nothing.
  ServerFsmOutput Evict(Status status);

  /// The transport died (EOF mid-protocol, reset, write failure): moves
  /// to kDone with `error`; nothing can be sent.
  void OnTransportError(Status error);

  ServerFsmPhase phase() const { return phase_; }
  bool done() const { return phase_ == ServerFsmPhase::kDone; }

  /// How the session ended (valid once done()): OK for a clean Goodbye,
  /// the abort status otherwise.
  const Status& final_status() const { return final_status_; }

 private:
  /// Appends an Error frame for `status` and terminates the session.
  void Abort(ServerFsmOutput& out, Status status);
  void Finish(Status status);

  void OnHandshakeFrame(BytesView frame, ServerFsmOutput& out);
  void OnQueryFrame(BytesView frame, ServerFsmOutput& out);
  void OnChunkFrame(BytesView frame, ServerFsmOutput& out);

  std::shared_ptr<QueryRouter> router_;
  ServerFsmOptions options_;
  uint64_t session_ordinal_;
  uint64_t queries_ = 0;  // answered so far; the next query is queries_ + 1
  ServerFsmPhase phase_ = ServerFsmPhase::kHandshake;
  Status final_status_ = Status::OK();
  std::optional<PaillierPublicKey> pub_;
  std::unique_ptr<QueryExecution> execution_; // the open query, if any
};

/// Protocol phases of a client-side session.
enum class ClientFsmPhase : uint8_t {
  kStart,        ///< nothing sent yet
  kAwaitHello,   ///< ClientHello sent, waiting for ServerHello
  kIdle,         ///< connected: Query() or Goodbye() next
  kAwaitAccept,  ///< QueryHeader sent, waiting for QueryAccept
  kAwaitAnswer,  ///< accepted: the driver uploads, then awaits the answer
  kDone,         ///< terminal: goodbye sent, or the session failed
};

/// See the file comment. Not thread-safe; one driver owns it.
class ClientProtocolFsm {
 public:
  /// `key_blob` is the serialized public key the hello carries (a
  /// coordinator forwards its client's blob verbatim); `pub` is the same
  /// key, used to decode answers. `accept_partial` opts in to flagged
  /// PartialResult answers (see ClientSessionOptions::accept_partial).
  ClientProtocolFsm(Bytes key_blob, PaillierPublicKey pub,
                    bool accept_partial);

  /// kStart -> kAwaitHello: the ClientHello frame to send.
  [[nodiscard]] Result<Bytes> Hello();

  /// kAwaitHello -> kIdle: consumes the server's hello reply. Returns
  /// the default column's size (0 when the server has none).
  [[nodiscard]] Result<uint64_t> OnServerHello(BytesView frame);

  /// kIdle -> kAwaitAccept: the QueryHeader frame that opens `header`.
  [[nodiscard]] Result<Bytes> Query(const QueryHeaderMessage& header);

  /// kAwaitAccept -> kAwaitAnswer: consumes the reply to the header and
  /// returns the row count the index upload must cover.
  [[nodiscard]] Result<uint64_t> OnAccept(BytesView frame);

  /// kAwaitAnswer -> kIdle: consumes the query's answer (SumResponse,
  /// or PartialResult when opted in).
  [[nodiscard]] Result<ClientAnswer> OnAnswer(BytesView frame);

  /// kIdle -> kDone: the Goodbye frame that ends the session cleanly.
  [[nodiscard]] Result<Bytes> Goodbye();

  /// Ends the session after a failed step and returns the Error frame
  /// the driver owes the peer, if any: the one a failed call prepared
  /// (carrying that call's status), else — for a failure the driver
  /// detected itself while the session was live — one carrying
  /// `status`. Nothing after a peer Error frame, a transport error or
  /// Goodbye.
  std::optional<Bytes> Abort(const Status& status);

  /// The transport died: the session is over and nothing can be sent.
  void OnTransportError();

  ClientFsmPhase phase() const { return phase_; }
  bool done() const { return phase_ == ClientFsmPhase::kDone; }

 private:
  /// FailedPrecondition unless the machine is in `expected`.
  [[nodiscard]] Status Expect(ClientFsmPhase expected, const char* call) const;
  /// Ends the session with `status`, owing the peer an Error frame.
  Status Fail(Status status);
  /// Common reply handling: a peer Error frame ends the session with the
  /// peer's status; an unreadable type tag is a client-detected failure.
  [[nodiscard]] Result<MessageType> Classify(BytesView frame);

  Bytes key_blob_;
  PaillierPublicKey pub_;
  bool accept_partial_;
  ClientFsmPhase phase_ = ClientFsmPhase::kStart;
  std::optional<Bytes> error_frame_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SESSION_FSM_H_
