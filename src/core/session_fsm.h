// ServerProtocolFsm: the server side of the session protocol as a
// sans-IO state machine — the only implementation of it. Two drivers
// move frames in and out: ServerSession::Serve over one blocking
// channel, and the reactor host (core/reactor_host.h), which cannot
// block. Both see the protocol as explicit transitions over complete
// frames:
//
//   kHandshake ──ClientHello──▶ kAwaitQuery          (v2)
//        │                          │  ▲
//        │ (v1)                     │QueryHeader
//        ▼                          ▼  │SumResponse
//   kAwaitChunks ◀──────────── kAwaitChunks
//        │IndexBatch*                │Goodbye/Error
//        ▼                          ▼
//      kDone ◀───────────────────kDone
//
// The driver feeds each complete inbound frame to OnFrame() and writes
// the returned frames to its transport in order; a peer that misses its
// deadline enters through OnDeadline() (which yields the eviction Error
// frame), a dead transport through OnTransportError(). Frame processing
// is CPU-heavy (key deserialization, homomorphic folds), so event loops
// run OnFrame on a worker pool, never on the loop thread.
//
// Every protocol failure — bad hello, unsupported version, malformed or
// unparseable frame, unknown kind or column, zero-row cover — aborts
// with an Error frame carrying its status; only a server with no
// database fails locally, without a frame. queries_counter is bumped
// *before* the SumResponse frame is handed back, so a client that has
// its answer is guaranteed to find the query in the host's snapshot.

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
#include "db/column_registry.h"

namespace ppstats {

/// Protocol phases of a server-side session.
enum class ServerFsmPhase : uint8_t {
  kHandshake,    ///< waiting for ClientHello
  kAwaitQuery,   ///< v2: waiting for QueryHeader / Goodbye
  kAwaitChunks,  ///< waiting for IndexBatch frames of the open query
  kDone,         ///< terminal; final_status() says how it ended
};

/// What one FSM entry point produced: frames to send, in order, and
/// whether the session reached its terminal state.
struct ServerFsmOutput {
  std::vector<Bytes> frames;
  bool done = false;
};

/// See the file comment. Not thread-safe: the owner must serialize
/// calls (the reactor host runs at most one worker task per session).
class ServerProtocolFsm {
 public:
  /// Takes ServerSession's arguments; `session_ordinal` becomes the
  /// 1-based session id in span contexts (0 = unattributed).
  ServerProtocolFsm(const ColumnRegistry* registry,
                    ServerSessionOptions options, uint64_t session_ordinal = 0);

  /// Consumes one complete inbound frame. CPU-heavy; run off the event
  /// loop. Frames arriving after kDone are ignored.
  ServerFsmOutput OnFrame(BytesView frame);

  /// The peer stalled past its I/O deadline: produces the eviction
  /// Error frame and moves to kDone with DeadlineExceeded.
  ServerFsmOutput OnDeadline();

  /// The transport died (EOF mid-protocol, reset, write failure): moves
  /// to kDone with `error`; nothing can be sent.
  void OnTransportError(Status error);

  ServerFsmPhase phase() const { return phase_; }
  bool done() const { return phase_ == ServerFsmPhase::kDone; }

  /// How the session ended (valid once done()): OK for a clean Goodbye
  /// (or completed v1 query), the abort status otherwise.
  const Status& final_status() const { return final_status_; }

  /// Per-session counters (ServerSession::metrics() reports these).
  const SessionMetrics& metrics() const { return metrics_; }

 private:
  /// Appends an Error frame for `status` and terminates the session.
  void Abort(ServerFsmOutput& out, Status status);
  void Finish(Status status);

  void OnHandshakeFrame(BytesView frame, ServerFsmOutput& out);
  void OnQueryFrame(BytesView frame, ServerFsmOutput& out);
  void OnChunkFrame(BytesView frame, ServerFsmOutput& out);
  /// Opens the v1 implicit query (plain sum over the default column).
  void OpenV1Query(ServerFsmOutput& out);

  const ColumnRegistry* registry_;
  ServerSessionOptions options_;
  uint64_t session_ordinal_;
  ServerFsmPhase phase_ = ServerFsmPhase::kHandshake;
  Status final_status_ = Status::OK();
  SessionMetrics metrics_;
  uint16_t version_ = 0;
  std::optional<PaillierPublicKey> pub_;
  std::shared_ptr<QueryRouter> router_;       // set at handshake
  std::unique_ptr<QueryExecution> execution_; // the open query, if any
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SESSION_FSM_H_
