// Session layer: a deployable client/server wrapper around the
// selected-sum protocol with a real handshake.
//
// The measured experiments assume the server already knows the client's
// public key (as the paper does). A deployment needs the exchange:
//
//   C -> S : ClientHello { max version, public key }
//   S -> C : ServerHello { negotiated version, default db size }  (or Error)
//
// Version negotiation: the client advertises the version it wants to
// speak; the server accepts any version it implements (up to
// kSessionProtocolVersion), echoes it back, and both sides continue at
// that version. Unknown versions are rejected with an Error frame, so
// v1 clients keep working against v2 servers unchanged.
//
// v1 (one query per connection):
//   C -> S : IndexBatch*                                          (or Error)
//   S -> C : SumResponse                                          (or Error)
//
// v2 (N queries per connection, named columns):
//   repeat:
//     C -> S : QueryHeader { kind, column, column2 }              (or Error)
//     S -> C : QueryAccept { rows }                               (or Error)
//     C -> S : IndexBatch*
//     S -> C : SumResponse
//   C -> S : Goodbye
//
// Version mismatches, malformed frames, unknown statistic kinds, bad
// column names, and arity mismatches abort the session with an Error
// frame carrying a status code, so the peer gets a diagnosable failure
// instead of a hang.

#ifndef PPSTATS_CORE_SESSION_H_
#define PPSTATS_CORE_SESSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/query.h"
#include "core/query_exec.h"
#include "core/selected_sum.h"
#include "crypto/key_io.h"
#include "net/channel.h"
#include "net/retry.h"

namespace ppstats {

/// Protocol versions. A server speaks every version up to
/// kSessionProtocolVersion; clients pick what they advertise.
inline constexpr uint16_t kSessionProtocolV1 = 1;
inline constexpr uint16_t kSessionProtocolV2 = 2;

/// Highest version of the session protocol spoken by this library.
inline constexpr uint16_t kSessionProtocolVersion = kSessionProtocolV2;

/// Client-side session options.
struct ClientSessionOptions {
  size_t chunk_size = 0;  ///< index-batch chunking, as in SumClientOptions

  /// Accept flagged PartialResult frames (a cluster coordinator may
  /// answer with one when shards are down and its policy allows
  /// serving the responsive subset). Off by default: without opt-in a
  /// partial answer fails the query instead of silently passing for a
  /// complete one. See QuerySession::last_partial().
  bool accept_partial = false;

  /// When set, decrypted results are reduced mod this value. Blinded
  /// cluster deployments need it: shard zero-shares only cancel mod M,
  /// so the raw plaintext is total + kM for some 0 <= k < #shards.
  std::optional<BigInt> result_modulus;
};

/// Shard coverage of the last partial result a session accepted.
struct PartialResultInfo {
  uint64_t shards_total = 0;
  uint64_t shards_responded = 0;
  uint64_t rows_covered = 0;
};

/// Dials a fresh channel to the server, once per connection attempt
/// (e.g. a ConnectUnixSocket lambda). Used by the retrying entry points,
/// which must be able to redial after a dead transport.
using ChannelFactory =
    std::function<Result<std::unique_ptr<Channel>>()>;

/// One private-sum query over a channel, with handshake (a v1 client).
class ClientSession {
 public:
  /// The selection length must match the server's database size (checked
  /// against the ServerHello).
  ClientSession(const PaillierPrivateKey& key, SelectionVector selection,
                ClientSessionOptions options, RandomSource& rng);

  /// Runs the full session; blocks on the channel. Returns the decrypted
  /// sum, or the peer's error translated into a Status. A ClientSession
  /// is single-shot: a second Run fails with FailedPrecondition.
  [[nodiscard]] Result<BigInt> Run(Channel& channel);

  /// Like Run, but dials its own channel via `dial` and retries the
  /// whole session (fresh channel each attempt, backoff + jitter drawn
  /// from the session rng) on retryable failures — see
  /// IsRetryableStatus. Safe because a v1 query is a pure read: the
  /// server keeps no cross-session state, so replaying it is
  /// idempotent. Still single-shot overall.
  [[nodiscard]] Result<BigInt> RunWithRetry(const ChannelFactory& dial,
                                            const RetryOptions& retry);

  /// RunWithRetry against an endpoint URI ("unix:/path",
  /// "tcp:host:port", or a bare socket path), dialing a fresh channel
  /// per attempt with the given per-call I/O deadline and per-attempt
  /// connect deadline (0 = none; see UriDialer).
  [[nodiscard]] Result<BigInt> RunWithRetry(const std::string& uri,
                                            const RetryOptions& retry,
                                            uint32_t io_deadline_ms = 0,
                                            uint32_t connect_deadline_ms = 0);

  /// Per-attempt counters for the last RunWithRetry.
  const RetryMetrics& retry_metrics() const { return retry_metrics_; }

 private:
  [[nodiscard]] Result<BigInt> RunOnce(Channel& channel);

  const PaillierPrivateKey* key_;
  SelectionVector selection_;
  ClientSessionOptions options_;
  RandomSource* rng_;
  RetryMetrics retry_metrics_;
  bool ran_ = false;
};

/// A v2 client session: one connection, N queries against named columns.
/// Falls back to v1 semantics (single plain-sum query on the server's
/// default column) when the server negotiates down.
class QuerySession {
 public:
  QuerySession(const PaillierPrivateKey& key, RandomSource& rng,
               ClientSessionOptions options = {});

  /// Performs the hello exchange on `channel`, which must outlive the
  /// session. Single-shot.
  [[nodiscard]] Status Connect(Channel& channel);

  /// Dials via `dial` and performs the hello exchange, retrying with
  /// exponential backoff + jitter on retryable failures (dead transport,
  /// over-capacity rejection — see IsRetryableStatus). The hello
  /// exchange commits no server state, so redialing it is always safe.
  /// On success the session owns the dialed channel.
  [[nodiscard]] Status ConnectWithRetry(const ChannelFactory& dial,
                                        const RetryOptions& retry);

  /// ConnectWithRetry against an endpoint URI ("unix:/path",
  /// "tcp:host:port", or a bare socket path), dialing a fresh channel
  /// per attempt with the given per-call I/O deadline and per-attempt
  /// connect deadline (0 = none; see UriDialer).
  [[nodiscard]] Status ConnectWithRetry(const std::string& uri,
                                        const RetryOptions& retry,
                                        uint32_t io_deadline_ms = 0,
                                        uint32_t connect_deadline_ms = 0);

  /// Per-attempt counters for the last ConnectWithRetry.
  const RetryMetrics& retry_metrics() const { return retry_metrics_; }

  /// Version agreed with the server (valid after Connect).
  uint16_t negotiated_version() const { return version_; }

  /// Size of the server's default column, from the ServerHello (0 when
  /// the server has none).
  uint64_t server_rows() const { return server_rows_; }

  /// Runs one query; the selection/weights length must match the target
  /// column's size (the server announces it via QueryAccept). On a v1
  /// server only a single plain-sum query over the default column is
  /// possible; anything else fails with FailedPrecondition.
  [[nodiscard]] Result<BigInt> RunQuery(const QuerySpec& spec,
                                        const SelectionVector& selection);
  [[nodiscard]] Result<BigInt> RunWeighted(const QuerySpec& spec, WeightVector weights);

  /// Ends the session cleanly (v2: sends Goodbye). No queries may follow.
  [[nodiscard]] Status Finish();

  /// Coverage of the last query's answer when it was a flagged partial
  /// result (requires ClientSessionOptions::accept_partial); empty when
  /// the last answer was complete.
  const std::optional<PartialResultInfo>& last_partial() const {
    return last_partial_;
  }

 private:
  const PaillierPrivateKey* key_;
  RandomSource* rng_;
  ClientSessionOptions options_;
  std::unique_ptr<Channel> owned_channel_;  // set by ConnectWithRetry
  Channel* channel_ = nullptr;
  RetryMetrics retry_metrics_;
  std::optional<PartialResultInfo> last_partial_;
  uint16_t version_ = 0;
  uint64_t server_rows_ = 0;
  size_t queries_run_ = 0;
  bool finished_ = false;
};

/// Per-session counters reported by ServerSession::metrics().
struct SessionMetrics {
  uint16_t negotiated_version = 0;
  uint64_t queries = 0;          ///< queries answered with a SumResponse
  double server_compute_s = 0;   ///< homomorphic fold time, all queries
};

/// Server-side session options.
struct ServerSessionOptions {
  /// Column served to v1 clients and to v2 queries with an empty column
  /// name. May be null when every query names its column.
  const Database* default_column = nullptr;

  /// Fold slices per chunk on the shared ThreadPool (see SumServer).
  size_t worker_threads = 1;

  /// When set, client public keys are deserialized through this shared
  /// cache, so repeat sessions from the same client reuse the key's
  /// Montgomery context instead of rebuilding it.
  PublicKeyCache* key_cache = nullptr;

  /// Registry receiving this session's phase spans (handshake). Null
  /// uses the process-wide obs::MetricRegistry::Global(). ServiceHost
  /// points this at its per-host registry.
  obs::MetricRegistry* registry = nullptr;

  /// Live host counters (optional). They are bumped *before* the final
  /// SumResponse frame of each query is handed to the transport, so by
  /// the time a client observes its answer the host's snapshot already
  /// includes the query — this is what makes ServiceHost::SnapshotStats
  /// current while sessions are still running. compute_ns_counter
  /// accumulates fold time in integer nanoseconds.
  obs::Counter* queries_counter = nullptr;
  obs::Counter* compute_ns_counter = nullptr;

  /// Per-session query router. When null the session builds a
  /// LocalQueryRouter over its registry/default column (the classic
  /// in-process fold). A cluster coordinator installs its fan-out
  /// router here via ServiceHostOptions::router_factory.
  std::shared_ptr<QueryRouter> router;

  /// Shard-side blinding for the local router (see ShardBlindConfig);
  /// ignored when `router` is set.
  std::optional<ShardBlindConfig> shard_blind;
};

/// Serves private-sum queries from a column registry (or a single
/// database) over a blocking channel: one client session per Serve
/// call. The protocol itself lives in ServerProtocolFsm
/// (core/session_fsm.h); Serve only moves frames between it and the
/// channel. ServiceHost drives the same FSM from its event loop.
class ServerSession {
 public:
  /// Single-column server: `db` is the default (and only) column.
  explicit ServerSession(const Database* db) { options_.default_column = db; }

  /// Multi-column server resolving v2 query names in `registry`.
  ServerSession(const ColumnRegistry* registry, ServerSessionOptions options)
      : registry_(registry), options_(options) {}

  /// Handles exactly one client session on the channel. Protocol
  /// failures are reported to the peer (Error frame) and returned. A
  /// receive that runs past the channel's read deadline evicts the
  /// peer: it gets a DeadlineExceeded Error frame, and so does the
  /// caller.
  [[nodiscard]] Status Serve(Channel& channel);

  /// Counters for the served session (valid after Serve returns).
  const SessionMetrics& metrics() const { return metrics_; }

 private:
  const ColumnRegistry* registry_ = nullptr;
  ServerSessionOptions options_;
  SessionMetrics metrics_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SESSION_H_
