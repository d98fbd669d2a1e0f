// Session layer: a deployable client/server wrapper around the
// selected-sum protocol with a real handshake.
//
// The measured experiments assume the server already knows the client's
// public key (as the paper does). A deployment needs the exchange, and
// one connection then carries any number of queries against named
// columns:
//
//   C -> S : ClientHello { version, public key }
//   S -> C : ServerHello { version, default column size }     (or Error)
//   repeat:
//     C -> S : QueryHeader { kind, column, column2 }           (or Error)
//     S -> C : QueryAccept { rows }                            (or Error)
//     C -> S : IndexBatch*
//     S -> C : SumResponse (or, from a coordinator, PartialResult)
//   C -> S : Goodbye
//
// Both hellos carry kSessionProtocolV2; a server refuses any other
// version with a ProtocolError Error frame, and a client refuses a
// ServerHello that names another. The paper's Fig 1 protocol is one
// plain-sum query over the default column (an empty column name).
//
// Version mismatches, malformed frames, unknown statistic kinds, bad
// column names, and arity mismatches abort the session with an Error
// frame carrying a status code, so the peer gets a diagnosable failure
// instead of a hang. Each side's protocol lives in one sans-IO machine
// (core/session_fsm.h). ClientConnection is the one blocking driver of
// the client machine: QuerySession and the cluster coordinator's shard
// legs both talk to servers through it. The server machine is driven
// only by the reactor host (core/service_host.h).

#ifndef PPSTATS_CORE_SESSION_H_
#define PPSTATS_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string>

#include "core/messages.h"
#include "core/query.h"
#include "core/selected_sum.h"
#include "net/channel.h"
#include "net/retry.h"

namespace ppstats {

/// The session protocol version both hellos carry; any other is refused.
inline constexpr uint16_t kSessionProtocolV2 = 2;

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

/// One decoded query answer: the encrypted sum, plus its shard coverage
/// when the server flagged it as partial.
struct ClientAnswer {
  PaillierCiphertext sum;
  std::optional<PartialResultInfo> partial;
};

class ClientProtocolFsm;

/// A channel and the ClientProtocolFsm driving it, from the public key
/// alone: the only blocking driver of the client machine. A dead
/// transport ends the machine; a failed Hello, Open or Await ends the
/// session (the stream may be out of step) after sending the Error frame
/// owed to the peer, and later steps fail with FailedPrecondition.
class ClientConnection {
 public:
  /// Drives `channel`, which must outlive the connection. `key_blob` is
  /// the serialized public key the hello carries, `pub` the same key
  /// (see ClientProtocolFsm).
  ClientConnection(Channel& channel, Bytes key_blob, PaillierPublicKey pub,
                   bool accept_partial);
  /// Drives and owns `channel`.
  ClientConnection(std::unique_ptr<Channel> channel, Bytes key_blob,
                   PaillierPublicKey pub, bool accept_partial);
  ~ClientConnection();

  /// The hello exchange; returns the size of the server's default
  /// column (0 when it has none).
  [[nodiscard]] Result<uint64_t> Hello();

  /// Sends the QueryHeader and returns the row count QueryAccept
  /// announces, which the index upload must cover.
  [[nodiscard]] Result<uint64_t> Open(const QueryHeaderMessage& header);

  /// Sends one IndexBatch frame of the query Open accepted; outside one,
  /// fails with FailedPrecondition and writes nothing.
  [[nodiscard]] Status Upload(BytesView index_frame);

  /// Receives the open query's answer.
  [[nodiscard]] Result<ClientAnswer> Await();

  /// Ends the session after a failure the caller detected, sending an
  /// Error frame carrying `status` when the peer is still owed one.
  void Abort(const Status& status);

  /// Ends the session cleanly with Goodbye. A session that already
  /// ended has nothing left to send, and Finish returns OK.
  [[nodiscard]] Status Finish();

 private:
  /// Ends the session when `result` failed (see the class comment).
  template <typename T>
  Result<T> EndOnFailure(Result<T> result);
  /// One frame out or in; a dead transport ends the machine.
  [[nodiscard]] Status Send(BytesView frame);
  [[nodiscard]] Result<Bytes> Receive();

  std::unique_ptr<Channel> owned_channel_;
  Channel* channel_;
  std::unique_ptr<ClientProtocolFsm> fsm_;
};

/// A client session: one connection, N queries against named columns.
/// A ClientConnection plus the private key: it encrypts each query's
/// index vector and decrypts its answer.
class QuerySession {
 public:
  QuerySession(const PaillierPrivateKey& key, RandomSource& rng,
               ClientSessionOptions options = {});
  ~QuerySession();

  /// Performs the hello exchange on `channel`, which must outlive the
  /// session. Single-shot.
  [[nodiscard]] Status Connect(Channel& channel);

  /// Dials via `dial` and performs the hello exchange, retrying with
  /// exponential backoff + jitter on retryable failures (dead transport,
  /// over-capacity rejection — see IsRetryableStatus). The hello
  /// exchange commits no server state, so redialing it is always safe.
  /// On success the session owns the dialed channel.
  [[nodiscard]] Status ConnectWithRetry(const DialFn& dial,
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

  /// Size of the server's default column, from the ServerHello (0 when
  /// the server has none).
  uint64_t server_rows() const { return server_rows_; }

  /// Runs one query; the selection/weights length must match the target
  /// column's size (the server announces it via QueryAccept; a mismatch
  /// aborts the session with InvalidArgument). A query that fails once
  /// it has reached the wire ends the session: the stream may be out of
  /// step with the server, so later queries fail with
  /// FailedPrecondition without writing anything.
  [[nodiscard]] Result<BigInt> RunQuery(const QuerySpec& spec,
                                        const SelectionVector& selection);
  [[nodiscard]] Result<BigInt> RunWeighted(const QuerySpec& spec, WeightVector weights);

  /// Ends the session cleanly by sending Goodbye. No queries may follow;
  /// a session a failed query already ended has nothing left to send.
  [[nodiscard]] Status Finish();

  /// Coverage of the last query's answer when it was a flagged partial
  /// result (requires ClientSessionOptions::accept_partial); empty when
  /// the last answer was complete.
  const std::optional<PartialResultInfo>& last_partial() const {
    return last_partial_;
  }

 private:
  /// Performs the hello exchange on `connection` and keeps it.
  [[nodiscard]] Status Connect(std::unique_ptr<ClientConnection> connection);
  /// Runs one query on the connected session (RunWeighted's body).
  [[nodiscard]] Result<BigInt> Exchange(const QuerySpec& spec,
                                        WeightVector weights);

  const PaillierPrivateKey* key_;
  RandomSource* rng_;
  ClientSessionOptions options_;
  std::unique_ptr<ClientConnection> connection_;  // set by Connect
  RetryMetrics retry_metrics_;
  std::optional<PartialResultInfo> last_partial_;
  uint64_t server_rows_ = 0;
  size_t queries_run_ = 0;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SESSION_H_
