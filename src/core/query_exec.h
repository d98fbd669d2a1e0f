// The query execution seam between the server protocol machine and
// whatever actually answers a query.
//
// The server protocol (ServerProtocolFsm, driven by the reactor host)
// speaks the session frame protocol and nothing else; what answers a
// query is split in two:
//
//  * QueryRouter — per-session policy object: resolves a QueryHeader
//    into an opened query. The default LocalQueryRouter compiles
//    against the session's ColumnRegistry and folds locally (its
//    execution is a SumServer); the cluster coordinator (src/cluster)
//    substitutes a router that fans the query out to shard servers
//    instead.
//  * QueryExecution — per-query object: consumes the client's request
//    frames and eventually yields one encoded response frame, exactly
//    the SumServer::HandleRequest contract.
//
// Both routers share one query contract, so a client cannot tell them
// apart by their errors: QueryHeaders pass the header rule
// (ResolveQueryHeader and ResolveDefaultColumn, core/query.h) and
// IndexBatch frames the upload rule (IndexUploadSequencer,
// core/messages.h).
//
// ServiceHost resolves one QueryRouterFactory at Start and hands every
// session a fresh router from it: ServiceHostOptions::router_factory
// when set, else a LocalQueryRouter over the host's registry.

#ifndef PPSTATS_CORE_QUERY_EXEC_H_
#define PPSTATS_CORE_QUERY_EXEC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/messages.h"
#include "crypto/paillier.h"
#include "db/column_registry.h"

namespace ppstats {

/// Shard-side zero-share blinding (crypto/zero_share.h): this server is
/// party `shard_index` of `shard_count`, sharing `seed` and `modulus`
/// with its peers. When a QueryHeader requests blinded partials, the
/// local router adds the derived share to the fold so the coordinator
/// only ever sees p_i + R_i mod the key. All shards of one deployment
/// must agree on seed, count, and modulus.
struct ShardBlindConfig {
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  Bytes seed;
  BigInt modulus = BigInt(1) << 64;
};

/// One in-flight query: frames in, at most one response frame out.
/// SumServer is the local implementation and the coordinator's
/// ClusterExecution the remote one; the protocol drivers cannot tell
/// them apart.
///
/// Threading: like its QueryRouter, an execution belongs to exactly
/// one session and is only ever driven by that session's FSM, which
/// the reactor host never calls concurrently (one pool task at a time
/// per session), so implementations hold no locks. Anything an
/// implementation fans out to other threads internally (e.g. the
/// SumServer worker pool) must be joined before HandleRequest returns.
class QueryExecution {
 public:
  virtual ~QueryExecution() = default;

  /// Consumes one request frame. Returns the encoded response frame
  /// once the query is complete, std::nullopt before that.
  [[nodiscard]] virtual Result<std::optional<Bytes>> HandleRequest(
      BytesView frame) = 0;

  /// True once the response has been produced.
  virtual bool Finished() const = 0;

  /// Compute time attributable to this query (drives the host's
  /// server_compute_ns counter).
  virtual double compute_seconds() const = 0;
};

/// A successfully opened query: the row count to advertise in
/// QueryAccept plus its execution.
struct OpenedQuery {
  uint64_t rows = 0;
  std::unique_ptr<QueryExecution> execution;
};

/// Per-session query resolution policy. One router instance serves one
/// session; calls arrive in protocol order from a single driver thread.
class QueryRouter {
 public:
  virtual ~QueryRouter() = default;

  /// Rows of the default column (the ServerHello database_size field);
  /// 0 without a default.
  virtual uint64_t DefaultRows() const = 0;

  /// Observes the client handshake. `pub` is the already-validated key
  /// the responses must be encrypted against; `key_blob` is its wire
  /// serialization (a fan-out router forwards the blob upstream).
  [[nodiscard]] virtual Status OnClientHello(BytesView key_blob,
                                             const PaillierPublicKey& pub) = 0;

  /// Opens the query described by a QueryHeader (an empty column name
  /// means the default column).
  [[nodiscard]] virtual Result<OpenedQuery> Open(
      const QueryHeaderMessage& header, const PaillierPublicKey& pub) = 0;
};

/// Builds the router for one new session.
using QueryRouterFactory = std::function<std::shared_ptr<QueryRouter>()>;

/// Everything LocalQueryRouter needs besides the registry. ServiceHost
/// fills it once per Start from its options.
struct LocalRouterConfig {
  /// Column an empty QueryHeader name resolves to ("" = none); see
  /// ResolveDefaultColumn.
  std::string default_column;
  size_t worker_threads = 1;
  std::optional<ShardBlindConfig> shard_blind;
};

/// The classic in-process path: compile the header against the
/// registry, fold locally. `registry` must outlive the router.
class LocalQueryRouter : public QueryRouter {
 public:
  LocalQueryRouter(const ColumnRegistry* registry, LocalRouterConfig config)
      : registry_(registry), config_(std::move(config)) {}

  uint64_t DefaultRows() const override;
  [[nodiscard]] Status OnClientHello(
      BytesView /*key_blob*/, const PaillierPublicKey& /*pub*/) override {
    return Status::OK();
  }
  [[nodiscard]] Result<OpenedQuery> Open(const QueryHeaderMessage& header,
                                         const PaillierPublicKey& pub) override;

 private:
  const ColumnRegistry* registry_;
  LocalRouterConfig config_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_QUERY_EXEC_H_
