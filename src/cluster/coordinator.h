// Sharded cluster coordinator: homomorphic scatter-gather over real
// shard servers.
//
// A ShardCoordinator serves the ordinary client session
// (through ServiceHost's router_factory seam) but owns no column data
// itself. Its ColumnRegistry carries *shard maps* instead
// (ColumnRegistry::SetShards): per column, an ordered list of
// {shard id, endpoint uri, [begin, end) global row range}. When a
// client finishes uploading its encrypted index vector, the
// coordinator fans the query out concurrently to every shard's
// ppstats_server over persistent upstream connections — each shard
// folds its slice of the vector against its local rows — and merges
// the encrypted partial sums homomorphically (Paillier ciphertext
// multiply = plaintext add) into the single SumResponse the client
// expects. The client cannot tell a coordinator from a plain server:
// both answer through the same header and upload rules (see
// core/query_exec.h), so they refuse a query with the same Error frame.
// A product query's two columns must carry the same shard map.
//
// Privacy: the coordinator decrypts nothing — partials and the merged
// total are ciphertexts under the client's key. To also hide each
// shard's *partial* from a coordinator colluding with the client's
// key holder, blind_partials makes every fan-out carry a fresh nonce
// and each shard adds its pairwise-PRF zero-share to the fold
// (crypto/zero_share.h): individual partials are uniformly blinded,
// yet the shares cancel in the merged sum (mod the shared blinding
// modulus M, which the client reduces by).
//
// Failure story: each shard leg reaches its shard through a
// ClientConnection (core/session.h), the client driver QuerySession
// uses too, kept across the session's queries and ended with a Goodbye
// when the session ends. A failed attempt ends the connection; the leg
// retries on a fresh dial (net/retry's RetryWithBackoff, up to
// CoordinatorOptions::retry.max_attempts, bounded connects). When a
// shard stays down, partial_policy picks between failing the query and
// answering with an explicit PartialResult frame that declares exactly
// which fraction of the row space the sum covers. Blinded partials
// force the fail policy: a missing shard's zero-share would not
// cancel, leaving garbage.
//
// Everything is observable under cluster.* counters and the
// span.cluster_* histograms in the chosen MetricRegistry.

#ifndef PPSTATS_CLUSTER_COORDINATOR_H_
#define PPSTATS_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/query_exec.h"
#include "db/column_registry.h"
#include "net/retry.h"
#include "obs/metrics.h"

namespace ppstats {

class CoordinatorRouter;
class ClusterExecution;

/// What the coordinator answers when shards fail past their retry
/// budget.
enum class PartialResultPolicy : uint8_t {
  /// Propagate the first shard failure to the client as an Error frame.
  kFail,
  /// Answer with a PartialResult frame: the merged fold over the
  /// responsive shards, flagged with how many shards and rows it
  /// covers. Requires blind_partials off (see file comment).
  kPartial,
};

/// Coordinator configuration.
struct CoordinatorOptions {
  /// Column served to queries with an empty column name. Empty picks
  /// the registry's sole sharded column when it has exactly one.
  std::string default_column;

  /// Read/write deadline on every upstream channel; a shard that
  /// stalls longer mid-query fails that attempt with DeadlineExceeded.
  /// 0 = block forever.
  uint32_t shard_io_deadline_ms = 0;

  /// Bound on each upstream connect() itself (net/socket_channel.h);
  /// without it a blackholed shard pins a fan-out leg on the kernel's
  /// own timeout. 0 = kernel default.
  uint32_t connect_deadline_ms = 0;

  /// Attempts per shard per query (max_attempts, including the first;
  /// >= 1) and the backoff between them. Each retry redials the shard:
  /// the upstream connection is dropped on any failure.
  RetryOptions retry{.max_attempts = 2};

  /// Failure policy once a shard exhausts its attempts.
  PartialResultPolicy partial_policy = PartialResultPolicy::kFail;

  /// Blind shard partials with pairwise zero-shares. All shard servers
  /// must run with the matching ShardBlindConfig (same seed, count,
  /// modulus); clients reduce decrypted totals mod blind_modulus.
  bool blind_partials = false;
  Bytes blind_seed;
  BigInt blind_modulus = BigInt(1) << 64;

  /// Ciphertexts per upstream IndexBatch frame; 0 sends each shard its
  /// whole slice in one frame.
  size_t chunk_size = 0;

  /// Pool the fan-out legs run on; null uses ThreadPool::Shared().
  ThreadPool* pool = nullptr;

  /// Registry for cluster.* counters and span histograms; null uses
  /// the process-wide registry. A ServiceHost's own registry makes the
  /// counters show up in its stats JSON dumps.
  obs::MetricRegistry* metrics = nullptr;
};

/// The coordinator: one per process, shared by every client session
/// through RouterFactory(). `registry` must outlive the coordinator
/// and stay unmodified while serving; only its shard maps are used.
class ShardCoordinator {
 public:
  ShardCoordinator(const ColumnRegistry* registry, CoordinatorOptions options);

  /// Checks the registry/options combination before serving: at least
  /// one sharded column, a sharded default, a sane retry budget, and a
  /// coherent blinding configuration.
  [[nodiscard]] Status Validate() const;

  /// Plugs into ServiceHostOptions::router_factory: every session gets
  /// a fresh CoordinatorRouter holding its own upstream connections.
  /// The coordinator must outlive the host it is plugged into.
  [[nodiscard]] std::function<std::shared_ptr<QueryRouter>()> RouterFactory();

 private:
  friend class CoordinatorRouter;
  friend class ClusterExecution;

  /// Fresh per-query blinding nonce. Uniqueness under one seed is what
  /// keeps zero-shares one-time (crypto/zero_share.h); a process-wide
  /// atomic is enough because all sessions share this coordinator.
  uint64_t NextNonce() {
    return nonce_.fetch_add(1, std::memory_order_relaxed);
  }

  /// options_.default_column, else the sole sharded column, under the
  /// serving side's default-column rule (ResolveDefaultColumn).
  [[nodiscard]] Result<std::string> ResolveDefault() const;

  const ColumnRegistry* registry_;
  CoordinatorOptions options_;
  /// ResolveDefault() at construction; "" when there is none.
  std::string default_column_;
  ThreadPool* pool_;                 ///< resolved from options
  obs::MetricRegistry* metrics_;     ///< resolved from options
  std::atomic<uint64_t> nonce_{1};

  // cluster.* counters, resolved once (registry counter pointers stay
  // valid across MetricRegistry::Reset).
  obs::Counter* fanouts_;             ///< cluster.fanouts
  obs::Counter* shard_queries_ok_;    ///< cluster.shard_queries_ok
  obs::Counter* shard_queries_failed_;///< cluster.shard_queries_failed
  obs::Counter* upstream_retries_;    ///< cluster.upstream_retries
  obs::Counter* upstream_redials_;    ///< cluster.upstream_redials
  obs::Counter* partials_served_;     ///< cluster.partials_served
};

}  // namespace ppstats

#endif  // PPSTATS_CLUSTER_COORDINATOR_H_
