#include "cluster/coordinator.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "core/query.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/paillier.h"
#include "crypto/zero_share.h"
#include "net/channel.h"
#include "obs/span.h"

namespace ppstats {

/// Per-session fan-out router. One instance serves one client session:
/// it remembers the client's key from the handshake (shards must
/// encrypt against the same key) and keeps one persistent upstream
/// ClientConnection per shard endpoint, dialed lazily on first use and
/// redialed after any failure.
///
/// No lock: the map is only touched by FanOut, which runs one query at
/// a time and resolves every leg's slot before the legs start, and by
/// the destructor. Each leg then uses only its own slot (shard URIs are
/// unique within a shard map).
class CoordinatorRouter : public QueryRouter {
 public:
  explicit CoordinatorRouter(ShardCoordinator* coordinator)
      : coordinator_(coordinator) {}

  ~CoordinatorRouter() override {
    // Best-effort clean goodbye so shard hosts count these sessions as
    // finished rather than vanished.
    for (auto& [uri, conn] : conns_) {
      if (conn != nullptr) conn->Finish().IgnoreError();
    }
  }

  uint64_t DefaultRows() const override {
    return coordinator_->registry_->ShardedRows(coordinator_->default_column_);
  }

  [[nodiscard]] Status OnClientHello(BytesView key_blob,
                                     const PaillierPublicKey& pub) override {
    key_blob_.assign(key_blob.begin(), key_blob.end());
    pub_ = pub;
    return Status::OK();
  }

  [[nodiscard]] Result<OpenedQuery> Open(const QueryHeaderMessage& header,
                                         const PaillierPublicKey& pub) override;

  /// The slot holding the upstream connection to `uri` (null until
  /// dialed). Stays valid for the router's lifetime.
  std::unique_ptr<ClientConnection>& Upstream(const std::string& uri) {
    return conns_[uri];  // map nodes are stable across inserts
  }

  /// A fresh upstream connection to `uri`, hello exchanged. Safe to call
  /// from concurrent legs: it reads only what the handshake set.
  [[nodiscard]] Result<std::unique_ptr<ClientConnection>> Dial(
      const std::string& uri) const {
    coordinator_->upstream_redials_->Increment();
    const CoordinatorOptions& opt = coordinator_->options_;
    PPSTATS_ASSIGN_OR_RETURN(
        std::unique_ptr<Channel> channel,
        UriDialer(uri, opt.shard_io_deadline_ms, opt.connect_deadline_ms)());
    // Partials are opted in only so the leg can refuse them itself (see
    // QueryShardOnce).
    auto conn = std::make_unique<ClientConnection>(
        std::move(channel), key_blob_, pub_, /*accept_partial=*/true);
    PPSTATS_RETURN_IF_ERROR(conn->Hello().status());
    return conn;
  }

 private:
  ShardCoordinator* coordinator_;
  Bytes key_blob_;
  PaillierPublicKey pub_;
  std::map<std::string, std::unique_ptr<ClientConnection>> conns_;
};

/// One fan-out query: buffers the client's encrypted index vector in
/// global row order as validated wire bytes, then scatters byte slices
/// to the shards and gathers their encrypted partials into one response
/// frame. Nothing here computes on an index ciphertext, so none is ever
/// decoded.
class ClusterExecution : public QueryExecution {
 public:
  ClusterExecution(CoordinatorRouter* router, ShardCoordinator* coordinator,
                   QuerySpec query, std::vector<ShardDescriptor> shards,
                   PaillierPublicKey pub, uint64_t rows)
      : router_(router),
        coordinator_(coordinator),
        query_(std::move(query)),
        shards_(std::move(shards)),
        pub_(std::move(pub)),
        upload_sequence_(0, rows),
        ciphertext_bytes_(pub_.CiphertextBytes()) {
    upload_.reserve(rows * ciphertext_bytes_);
  }

  [[nodiscard]] Result<std::optional<Bytes>> HandleRequest(
      BytesView frame) override {
    PPSTATS_ASSIGN_OR_RETURN(IndexBatchView batch,
                             upload_sequence_.Next(pub_, frame));
    upload_.insert(upload_.end(), batch.payload.begin(), batch.payload.end());
    if (!upload_sequence_.complete()) return std::optional<Bytes>();
    PPSTATS_ASSIGN_OR_RETURN(Bytes response, FanOut());
    return std::optional<Bytes>(std::move(response));
  }

  bool Finished() const override { return upload_sequence_.complete(); }
  double compute_seconds() const override { return compute_seconds_; }

 private:
  struct ShardOutcome {
    Status status = Status::OK();
    std::optional<PaillierCiphertext> sum;
  };

  [[nodiscard]] Result<Bytes> FanOut();
  /// Shard i's leg over its upstream slot `conn`, retried per
  /// CoordinatorOptions::retry; a failed attempt ends and drops `conn`.
  [[nodiscard]] Status QueryShard(size_t i, uint64_t nonce,
                                  std::unique_ptr<ClientConnection>& conn,
                                  PaillierCiphertext* out);
  [[nodiscard]] Status QueryShardOnce(size_t i, uint64_t nonce,
                                      std::unique_ptr<ClientConnection>& conn,
                                      PaillierCiphertext* out);

  CoordinatorRouter* router_;
  ShardCoordinator* coordinator_;
  QuerySpec query_;
  std::vector<ShardDescriptor> shards_;
  PaillierPublicKey pub_;
  IndexUploadSequencer upload_sequence_;
  size_t ciphertext_bytes_;
  /// Client ciphertexts E(w_i) as wire bytes, ciphertext_bytes_ per
  /// global row, in row order.
  Bytes upload_;
  double compute_seconds_ = 0;
};

Result<OpenedQuery> CoordinatorRouter::Open(const QueryHeaderMessage& header,
                                            const PaillierPublicKey& pub) {
  const ColumnRegistry& registry = *coordinator_->registry_;
  PPSTATS_ASSIGN_OR_RETURN(
      QuerySpec query,
      ResolveQueryHeader(header, coordinator_->default_column_,
                         [&registry](const std::string& name) {
                           return registry.FindShards(name) != nullptr;
                         }));
  if (header.blind_partial) {
    // The extension is coordinator->shard only; a client asking the
    // coordinator for blinded partials is confused (or probing).
    return Status::InvalidArgument(
        "blind_partial is not accepted from clients");
  }
  const std::vector<ShardDescriptor>& shards =
      *registry.FindShards(query.column);
  // Each shard folds its slice of both columns, so the slices must be
  // the same rows on the same shards.
  if (!query.column2.empty() && *registry.FindShards(query.column2) != shards) {
    return Status::InvalidArgument(
        "product columns are not sharded alike: " + query.column + ", " +
        query.column2);
  }
  const CoordinatorOptions& opt = coordinator_->options_;
  if (opt.blind_partials) {
    // The merged plaintext carries all d shard shares (d = shard count).
    PPSTATS_RETURN_IF_ERROR(
        CheckBlindModulus(opt.blind_modulus, pub.n(), shards.size()));
  }
  OpenedQuery opened;
  opened.rows = shards.back().end;
  opened.execution = std::make_unique<ClusterExecution>(
      this, coordinator_, std::move(query), shards, pub, opened.rows);
  return opened;
}

Result<Bytes> ClusterExecution::FanOut() {
  coordinator_->fanouts_->Increment();
  obs::ObsSpan fanout(obs::kSpanClusterFanout, coordinator_->metrics_);
  const CoordinatorOptions& opt = coordinator_->options_;
  const uint64_t nonce =
      opt.blind_partials ? coordinator_->NextNonce() : 0;

  std::vector<ShardOutcome> outcomes(shards_.size());
  std::vector<std::unique_ptr<ClientConnection>*> conns(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    conns[i] = &router_->Upstream(shards_[i].uri);
  }
  coordinator_->pool_->Run(shards_.size(), [&](size_t i) {
    PaillierCiphertext sum;
    Status status = QueryShard(i, nonce, *conns[i], &sum);
    if (status.ok()) outcomes[i].sum = std::move(sum);
    outcomes[i].status = std::move(status);
  });

  // Gather: multiply the encrypted partials (plaintext addition).
  double merge_s = 0;
  std::optional<PaillierCiphertext> merged;
  uint64_t responded = 0;
  uint64_t rows_covered = 0;
  std::optional<Status> first_failure;
  {
    obs::ScopedPhaseTimer timer(&merge_s, obs::kSpanServerCompute,
                                coordinator_->metrics_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!outcomes[i].status.ok()) {
        if (!first_failure.has_value()) {
          first_failure = Status(
              outcomes[i].status.code(),
              "shard " + std::to_string(shards_[i].id) + " (" +
                  shards_[i].uri + ") failed: " +
                  outcomes[i].status.message());
        }
        continue;
      }
      ++responded;
      rows_covered += shards_[i].end - shards_[i].begin;
      merged = merged.has_value()
                   ? Paillier::Add(pub_, *merged, *outcomes[i].sum)
                   : std::move(*outcomes[i].sum);
    }
  }
  compute_seconds_ += merge_s;

  if (!first_failure.has_value()) {
    SumResponseMessage response;
    response.sum = std::move(*merged);
    return response.Encode(pub_);
  }
  // A non-retryable failure (a shard rejecting the query as malformed)
  // would reject identically on every shard: report it rather than
  // dress it up as partial coverage.
  const bool serve_partial =
      opt.partial_policy == PartialResultPolicy::kPartial && responded > 0 &&
      IsRetryableStatus(*first_failure);
  if (!serve_partial) return *first_failure;
  coordinator_->partials_served_->Increment();
  PartialResultMessage partial;
  partial.sum = std::move(*merged);
  partial.shards_total = shards_.size();
  partial.shards_responded = responded;
  partial.rows_covered = rows_covered;
  return partial.Encode(pub_);
}

Status ClusterExecution::QueryShard(size_t i, uint64_t nonce,
                                    std::unique_ptr<ClientConnection>& conn,
                                    PaillierCiphertext* out) {
  obs::ObsSpan span(obs::kSpanClusterShardQuery, coordinator_->metrics_);
  // Deterministic per-(query, shard) jitter stream: fan-outs stay
  // reproducible under a fixed nonce sequence.
  ChaCha20Rng backoff_rng(nonce * 1000003 + shards_[i].id);
  auto attempt = [&]() -> Status {
    Status status = QueryShardOnce(i, nonce, conn, out);
    if (!status.ok() && conn != nullptr) {
      // Its protocol state is unknown: end it (telling the shard why
      // when it is still listening) so the next attempt redials.
      conn->Abort(status);
      conn.reset();
    }
    return status;
  };
  Status status = RetryWithBackoff(
      coordinator_->options_.retry, backoff_rng, attempt,
      [this](uint32_t) { coordinator_->upstream_retries_->Increment(); });
  (status.ok() ? coordinator_->shard_queries_ok_
               : coordinator_->shard_queries_failed_)
      ->Increment();
  return status;
}

Status ClusterExecution::QueryShardOnce(size_t i, uint64_t nonce,
                                        std::unique_ptr<ClientConnection>& conn,
                                        PaillierCiphertext* out) {
  const ShardDescriptor& shard = shards_[i];
  if (conn == nullptr) {
    PPSTATS_ASSIGN_OR_RETURN(conn, router_->Dial(shard.uri));
  }

  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(query_.kind);
  header.column = query_.column;
  header.column2 = query_.column2;
  if (coordinator_->options_.blind_partials) {
    header.blind_partial = true;
    header.blind_nonce = nonce;
  }
  PPSTATS_ASSIGN_OR_RETURN(uint64_t rows, conn->Open(header));
  const uint64_t shard_rows = shard.end - shard.begin;
  if (rows != shard_rows) {
    return Status::ProtocolError(
        "shard row count does not match its shard map range");
  }

  // Upload the shard's slice of the index vector, re-based to local
  // row 0 (a shard stores rows [begin, end) as [0, end - begin)).
  const uint64_t chunk = coordinator_->options_.chunk_size == 0
                             ? shard_rows
                             : coordinator_->options_.chunk_size;
  for (uint64_t off = 0; off < shard_rows; off += chunk) {
    const uint64_t count = std::min<uint64_t>(chunk, shard_rows - off);
    const BytesView slice = BytesView(upload_).subspan(
        (shard.begin + off) * ciphertext_bytes_, count * ciphertext_bytes_);
    PPSTATS_RETURN_IF_ERROR(conn->Upload(IndexBatchMessage::EncodeRaw(
        off, static_cast<uint32_t>(count), slice)));
  }

  PPSTATS_ASSIGN_OR_RETURN(ClientAnswer answer, conn->Await());
  if (answer.partial.has_value()) {
    // A shard's own partial would pass for its whole range. Refused as a
    // (retryable) protocol error, so the partial policy still applies.
    return Status::ProtocolError("shard answered with a partial result");
  }
  *out = std::move(answer.sum);
  return Status::OK();
}

ShardCoordinator::ShardCoordinator(const ColumnRegistry* registry,
                                   CoordinatorOptions options)
    : registry_(registry), options_(std::move(options)) {
  pool_ = options_.pool != nullptr ? options_.pool : &ThreadPool::Shared();
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::MetricRegistry::Global();
  fanouts_ = metrics_->GetCounter("cluster.fanouts");
  shard_queries_ok_ = metrics_->GetCounter("cluster.shard_queries_ok");
  shard_queries_failed_ = metrics_->GetCounter("cluster.shard_queries_failed");
  upstream_retries_ = metrics_->GetCounter("cluster.upstream_retries");
  upstream_redials_ = metrics_->GetCounter("cluster.upstream_redials");
  partials_served_ = metrics_->GetCounter("cluster.partials_served");
  // Validate reports a default that does not resolve.
  if (Result<std::string> name = ResolveDefault(); name.ok()) {
    default_column_ = std::move(name).ValueOrDie();
  }
}

Result<std::string> ShardCoordinator::ResolveDefault() const {
  return ResolveDefaultColumn(options_.default_column,
                              registry_ == nullptr
                                  ? std::vector<std::string>()
                                  : registry_->ShardedColumnNames());
}

Status ShardCoordinator::Validate() const {
  if (registry_ == nullptr || registry_->ShardedColumnNames().empty()) {
    return Status::FailedPrecondition("coordinator has no sharded columns");
  }
  PPSTATS_RETURN_IF_ERROR(ResolveDefault().status());
  if (options_.retry.max_attempts == 0) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  if (options_.blind_partials) {
    if (options_.blind_seed.empty()) {
      return Status::InvalidArgument("blinded partials need a blinding seed");
    }
    if (options_.blind_modulus < BigInt(2)) {
      return Status::InvalidArgument("blinding modulus must be >= 2");
    }
    if (options_.partial_policy == PartialResultPolicy::kPartial) {
      return Status::InvalidArgument(
          "partial results cannot be served with blinded partials: the "
          "missing shards' zero-shares would not cancel");
    }
  }
  return Status::OK();
}

std::function<std::shared_ptr<QueryRouter>()>
ShardCoordinator::RouterFactory() {
  return [this]() -> std::shared_ptr<QueryRouter> {
    return std::make_shared<CoordinatorRouter>(this);
  };
}

}  // namespace ppstats
