#include "core/query_exec.h"

#include <utility>

#include "core/query.h"
#include "crypto/zero_share.h"

namespace ppstats {

uint64_t LocalQueryRouter::DefaultRows() const {
  return config_.default_column == nullptr ? 0 : config_.default_column->size();
}

Status LocalQueryRouter::OnClientHello(BytesView key_blob,
                                       const PaillierPublicKey& pub) {
  (void)key_blob;
  (void)pub;
  return Status::OK();
}

Result<OpenedQuery> LocalQueryRouter::Open(const QueryHeaderMessage& header,
                                           const PaillierPublicKey& pub) {
  PPSTATS_ASSIGN_OR_RETURN(StatisticKind kind,
                           StatisticKindFromWire(header.kind));
  QuerySpec spec;
  spec.kind = kind;
  spec.column = header.column;
  spec.column2 = header.column2;
  static const ColumnRegistry kEmptyRegistry;
  const ColumnRegistry& registry =
      registry_ == nullptr ? kEmptyRegistry : *registry_;
  PPSTATS_ASSIGN_OR_RETURN(
      CompiledQuery query,
      CompileQuery(spec, registry, config_.default_column));
  if (query.rows() == 0) {
    // An empty cover would mean QueryAccept rows=0 and an immediate
    // response with no chunks; simpler and clearer to reject it.
    return Status::InvalidArgument("query covers no rows");
  }
  if (header.blind_partial) {
    if (!config_.shard_blind.has_value()) {
      return Status::FailedPrecondition(
          "blinded partials requested but shard blinding is not configured");
    }
    const ShardBlindConfig& blind = *config_.shard_blind;
    PPSTATS_RETURN_IF_ERROR(
        CheckBlindModulus(blind.modulus, pub.n(), /*summands=*/1));
    PPSTATS_ASSIGN_OR_RETURN(
        BigInt share,
        DeriveZeroShare(blind.seed, blind.shard_index, blind.shard_count,
                        header.blind_nonce, blind.modulus));
    query.blinding = std::move(share);
  }
  OpenedQuery opened;
  opened.rows = query.rows();
  opened.execution = std::make_unique<LocalQueryExecution>(
      pub, query, config_.worker_threads);
  return opened;
}

}  // namespace ppstats
