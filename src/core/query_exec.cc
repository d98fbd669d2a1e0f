#include "core/query_exec.h"

#include <utility>

#include "core/query.h"
#include "core/selected_sum.h"
#include "crypto/zero_share.h"

namespace ppstats {

uint64_t LocalQueryRouter::DefaultRows() const {
  const Database* column = registry_->Find(config_.default_column);
  return column == nullptr ? 0 : column->size();
}

Result<OpenedQuery> LocalQueryRouter::Open(const QueryHeaderMessage& header,
                                           const PaillierPublicKey& pub) {
  PPSTATS_ASSIGN_OR_RETURN(
      CompiledQuery query,
      CompileQuery(header, *registry_, config_.default_column));
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
  opened.execution =
      std::make_unique<SumServer>(pub, query, config_.worker_threads);
  return opened;
}

}  // namespace ppstats
