#include "core/multiclient.h"

#include <algorithm>

#include "bigint/modarith.h"
#include "crypto/zero_share.h"

namespace ppstats {

double MultiClientRunResult::ParallelSeconds(
    const ExecutionEnvironment& env) const {
  double slowest = 0;
  for (const RunMetrics& m : client_metrics) {
    slowest = std::max(slowest, m.SequentialSeconds(env));
  }
  // The ring is sequential: each hop is one small message.
  double per_hop = env.network.TransferSeconds(
      ring_traffic.messages == 0
          ? 0
          : ring_traffic.bytes / ring_traffic.messages,
      1);
  return slowest + per_hop * static_cast<double>(ring_sequential_messages);
}

double MultiClientRunResult::SequentialSeconds(
    const ExecutionEnvironment& env) const {
  double total = 0;
  for (const RunMetrics& m : client_metrics) {
    total += m.SequentialSeconds(env);
  }
  return total;
}

Result<MultiClientRunResult> RunMultiClientSum(
    const std::vector<const PaillierPrivateKey*>& keys, const Database& db,
    const SelectionVector& selection, const MultiClientConfig& config,
    RandomSource& rng) {
  const size_t k = keys.size();
  if (k < 2) {
    return Status::InvalidArgument("multi-client protocol needs >= 2 clients");
  }
  if (selection.size() != db.size()) {
    return Status::InvalidArgument("selection length != database size");
  }
  if (db.size() < k) {
    return Status::InvalidArgument("database smaller than client count");
  }
  const BigInt& m_mod = config.blind_modulus;
  for (const PaillierPrivateKey* key : keys) {
    PPSTATS_RETURN_IF_ERROR(
        CheckBlindModulus(m_mod, key->public_key().n(), /*summands=*/1));
  }

  // Server chooses blindings R_1..R_k with sum = 0 (mod M).
  PPSTATS_ASSIGN_OR_RETURN(std::vector<BigInt> blindings,
                           DrawZeroShares(rng, k, m_mod));

  // Phase 1: each client runs the blinded selected-sum protocol on its
  // partition (conceptually in parallel; we execute them in turn and
  // report parallel elapsed time as the per-client maximum).
  MultiClientRunResult result;
  result.client_metrics.reserve(k);
  std::vector<BigInt> blinded_partials;
  blinded_partials.reserve(k);

  const size_t base = db.size() / k;
  const size_t extra = db.size() % k;
  size_t begin = 0;
  for (size_t i = 0; i < k; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    const size_t end = begin + len;

    WeightVector weights(len);
    for (size_t j = 0; j < len; ++j) weights[j] = selection[begin + j] ? 1 : 0;

    SumClientOptions client_options;
    client_options.chunk_size = config.chunk_size;
    client_options.index_offset = begin;
    SumClient client(*keys[i], std::move(weights), client_options, rng);

    QuerySpec spec;
    spec.partition = std::make_pair(begin, end);
    spec.blinding = blindings[i];
    PPSTATS_ASSIGN_OR_RETURN(CompiledQuery query, CompileQuery(spec, &db));
    SumServer server(keys[i]->public_key(), query);

    PPSTATS_ASSIGN_OR_RETURN(SumRunResult run,
                             RunSelectedSum(client, server));
    blinded_partials.push_back(std::move(run.sum));
    result.client_metrics.push_back(std::move(run.metrics));
    begin = end;
  }

  // Phase 2: ring combine. C_1 -> C_2 -> ... -> C_k, then C_k broadcasts.
  BigInt running(0);
  for (size_t i = 0; i < k; ++i) {
    running += blinded_partials[i];
    if (i + 1 < k) {
      RingPartialMessage msg{running};
      Bytes frame = msg.Encode();
      result.ring_traffic.Record(frame.size());
      ++result.ring_sequential_messages;
      // The next client decodes what the previous one sent.
      PPSTATS_ASSIGN_OR_RETURN(RingPartialMessage decoded,
                               RingPartialMessage::Decode(frame));
      running = decoded.running_sum;
    }
  }
  result.total = Mod(running, m_mod);

  // Broadcast of the final total to the other k-1 clients (one hop on
  // the critical path; the k-1 sends fan out in parallel).
  RingBroadcastMessage broadcast{result.total};
  Bytes frame = broadcast.Encode();
  for (size_t i = 0; i + 1 < k; ++i) {
    result.ring_traffic.Record(frame.size());
  }
  ++result.ring_sequential_messages;

  return result;
}

}  // namespace ppstats
