#include "core/packed_sum.h"

#include "common/stopwatch.h"

namespace ppstats {

size_t MinimumSForQueries(size_t modulus_bits, size_t num_queries,
                          size_t slot_bits) {
  size_t needed_bits = num_queries * slot_bits;
  // n^s provides s * modulus_bits - 1 usable bits (conservatively).
  size_t s = 1;
  while (s * modulus_bits - 1 < needed_bits) ++s;
  return s;
}

Result<PackedSumResult> RunPackedMultiSum(
    const DjPrivateKey& key, const Database& db,
    const std::vector<SelectionVector>& queries,
    const PackedSumConfig& config, RandomSource& rng) {
  const DjPublicKey& pub = key.public_key();
  const size_t num_queries = queries.size();
  if (num_queries == 0) {
    return Status::InvalidArgument("need at least one query");
  }
  if (db.empty()) {
    return Status::InvalidArgument("database is empty");
  }
  if (config.slot_bits == 0 || config.slot_bits > 62) {
    return Status::InvalidArgument("slot_bits must be in [1, 62]");
  }
  for (const SelectionVector& q : queries) {
    if (q.size() != db.size()) {
      return Status::InvalidArgument("query length != database size");
    }
  }
  if (BigInt(1) << (num_queries * config.slot_bits) >= pub.n_s()) {
    return Status::OutOfRange(
        "queries * slot_bits exceed the plaintext space; raise s");
  }

  PackedSumResult result;

  // --- Client: encrypt one packed indicator per row. -------------------
  Stopwatch client_timer;
  std::vector<DjCiphertext> encrypted_rows;
  encrypted_rows.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    BigInt packed(0);
    for (size_t b = num_queries; b-- > 0;) {
      packed <<= config.slot_bits;
      if (queries[b][i]) packed += BigInt(1);
    }
    PPSTATS_ASSIGN_OR_RETURN(DjCiphertext ct,
                             DamgardJurik::Encrypt(pub, packed, rng));
    encrypted_rows.push_back(std::move(ct));
  }
  result.client_encrypt_s = client_timer.ElapsedSeconds();
  result.client_to_server.Record(db.size() * pub.CiphertextBytes());

  // --- Server: the usual product with database exponents, one batched
  // multi-exponentiation over the Damgård–Jurik modulus n^{s+1}. --------
  Stopwatch server_timer;
  std::vector<BigInt> weights;
  weights.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) weights.push_back(BigInt(db.value(i)));
  DjCiphertext acc = DamgardJurik::WeightedFold(pub, encrypted_rows, weights);
  result.server_compute_s = server_timer.ElapsedSeconds();
  result.server_to_client.Record(pub.CiphertextBytes());

  // --- Client: decrypt once, unpack B sums. ----------------------------
  client_timer.Reset();
  PPSTATS_ASSIGN_OR_RETURN(BigInt packed_sums,
                           DamgardJurik::Decrypt(key, acc));
  result.sums.reserve(num_queries);
  BigInt rest = packed_sums;
  const BigInt slot_modulus = BigInt(1) << config.slot_bits;
  for (size_t b = 0; b < num_queries; ++b) {
    result.sums.push_back(rest % slot_modulus);
    rest >>= config.slot_bits;
  }
  result.client_decrypt_s = client_timer.ElapsedSeconds();
  return result;
}

}  // namespace ppstats
