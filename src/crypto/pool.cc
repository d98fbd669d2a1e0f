#include "crypto/pool.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ppstats {

namespace {

// Pool traffic is aggregated process-wide: a miss means an online
// encryption had to pay the full exponentiation the pool exists to
// amortize, so hit/miss/refill rates tell whether the preprocessing
// phase was sized correctly.
struct PoolCounters {
  obs::Counter* hits = obs::MetricRegistry::Global().GetCounter("pool.hits");
  obs::Counter* misses =
      obs::MetricRegistry::Global().GetCounter("pool.misses");
  obs::Counter* refilled =
      obs::MetricRegistry::Global().GetCounter("pool.refilled");
};

PoolCounters& Counters() {
  static PoolCounters* counters = new PoolCounters();  // leaked on purpose
  return *counters;
}

}  // namespace

void RandomnessPool::Generate(size_t count, RandomSource& rng) {
  for (BigInt& factor : Paillier::GenerateRandomFactors(pub_, rng, count)) {
    factors_.push_back(std::move(factor));
  }
  Counters().refilled->Add(count);
}

Result<BigInt> RandomnessPool::Take() {
  if (factors_.empty()) {
    return Status::ResourceExhausted("randomness pool is empty");
  }
  BigInt out = std::move(factors_.front());
  factors_.pop_front();
  Counters().hits->Increment();
  return out;
}

Result<PaillierCiphertext> RandomnessPool::Encrypt(const BigInt& m,
                                                   RandomSource& rng) {
  if (factors_.empty()) {
    ++misses_;
    Counters().misses->Increment();
    return Paillier::Encrypt(pub_, m, rng);
  }
  BigInt factor = std::move(factors_.front());
  factors_.pop_front();
  Counters().hits->Increment();
  return Paillier::EncryptWithFactor(pub_, m, factor);
}

Status EncryptionPool::Generate(const BigInt& plaintext, size_t count,
                                RandomSource& rng) {
  auto& bucket = store_[plaintext];
  const std::vector<BigInt> plaintexts(count, plaintext);
  PPSTATS_ASSIGN_OR_RETURN(std::vector<PaillierCiphertext> cts,
                           Paillier::EncryptBatch(pub_, plaintexts, rng));
  for (PaillierCiphertext& ct : cts) bucket.push_back(std::move(ct));
  Counters().refilled->Add(count);
  return Status::OK();
}

Result<PaillierCiphertext> EncryptionPool::Take(const BigInt& plaintext,
                                                RandomSource& rng) {
  auto it = store_.find(plaintext);
  if (it == store_.end() || it->second.empty()) {
    ++misses_;
    Counters().misses->Increment();
    return Paillier::Encrypt(pub_, plaintext, rng);
  }
  PaillierCiphertext out = std::move(it->second.front());
  it->second.pop_front();
  Counters().hits->Increment();
  return out;
}

size_t EncryptionPool::available(const BigInt& plaintext) const {
  auto it = store_.find(plaintext);
  return it == store_.end() ? 0 : it->second.size();
}

}  // namespace ppstats
