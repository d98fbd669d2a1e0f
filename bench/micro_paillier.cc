// google-benchmark microbenchmarks for the Paillier cryptosystem: the
// per-operation costs behind every figure in the paper. The client's
// figure-2 encryption time is n rows of BM_EncryptBatch (the batched path
// SumClient runs); the server's time is n x BM_ScalarMultiply32.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/microlib.h"

#include "bigint/modarith.h"
#include "core/messages.h"
#include "crypto/chacha20_rng.h"
#include "crypto/paillier.h"
#include "crypto/pool.h"

namespace ppstats {
namespace {

const PaillierKeyPair& KeyPair(size_t bits) {
  static PaillierKeyPair* cache[4096] = {};
  if (cache[bits] == nullptr) {
    ChaCha20Rng rng(616161 + bits);
    cache[bits] =
        new PaillierKeyPair(Paillier::GenerateKeyPair(bits, rng).ValueOrDie());
  }
  return *cache[bits];
}

void BM_KeyGeneration(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    ChaCha20Rng rng(seed++);
    benchmark::DoNotOptimize(Paillier::GenerateKeyPair(bits, rng).ValueOrDie());
  }
}
BENCHMARK(BM_KeyGeneration)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_Encrypt(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  const PaillierKeyPair& kp = KeyPair(bits);
  ChaCha20Rng rng(1);
  BigInt m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::Encrypt(kp.public_key, m, rng).ValueOrDie());
  }
}
BENCHMARK(BM_Encrypt)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_EncryptBatch(benchmark::State& state) {
  // The client's index-vector encryption as SumClient runs it: one
  // EncryptBatch per chunk, r^n in lockstep groups of 8. items/s is
  // rows (encryptions) per second, comparable to 1 / BM_Encrypt.
  constexpr size_t kRows = 64;
  size_t bits = static_cast<size_t>(state.range(0));
  const PaillierKeyPair& kp = KeyPair(bits);
  ChaCha20Rng rng(9);
  std::vector<BigInt> plaintexts;
  for (size_t i = 0; i < kRows; ++i) plaintexts.push_back(BigInt(i % 2));
  state.SetLabel(kp.public_key.mont_n2().backend_name());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::EncryptBatch(kp.public_key, plaintexts, rng).ValueOrDie());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_EncryptBatch)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_EncryptWithPrecomputedFactor(benchmark::State& state) {
  // The online cost of the paper's Section 3.3 preprocessing:
  // two modular multiplications instead of a full exponentiation.
  const PaillierKeyPair& kp = KeyPair(512);
  ChaCha20Rng rng(2);
  BigInt factor = Paillier::GenerateRandomFactor(kp.public_key, rng);
  BigInt m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::EncryptWithFactor(kp.public_key, m, factor).ValueOrDie());
  }
}
BENCHMARK(BM_EncryptWithPrecomputedFactor);

void BM_DecryptCrt(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  const PaillierKeyPair& kp = KeyPair(bits);
  ChaCha20Rng rng(3);
  PaillierCiphertext ct =
      Paillier::Encrypt(kp.public_key, BigInt(42), rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Decrypt(kp.private_key, ct).ValueOrDie());
  }
}
BENCHMARK(BM_DecryptCrt)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_DecryptDirect(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  const PaillierKeyPair& kp = KeyPair(bits);
  ChaCha20Rng rng(4);
  PaillierCiphertext ct =
      Paillier::Encrypt(kp.public_key, BigInt(42), rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::DecryptDirect(kp.private_key, ct).ValueOrDie());
  }
}
BENCHMARK(BM_DecryptDirect)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_HomomorphicAdd(benchmark::State& state) {
  const PaillierKeyPair& kp = KeyPair(512);
  ChaCha20Rng rng(5);
  PaillierCiphertext a =
      Paillier::Encrypt(kp.public_key, BigInt(1), rng).ValueOrDie();
  PaillierCiphertext b =
      Paillier::Encrypt(kp.public_key, BigInt(2), rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Add(kp.public_key, a, b));
  }
}
BENCHMARK(BM_HomomorphicAdd);

void BM_ScalarMultiply32(benchmark::State& state) {
  // One server step of the selected-sum protocol: E(I_i)^{x_i} with a
  // 32-bit database value.
  const PaillierKeyPair& kp = KeyPair(512);
  ChaCha20Rng rng(6);
  PaillierCiphertext ct =
      Paillier::Encrypt(kp.public_key, BigInt(1), rng).ValueOrDie();
  BigInt value(0x9ABCDEF0u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::ScalarMultiply(kp.public_key, ct, value));
  }
}
BENCHMARK(BM_ScalarMultiply32);

void BM_PoolGenerateFactor(benchmark::State& state) {
  // The offline cost the preprocessing optimization pays per element.
  const PaillierKeyPair& kp = KeyPair(512);
  ChaCha20Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::GenerateRandomFactor(kp.public_key, rng));
  }
}
BENCHMARK(BM_PoolGenerateFactor);

void BM_SerializeCiphertext(benchmark::State& state) {
  const PaillierKeyPair& kp = KeyPair(512);
  ChaCha20Rng rng(8);
  PaillierCiphertext ct =
      Paillier::Encrypt(kp.public_key, BigInt(7), rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::SerializeCiphertext(kp.public_key, ct));
  }
}
BENCHMARK(BM_SerializeCiphertext);

// The index-chunk codec on the server side of every query: 512
// ciphertexts, drawn as uniform residues mod n^2 (the codec never asks
// whether they decrypt). items/s is ciphertexts per second.
constexpr size_t kBatchRows = 512;

const IndexBatchMessage& IndexBatch(size_t bits) {
  static IndexBatchMessage* cache[4096] = {};
  if (cache[bits] == nullptr) {
    const PaillierPublicKey& pub = KeyPair(bits).public_key;
    ChaCha20Rng rng(31 + bits);
    cache[bits] = new IndexBatchMessage();
    for (size_t i = 0; i < kBatchRows; ++i) {
      cache[bits]->ciphertexts.push_back(
          PaillierCiphertext{RandomBelow(rng, pub.n_squared())});
    }
  }
  return *cache[bits];
}

void BM_IndexBatchEncode(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  const PaillierPublicKey& pub = KeyPair(bits).public_key;
  const IndexBatchMessage& batch = IndexBatch(bits);
  for (auto _ : state) benchmark::DoNotOptimize(batch.Encode(pub));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
}
BENCHMARK(BM_IndexBatchEncode)->Arg(512)->Arg(2048);

void BM_IndexBatchDecode(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  const PaillierPublicKey& pub = KeyPair(bits).public_key;
  const Bytes frame = IndexBatch(bits).Encode(pub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndexBatchMessage::Decode(pub, frame));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
}
BENCHMARK(BM_IndexBatchDecode)->Arg(512)->Arg(2048);

void BM_IndexBatchParse(benchmark::State& state) {
  // What the coordinator pays per chunk: every check of Decode, no
  // BigInt.
  const size_t bits = static_cast<size_t>(state.range(0));
  const PaillierPublicKey& pub = KeyPair(bits).public_key;
  const Bytes frame = IndexBatch(bits).Encode(pub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndexBatchMessage::Parse(pub, frame));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
}
BENCHMARK(BM_IndexBatchParse)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace ppstats

PPSTATS_MICRO_BENCH_MAIN("micro_paillier")
