// Per-backend microbenchmarks for the Montgomery multiplication kernels
// (bigint/mont_backend.h): one MulMontgomery / Sqr per iteration, one
// 64-product (or 1-7 product tail) mul_batch call, or one 8-base
// ExpBatch, at the operand widths the protocol actually runs — 1024-bit
// (512-bit keys, mod n^2), 2048-bit (1024-bit keys), 4096-bit (2048-bit
// keys).
//
// Each benchmark *requests* a backend; the label shows what the
// dispatcher resolved, so on hosts without ADX the "Adx" rows are
// visibly the fallback rather than silently mislabeled.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/microlib.h"
#include "bigint/modarith.h"
#include "bigint/mont_backend.h"
#include "bigint/montgomery.h"
#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

// Exactly `bits` bits (top bit pinned), odd — so the limb count is
// bits/64 and the width-dispatched backends actually engage.
BigInt ExactBitsOdd(ChaCha20Rng& rng, size_t bits) {
  BigInt v = (BigInt(1) << (bits - 1)) + RandomBits(rng, bits - 1);
  if (v.IsEven()) v += 1;
  return v;
}

void RunMontMul(benchmark::State& state, MontBackendKind kind) {
  const size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(7 + bits);
  const BigInt m = ExactBitsOdd(rng, bits);
  MontgomeryContext ctx(m, kind);
  state.SetLabel(ctx.backend_name());
  const BigInt am = ctx.ToMontgomery(RandomBelow(rng, m));
  const BigInt bm = ctx.ToMontgomery(RandomBelow(rng, m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MulMontgomery(am, bm));
  }
}

void RunMontSqr(benchmark::State& state, MontBackendKind kind) {
  const size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(9 + bits);
  const BigInt m = ExactBitsOdd(rng, bits);
  MontgomeryContext ctx(m, kind);
  state.SetLabel(ctx.backend_name());
  const BigInt am = ctx.ToMontgomery(RandomBelow(rng, m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Sqr(am));
  }
}

void BM_MontMulGeneric(benchmark::State& state) {
  RunMontMul(state, MontBackendKind::kGeneric);
}
BENCHMARK(BM_MontMulGeneric)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontMulAdx(benchmark::State& state) {
  RunMontMul(state, MontBackendKind::kAdx);
}
BENCHMARK(BM_MontMulAdx)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontSqrGeneric(benchmark::State& state) {
  RunMontSqr(state, MontBackendKind::kGeneric);
}
BENCHMARK(BM_MontSqrGeneric)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontSqrAdx(benchmark::State& state) {
  RunMontSqr(state, MontBackendKind::kAdx);
}
BENCHMARK(BM_MontSqrAdx)->Arg(1024)->Arg(2048)->Arg(4096);

// `products` independent in-place products per call (out == a, the
// shape of a Pippenger bucket round) through the backend's mul_batch
// entry point; the time per iteration covers all of them.
void RunMontMulBatch(benchmark::State& state, MontBackendKind kind,
                     size_t bits, size_t products) {
  ChaCha20Rng rng(11 + bits);
  const BigInt m = ExactBitsOdd(rng, bits);
  const size_t n = m.LimbCount();
  const MontBackendOps& ops = SelectMontBackend(n, kind);
  state.SetLabel(ops.name);
  // n0' = -m^{-1} mod 2^64 by Newton iteration on the low limb.
  const uint64_t m0 = m.limbs()[0];
  uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  const MontModulusView view{m.limbs().data(), n, ~inv + 1};
  std::vector<std::vector<uint64_t>> acc(products);
  std::vector<std::vector<uint64_t>> factor(products);
  std::vector<const uint64_t*> a(products);
  std::vector<const uint64_t*> b(products);
  std::vector<uint64_t*> out(products);
  for (size_t i = 0; i < products; ++i) {
    acc[i] = RandomBelow(rng, m).limbs();
    factor[i] = RandomBelow(rng, m).limbs();
    acc[i].resize(n, 0);
    factor[i].resize(n, 0);
    a[i] = out[i] = acc[i].data();
    b[i] = factor[i].data();
  }
  for (auto _ : state) {
    ops.mul_batch(view, products, a.data(), b.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(products));
}

void BM_MontMulBatchGeneric(benchmark::State& state) {
  RunMontMulBatch(state, MontBackendKind::kGeneric,
                  static_cast<size_t>(state.range(0)), 64);
}
BENCHMARK(BM_MontMulBatchGeneric)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontMulBatchAdx(benchmark::State& state) {
  RunMontMulBatch(state, MontBackendKind::kAdx,
                  static_cast<size_t>(state.range(0)), 64);
}
BENCHMARK(BM_MontMulBatchAdx)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontMulBatchIfma(benchmark::State& state) {
  RunMontMulBatch(state, MontBackendKind::kIfma,
                  static_cast<size_t>(state.range(0)), 64);
}
BENCHMARK(BM_MontMulBatchIfma)->Arg(1024)->Arg(2048)->Arg(4096);

// A short batch at 1024 bits, Arg products per call. The ifma kernel
// pads a tail of 2-7 products into one 8-lane step and runs a lone
// product on adx; the adx rows are what such a tail cost on the adx
// pair kernel, so the two series show where padding breaks even.
void BM_MontMulBatchIfmaTail(benchmark::State& state) {
  RunMontMulBatch(state, MontBackendKind::kIfma, 1024,
                  static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_MontMulBatchIfmaTail)->DenseRange(1, 7);

void BM_MontMulBatchAdxTail(benchmark::State& state) {
  RunMontMulBatch(state, MontBackendKind::kAdx, 1024,
                  static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_MontMulBatchAdxTail)->DenseRange(1, 7);

// One lockstep fixed-window walk over 8 bases sharing a 512-bit
// exponent — Paillier's r^n for one group of 512-bit-key encryptions
// (mod n^2, 1024 bits). items/s counts exponentiations.
void RunExpBatch(benchmark::State& state, MontBackendKind kind) {
  constexpr size_t kBases = 8;
  const size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(15 + bits);
  const BigInt m = ExactBitsOdd(rng, bits);
  MontgomeryContext ctx(m, kind);
  state.SetLabel(ctx.backend_name());
  const BigInt exp = ExactBitsOdd(rng, bits / 2);
  std::vector<BigInt> bases;
  for (size_t i = 0; i < kBases; ++i) bases.push_back(RandomBelow(rng, m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ExpBatch(bases, exp));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBases));
}

void BM_ExpBatchGeneric(benchmark::State& state) {
  RunExpBatch(state, MontBackendKind::kGeneric);
}
BENCHMARK(BM_ExpBatchGeneric)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_ExpBatchAdx(benchmark::State& state) {
  RunExpBatch(state, MontBackendKind::kAdx);
}
BENCHMARK(BM_ExpBatchAdx)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_ExpBatchIfma(benchmark::State& state) {
  RunExpBatch(state, MontBackendKind::kIfma);
}
BENCHMARK(BM_ExpBatchIfma)->Arg(1024)->Unit(benchmark::kMicrosecond);

// The batched entry point one-shot MultiExp uses to convert plain-residue
// bases; rows/s is the interesting figure.
void BM_ToMontgomeryBatch(benchmark::State& state) {
  ChaCha20Rng rng(13);
  const BigInt m = ExactBitsOdd(rng, 2048);
  MontgomeryContext ctx(m);
  state.SetLabel(ctx.backend_name());
  std::vector<BigInt> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(RandomBelow(rng, m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ToMontgomeryBatch(xs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ToMontgomeryBatch);

}  // namespace
}  // namespace ppstats

PPSTATS_MICRO_BENCH_MAIN("micro_montmul")
