// Per-backend microbenchmarks for the Montgomery multiplication kernels
// (bigint/mont_backend.h): one MulMontgomery / Sqr per iteration at the
// operand widths the protocol actually runs — 1024-bit (512-bit keys,
// mod n^2), 2048-bit (1024-bit keys), 4096-bit (2048-bit keys).
//
// Each benchmark *requests* a backend; the label shows what the
// dispatcher resolved, so on hosts without ADX the "Adx" rows are
// visibly the fallback rather than silently mislabeled.

#include <benchmark/benchmark.h>

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

void BM_MontMulFixed(benchmark::State& state) {
  RunMontMul(state, MontBackendKind::kFixed);
}
BENCHMARK(BM_MontMulFixed)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontMulAdx(benchmark::State& state) {
  RunMontMul(state, MontBackendKind::kAdx);
}
BENCHMARK(BM_MontMulAdx)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontSqrGeneric(benchmark::State& state) {
  RunMontSqr(state, MontBackendKind::kGeneric);
}
BENCHMARK(BM_MontSqrGeneric)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontSqrFixed(benchmark::State& state) {
  RunMontSqr(state, MontBackendKind::kFixed);
}
BENCHMARK(BM_MontSqrFixed)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontSqrAdx(benchmark::State& state) {
  RunMontSqr(state, MontBackendKind::kAdx);
}
BENCHMARK(BM_MontSqrAdx)->Arg(1024)->Arg(2048)->Arg(4096);

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
