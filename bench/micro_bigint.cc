// google-benchmark microbenchmarks for the big-integer substrate: the
// primitive costs every protocol number in the paper decomposes into.

#include <benchmark/benchmark.h>

#include "bench/microlib.h"

#include "bigint/modarith.h"
#include "bigint/montgomery.h"
#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

BigInt RandomOdd(ChaCha20Rng& rng, size_t bits) {
  BigInt v = RandomBits(rng, bits) + (BigInt(1) << (bits - 1));
  if (v.IsEven()) v += 1;
  return v;
}

void BM_Multiply(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(bits);
  BigInt a = RandomBits(rng, bits);
  BigInt b = RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_Multiply)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_DivRem(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(bits + 1);
  BigInt a = RandomBits(rng, 2 * bits);
  BigInt b = RandomBits(rng, bits) + (BigInt(1) << (bits - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a % b);
  }
}
BENCHMARK(BM_DivRem)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModExpMontgomery(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(bits + 2);
  BigInt m = RandomOdd(rng, bits);
  MontgomeryContext ctx(m);
  BigInt base = RandomBelow(rng, m);
  BigInt exp = RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Exp(base, exp));
  }
}
BENCHMARK(BM_ModExpMontgomery)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModExpPlain(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(bits + 3);
  BigInt m = RandomOdd(rng, bits);
  BigInt base = RandomBelow(rng, m);
  BigInt exp = RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModExpPlain(base, exp, m));
  }
}
BENCHMARK(BM_ModExpPlain)->Arg(512)->Arg(1024);

void BM_ModExpShortExponent(benchmark::State& state) {
  // The server's workload: 32-bit exponents on a 1024-bit modulus.
  ChaCha20Rng rng(77);
  BigInt m = RandomOdd(rng, 1024);
  MontgomeryContext ctx(m);
  BigInt base = RandomBelow(rng, m);
  BigInt exp = RandomBits(rng, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Exp(base, exp));
  }
}
BENCHMARK(BM_ModExpShortExponent);

void BM_ModInverse(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(bits + 4);
  BigInt m = RandomOdd(rng, bits);
  BigInt a = RandomUnit(rng, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModInverse(a, m).ValueOrDie());
  }
}
BENCHMARK(BM_ModInverse)->Arg(512)->Arg(1024);

void BM_Gcd(benchmark::State& state) {
  // RandomUnit's unit check in Paillier encryption: gcd(r, n) for a
  // random r < n and an odd n of the key's width.
  size_t bits = static_cast<size_t>(state.range(0));
  ChaCha20Rng rng(bits + 6);
  BigInt n = RandomOdd(rng, bits);
  BigInt r = RandomBelow(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gcd(r, n));
  }
}
BENCHMARK(BM_Gcd)->Arg(512)->Arg(1024);

void BM_DecimalConversion(benchmark::State& state) {
  ChaCha20Rng rng(5);
  BigInt v = RandomBits(rng, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.ToDecimal());
  }
}
BENCHMARK(BM_DecimalConversion);

}  // namespace
}  // namespace ppstats

PPSTATS_MICRO_BENCH_MAIN("micro_bigint")
