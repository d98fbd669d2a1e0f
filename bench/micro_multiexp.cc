// google-benchmark microbenchmarks for the batched multi-exponentiation
// kernel behind the server's homomorphic fold: naive per-row
// ScalarMultiply + Add ladder vs Straus vs Pippenger vs the threaded
// Pippenger split, the whole chunked FoldEngine query and its Finish,
// and the whole served step (SumServer::HandleRequest over wire frames).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/microlib.h"
#include "bigint/modarith.h"
#include "bigint/mont_backend.h"
#include "bigint/montgomery.h"
#include "common/thread_pool.h"
#include "core/fold_engine.h"
#include "core/query.h"
#include "core/selected_sum.h"
#include "crypto/chacha20_rng.h"
#include "crypto/paillier.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ppstats {
namespace {

BigInt RandomOdd(ChaCha20Rng& rng, size_t bits) {
  // Top bit pinned so the modulus is exactly `bits` bits: the limb
  // count determines which Montgomery backends are eligible, and a
  // carry past 2^bits would silently bump it past the fixed widths.
  BigInt v = (BigInt(1) << (bits - 1)) + RandomBits(rng, bits - 1);
  if (v.IsEven()) v += 1;
  return v;
}

struct Fixture {
  MontgomeryContext ctx;
  std::vector<BigInt> bases;
  std::vector<BigInt> bases_mont;
  std::vector<BigInt> exps;

  Fixture(size_t k, size_t mod_bits, size_t exp_bits, uint64_t seed,
          MontBackendKind backend = MontBackendKind::kAuto)
      : ctx(
            [&] {
              ChaCha20Rng rng(seed);
              return RandomOdd(rng, mod_bits);
            }(),
            backend) {
    ChaCha20Rng rng(seed + 1);
    bases.reserve(k);
    bases_mont.reserve(k);
    exps.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      bases.push_back(RandomBelow(rng, ctx.modulus()));
      bases_mont.push_back(ctx.ToMontgomery(bases.back()));
      exps.push_back(RandomBits(rng, exp_bits));
    }
  }
};

// The pre-kernel server loop: one modular exponentiation per row, one
// modular multiplication to fold it into the accumulator.
void BM_FoldNaive(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)), 1024, 32, 11);
  for (auto _ : state) {
    BigInt acc(1);
    for (size_t i = 0; i < f.bases.size(); ++i) {
      acc = MulMod(acc, f.ctx.Exp(f.bases[i], f.exps[i]), f.ctx.modulus());
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FoldNaive)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_FoldStraus(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)), 1024, 32, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx.MultiExpMontgomery(
        f.bases_mont, f.exps, MultiExpSchedule::kStraus));
  }
}
BENCHMARK(BM_FoldStraus)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_FoldPippenger(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)), 1024, 32, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx.MultiExpMontgomery(
        f.bases_mont, f.exps, MultiExpSchedule::kPippenger));
  }
}
BENCHMARK(BM_FoldPippenger)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// The same kernel under the per-chunk instrumentation FoldEngine adds:
// one span (two clock reads + a histogram record) and two counter
// increments per fold. Compare against BM_FoldPippenger — the delta is
// the observability tax, budgeted at <1%.
void BM_FoldPippengerInstrumented(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)), 1024, 32, 11);
  obs::SetEnabled(true);
  obs::Counter* const chunks =
      obs::MetricRegistry::Global().GetCounter("bench.fold.chunks");
  obs::Counter* const rows =
      obs::MetricRegistry::Global().GetCounter("bench.fold.rows");
  for (auto _ : state) {
    obs::ObsSpan span(obs::kSpanFold);
    benchmark::DoNotOptimize(f.ctx.MultiExpMontgomery(
        f.bases_mont, f.exps, MultiExpSchedule::kPippenger));
    chunks->Increment();
    rows->Add(f.bases.size());
  }
}
BENCHMARK(BM_FoldPippengerInstrumented)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// And with obs::SetEnabled(false): spans go inert (no clock reads);
// counters still tick. This is the cost a deployment that disables
// instrumentation pays.
void BM_FoldPippengerObsDisabled(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)), 1024, 32, 11);
  obs::SetEnabled(false);
  obs::Counter* const chunks =
      obs::MetricRegistry::Global().GetCounter("bench.fold.chunks");
  obs::Counter* const rows =
      obs::MetricRegistry::Global().GetCounter("bench.fold.rows");
  for (auto _ : state) {
    obs::ObsSpan span(obs::kSpanFold);
    benchmark::DoNotOptimize(f.ctx.MultiExpMontgomery(
        f.bases_mont, f.exps, MultiExpSchedule::kPippenger));
    chunks->Increment();
    rows->Add(f.bases.size());
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_FoldPippengerObsDisabled)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// SumServer's threaded shape: slice the batch over the shared pool, one
// Pippenger call per slice, then multiply the partials together.
void BM_FoldPippengerThreaded(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Fixture f(k, 1024, 32, 11);
  const size_t threads = ThreadPool::Shared().thread_count();
  const size_t stride = (k + threads - 1) / threads;
  for (auto _ : state) {
    std::vector<BigInt> partials(threads);
    ThreadPool::Shared().Run(threads, [&](size_t t) {
      const size_t begin = std::min(t * stride, k);
      const size_t end = std::min(begin + stride, k);
      std::vector<BigInt> b(f.bases_mont.begin() + begin,
                            f.bases_mont.begin() + end);
      std::vector<BigInt> e(f.exps.begin() + begin, f.exps.begin() + end);
      partials[t] = f.ctx.MultiExpMontgomery(b, e, MultiExpSchedule::kPippenger);
    });
    BigInt acc = f.ctx.OneMontgomery();
    for (const BigInt& p : partials) acc = f.ctx.MulMontgomery(acc, p);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FoldPippengerThreaded)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Wider exponents: the two-level PIR combine regime, where the
// exponents are full level-1 ciphertexts rather than 32-bit values.
void BM_FoldAutoWideExponents(benchmark::State& state) {
  Fixture f(static_cast<size_t>(state.range(0)), 1024, 1024, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx.MultiExpMontgomery(f.bases_mont, f.exps));
  }
}
BENCHMARK(BM_FoldAutoWideExponents)->Arg(10)->Arg(32)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// 2048-bit operands (a 1024-bit Paillier key's mod-n^2 fold) — the
// ISSUE 6 acceptance row is BM_Fold2048Pippenger/1000 against the
// pre-backend baseline. The per-backend variants request a kernel
// explicitly; the label records what the dispatcher resolved, so on a
// host without ADX the row is visibly the fallback.

void RunFold2048(benchmark::State& state, MontBackendKind kind) {
  Fixture f(static_cast<size_t>(state.range(0)), 2048, 32, 17, kind);
  state.SetLabel(f.ctx.backend_name());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx.MultiExpMontgomery(
        f.bases_mont, f.exps, MultiExpSchedule::kPippenger));
  }
}

void BM_Fold2048Pippenger(benchmark::State& state) {
  RunFold2048(state, MontBackendKind::kAuto);
}
BENCHMARK(BM_Fold2048Pippenger)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Fold2048BackendGeneric(benchmark::State& state) {
  RunFold2048(state, MontBackendKind::kGeneric);
}
BENCHMARK(BM_Fold2048BackendGeneric)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Fold2048BackendAdx(benchmark::State& state) {
  RunFold2048(state, MontBackendKind::kAdx);
}
BENCHMARK(BM_Fold2048BackendAdx)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Fold2048BackendIfma(benchmark::State& state) {
  RunFold2048(state, MontBackendKind::kIfma);
}
BENCHMARK(BM_Fold2048BackendIfma)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// One served-shape query through FoldEngine: a 2048-row column under a
// 512-bit key, uploaded as four encoded 512-row IndexBatch frames, then
// Finish. Arg is the exponent width: 7 bits (sum over 7-bit values) or
// 36 bits (sum of squares over 18-bit values).

struct ServedQuery {
  static constexpr size_t kRows = 2048;
  static constexpr size_t kChunk = 512;

  explicit ServedQuery(size_t exp_bits) {
    static const PaillierKeyPair* kp = [] {
      ChaCha20Rng rng(19);
      return new PaillierKeyPair(
          Paillier::GenerateKeyPair(512, rng).ValueOrDie());
    }();
    pub = &kp->public_key;
    const bool square = exp_bits > 32;
    const uint64_t value_bound = uint64_t{1}
                                 << (square ? exp_bits / 2 : exp_bits);
    ChaCha20Rng rng(23);
    std::vector<uint32_t> values(kRows);
    for (size_t start = 0; start < kRows; start += kChunk) {
      IndexBatchMessage batch;
      batch.start_index = start;
      for (size_t i = start; i < start + kChunk; ++i) {
        values[i] = static_cast<uint32_t>(rng.NextBelow(value_bound));
        batch.ciphertexts.push_back(
            PaillierCiphertext{RandomBelow(rng, pub->n_squared())});
      }
      frames.push_back(batch.Encode(*pub));
    }
    db = std::make_unique<Database>("bench", values);
    QuerySpec spec;
    spec.kind = square ? StatisticKind::kSumOfSquares : StatisticKind::kSum;
    query = CompileQuery(spec, db.get()).ValueOrDie();
  }

  // Every frame parsed and folded in, not yet finished.
  std::unique_ptr<FoldEngine> Fold() const {
    auto engine = std::make_unique<FoldEngine>(
        *pub, std::make_unique<ColumnRowSource>(db.get()), query.transform,
        0, kRows);
    for (const Bytes& frame : frames) {
      benchmark::DoNotOptimize(engine->FoldChunk(frame));
    }
    return engine;
  }

  const PaillierPublicKey* pub = nullptr;
  std::vector<Bytes> frames;
  std::unique_ptr<Database> db;
  CompiledQuery query;
};

void BM_FoldEngine2048Chunked(benchmark::State& state) {
  const ServedQuery query(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Fold()->Finish(std::nullopt));
  }
}
BENCHMARK(BM_FoldEngine2048Chunked)->Arg(7)->Arg(36)
    ->Unit(benchmark::kMillisecond);

// The same query's Finish alone: the bucket reduction, the window
// ladder and the R-power correction. Finish reads the buckets without
// consuming them, so one fold outside the loop serves every iteration.
void BM_FoldEngine2048Finish(benchmark::State& state) {
  const ServedQuery query(static_cast<size_t>(state.range(0)));
  const std::unique_ptr<FoldEngine> engine = query.Fold();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Finish(std::nullopt));
  }
}
BENCHMARK(BM_FoldEngine2048Finish)->Arg(7)->Arg(36)
    ->Unit(benchmark::kMillisecond);

// The whole server step of one served query, as a session runs it: the
// four frames through SumServer::HandleRequest (frame validation, row
// decode, fold) and the response (Finish, encode). Public API only, so
// the same source times any revision of the server.
void BM_ServedStep2048(benchmark::State& state) {
  const ServedQuery query(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    SumServer server(*query.pub, query.query, 1);
    for (const Bytes& frame : query.frames) {
      benchmark::DoNotOptimize(server.HandleRequest(frame));
    }
    if (!server.Finished()) state.SkipWithError("query not answered");
  }
}
BENCHMARK(BM_ServedStep2048)->Arg(7)->Arg(36)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ppstats

PPSTATS_MICRO_BENCH_MAIN("micro_multiexp")
