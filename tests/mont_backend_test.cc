// Differential tests for the pluggable Montgomery backends
// (bigint/mont_backend.h): every available kernel must produce
// bit-identical canonical residues — against each other, against the
// plain MulMod/ModExpPlain reference arithmetic, and on the carry-edge
// operands (m-1, values forcing the final conditional subtraction)
// where CIOS implementations historically break.

#include "bigint/mont_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bigint/modarith.h"
#include "bigint/montgomery.h"
#include "crypto/chacha20_rng.h"
#include "obs/metrics.h"

namespace ppstats {
namespace {

// Exactly `bits` bits (top bit pinned), odd, so the limb count is
// bits/64 and width-dispatched backends engage.
BigInt ExactBitsOdd(ChaCha20Rng& rng, size_t bits) {
  BigInt v = (BigInt(1) << (bits - 1)) + RandomBits(rng, bits - 1);
  if (v.IsEven()) v += 1;
  return v;
}

size_t LimbsForBits(size_t bits) { return (bits + 63) / 64; }

// Every backend kind this host can serve at the given width; always
// starts with generic (the reference).
std::vector<MontBackendKind> AvailableKinds(size_t n_limbs) {
  std::vector<MontBackendKind> kinds{MontBackendKind::kGeneric};
  for (MontBackendKind kind : {MontBackendKind::kAdx, MontBackendKind::kIfma}) {
    if (MontBackendSupports(kind, n_limbs)) kinds.push_back(kind);
  }
  return kinds;
}

// Scoped PPSTATS_FORCE_BACKEND override (nullptr unsets, so tests of
// the auto path stay valid when the suite itself runs under a forced
// backend, as CI does) restoring the previous value even when an
// assertion fails mid-test.
class ScopedForceBackend {
 public:
  explicit ScopedForceBackend(const char* value) {
    const char* old = std::getenv("PPSTATS_FORCE_BACKEND");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv("PPSTATS_FORCE_BACKEND", value, 1);
    } else {
      unsetenv("PPSTATS_FORCE_BACKEND");
    }
  }
  ~ScopedForceBackend() {
    if (had_old_) {
      setenv("PPSTATS_FORCE_BACKEND", old_.c_str(), 1);
    } else {
      unsetenv("PPSTATS_FORCE_BACKEND");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(MontBackendTest, KindNamesAreStable) {
  EXPECT_STREQ(MontBackendKindName(MontBackendKind::kAuto), "auto");
  EXPECT_STREQ(MontBackendKindName(MontBackendKind::kGeneric), "generic");
  EXPECT_STREQ(MontBackendKindName(MontBackendKind::kAdx), "adx");
  EXPECT_STREQ(MontBackendKindName(MontBackendKind::kIfma), "ifma");
}

TEST(MontBackendTest, DispatcherPicksBestSupportedKind) {
  ScopedForceBackend no_force(nullptr);
  ChaCha20Rng rng(101);
  for (size_t bits : {2048u, 4096u}) {
    const size_t n = LimbsForBits(bits);
    MontgomeryContext ctx(ExactBitsOdd(rng, bits));
    // The resolved kind must be supported, and must be the first
    // supported entry of the dispatch order ifma > adx > generic.
    EXPECT_TRUE(MontBackendSupports(ctx.backend_kind(), n));
    if (MontBackendSupports(MontBackendKind::kIfma, n)) {
      EXPECT_EQ(ctx.backend_kind(), MontBackendKind::kIfma);
    } else if (MontBackendSupports(MontBackendKind::kAdx, n)) {
      EXPECT_EQ(ctx.backend_kind(), MontBackendKind::kAdx);
    } else {
      EXPECT_EQ(ctx.backend_kind(), MontBackendKind::kGeneric);
    }
  }
}

TEST(MontBackendTest, EnvOverrideForcesBackend) {
  ChaCha20Rng rng(102);
  const BigInt m = ExactBitsOdd(rng, 2048);
  {
    ScopedForceBackend force("generic");
    MontgomeryContext ctx(m);
    EXPECT_EQ(ctx.backend_kind(), MontBackendKind::kGeneric);
    EXPECT_STREQ(ctx.backend_name(), "generic");
  }
  for (MontBackendKind kind : {MontBackendKind::kAdx, MontBackendKind::kIfma}) {
    // On hosts without the feature the request falls back down the
    // dispatch order instead of failing.
    ScopedForceBackend force(MontBackendKindName(kind));
    MontgomeryContext ctx(m);
    EXPECT_EQ(ctx.backend_kind(),
              SelectMontBackend(LimbsForBits(2048), kind).kind);
  }
  {
    // Unknown values mean "don't force": auto dispatch.
    ScopedForceBackend force("bogus");
    MontgomeryContext forced(m);
    MontgomeryContext plain(m);
    EXPECT_EQ(forced.backend_kind(), plain.backend_kind());
  }
}

TEST(MontBackendTest, ForcedKindFallsBackWhenUnsupported) {
  ChaCha20Rng rng(103);
  // 320 bits = 5 limbs: not a multiple of 4, not an ifma width, so both
  // fast kinds must degrade to generic rather than fail.
  const BigInt m = ExactBitsOdd(rng, 320);
  EXPECT_EQ(MontgomeryContext(m, MontBackendKind::kIfma).backend_kind(),
            MontBackendKind::kGeneric);
  EXPECT_EQ(MontgomeryContext(m, MontBackendKind::kAdx).backend_kind(),
            MontBackendKind::kGeneric);
  // 768 bits = 12 limbs: adx serves it, ifma does not, so an ifma
  // request lands one step down.
  if (MontBackendSupports(MontBackendKind::kAdx, 12)) {
    EXPECT_EQ(MontgomeryContext(ExactBitsOdd(rng, 768), MontBackendKind::kIfma)
                  .backend_kind(),
              MontBackendKind::kAdx);
  }
}

TEST(MontBackendTest, MulMatchesReferenceAcrossBackends) {
  ChaCha20Rng rng(104);
  for (size_t bits : {2048u, 4096u}) {
    const BigInt m = ExactBitsOdd(rng, bits);
    std::vector<MontgomeryContext> ctxs;
    for (MontBackendKind kind : AvailableKinds(LimbsForBits(bits))) {
      ctxs.emplace_back(m, kind);
      ASSERT_EQ(ctxs.back().backend_kind(), kind);
    }
    for (int iter = 0; iter < 12; ++iter) {
      const BigInt a = RandomBelow(rng, m);
      const BigInt b = RandomBelow(rng, m);
      const BigInt expected = MulMod(a, b, m);
      for (const MontgomeryContext& ctx : ctxs) {
        const BigInt am = ctx.ToMontgomery(a);
        const BigInt bm = ctx.ToMontgomery(b);
        EXPECT_EQ(ctx.FromMontgomery(ctx.MulMontgomery(am, bm)), expected)
            << bits << " bits, backend " << ctx.backend_name();
      }
    }
  }
}

TEST(MontBackendTest, CarryEdgeOperands) {
  ChaCha20Rng rng(105);
  for (size_t bits : {2048u, 4096u}) {
    // A modulus just below 2^bits makes m-1 all-ones in nearly every
    // limb — the worst case for the kernels' carry chains — and
    // products of near-m operands exercise the final conditional
    // subtraction.
    const BigInt near_top = (BigInt(1) << bits) - BigInt(159);
    for (const BigInt& m : {near_top, ExactBitsOdd(rng, bits)}) {
      ASSERT_TRUE(m.IsOdd());
      std::vector<BigInt> edges = {BigInt(0), BigInt(1), BigInt(2),
                                   m - BigInt(1), m - BigInt(2), m >> 1,
                                   RandomBelow(rng, m)};
      for (MontBackendKind kind : AvailableKinds(LimbsForBits(bits))) {
        MontgomeryContext ctx(m, kind);
        for (const BigInt& a : edges) {
          for (const BigInt& b : edges) {
            const BigInt am = ctx.ToMontgomery(a);
            const BigInt bm = ctx.ToMontgomery(b);
            EXPECT_EQ(ctx.FromMontgomery(ctx.MulMontgomery(am, bm)),
                      MulMod(a, b, m))
                << bits << " bits, backend " << ctx.backend_name();
          }
          EXPECT_EQ(ctx.FromMontgomery(ctx.Sqr(ctx.ToMontgomery(a))),
                    MulMod(a, a, m))
              << bits << " bits, backend " << ctx.backend_name();
        }
      }
    }
  }
}

TEST(MontBackendTest, SqrMatchesMulAcrossBackends) {
  ChaCha20Rng rng(106);
  for (size_t bits : {2048u, 4096u}) {
    const BigInt m = ExactBitsOdd(rng, bits);
    for (MontBackendKind kind : AvailableKinds(LimbsForBits(bits))) {
      MontgomeryContext ctx(m, kind);
      for (int iter = 0; iter < 8; ++iter) {
        const BigInt a = RandomBelow(rng, m);
        const BigInt am = ctx.ToMontgomery(a);
        EXPECT_EQ(ctx.Sqr(am), ctx.MulMontgomery(am, am))
            << bits << " bits, backend " << ctx.backend_name();
        EXPECT_EQ(ctx.FromMontgomery(ctx.Sqr(am)), MulMod(a, a, m))
            << bits << " bits, backend " << ctx.backend_name();
      }
    }
  }
}

TEST(MontBackendTest, ExpMatchesPlainExponentiationPerBackend) {
  ChaCha20Rng rng(107);
  for (size_t bits : {2048u, 4096u}) {
    const BigInt m = ExactBitsOdd(rng, bits);
    const BigInt base = RandomBelow(rng, m);
    // One short exponent (ScalarMultiply's square-and-multiply regime)
    // and one past the window threshold, per backend.
    for (size_t exp_bits : {32u, 64u}) {
      const BigInt exp = RandomBits(rng, exp_bits) + BigInt(3);
      const BigInt expected = ModExpPlain(base, exp, m);
      for (MontBackendKind kind : AvailableKinds(LimbsForBits(bits))) {
        MontgomeryContext ctx(m, kind);
        EXPECT_EQ(ctx.Exp(base, exp), expected)
            << bits << " bits, backend " << ctx.backend_name();
      }
    }
  }
}

TEST(MontBackendTest, SeededFuzzSweepPerBackend) {
  // The Paillier / Damgård–Jurik widths (4..64 limbs), a few seeded
  // random operand pairs each, all backends against MulMod.
  ChaCha20Rng rng(108);
  for (size_t bits : {256u, 512u, 1024u, 1536u, 2048u, 3072u, 4096u}) {
    const BigInt m = ExactBitsOdd(rng, bits);
    for (MontBackendKind kind : AvailableKinds(LimbsForBits(bits))) {
      MontgomeryContext ctx(m, kind);
      ASSERT_EQ(ctx.backend_kind(), kind);
      for (int iter = 0; iter < 4; ++iter) {
        const BigInt a = RandomBelow(rng, m);
        const BigInt b = RandomBelow(rng, m);
        const BigInt am = ctx.ToMontgomery(a);
        const BigInt bm = ctx.ToMontgomery(b);
        EXPECT_EQ(ctx.FromMontgomery(ctx.MulMontgomery(am, bm)),
                  MulMod(a, b, m))
            << bits << " bits, backend " << ctx.backend_name();
      }
    }
  }
}

TEST(MontBackendTest, ToMontgomeryBatchMatchesSingles) {
  ChaCha20Rng rng(109);
  const BigInt m = ExactBitsOdd(rng, 2048);
  for (MontBackendKind kind : AvailableKinds(LimbsForBits(2048))) {
    MontgomeryContext ctx(m, kind);
    for (size_t count : {0u, 1u, 2u, 3u, 7u}) {
      std::vector<BigInt> xs;
      for (size_t i = 0; i < count; ++i) xs.push_back(RandomBelow(rng, m));
      const std::vector<BigInt> batch = ctx.ToMontgomeryBatch(xs);
      ASSERT_EQ(batch.size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(batch[i], ctx.ToMontgomery(xs[i]))
            << "count " << count << ", backend " << ctx.backend_name();
      }
    }
  }
}

std::vector<uint64_t> PaddedLimbs(const BigInt& x, size_t n) {
  std::vector<uint64_t> limbs = x.limbs();
  limbs.resize(n, 0);
  return limbs;
}

// True when the Montgomery product a * b * R^-1 of canonical a, b comes
// out of the reduction as a value in [m, 2m), i.e. needs the kernels'
// final conditional subtraction: t = (a b + q m) / R with
// q = -a b m^-1 mod R.
bool NeedsFinalSubtraction(const BigInt& a, const BigInt& b, const BigInt& m,
                           const BigInt& r, const BigInt& neg_m_inv) {
  const BigInt ab = a * b;
  const BigInt q = Mod(ab * neg_m_inv, r);
  return (ab + q * m) / r >= m;
}

TEST(MontBackendTest, MulBatchMatchesGenericMulAtEveryCount) {
  // The backends' mul_batch entry point itself, at counts on both sides
  // of the ifma kernel's 8-product steps, with outputs both separate and
  // in place (out == a, the Pippenger bucket shape), against generic
  // single mul.
  ChaCha20Rng rng(112);
  for (size_t bits : {512u, 1024u, 2048u, 4096u}) {
    const size_t n = LimbsForBits(bits);
    const BigInt r = BigInt(1) << (64 * n);
    for (const BigInt& m :
         {(BigInt(1) << bits) - BigInt(159), ExactBitsOdd(rng, bits)}) {
      const std::vector<uint64_t> mod = PaddedLimbs(m, n);
      const BigInt neg_m_inv = r - ModInverse(m, r).ValueOrDie();
      const MontModulusView view{mod.data(), n,
                                 PaddedLimbs(neg_m_inv, n)[0]};
      // Every pair of carry-edge operands, then random pairs.
      const std::vector<BigInt> edges = {BigInt(0),     BigInt(1),
                                         m - BigInt(1), m - BigInt(2),
                                         Mod(r, m),     m >> 1};
      std::vector<std::pair<BigInt, BigInt>> pairs;
      size_t forced = 0;
      for (const BigInt& a : edges) {
        for (const BigInt& b : edges) {
          pairs.emplace_back(a, b);
          if (NeedsFinalSubtraction(a, b, m, r, neg_m_inv)) ++forced;
        }
      }
      ASSERT_GT(forced, 0u) << bits << " bits: no final subtraction hit";
      while (pairs.size() < 64) {
        pairs.emplace_back(RandomBelow(rng, m), RandomBelow(rng, m));
      }
      const MontBackendOps& generic =
          SelectMontBackend(n, MontBackendKind::kGeneric);
      std::vector<std::vector<uint64_t>> expected(pairs.size());
      for (size_t p = 0; p < pairs.size(); ++p) {
        expected[p].resize(n);
        generic.mul(view, PaddedLimbs(pairs[p].first, n).data(),
                    PaddedLimbs(pairs[p].second, n).data(),
                    expected[p].data());
      }

      for (MontBackendKind kind : AvailableKinds(n)) {
        const MontBackendOps& ops = SelectMontBackend(n, kind);
        ASSERT_EQ(ops.kind, kind);
        for (size_t count : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
          for (bool in_place : {false, true}) {
            // Consecutive windows of `count` pairs until every pair has
            // run (one empty call for count 0).
            for (size_t start = 0; start < std::max<size_t>(pairs.size(), 1);
                 start += std::max<size_t>(count, 1)) {
              std::vector<std::vector<uint64_t>> a(count);
              std::vector<std::vector<uint64_t>> b(count);
              std::vector<std::vector<uint64_t>> out(count);
              std::vector<const uint64_t*> a_ptrs(count);
              std::vector<const uint64_t*> b_ptrs(count);
              std::vector<uint64_t*> out_ptrs(count);
              for (size_t i = 0; i < count; ++i) {
                const auto& [x, y] = pairs[(start + i) % pairs.size()];
                a[i] = PaddedLimbs(x, n);
                b[i] = PaddedLimbs(y, n);
                out[i].assign(n, 0xA5A5A5A5A5A5A5A5u);
                b_ptrs[i] = b[i].data();
                out_ptrs[i] = in_place ? a[i].data() : out[i].data();
                a_ptrs[i] = a[i].data();
              }
              ops.mul_batch(view, count, a_ptrs.data(), b_ptrs.data(),
                            out_ptrs.data());
              for (size_t i = 0; i < count; ++i) {
                EXPECT_EQ(in_place ? a[i] : out[i],
                          expected[(start + i) % pairs.size()])
                    << bits << " bits, backend " << ops.name << ", count "
                    << count << ", product " << i
                    << (in_place ? ", in place" : ", separate");
              }
              if (count == 0) break;
            }
          }
        }
      }
    }
  }
  if (!MontBackendSupports(MontBackendKind::kIfma, LimbsForBits(1024))) {
    GTEST_SKIP() << "no AVX-512 IFMA on this host: the 8-lane ifma kernel "
                    "was not exercised (generic and adx were)";
  }
}

TEST(MontBackendTest, MulBatchTailsTouchOnlyTheirOwnOutputs) {
  // Counts whose last 8-product step is short (2-6 and 10-14). The ifma
  // kernel runs such a tail as one more 8-lane step, its spare lanes
  // repeating a real product into scratch: guard words around every
  // caller buffer must survive, inputs must stay as they were unless
  // written in place, and mont.mul_ops must count the real products
  // only.
  constexpr uint64_t kGuard = 0x5EA1ED5EA1ED5EA1u;
  ChaCha20Rng rng(118);
  for (size_t bits : {1024u, 2048u}) {
    const size_t n = LimbsForBits(bits);
    const BigInt m = ExactBitsOdd(rng, bits);
    const BigInt r = BigInt(1) << (64 * n);
    const std::vector<uint64_t> mod = PaddedLimbs(m, n);
    const MontModulusView view{
        mod.data(), n,
        PaddedLimbs(r - ModInverse(m, r).ValueOrDie(), n)[0]};
    const MontBackendOps& generic =
        SelectMontBackend(n, MontBackendKind::kGeneric);
    std::vector<size_t> counts;
    for (size_t c = 2; c <= 6; ++c) counts.push_back(c);
    for (size_t c = 10; c <= 14; ++c) counts.push_back(c);
    for (MontBackendKind kind : AvailableKinds(n)) {
      const MontBackendOps& ops = SelectMontBackend(n, kind);
      for (size_t count : counts) {
        for (bool in_place : {false, true}) {
          // Each operand and output sits in its own block, between n
          // guard limbs on either side.
          auto block = [&](const BigInt& value) {
            std::vector<uint64_t> out(3 * n, kGuard);
            const std::vector<uint64_t> limbs = PaddedLimbs(value, n);
            std::copy(limbs.begin(), limbs.end(), out.begin() + n);
            return out;
          };
          std::vector<std::vector<uint64_t>> a(count);
          std::vector<std::vector<uint64_t>> b(count);
          std::vector<std::vector<uint64_t>> out(count);
          std::vector<std::vector<uint64_t>> expected(count);
          std::vector<const uint64_t*> a_ptrs(count);
          std::vector<const uint64_t*> b_ptrs(count);
          std::vector<uint64_t*> out_ptrs(count);
          for (size_t i = 0; i < count; ++i) {
            a[i] = block(RandomBelow(rng, m));
            b[i] = block(RandomBelow(rng, m));
            out[i] = std::vector<uint64_t>(3 * n, kGuard);
            expected[i].resize(n);
            generic.mul(view, a[i].data() + n, b[i].data() + n,
                        expected[i].data());
            a_ptrs[i] = a[i].data() + n;
            b_ptrs[i] = b[i].data() + n;
            out_ptrs[i] = in_place ? a[i].data() + n : out[i].data() + n;
          }
          const std::vector<std::vector<uint64_t>> a_before = a;
          const std::vector<std::vector<uint64_t>> b_before = b;
          ops.mul_batch(view, count, a_ptrs.data(), b_ptrs.data(),
                        out_ptrs.data());
          for (size_t i = 0; i < count; ++i) {
            const std::string where = std::to_string(bits) + " bits, " +
                                      ops.name + ", count " +
                                      std::to_string(count) + ", product " +
                                      std::to_string(i) +
                                      (in_place ? ", in place" : ", separate");
            std::vector<uint64_t>& written = in_place ? a[i] : out[i];
            EXPECT_EQ(std::vector<uint64_t>(written.begin() + n,
                                            written.begin() + 2 * n),
                      expected[i])
                << where;
            for (size_t k = 0; k < n; ++k) {
              EXPECT_EQ(written[k], kGuard) << where << ", guard below";
              EXPECT_EQ(written[2 * n + k], kGuard) << where << ", guard above";
            }
            EXPECT_EQ(b[i], b_before[i]) << where;
            if (!in_place) {
              EXPECT_EQ(a[i], a_before[i]) << where;
            }
          }
        }
        // Through a context: ToMontgomeryBatch is `count` products in
        // one mul_batch call, and the counter sees exactly those.
        MontgomeryContext ctx(m, kind);
        obs::Counter* mul_ops = obs::MetricRegistry::Global().GetCounter(
            std::string("mont.mul_ops.") + ctx.backend_name());
        std::vector<BigInt> xs;
        for (size_t i = 0; i < count; ++i) xs.push_back(RandomBelow(rng, m));
        const uint64_t before = mul_ops->Value();
        const std::vector<BigInt> converted = ctx.ToMontgomeryBatch(xs);
        EXPECT_EQ(mul_ops->Value() - before, count)
            << bits << " bits, " << ctx.backend_name() << ", count " << count;
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(converted[i], MulMod(xs[i], Mod(r, m), m));
        }
      }
    }
  }
  if (!MontBackendSupports(MontBackendKind::kIfma, LimbsForBits(1024))) {
    GTEST_SKIP() << "no AVX-512 IFMA on this host: the padded ifma tail "
                    "was not exercised (generic and adx were)";
  }
}

TEST(MontBackendTest, IfmaMatchesAdxOnRandomBatches) {
  // Many random 8-lane steps per width, ifma against adx.
  if (!MontBackendSupports(MontBackendKind::kIfma, LimbsForBits(1024))) {
    GTEST_SKIP() << "no AVX-512 IFMA on this host";
  }
  ChaCha20Rng rng(113);
  for (size_t bits : {1024u, 2048u, 4096u}) {
    const size_t n = LimbsForBits(bits);
    const BigInt m = ExactBitsOdd(rng, bits);
    MontgomeryContext ifma(m, MontBackendKind::kIfma);
    MontgomeryContext adx(m, MontBackendKind::kAdx);
    ASSERT_EQ(ifma.backend_kind(), MontBackendKind::kIfma);
    ASSERT_EQ(adx.backend_kind(), MontBackendKind::kAdx);
    const size_t products = bits == 4096 ? 512 : 2048;
    std::vector<BigInt> xs;
    for (size_t i = 0; i < products; ++i) xs.push_back(RandomBelow(rng, m));
    // ToMontgomeryBatch is out[i] = x[i] * R^2 through mul_batch.
    EXPECT_EQ(ifma.ToMontgomeryBatch(xs), adx.ToMontgomeryBatch(xs))
        << bits << " bits (" << n << " limbs)";
  }
}

TEST(MontBackendTest, MultiExpAgreesAcrossBackendsAndSchedules) {
  ChaCha20Rng rng(110);
  const BigInt m = ExactBitsOdd(rng, 2048);
  constexpr size_t kRows = 30;
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
  for (size_t i = 0; i < kRows; ++i) {
    bases.push_back(RandomBelow(rng, m));
    // Include zero exponents so the skip path stays covered.
    exps.push_back(i % 7 == 0 ? BigInt(0) : RandomBits(rng, 32));
  }
  // Naive reference fold.
  BigInt expected(1);
  MontgomeryContext ref(m, MontBackendKind::kGeneric);
  for (size_t i = 0; i < kRows; ++i) {
    expected = MulMod(expected, ref.Exp(bases[i], exps[i]), m);
  }
  for (MontBackendKind kind : AvailableKinds(LimbsForBits(2048))) {
    MontgomeryContext ctx(m, kind);
    for (MultiExpSchedule schedule :
         {MultiExpSchedule::kAuto, MultiExpSchedule::kStraus,
          MultiExpSchedule::kPippenger}) {
      EXPECT_EQ(ctx.MultiExp(bases, exps, schedule), expected)
          << "backend " << ctx.backend_name();
    }
  }
}

// ExpBatch against one Exp call per base, on every backend, at a
// Paillier-shaped modulus m = n^2 (n odd, half the width). Bases cover
// 0, 1, m - 1 and values >= m (reduced internally); exponents cover 0,
// 1, the square-and-multiply regime, n (the r^n of encryption), and
// 1024- and 4096-bit values. Returns whether ifma was among the kinds.
bool CheckExpBatchAgainstExp(ChaCha20Rng& rng, size_t bits,
                             const std::vector<size_t>& counts) {
  const BigInt n = ExactBitsOdd(rng, bits / 2);
  const BigInt m = n * n;
  const size_t max_count = *std::max_element(counts.begin(), counts.end());
  std::vector<BigInt> pool = {BigInt(0), BigInt(1), m - BigInt(1),
                              m + BigInt(12345), m, BigInt(3) * m + n};
  while (pool.size() < max_count) pool.push_back(RandomBelow(rng, m));
  const std::vector<BigInt> exps = {
      BigInt(0), BigInt(1), RandomBits(rng, 40) + BigInt(3), n,
      ExactBitsOdd(rng, 1024), ExactBitsOdd(rng, 4096)};
  bool saw_ifma = false;
  for (MontBackendKind kind : AvailableKinds(LimbsForBits(bits))) {
    MontgomeryContext ctx(m, kind);
    saw_ifma |= ctx.backend_kind() == MontBackendKind::kIfma;
    for (const BigInt& exp : exps) {
      for (size_t count : counts) {
        const std::span<const BigInt> bases(pool.data(), count);
        const std::vector<BigInt> got = ctx.ExpBatch(bases, exp);
        EXPECT_EQ(got.size(), count);
        for (size_t i = 0; i < std::min(got.size(), count); ++i) {
          EXPECT_EQ(got[i], ctx.Exp(bases[i], exp))
              << bits << " bits, backend " << ctx.backend_name() << ", "
              << exp.BitLength() << "-bit exponent, count " << count
              << ", base " << i;
        }
      }
    }
  }
  return saw_ifma;
}

TEST(MontBackendTest, ExpBatchMatchesExpAtNarrowModuli) {
  ChaCha20Rng rng(114);
  const std::vector<size_t> counts = {0, 1, 2, 7, 8, 9, 17, 64};
  CheckExpBatchAgainstExp(rng, 512, counts);
  if (!CheckExpBatchAgainstExp(rng, 1024, counts)) {
    GTEST_SKIP() << "no AVX-512 IFMA on this host: ExpBatch ran on "
                    "generic and adx only";
  }
}

TEST(MontBackendTest, ExpBatchMatchesExpAtWideModuli) {
  // One Exp with a 4096-bit exponent at a 4096-bit modulus costs tens
  // of milliseconds on generic, so the wide widths take fewer counts:
  // a lone base, a full 8-lane group plus a tail.
  ChaCha20Rng rng(115);
  const std::vector<size_t> counts = {0, 1, 9};
  const bool ifma_2048 = CheckExpBatchAgainstExp(rng, 2048, counts);
  const bool ifma_4096 = CheckExpBatchAgainstExp(rng, 4096, counts);
  if (!ifma_2048 || !ifma_4096) {
    GTEST_SKIP() << "no AVX-512 IFMA on this host: ExpBatch ran on "
                    "generic and adx only";
  }
}

TEST(MontBackendTest, ExpBatchMatchesPlainExponentiation) {
  // An independent reference: the window walk is shared by Exp (one
  // base) and ExpBatch, so check both against BigInt square-and-multiply.
  ChaCha20Rng rng(116);
  const BigInt n = ExactBitsOdd(rng, 512);
  const BigInt m = n * n;
  std::vector<BigInt> bases;
  for (int i = 0; i < 9; ++i) bases.push_back(RandomBelow(rng, m));
  for (MontBackendKind kind : AvailableKinds(LimbsForBits(1024))) {
    MontgomeryContext ctx(m, kind);
    const std::vector<BigInt> got = ctx.ExpBatch(bases, n);
    ASSERT_EQ(got.size(), bases.size());
    for (size_t i = 0; i < bases.size(); ++i) {
      EXPECT_EQ(got[i], ModExpPlain(bases[i], n, m))
          << "backend " << ctx.backend_name() << ", base " << i;
    }
  }
}

TEST(MontBackendTest, ExpSquaresThroughSqrAndExpBatchThroughMulBatch) {
  // One base keeps the backend's squaring kernel; a batch runs its
  // squarings as acc * acc products, so they tick mont.mul_ops.
  ChaCha20Rng rng(117);
  const BigInt m = ExactBitsOdd(rng, 1024);
  MontgomeryContext ctx(m);
  const std::string backend = ctx.backend_name();
  obs::Counter* mul_ops =
      obs::MetricRegistry::Global().GetCounter("mont.mul_ops." + backend);
  obs::Counter* sqr_ops =
      obs::MetricRegistry::Global().GetCounter("mont.sqr_ops." + backend);
  const BigInt exp = ExactBitsOdd(rng, 512);
  std::vector<BigInt> bases;
  for (int i = 0; i < 8; ++i) bases.push_back(RandomBelow(rng, m));

  uint64_t sqrs = sqr_ops->Value();
  (void)ctx.Exp(bases[0], exp);
  EXPECT_EQ(sqr_ops->Value() - sqrs, 4 * (512 / 4 - 1));

  sqrs = sqr_ops->Value();
  const uint64_t muls = mul_ops->Value();
  (void)ctx.ExpBatch(bases, exp);
  EXPECT_EQ(sqr_ops->Value(), sqrs);
  // Per base: conversion, 14 table entries, 4 squarings per window after
  // the first, at most one multiply per window, conversion out.
  EXPECT_GE(mul_ops->Value() - muls, 8 * (1 + 14 + 4 * (512 / 4 - 1) + 1));
}

TEST(MontBackendTest, OpCountersTick) {
  ChaCha20Rng rng(111);
  const BigInt m = ExactBitsOdd(rng, 2048);
  MontgomeryContext ctx(m, MontBackendKind::kGeneric);
  obs::Counter* mul_ops =
      obs::MetricRegistry::Global().GetCounter("mont.mul_ops.generic");
  obs::Counter* sqr_ops =
      obs::MetricRegistry::Global().GetCounter("mont.sqr_ops.generic");
  const uint64_t muls_before = mul_ops->Value();
  const uint64_t sqrs_before = sqr_ops->Value();
  const BigInt am = ctx.ToMontgomery(RandomBelow(rng, m));
  (void)ctx.MulMontgomery(am, am);
  (void)ctx.Sqr(am);
  (void)ctx.ToMontgomeryBatch(std::vector<BigInt>{am, am, am});
  // ToMontgomery + MulMontgomery + 3 batched conversions >= 5 muls.
  EXPECT_GE(mul_ops->Value(), muls_before + 5);
  EXPECT_GE(sqr_ops->Value(), sqrs_before + 1);
}

}  // namespace
}  // namespace ppstats
