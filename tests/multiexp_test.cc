#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bigint/modarith.h"
#include "bigint/mont_backend.h"
#include "bigint/montgomery.h"
#include "crypto/chacha20_rng.h"
#include "crypto/damgard_jurik.h"
#include "crypto/paillier.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(808);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

const DjPrivateKey& SharedDjKey() {
  static const DjPrivateKey* key = [] {
    return new DjPrivateKey(
        DjPrivateKey::FromPaillier(SharedKeyPair().private_key, 2)
            .ValueOrDie());
  }();
  return *key;
}

// prod_i bases[i]^exps[i] mod m the slow, obviously-correct way.
BigInt NaiveFold(const std::vector<BigInt>& bases,
                 const std::vector<BigInt>& exps, const BigInt& m) {
  BigInt acc(1);
  for (size_t i = 0; i < bases.size(); ++i) {
    acc = MulMod(acc, ModExpPlain(bases[i], exps[i], m), m);
  }
  return acc;
}

// (batch size, exponent bits) sweep over both ciphertext moduli and both
// kernel schedules.
class MultiExpDifferentialTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(MultiExpDifferentialTest, MatchesNaiveFold) {
  auto [k, exp_bits] = GetParam();
  const BigInt& paillier_mod = SharedKeyPair().public_key.n_squared();
  const BigInt& dj_mod = SharedDjKey().public_key().n_s1();
  for (const BigInt* mod : {&paillier_mod, &dj_mod}) {
    ChaCha20Rng rng(500 + k * 13 + exp_bits * 7 + mod->BitLength());
    MontgomeryContext ctx(*mod);
    std::vector<BigInt> bases;
    std::vector<BigInt> exps;
    bases.reserve(k);
    exps.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      bases.push_back(RandomBelow(rng, *mod));
      exps.push_back(RandomBits(rng, exp_bits));
    }
    const BigInt expected = NaiveFold(bases, exps, *mod);
    EXPECT_EQ(ctx.MultiExp(bases, exps), expected)
        << "auto, k=" << k << " bits=" << exp_bits;
    EXPECT_EQ(ctx.MultiExp(bases, exps, MultiExpSchedule::kStraus), expected)
        << "straus, k=" << k << " bits=" << exp_bits;
    EXPECT_EQ(ctx.MultiExp(bases, exps, MultiExpSchedule::kPippenger),
              expected)
        << "pippenger, k=" << k << " bits=" << exp_bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiExpDifferentialTest,
    ::testing::Values(std::make_pair(1, 32), std::make_pair(2, 1),
                      std::make_pair(2, 64), std::make_pair(17, 16),
                      std::make_pair(17, 128), std::make_pair(100, 32),
                      std::make_pair(100, 1), std::make_pair(1000, 32)));

TEST(MultiExpTest, EmptyBatchIsOne) {
  MontgomeryContext ctx(SharedKeyPair().public_key.n_squared());
  EXPECT_EQ(ctx.MultiExp({}, {}), BigInt(1));
}

TEST(MultiExpTest, ZeroExponentsAreSkipped) {
  const BigInt& m = SharedKeyPair().public_key.n_squared();
  ChaCha20Rng rng(42);
  MontgomeryContext ctx(m);
  std::vector<BigInt> bases = {RandomBelow(rng, m), RandomBelow(rng, m),
                               RandomBelow(rng, m)};
  std::vector<BigInt> exps = {BigInt(0), BigInt(7), BigInt(0)};
  EXPECT_EQ(ctx.MultiExp(bases, exps), ModExpPlain(bases[1], exps[1], m));
  // All-zero exponents: the fold is empty, so the identity.
  std::vector<BigInt> zeros(3, BigInt(0));
  EXPECT_EQ(ctx.MultiExp(bases, zeros), BigInt(1));
}

TEST(MultiExpTest, ReducesBasesAboveModulus) {
  const BigInt m(101);
  MontgomeryContext ctx(m);
  std::vector<BigInt> bases = {BigInt(205)};  // == 3 mod 101
  std::vector<BigInt> exps = {BigInt(5)};
  EXPECT_EQ(ctx.MultiExp(bases, exps),
            ModExpPlain(BigInt(3), BigInt(5), m));
}

TEST(MultiExpTest, MontgomeryFormVariantMatches) {
  const BigInt& m = SharedKeyPair().public_key.n_squared();
  ChaCha20Rng rng(43);
  MontgomeryContext ctx(m);
  std::vector<BigInt> bases;
  std::vector<BigInt> bases_mont;
  std::vector<BigInt> exps;
  for (size_t i = 0; i < 10; ++i) {
    bases.push_back(RandomBelow(rng, m));
    bases_mont.push_back(ctx.ToMontgomery(bases.back()));
    exps.push_back(RandomBits(rng, 64));
  }
  EXPECT_EQ(ctx.FromMontgomery(ctx.MultiExpMontgomery(bases_mont, exps)),
            NaiveFold(bases, exps, m));
}

TEST(MultiExpTest, PaillierWeightedFoldMatchesScalarMultiplyLadder) {
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  ChaCha20Rng rng(44);
  std::vector<PaillierCiphertext> cts;
  std::vector<BigInt> weights;
  for (size_t i = 0; i < 23; ++i) {
    cts.push_back(
        Paillier::Encrypt(pub, BigInt(i * 31 + 1), rng).ValueOrDie());
    weights.push_back(RandomBits(rng, 32));
  }
  PaillierCiphertext ladder =
      Paillier::ScalarMultiply(pub, cts[0], weights[0]);
  for (size_t i = 1; i < cts.size(); ++i) {
    ladder = Paillier::Add(pub, ladder,
                           Paillier::ScalarMultiply(pub, cts[i], weights[i]));
  }
  PaillierCiphertext folded = Paillier::WeightedFold(pub, cts, weights);
  // Bit-identical ciphertexts, not just equal plaintexts.
  EXPECT_EQ(folded.value, ladder.value);
}

TEST(MultiExpTest, DjWeightedFoldMatchesScalarMultiplyLadder) {
  const DjPublicKey& pub = SharedDjKey().public_key();
  ChaCha20Rng rng(45);
  std::vector<DjCiphertext> cts;
  std::vector<BigInt> weights;
  for (size_t i = 0; i < 9; ++i) {
    cts.push_back(
        DamgardJurik::Encrypt(pub, BigInt(i + 1), rng).ValueOrDie());
    // Two-level PIR exponents are full level-1 ciphertexts: n^2 wide.
    weights.push_back(RandomBelow(rng, SharedKeyPair().public_key.n_squared()));
  }
  DjCiphertext ladder = DamgardJurik::ScalarMultiply(pub, cts[0], weights[0]);
  for (size_t i = 1; i < cts.size(); ++i) {
    ladder = DamgardJurik::Add(
        pub, ladder, DamgardJurik::ScalarMultiply(pub, cts[i], weights[i]));
  }
  DjCiphertext folded = DamgardJurik::WeightedFold(pub, cts, weights);
  EXPECT_EQ(folded.value, ladder.value);
}

TEST(MultiExpTest, WeightedFoldDecryptsToWeightedSum) {
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  ChaCha20Rng rng(46);
  std::vector<PaillierCiphertext> cts;
  std::vector<BigInt> weights;
  BigInt expected(0);
  for (uint64_t i = 0; i < 17; ++i) {
    const uint64_t m = i * i + 1;
    const uint64_t w = 3 * i + 2;
    cts.push_back(Paillier::Encrypt(pub, BigInt(m), rng).ValueOrDie());
    weights.push_back(BigInt(w));
    expected += BigInt(m) * BigInt(w);
  }
  PaillierCiphertext folded = Paillier::WeightedFold(pub, cts, weights);
  EXPECT_EQ(Paillier::Decrypt(SharedKeyPair().private_key, folded)
                .ValueOrDie(),
            expected);
}

// Adds the terms to `acc` as the flat operands Add takes: n-limb base
// rows, and exponents padded to the widest one's limbs (zero-limb
// exponents when every exponent is zero).
void AddTerms(MontgomeryContext::MultiExpAccumulator& acc,
              const MontgomeryContext& ctx, std::span<const BigInt> bases,
              std::span<const BigInt> exps) {
  const size_t n = ctx.modulus().LimbCount();
  size_t exp_limbs = 0;
  for (const BigInt& e : exps) exp_limbs = std::max(exp_limbs, e.LimbCount());
  std::vector<uint64_t> flat_bases(bases.size() * n, 0);
  std::vector<uint64_t> flat_exps(exps.size() * exp_limbs, 0);
  for (size_t i = 0; i < bases.size(); ++i) {
    std::copy(bases[i].limbs().begin(), bases[i].limbs().end(),
              flat_bases.begin() + static_cast<std::ptrdiff_t>(i * n));
    std::copy(exps[i].limbs().begin(), exps[i].limbs().end(),
              flat_exps.begin() + static_cast<std::ptrdiff_t>(i * exp_limbs));
  }
  acc.Add(flat_bases, flat_exps, exp_limbs);
}

TEST(MultiExpAccumulatorTest, ArbitrarySplitsMatchOneShot) {
  // The streaming accumulator fed in any split equals one-shot
  // MultiExpMontgomery over the same terms — including a first batch of
  // narrow exponents followed by wider ones, which opens windows after
  // the width has been fixed, zero exponents, and bases short enough
  // that BigInt stores fewer than n limbs (their rows are zero-padded).
  const BigInt& m = SharedKeyPair().public_key.n_squared();
  MontgomeryContext ctx(m);
  ChaCha20Rng rng(47);
  constexpr size_t kTerms = 300;
  std::vector<BigInt> bases_mont;
  std::vector<BigInt> exps;
  for (size_t i = 0; i < kTerms; ++i) {
    bases_mont.push_back(ctx.ToMontgomery(RandomBelow(rng, m)));
    const size_t bits = i < 100 ? 5 : (i < 200 ? 40 : 130);
    exps.push_back(i % 11 == 0 ? BigInt(0) : RandomBits(rng, bits));
  }
  bases_mont[5] = BigInt(2);
  bases_mont[6] = BigInt(1);
  bases_mont[150] = BigInt(1);
  bases_mont[151] = m - BigInt(1);
  const BigInt expected = ctx.MultiExpMontgomery(bases_mont, exps);

  const std::span<const BigInt> all_bases(bases_mont);
  const std::span<const BigInt> all_exps(exps);
  for (size_t split : {size_t{1}, size_t{7}, size_t{100}, kTerms}) {
    for (size_t expected_terms : {size_t{1}, kTerms, size_t{100000}}) {
      MontgomeryContext::MultiExpAccumulator acc(ctx, expected_terms);
      for (size_t start = 0; start < kTerms; start += split) {
        const size_t len = std::min(split, kTerms - start);
        AddTerms(acc, ctx, all_bases.subspan(start, len),
                 all_exps.subspan(start, len));
      }
      EXPECT_LE(acc.window_bits(), MontgomeryContext::kMaxPippengerWindow);
      EXPECT_EQ(acc.Finish(), expected)
          << "split=" << split << " expected_terms=" << expected_terms;
    }
  }

  // Random splits, with Finish between batches: Finish does not consume.
  MontgomeryContext::MultiExpAccumulator acc(ctx, kTerms);
  BigInt sum(0);
  for (size_t start = 0; start < kTerms;) {
    const size_t len = std::min<size_t>(1 + rng.NextBelow(40), kTerms - start);
    AddTerms(acc, ctx, all_bases.subspan(start, len),
             all_exps.subspan(start, len));
    for (size_t i = start; i < start + len; ++i) sum += exps[i];
    start += len;
    std::span<const BigInt> b(bases_mont.data(), start);
    std::span<const BigInt> e(exps.data(), start);
    EXPECT_EQ(acc.Finish(), ctx.MultiExpMontgomery(b, e)) << "prefix " << start;
  }
  EXPECT_EQ(acc.exponent_sum(), sum);
}

TEST(MultiExpAccumulatorTest, EmptyAndZeroExponentsFinishToOne) {
  MontgomeryContext ctx(SharedKeyPair().public_key.n_squared());
  MontgomeryContext::MultiExpAccumulator acc(ctx, 10);
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.Finish(), ctx.OneMontgomery());
  const std::vector<BigInt> bases = {BigInt(3), BigInt(4)};
  const std::vector<BigInt> zeros(2, BigInt(0));
  AddTerms(acc, ctx, bases, zeros);
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.window_bits(), 0u);
  EXPECT_EQ(acc.Finish(), ctx.OneMontgomery());
  EXPECT_TRUE(acc.exponent_sum().IsZero());
}

TEST(MultiExpAccumulatorTest, CanonicalInputsCorrectedByRPower) {
  // The server fold's conversion-free identity: feeding canonical
  // residues c (the Montgomery forms of c R^-1) and Montgomery-multiplying
  // once by the plain residue R^sum(e) gives exactly prod c^e.
  const BigInt& m = SharedKeyPair().public_key.n_squared();
  MontgomeryContext ctx(m);
  ChaCha20Rng rng(48);
  std::vector<BigInt> bases = {BigInt(0), BigInt(1), m - BigInt(1)};
  std::vector<BigInt> exps = {BigInt(3), BigInt(9), BigInt(2)};
  for (size_t i = 0; i < 60; ++i) {
    bases.push_back(RandomBelow(rng, m));
    exps.push_back(RandomBits(rng, 20));
  }
  // OneMontgomery() is R mod m, so this is R^sum(e) mod m.
  auto r_pow = [&ctx](const BigInt& e) {
    return ctx.Exp(ctx.OneMontgomery(), e);
  };
  MontgomeryContext::MultiExpAccumulator acc(ctx, bases.size());
  AddTerms(acc, ctx, bases, exps);
  EXPECT_EQ(ctx.MulMontgomery(acc.Finish(), r_pow(acc.exponent_sum())),
            NaiveFold(bases, exps, m));
  // Without the zero base the product is a unit, so the check is not
  // trivially 0 == 0.
  std::vector<BigInt> units(bases.begin() + 1, bases.end());
  std::vector<BigInt> unit_exps(exps.begin() + 1, exps.end());
  MontgomeryContext::MultiExpAccumulator unit_acc(ctx, units.size());
  AddTerms(unit_acc, ctx, units, unit_exps);
  EXPECT_EQ(ctx.MulMontgomery(unit_acc.Finish(),
                              r_pow(unit_acc.exponent_sum())),
            NaiveFold(units, unit_exps, m));
}

TEST(MultiExpAccumulatorTest, RoundScheduledInsertsMatchStrausPerBackend) {
  // Deferred bucket inserts run in rounds, the k-th insert of each
  // bucket in round k. Three exponent shapes at 1024 and 2048 bits (the
  // ifma kernel's widths), on every backend this host has: every
  // exponent the same digit (one bucket, so every round holds exactly
  // one product), half the terms on one digit (rounds shrink from
  // many products to one), and uniform 7-bit digits (wide rounds).
  ChaCha20Rng rng(49);
  for (size_t bits : {1024u, 2048u}) {
    BigInt m = (BigInt(1) << (bits - 1)) + RandomBits(rng, bits - 1);
    if (m.IsEven()) m += 1;
    std::vector<std::vector<BigInt>> shapes(3);
    constexpr size_t kTerms = 300;
    for (size_t i = 0; i < kTerms; ++i) {
      shapes[0].push_back(BigInt(5));
      shapes[1].push_back(i % 2 == 0 ? BigInt(5) : RandomBits(rng, 7));
      shapes[2].push_back(RandomBits(rng, 7));
    }
    std::vector<BigInt> bases;
    for (size_t i = 0; i < kTerms; ++i) bases.push_back(RandomBelow(rng, m));
    for (MontBackendKind kind : {MontBackendKind::kGeneric,
                                 MontBackendKind::kAdx,
                                 MontBackendKind::kIfma}) {
      const size_t n = m.LimbCount();
      if (!MontBackendSupports(kind, n)) continue;
      MontgomeryContext ctx(m, kind);
      for (size_t shape = 0; shape < shapes.size(); ++shape) {
        const std::vector<BigInt>& exps = shapes[shape];
        MontgomeryContext::MultiExpAccumulator acc(ctx, kTerms);
        AddTerms(acc, ctx, bases, exps);
        EXPECT_EQ(acc.Finish(), ctx.MultiExpMontgomery(
                                    bases, exps, MultiExpSchedule::kStraus))
            << bits << " bits, backend " << ctx.backend_name() << ", shape "
            << shape;
      }
    }
  }
}

TEST(MultiExpAccumulatorTest, LaneSplitReductionMatchesNaiveProduct) {
  // Finish cuts each window's occupied digits into segments, one
  // reduction lane each, as many lanes as the backend's batch width
  // allows. Shapes that stress the cuts, on every backend, against the
  // naive per-term product. Every shape opens with a term on digit
  // 2^w - 1 of window 0, which fixes the window width at w and puts the
  // widest possible gap, 2^w - 1, under the last segment.
  ChaCha20Rng rng(50);
  BigInt m = (BigInt(1) << 1023) + RandomBits(rng, 1023);
  if (m.IsEven()) m += 1;
  constexpr size_t kExpectedTerms = 2048;
  // The width the accumulator picks when its first batch is one term
  // whose exponent has `bits` bits.
  auto window_for = [&m](size_t bits) {
    MontgomeryContext ctx(m, MontBackendKind::kGeneric);
    MontgomeryContext::MultiExpAccumulator probe(ctx, kExpectedTerms);
    const BigInt base(1);
    const BigInt exp = (BigInt(1) << bits) - BigInt(1);
    AddTerms(probe, ctx, {&base, 1}, {&exp, 1});
    return probe.window_bits();
  };
  // At most 7 bits, so that 64-bit exponents open more than 8 windows.
  size_t w = 0;
  for (size_t bits = 7; w == 0; --bits) {
    if (window_for(bits) == bits) w = bits;
  }
  ASSERT_GE(w, 3u);
  const size_t top = (size_t{1} << w) - 1;

  struct Shape {
    std::string name;
    std::vector<BigInt> first;  // added first, after the 2^w - 1 term
    std::vector<BigInt> later;  // a second Add; may open more windows
  };
  auto digits = [](std::initializer_list<size_t> ds, size_t copies) {
    std::vector<BigInt> out;
    for (size_t c = 0; c < copies; ++c) {
      for (size_t d : ds) out.emplace_back(static_cast<uint64_t>(d));
    }
    return out;
  };
  std::vector<Shape> shapes = {
      {"one occupied digit", digits({top}, 3), {}},
      {"fewer digits than lanes", digits({top - 1, 3, 1}, 2), {}},
      {"segment boundary at lo = 1", digits({1}, 2), {}},
      {"two digits, both ends", digits({size_t{1} << (w - 1), 1}, 1), {}},
      {"every digit", {}, {}},
  };
  for (size_t d = 1; d <= top; ++d) {
    shapes.back().first.emplace_back(static_cast<uint64_t>(d));
  }
  for (size_t trial = 0; trial < 24; ++trial) {
    // Sparse digits: 1 to 16 of them, gaps anywhere up to 2^w - 1.
    Shape& shape = shapes.emplace_back();
    shape.name = "sparse digits, trial " + std::to_string(trial);
    const size_t count = 1 + rng.NextBelow(16);
    for (size_t i = 0; i < count; ++i) {
      shape.first.emplace_back(1 + rng.NextBelow(top));
    }
  }
  {
    // Windows 1 and 2 empty between occupied windows 0 and 3.
    Shape& shape = shapes.emplace_back();
    shape.name = "empty middle windows";
    for (size_t i = 0; i < 40; ++i) {
      shape.later.push_back(
          (BigInt(1 + rng.NextBelow(top)) << (3 * w)) +
          BigInt(rng.NextBelow(top + 1)));
    }
  }
  {
    // A product statistic's 64-bit exponents: more than 8 windows.
    Shape& shape = shapes.emplace_back();
    shape.name = "64-bit exponents";
    for (size_t i = 0; i < 200; ++i) shape.later.push_back(RandomBits(rng, 64));
    shape.later.push_back(BigInt(1) << 63);
  }

  std::vector<MontBackendKind> kinds = {MontBackendKind::kGeneric};
  for (MontBackendKind kind : {MontBackendKind::kAdx, MontBackendKind::kIfma}) {
    if (MontBackendSupports(kind, m.LimbCount())) kinds.push_back(kind);
  }
  for (const Shape& shape : shapes) {
    std::vector<BigInt> exps = {BigInt(static_cast<uint64_t>(top))};
    exps.insert(exps.end(), shape.first.begin(), shape.first.end());
    const size_t first_count = exps.size();
    exps.insert(exps.end(), shape.later.begin(), shape.later.end());
    std::vector<BigInt> bases;
    for (size_t i = 0; i < exps.size(); ++i) {
      bases.push_back(RandomBelow(rng, m));
    }
    const BigInt expected = NaiveFold(bases, exps, m);
    for (MontBackendKind kind : kinds) {
      MontgomeryContext ctx(m, kind);
      std::vector<BigInt> bases_mont;
      for (const BigInt& base : bases) {
        bases_mont.push_back(ctx.ToMontgomery(base));
      }
      const std::span<const BigInt> all_bases(bases_mont);
      const std::span<const BigInt> all_exps(exps);
      MontgomeryContext::MultiExpAccumulator acc(ctx, kExpectedTerms);
      AddTerms(acc, ctx, all_bases.first(first_count),
               all_exps.first(first_count));
      ASSERT_EQ(acc.window_bits(), w) << shape.name;
      AddTerms(acc, ctx, all_bases.subspan(first_count),
               all_exps.subspan(first_count));
      EXPECT_EQ(ctx.FromMontgomery(acc.Finish()), expected)
          << shape.name << ", backend " << ctx.backend_name();
    }
  }

  // Finish twice, then again after a further Add: the reduction reads
  // the buckets and never consumes them.
  for (MontBackendKind kind : kinds) {
    MontgomeryContext ctx(m, kind);
    std::vector<BigInt> bases;
    std::vector<BigInt> exps;
    for (size_t i = 0; i < 60; ++i) {
      bases.push_back(RandomBelow(rng, m));
      exps.push_back(i == 0 ? BigInt(static_cast<uint64_t>(top))
                            : BigInt(rng.NextBelow(top + 1)));
    }
    std::vector<BigInt> bases_mont;
    for (const BigInt& base : bases) bases_mont.push_back(ctx.ToMontgomery(base));
    const std::span<const BigInt> all_bases(bases_mont);
    const std::span<const BigInt> all_exps(exps);
    MontgomeryContext::MultiExpAccumulator acc(ctx, kExpectedTerms);
    AddTerms(acc, ctx, all_bases.first(40), all_exps.first(40));
    const std::vector<BigInt> head_bases(bases.begin(), bases.begin() + 40);
    const std::vector<BigInt> head_exps(exps.begin(), exps.begin() + 40);
    const BigInt first = acc.Finish();
    EXPECT_EQ(ctx.FromMontgomery(first), NaiveFold(head_bases, head_exps, m))
        << ctx.backend_name();
    EXPECT_EQ(acc.Finish(), first) << ctx.backend_name();
    AddTerms(acc, ctx, all_bases.subspan(40), all_exps.subspan(40));
    EXPECT_EQ(ctx.FromMontgomery(acc.Finish()), NaiveFold(bases, exps, m))
        << ctx.backend_name();
  }
}

}  // namespace
}  // namespace ppstats
