#include "bigint/modarith.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

TEST(ModTest, CanonicalizesNegatives) {
  EXPECT_EQ(Mod(BigInt(-1), BigInt(7)), BigInt(6));
  EXPECT_EQ(Mod(BigInt(-7), BigInt(7)), BigInt(0));
  EXPECT_EQ(Mod(BigInt(-8), BigInt(7)), BigInt(6));
  EXPECT_EQ(Mod(BigInt(15), BigInt(7)), BigInt(1));
  EXPECT_EQ(Mod(BigInt(0), BigInt(7)), BigInt(0));
}

TEST(ModTest, AddSubMulMod) {
  BigInt m(97);
  EXPECT_EQ(AddMod(BigInt(90), BigInt(10), m), BigInt(3));
  EXPECT_EQ(AddMod(BigInt(5), BigInt(6), m), BigInt(11));
  EXPECT_EQ(SubMod(BigInt(5), BigInt(6), m), BigInt(96));
  EXPECT_EQ(SubMod(BigInt(6), BigInt(5), m), BigInt(1));
  EXPECT_EQ(MulMod(BigInt(10), BigInt(10), m), BigInt(3));
}

TEST(GcdTest, Basics) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(Gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(18)), BigInt(6));
}

TEST(LcmTest, Basics) {
  EXPECT_EQ(Lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_TRUE(Lcm(BigInt(0), BigInt(6)).IsZero());
  EXPECT_EQ(Lcm(BigInt(7), BigInt(13)), BigInt(91));
}

TEST(ExtendedGcdTest, BezoutIdentityHolds) {
  ChaCha20Rng rng(11);
  for (int iter = 0; iter < 50; ++iter) {
    BigInt a = RandomBits(rng, 128);
    BigInt b = RandomBits(rng, 96);
    ExtendedGcdResult e = ExtendedGcd(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g);
    EXPECT_EQ(e.g, Gcd(a, b));
  }
}

TEST(ModInverseTest, InverseMultipliesToOne) {
  ChaCha20Rng rng(12);
  BigInt m = (BigInt(1) << 127) - BigInt(1);  // Mersenne prime 2^127-1
  for (int iter = 0; iter < 20; ++iter) {
    BigInt a = RandomBelow(rng, m - BigInt(1)) + BigInt(1);
    BigInt inv = ModInverse(a, m).ValueOrDie();
    EXPECT_EQ(MulMod(a, inv, m), BigInt(1));
    EXPECT_LT(inv, m);
  }
}

TEST(ModInverseTest, FailsForNonUnits) {
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(0), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(3), BigInt(1)).ok());
}

TEST(ModExpTest, SmallKnownValues) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(ModExp(BigInt(3), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(ModExp(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  EXPECT_EQ(ModExp(BigInt(5), BigInt(1), BigInt(7)), BigInt(5));
  EXPECT_EQ(ModExp(BigInt(2), BigInt(100), BigInt(1)), BigInt(0));
}

TEST(ModExpTest, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  BigInt p = (BigInt(1) << 61) - BigInt(1);  // Mersenne prime
  ChaCha20Rng rng(13);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt a = RandomBelow(rng, p - BigInt(1)) + BigInt(1);
    EXPECT_EQ(ModExp(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(ModExpTest, EvenModulusUsesPlainPath) {
  // ModExp must work for even moduli (no Montgomery).
  EXPECT_EQ(ModExp(BigInt(3), BigInt(4), BigInt(16)), BigInt(1));
  EXPECT_EQ(ModExp(BigInt(7), BigInt(13), BigInt(100)),
            ModExpPlain(BigInt(7), BigInt(13), BigInt(100)));
}

class ModExpAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ModExpAgreementTest, MontgomeryAgreesWithPlain) {
  const size_t bits = GetParam();
  ChaCha20Rng rng(100 + bits);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt m = RandomBits(rng, bits) + BigInt(3);
    if (m.IsEven()) m += 1;
    BigInt base = RandomBelow(rng, m);
    BigInt exp = RandomBits(rng, bits);
    EXPECT_EQ(ModExp(base, exp, m), ModExpPlain(base, exp, m))
        << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ModExpAgreementTest,
                         ::testing::Values(16, 64, 65, 128, 512, 1024));

TEST(ModExpTest, MultiplicativeHomomorphismOfExponent) {
  // a^(x+y) = a^x * a^y mod m.
  ChaCha20Rng rng(14);
  BigInt m = RandomBits(rng, 256) + BigInt(3);
  if (m.IsEven()) m += 1;
  for (int iter = 0; iter < 10; ++iter) {
    BigInt a = RandomBelow(rng, m);
    BigInt x = RandomBits(rng, 64);
    BigInt y = RandomBits(rng, 64);
    EXPECT_EQ(ModExp(a, x + y, m),
              MulMod(ModExp(a, x, m), ModExp(a, y, m), m));
  }
}

TEST(CrtTest, ReconstructsUniqueResidue) {
  BigInt x = CrtCombine(BigInt(2), BigInt(3), BigInt(3), BigInt(5))
                 .ValueOrDie();
  EXPECT_EQ(x, BigInt(8));  // 8 = 2 mod 3, 3 mod 5
  ChaCha20Rng rng(15);
  BigInt m1 = (BigInt(1) << 61) - BigInt(1);
  BigInt m2 = (BigInt(1) << 89) - BigInt(1);
  for (int iter = 0; iter < 20; ++iter) {
    BigInt v = RandomBelow(rng, m1 * m2);
    BigInt rec =
        CrtCombine(Mod(v, m1), m1, Mod(v, m2), m2).ValueOrDie();
    EXPECT_EQ(rec, v);
  }
}

TEST(CrtTest, FailsForNonCoprimeModuli) {
  EXPECT_FALSE(CrtCombine(BigInt(1), BigInt(6), BigInt(2), BigInt(9)).ok());
}

TEST(RandomTest, RandomBitsRespectsBound) {
  ChaCha20Rng rng(16);
  for (size_t bits : {1u, 7u, 8u, 64u, 65u, 200u}) {
    for (int iter = 0; iter < 20; ++iter) {
      BigInt v = RandomBits(rng, bits);
      EXPECT_LE(v.BitLength(), bits);
    }
  }
  EXPECT_TRUE(RandomBits(rng, 0).IsZero());
}

TEST(RandomTest, RandomBitsHitsTopBitSometimes) {
  ChaCha20Rng rng(17);
  int top_set = 0;
  for (int iter = 0; iter < 200; ++iter) {
    if (RandomBits(rng, 32).Bit(31)) ++top_set;
  }
  EXPECT_GT(top_set, 50);
  EXPECT_LT(top_set, 150);
}

TEST(RandomTest, RandomBelowIsInRange) {
  ChaCha20Rng rng(18);
  BigInt bound = BigInt::FromDecimal("1000000000000000000000").ValueOrDie();
  for (int iter = 0; iter < 50; ++iter) {
    BigInt v = RandomBelow(rng, bound);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.IsNegative());
  }
  // Tiny bound: only value 0 is possible.
  EXPECT_TRUE(RandomBelow(rng, BigInt(1)).IsZero());
}

TEST(RandomTest, RandomUnitIsCoprimeUnit) {
  ChaCha20Rng rng(19);
  BigInt m(3 * 5 * 7 * 11);
  for (int iter = 0; iter < 30; ++iter) {
    BigInt u = RandomUnit(rng, m);
    EXPECT_FALSE(u.IsZero());
    EXPECT_LT(u, m);
    EXPECT_TRUE(Gcd(u, m).IsOne());
  }
}

// Test-local reference: Euclid on magnitudes, the textbook algorithm the
// library's binary GCD must agree with.
BigInt EuclidGcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

TEST(GcdTest, MatchesEuclidAcrossWidths) {
  ChaCha20Rng rng(23);
  for (size_t limbs = 1; limbs <= 64; ++limbs) {
    for (int iter = 0; iter < 4; ++iter) {
      const BigInt a = RandomBits(rng, 64 * limbs);
      // Mixed widths, and a shared random factor so the gcd is not
      // almost always 1.
      const BigInt b = RandomBits(rng, 1 + (64 * limbs * (iter + 1)) / 4);
      const BigInt g = RandomBits(rng, 1 + 16 * iter) + BigInt(1);
      EXPECT_EQ(Gcd(a, b), EuclidGcd(a, b)) << limbs << " limbs";
      EXPECT_EQ(Gcd(a * g, b * g), EuclidGcd(a * g, b * g))
          << limbs << " limbs, shared factor";
    }
  }
}

TEST(GcdTest, ZeroNegativeAndEqualOperands) {
  ChaCha20Rng rng(29);
  const BigInt x = RandomBits(rng, 700);
  EXPECT_EQ(Gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(Gcd(x, BigInt(0)), x);
  EXPECT_EQ(Gcd(BigInt(0), x), x);
  EXPECT_EQ(Gcd(-x, BigInt(0)), x);
  EXPECT_EQ(Gcd(BigInt(0), -x), x);
  EXPECT_EQ(Gcd(x, x), x);
  EXPECT_EQ(Gcd(x, -x), x);
  const BigInt y = RandomBits(rng, 300);
  EXPECT_EQ(Gcd(-x, y), EuclidGcd(x, y));
  EXPECT_EQ(Gcd(x, -y), EuclidGcd(x, y));
  EXPECT_EQ(Gcd(-x, -y), EuclidGcd(x, y));
}

TEST(GcdTest, PowersOfTwoAndSharedTwoFactors) {
  ChaCha20Rng rng(31);
  for (size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    for (size_t j : {0u, 5u, 64u, 200u, 1000u}) {
      EXPECT_EQ(Gcd(BigInt(1) << i, BigInt(1) << j),
                BigInt(1) << std::min(i, j));
    }
  }
  for (size_t k : {1u, 17u, 64u, 130u, 600u}) {
    BigInt a = RandomBits(rng, 512);
    BigInt b = RandomBits(rng, 256);
    if (a.IsEven()) a += BigInt(1);
    if (b.IsEven()) b += BigInt(1);
    EXPECT_EQ(Gcd(a << k, b << (k + 3)), EuclidGcd(a << k, b << (k + 3)))
        << "2^" << k;
    EXPECT_EQ(Gcd(a << k, a << (2 * k)), a << k) << "2^" << k;
  }
}

}  // namespace
}  // namespace ppstats
