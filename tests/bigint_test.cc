#include "bigint/bigint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

BigInt Dec(const char* s) { return BigInt::FromDecimal(s).ValueOrDie(); }

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToDecimal(), "0");
}

TEST(BigIntTest, ConstructFromIntegers) {
  EXPECT_EQ(BigInt(0).ToDecimal(), "0");
  EXPECT_EQ(BigInt(1).ToDecimal(), "1");
  EXPECT_EQ(BigInt(-1).ToDecimal(), "-1");
  EXPECT_EQ(BigInt(uint64_t{18446744073709551615ULL}).ToDecimal(),
            "18446744073709551615");
  EXPECT_EQ(BigInt(int64_t{-9223372036854775807LL - 1}).ToDecimal(),
            "-9223372036854775808");
  EXPECT_EQ(BigInt(uint32_t{7}).ToDecimal(), "7");
  EXPECT_EQ(BigInt(int16_t{-3}).ToDecimal(), "-3");
}

TEST(BigIntTest, DecimalRoundTrip) {
  const char* cases[] = {
      "0",
      "1",
      "-1",
      "18446744073709551616",  // 2^64
      "340282366920938463463374607431768211456",  // 2^128
      "-99999999999999999999999999999999999999",
      "123456789012345678901234567890123456789012345678901234567890",
  };
  for (const char* s : cases) {
    EXPECT_EQ(Dec(s).ToDecimal(), s) << s;
  }
}

TEST(BigIntTest, DecimalParseErrors) {
  EXPECT_FALSE(BigInt::FromDecimal("").ok());
  EXPECT_FALSE(BigInt::FromDecimal("-").ok());
  EXPECT_FALSE(BigInt::FromDecimal("12a3").ok());
  EXPECT_FALSE(BigInt::FromDecimal(" 12").ok());
}

TEST(BigIntTest, HexRoundTrip) {
  EXPECT_EQ(BigInt::FromHexString("ff").ValueOrDie().ToDecimal(), "255");
  EXPECT_EQ(BigInt::FromHexString("0xFF").ValueOrDie().ToDecimal(), "255");
  EXPECT_EQ(BigInt::FromHexString("-0x10").ValueOrDie().ToDecimal(), "-16");
  BigInt big = Dec("340282366920938463463374607431768211455");  // 2^128-1
  EXPECT_EQ(big.ToHexString(), "ffffffffffffffffffffffffffffffff");
  EXPECT_EQ(BigInt::FromHexString(big.ToHexString()).ValueOrDie(), big);
}

TEST(BigIntTest, HexParseErrors) {
  EXPECT_FALSE(BigInt::FromHexString("").ok());
  EXPECT_FALSE(BigInt::FromHexString("0x").ok());
  EXPECT_FALSE(BigInt::FromHexString("xyz").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  BigInt v = Dec("1234567890123456789012345678901234567890");
  Bytes b = v.ToBytes();
  EXPECT_EQ(BigInt::FromBytes(b), v);
  // Padding does not change the value.
  Bytes padded = v.ToBytes(64);
  EXPECT_EQ(padded.size(), 64u);
  EXPECT_EQ(BigInt::FromBytes(padded), v);
}

TEST(BigIntTest, ZeroSerializesToOneByte) {
  EXPECT_EQ(BigInt(0).ToBytes(), Bytes{0});
  EXPECT_TRUE(BigInt::FromBytes(Bytes{0, 0, 0}).IsZero());
  EXPECT_TRUE(BigInt::FromBytes({}).IsZero());
}

// Byte-at-a-time references for the fixed-width codec, built only from
// shifts, addition and LowUint64.
BigInt ReferenceFromBytes(BytesView bytes) {
  BigInt acc;
  for (uint8_t b : bytes) acc = (acc << 8) + BigInt(b);
  return acc;
}

Bytes ReferenceToBytes(const BigInt& v, size_t min_width) {
  size_t width = std::max<size_t>((v.BitLength() + 7) / 8, 1);
  width = std::max(width, min_width);
  Bytes out(width);
  for (size_t i = 0; i < width; ++i) {
    out[width - 1 - i] = static_cast<uint8_t>((v >> (8 * i)).LowUint64());
  }
  return out;
}

TEST(BigIntTest, ByteCodecMatchesAByteAtATimeReferenceAtEveryWidth) {
  ChaCha20Rng rng(77);
  for (size_t width = 0; width <= 136; ++width) {
    Bytes random(width);
    rng.Fill(random);
    // The same bytes behind a run of leading zeros, so the natural
    // width falls below the buffer's.
    Bytes leading_zeros = random;
    std::fill_n(leading_zeros.begin(), width / 3, 0);
    for (const Bytes& bytes : {random, leading_zeros}) {
      const BigInt v = BigInt::FromBytes(bytes);
      ASSERT_EQ(v, ReferenceFromBytes(bytes)) << "width " << width;
      const size_t natural = (v.BitLength() + 7) / 8;
      for (size_t min_width :
           {size_t{0}, natural > 0 ? natural - 1 : 0, natural, natural + 1,
            width, width + 9}) {
        const Bytes encoded = v.ToBytes(min_width);
        ASSERT_EQ(encoded, ReferenceToBytes(v, min_width))
            << "width " << width << " min_width " << min_width;
        EXPECT_EQ(BigInt::FromBytes(encoded), v);
      }
      // Into a buffer of the frame's width: the input bytes come back.
      Bytes into(width, 0xAA);
      v.ToBytesInto(into);
      EXPECT_EQ(into, bytes) << "width " << width;
    }
  }
}

TEST(BigIntTest, ByteCodecMatchesTheReferenceAtEveryBufferOffset) {
  // The word codec loads and stores 8 bytes at a time at any alignment:
  // IndexBatch rows start 13 bytes into their frame. Every width at
  // offsets 0-7 of a buffer whose bytes around the value must survive.
  ChaCha20Rng rng(79);
  for (size_t width = 0; width <= 136; ++width) {
    for (size_t offset = 0; offset < 8; ++offset) {
      Bytes buffer(offset + width + 8);
      rng.Fill(buffer);
      const BytesView bytes(buffer.data() + offset, width);
      const BigInt expected = ReferenceFromBytes(bytes);
      ASSERT_EQ(BigInt::FromBytes(bytes), expected)
          << "width " << width << " offset " << offset;
      std::vector<uint64_t> limbs((width + 7) / 8 + 1, ~uint64_t{0});
      BigInt::LimbsFromBytes(bytes, limbs);
      EXPECT_EQ(BigInt::FromLimbs(limbs), expected)
          << "width " << width << " offset " << offset;

      Bytes into(offset + width + 8, 0xAA);
      expected.ToBytesInto(std::span<uint8_t>(into).subspan(offset, width));
      const Bytes reference = ReferenceToBytes(expected, width);
      // ReferenceToBytes writes at least one byte; a zero width keeps none.
      EXPECT_TRUE(std::equal(into.begin() + static_cast<ptrdiff_t>(offset),
                             into.begin() +
                                 static_cast<ptrdiff_t>(offset + width),
                             reference.end() - static_cast<ptrdiff_t>(width)))
          << "width " << width << " offset " << offset;
      EXPECT_TRUE(std::all_of(into.begin(),
                              into.begin() + static_cast<ptrdiff_t>(offset),
                              [](uint8_t b) { return b == 0xAA; }));
      EXPECT_TRUE(std::all_of(
          into.begin() + static_cast<ptrdiff_t>(offset + width), into.end(),
          [](uint8_t b) { return b == 0xAA; }));
    }
  }
}

TEST(BigIntTest, LimbsFromBytesZeroFillsTheLimbsAboveTheBytes) {
  // The fold's fixed-width row decode: any width, into as many limbs as
  // fit it or more, over limbs holding stale values.
  ChaCha20Rng rng(78);
  for (size_t width = 0; width <= 40; ++width) {
    Bytes bytes(width);
    rng.Fill(bytes);
    const BigInt expected = ReferenceFromBytes(bytes);
    for (size_t limbs = (width + 7) / 8; limbs <= (width + 7) / 8 + 2;
         ++limbs) {
      std::vector<uint64_t> out(limbs, ~uint64_t{0});
      BigInt::LimbsFromBytes(bytes, out);
      EXPECT_EQ(BigInt::FromLimbs(out), expected)
          << "width " << width << " limbs " << limbs;
    }
  }
}

TEST(BigIntTest, ToBytesIntoKeepsTheLowBytesOfAWiderValue) {
  const BigInt v = Dec("1234567890123456789012345678901234567890");
  const Bytes full = v.ToBytes();
  for (size_t width = 0; width <= full.size(); ++width) {
    Bytes into(width, 0xAA);
    v.ToBytesInto(into);
    EXPECT_EQ(into, Bytes(full.end() - static_cast<ptrdiff_t>(width),
                          full.end()))
        << "width " << width;
  }
}

TEST(BigIntTest, AdditionBasics) {
  EXPECT_EQ(BigInt(2) + BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(-2) + BigInt(3), BigInt(1));
  EXPECT_EQ(BigInt(2) + BigInt(-3), BigInt(-1));
  EXPECT_EQ(BigInt(-2) + BigInt(-3), BigInt(-5));
  EXPECT_EQ(BigInt(5) + BigInt(-5), BigInt(0));
}

TEST(BigIntTest, CarryPropagatesAcrossLimbs) {
  BigInt max64(uint64_t{0xFFFFFFFFFFFFFFFFULL});
  EXPECT_EQ((max64 + BigInt(1)).ToDecimal(), "18446744073709551616");
  BigInt two128 = Dec("340282366920938463463374607431768211456");
  EXPECT_EQ(two128 - BigInt(1) + BigInt(1), two128);
}

TEST(BigIntTest, SubtractionBorrow) {
  BigInt two64 = Dec("18446744073709551616");
  EXPECT_EQ((two64 - BigInt(1)).ToDecimal(), "18446744073709551615");
  EXPECT_EQ(BigInt(3) - BigInt(10), BigInt(-7));
}

TEST(BigIntTest, MultiplicationBasics) {
  EXPECT_EQ(BigInt(6) * BigInt(7), BigInt(42));
  EXPECT_EQ(BigInt(-6) * BigInt(7), BigInt(-42));
  EXPECT_EQ(BigInt(-6) * BigInt(-7), BigInt(42));
  EXPECT_TRUE((BigInt(0) * BigInt(12345)).IsZero());
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  BigInt max64(uint64_t{0xFFFFFFFFFFFFFFFFULL});
  EXPECT_EQ((max64 * max64).ToDecimal(),
            "340282366920938463426481119284349108225");
}

TEST(BigIntTest, DivisionBasics) {
  EXPECT_EQ(BigInt(42) / BigInt(7), BigInt(6));
  EXPECT_EQ(BigInt(43) % BigInt(7), BigInt(1));
  // Truncated (C) semantics.
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
}

TEST(BigIntTest, DivisionByZeroFails) {
  EXPECT_FALSE(BigInt::DivRem(BigInt(1), BigInt(0)).ok());
}

TEST(BigIntTest, DividendSmallerThanDivisor) {
  auto [q, r] = BigInt::DivRem(BigInt(3), Dec("99999999999999999999"))
                    .ValueOrDie();
  EXPECT_TRUE(q.IsZero());
  EXPECT_EQ(r, BigInt(3));
}

TEST(BigIntTest, KnuthAddBackCase) {
  // A division crafted to stress qhat correction: divisor with a high
  // limb just below 2^63 and dividend that triggers decrements.
  BigInt num = BigInt::FromHexString(
                   "7fffffffffffffff8000000000000000"
                   "00000000000000000000000000000000")
                   .ValueOrDie();
  BigInt den = BigInt::FromHexString("80000000000000000000000000000001")
                   .ValueOrDie();
  auto [q, r] = BigInt::DivRem(num, den).ValueOrDie();
  EXPECT_EQ(q * den + r, num);
  EXPECT_LT(r, den);
}

TEST(BigIntTest, ShiftLeftRight) {
  EXPECT_EQ(BigInt(1) << 64, Dec("18446744073709551616"));
  EXPECT_EQ(BigInt(1) << 128, Dec("340282366920938463463374607431768211456"));
  EXPECT_EQ(Dec("18446744073709551616") >> 64, BigInt(1));
  EXPECT_EQ((BigInt(0xFF) << 4).ToHexString(), "ff0");
  EXPECT_EQ(BigInt(0xFF) >> 4, BigInt(0xF));
  EXPECT_TRUE((BigInt(1) >> 1).IsZero());
  EXPECT_TRUE((BigInt(12345) >> 200).IsZero());
}

TEST(BigIntTest, ShiftPreservesSignAndCanonicalizesZero) {
  EXPECT_EQ(BigInt(-4) << 2, BigInt(-16));
  EXPECT_EQ(BigInt(-16) >> 2, BigInt(-4));
  BigInt z = BigInt(-1) >> 5;  // magnitude underflows to zero
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
}

TEST(BigIntTest, ComparisonOrdering) {
  EXPECT_LT(BigInt(-5), BigInt(-4));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(1), Dec("18446744073709551616"));
  EXPECT_GT(Dec("18446744073709551616"), Dec("18446744073709551615"));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigIntTest, BitLengthAndBit) {
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ((BigInt(1) << 100).BitLength(), 101u);
  BigInt v = BigInt(0b1010);
  EXPECT_FALSE(v.Bit(0));
  EXPECT_TRUE(v.Bit(1));
  EXPECT_FALSE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(64));
}

TEST(BigIntTest, OddEven) {
  EXPECT_TRUE(BigInt(3).IsOdd());
  EXPECT_TRUE(BigInt(4).IsEven());
  EXPECT_TRUE(BigInt(0).IsEven());
}

TEST(BigIntTest, AbsAndNegate) {
  EXPECT_EQ((-BigInt(5)).ToDecimal(), "-5");
  EXPECT_EQ((-BigInt(-5)).ToDecimal(), "5");
  EXPECT_EQ(BigInt(-5).Abs(), BigInt(5));
  EXPECT_TRUE((-BigInt(0)).IsZero());
  EXPECT_FALSE((-BigInt(0)).IsNegative());
}

// ---- property sweeps -------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BigIntPropertyTest, DivRemInvariant) {
  const size_t bits = GetParam();
  ChaCha20Rng rng(1000 + bits);
  for (int iter = 0; iter < 50; ++iter) {
    Bytes a_bytes((bits + 7) / 8), b_bytes(bits / 16 + 1);
    rng.Fill(a_bytes);
    rng.Fill(b_bytes);
    BigInt a = BigInt::FromBytes(a_bytes);
    BigInt b = BigInt::FromBytes(b_bytes);
    if (b.IsZero()) b = BigInt(1);
    auto [q, r] = BigInt::DivRem(a, b).ValueOrDie();
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(BigInt::CompareMagnitude(r, b), 0);
  }
}

TEST_P(BigIntPropertyTest, AdditionCommutesAndAssociates) {
  const size_t bits = GetParam();
  ChaCha20Rng rng(2000 + bits);
  for (int iter = 0; iter < 30; ++iter) {
    Bytes buf((bits + 7) / 8);
    rng.Fill(buf);
    BigInt a = BigInt::FromBytes(buf);
    rng.Fill(buf);
    BigInt b = BigInt::FromBytes(buf);
    rng.Fill(buf);
    BigInt c = BigInt::FromBytes(buf);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + BigInt(0), a);
    EXPECT_EQ(a - a, BigInt(0));
  }
}

TEST_P(BigIntPropertyTest, MultiplicationDistributes) {
  const size_t bits = GetParam();
  ChaCha20Rng rng(3000 + bits);
  for (int iter = 0; iter < 30; ++iter) {
    Bytes buf((bits + 7) / 8);
    rng.Fill(buf);
    BigInt a = BigInt::FromBytes(buf);
    rng.Fill(buf);
    BigInt b = BigInt::FromBytes(buf);
    rng.Fill(buf);
    BigInt c = BigInt::FromBytes(buf);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * BigInt(1), a);
    EXPECT_TRUE((a * BigInt(0)).IsZero());
  }
}

TEST_P(BigIntPropertyTest, StringRoundTrip) {
  const size_t bits = GetParam();
  ChaCha20Rng rng(4000 + bits);
  for (int iter = 0; iter < 10; ++iter) {
    Bytes buf((bits + 7) / 8);
    rng.Fill(buf);
    BigInt a = BigInt::FromBytes(buf);
    EXPECT_EQ(BigInt::FromDecimal(a.ToDecimal()).ValueOrDie(), a);
    EXPECT_EQ(BigInt::FromHexString(a.ToHexString()).ValueOrDie(), a);
    EXPECT_EQ(BigInt::FromBytes(a.ToBytes()), a);
  }
}

TEST_P(BigIntPropertyTest, ShiftsMatchMultiplication) {
  const size_t bits = GetParam();
  ChaCha20Rng rng(5000 + bits);
  for (size_t shift : {1u, 13u, 63u, 64u, 65u, 130u}) {
    Bytes buf((bits + 7) / 8);
    rng.Fill(buf);
    BigInt a = BigInt::FromBytes(buf);
    EXPECT_EQ(a << shift, a * (BigInt(1) << shift));
    EXPECT_EQ((a << shift) >> shift, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(8, 64, 65, 128, 256, 1024, 2048));

// Karatsuba kicks in above 24 limbs (1536 bits): cross-check against the
// distributive law on operands straddling the threshold.
TEST(BigIntTest, KaratsubaMatchesSchoolbookIdentity) {
  ChaCha20Rng rng(99);
  for (size_t bits : {1500u, 1536u, 2048u, 4096u, 8192u}) {
    Bytes buf(bits / 8);
    rng.Fill(buf);
    BigInt a = BigInt::FromBytes(buf);
    rng.Fill(buf);
    BigInt b = BigInt::FromBytes(buf);
    // (a+1)*b - b == a*b exercises both mul paths and add/sub.
    EXPECT_EQ((a + BigInt(1)) * b - b, a * b);
    // Squaring identity: (a+b)^2 = a^2 + 2ab + b^2.
    EXPECT_EQ((a + b) * (a + b),
              a * a + (a * b << 1) + b * b);
  }
}

TEST(BigIntTest, LowUint64AndFits) {
  EXPECT_EQ(BigInt(12345).LowUint64(), 12345u);
  EXPECT_TRUE(BigInt(12345).FitsUint64());
  BigInt big = Dec("18446744073709551616");
  EXPECT_FALSE(big.FitsUint64());
  EXPECT_EQ(big.LowUint64(), 0u);
  EXPECT_EQ(BigInt(0).LowUint64(), 0u);
}

TEST(BigIntTest, SelfAssignmentOperatorsAreSafe) {
  BigInt a(12345);
  a += a;
  EXPECT_EQ(a, BigInt(24690));
  a -= a;
  EXPECT_TRUE(a.IsZero());
  BigInt b(7);
  b *= b;
  EXPECT_EQ(b, BigInt(49));
}

TEST(BigIntTest, DivisionBySelfAndByOne) {
  BigInt v = Dec("123456789123456789123456789");
  EXPECT_EQ(v / v, BigInt(1));
  EXPECT_TRUE((v % v).IsZero());
  EXPECT_EQ(v / BigInt(1), v);
  EXPECT_TRUE((v % BigInt(1)).IsZero());
}

TEST(BigIntTest, PowersOfTwoBoundaries) {
  // Values straddling limb boundaries behave across all operations.
  for (size_t bits : {63u, 64u, 65u, 127u, 128u, 129u}) {
    BigInt p = BigInt(1) << bits;
    EXPECT_EQ(p.BitLength(), bits + 1) << bits;
    EXPECT_EQ((p - BigInt(1)).BitLength(), bits) << bits;
    EXPECT_EQ(p / (BigInt(1) << (bits - 1)), BigInt(2)) << bits;
    EXPECT_TRUE((p % (BigInt(1) << (bits - 1))).IsZero()) << bits;
  }
}

TEST(BigIntTest, FromLimbsNormalizes) {
  BigInt v = BigInt::FromLimbs({5, 0, 0});
  EXPECT_EQ(v, BigInt(5));
  EXPECT_EQ(v.LimbCount(), 1u);
  EXPECT_TRUE(BigInt::FromLimbs({}).IsZero());
}

}  // namespace
}  // namespace ppstats
