#include "net/wire.h"

#include <gtest/gtest.h>

namespace ppstats {
namespace {

TEST(WireTest, ScalarsRoundTrip) {
  WireWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  Bytes buf = w.Take();
  EXPECT_EQ(buf.size(), 1u + 4u + 8u);

  WireReader r(buf);
  EXPECT_EQ(r.ReadU8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.ReadU32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().ValueOrDie(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireTest, IntegersAreBigEndian) {
  WireWriter w;
  w.WriteU32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(WireTest, WordsAreBigEndianAtEveryOffset) {
  for (size_t offset = 0; offset < 8; ++offset) {
    WireWriter w;
    for (size_t i = 0; i < offset; ++i) w.WriteU8(0xEE);
    w.WriteU64(0x0102030405060708ULL);
    w.WriteU32(0x090A0B0C);
    Bytes expected(offset, 0xEE);
    for (uint8_t b = 1; b <= 12; ++b) expected.push_back(b);
    EXPECT_EQ(w.bytes(), expected) << "offset " << offset;

    WireReader r(expected);
    for (size_t i = 0; i < offset; ++i) ASSERT_TRUE(r.ReadU8().ok());
    EXPECT_EQ(r.ReadU64().ValueOrDie(), 0x0102030405060708ULL);
    EXPECT_EQ(r.ReadU32().ValueOrDie(), 0x090A0B0Cu);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WireTest, LengthPrefixedBytesRoundTrip) {
  WireWriter w;
  w.WriteBytes(Bytes{9, 8, 7});
  w.WriteBytes(Bytes{});
  Bytes buf = w.Take();
  WireReader r(buf);
  EXPECT_EQ(r.ReadBytes().ValueOrDie(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.ReadBytes().ValueOrDie().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, BigIntRoundTrip) {
  BigInt v = BigInt::FromDecimal("123456789012345678901234567890")
                 .ValueOrDie();
  WireWriter w;
  w.WriteBigInt(v);
  w.WriteBigInt(BigInt(0));
  WireReader r(w.bytes());
  EXPECT_EQ(r.ReadBigInt().ValueOrDie(), v);
  EXPECT_TRUE(r.ReadBigInt().ValueOrDie().IsZero());
}

TEST(WireTest, FixedBigIntRoundTrip) {
  BigInt v(0xCAFE);
  WireWriter w;
  ASSERT_TRUE(w.WriteFixedBigInt(v, 16).ok());
  EXPECT_EQ(w.size(), 16u);
  WireReader r(w.bytes());
  EXPECT_EQ(r.ReadFixedBigInt(16).ValueOrDie(), v);
}

TEST(WireTest, FixedBigIntRejectsOverflowAndNegative) {
  WireWriter w;
  EXPECT_FALSE(w.WriteFixedBigInt(BigInt(1) << 64, 8).ok());
  EXPECT_FALSE(w.WriteFixedBigInt(BigInt(-1), 8).ok());
  EXPECT_TRUE(w.WriteFixedBigInt((BigInt(1) << 64) - BigInt(1), 8).ok());
}

TEST(WireTest, ReaderRejectsTruncatedInput) {
  Bytes short_buf = {1, 2};
  WireReader r(short_buf);
  EXPECT_FALSE(r.ReadU32().ok());
  WireReader r2(short_buf);
  EXPECT_FALSE(r2.ReadU64().ok());
  WireReader r3(short_buf);
  EXPECT_FALSE(r3.ReadBytes().ok());  // length prefix itself truncated
}

TEST(WireTest, ReaderRejectsLyingLengthPrefix) {
  WireWriter w;
  w.WriteU32(100);  // claims 100 bytes follow
  w.WriteU8(1);
  WireReader r(w.bytes());
  EXPECT_FALSE(r.ReadBytes().ok());
}

TEST(WireTest, ExpectEndFailsOnTrailingBytes) {
  Bytes buf = {1, 2, 3};
  WireReader r(buf);
  ASSERT_TRUE(r.ReadU8().ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(WireTest, EmptyBufferBehaves) {
  WireReader r(BytesView{});
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_FALSE(r.ReadU8().ok());
}

}  // namespace
}  // namespace ppstats
