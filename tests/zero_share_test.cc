// Additive shares of zero and the blinding bound (crypto/zero_share.h):
// the pairwise-PRF shares the blinded shard coordinator uses, the RNG
// draw of the multi-client protocol, and CheckBlindModulus at its edges.

#include "crypto/zero_share.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bigint/modarith.h"
#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

// ---------------------------------------------------------------------------
// Pairwise-PRF shares.

TEST(ClusterBlindingTest, SharesSumToZeroModM) {
  const Bytes seed = {1, 2, 3, 4};
  const BigInt modulus = BigInt(1) << 64;
  for (uint32_t count : {2u, 3u, 5u, 8u}) {
    BigInt sum(0);
    for (uint32_t i = 0; i < count; ++i) {
      Result<BigInt> share =
          DeriveZeroShare(seed, i, count, /*nonce=*/99, modulus);
      ASSERT_TRUE(share.ok()) << share.status().ToString();
      EXPECT_GE(*share, BigInt(0));
      EXPECT_LT(*share, modulus);
      sum = AddMod(sum, *share, modulus);
    }
    EXPECT_EQ(sum, BigInt(0)) << count << " parties";
  }
}

TEST(ClusterBlindingTest, SharesAreDeterministicPerSeedAndNonce) {
  const Bytes seed = {9, 9, 9};
  const BigInt modulus = BigInt(1) << 64;
  Result<BigInt> a = DeriveZeroShare(seed, 0, 4, 7, modulus);
  Result<BigInt> b = DeriveZeroShare(seed, 0, 4, 7, modulus);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  // A different nonce (fresh query) or seed must re-randomize: a reused
  // share would let the coordinator difference out a shard's partial.
  const Bytes different_seed = {8, 8, 8};
  Result<BigInt> other_nonce = DeriveZeroShare(seed, 0, 4, 8, modulus);
  Result<BigInt> other_seed = DeriveZeroShare(different_seed, 0, 4, 7, modulus);
  ASSERT_TRUE(other_nonce.ok() && other_seed.ok());
  EXPECT_NE(*a, *other_nonce);
  EXPECT_NE(*a, *other_seed);
}

TEST(ClusterBlindingTest, RejectsDegenerateInputs) {
  const BigInt modulus = BigInt(1) << 64;
  const Bytes seed = {1};
  EXPECT_FALSE(DeriveZeroShare(seed, 4, 4, 0, modulus).ok());  // index range
  EXPECT_FALSE(DeriveZeroShare(seed, 0, 0, 0, modulus).ok());  // zero parties
  EXPECT_FALSE(DeriveZeroShare(Bytes{}, 0, 2, 0, modulus).ok());  // empty seed
  EXPECT_FALSE(DeriveZeroShare(seed, 0, 2, 0, BigInt(1)).ok());  // modulus < 2
}

TEST(ClusterBlindingTest, SoleShardShareIsZero) {
  const Bytes seed = {1, 2};
  Result<BigInt> share = DeriveZeroShare(seed, 0, 1, 3, BigInt(1) << 64);
  ASSERT_TRUE(share.ok());
  EXPECT_EQ(*share, BigInt(0));
}

// ---------------------------------------------------------------------------
// RNG-drawn shares.

TEST(ZeroShareDrawTest, SharesSumToZeroModM) {
  const BigInt modulus = BigInt(1) << 64;
  ChaCha20Rng rng(17);
  for (size_t count : {1u, 2u, 3u, 7u}) {
    Result<std::vector<BigInt>> shares = DrawZeroShares(rng, count, modulus);
    ASSERT_TRUE(shares.ok()) << shares.status().ToString();
    ASSERT_EQ(shares->size(), count);
    BigInt sum(0);
    for (const BigInt& share : *shares) {
      EXPECT_GE(share, BigInt(0));
      EXPECT_LT(share, modulus);
      sum = AddMod(sum, share, modulus);
    }
    EXPECT_EQ(sum, BigInt(0)) << count << " parties";
  }
}

TEST(ZeroShareDrawTest, ConsumesTheRngLikeTheMultiClientLoop) {
  // The multi-client protocol's seeded runs stay bit-identical only if
  // the draw takes count - 1 RandomBelow values and nothing else.
  const BigInt modulus = (BigInt(1) << 61) - BigInt(1);
  const size_t count = 5;
  ChaCha20Rng drawn_rng(2024);
  ChaCha20Rng loop_rng(2024);
  Result<std::vector<BigInt>> drawn = DrawZeroShares(drawn_rng, count, modulus);
  ASSERT_TRUE(drawn.ok()) << drawn.status().ToString();

  std::vector<BigInt> expected;
  BigInt sum(0);
  for (size_t i = 0; i + 1 < count; ++i) {
    BigInt r = RandomBelow(loop_rng, modulus);
    sum = AddMod(sum, r, modulus);
    expected.push_back(r);
  }
  expected.push_back(SubMod(BigInt(0), sum, modulus));
  EXPECT_EQ(*drawn, expected);
  // Both streams stand at the same position afterwards.
  EXPECT_EQ(drawn_rng.NextUint64(), loop_rng.NextUint64());
}

TEST(ZeroShareDrawTest, SoleShareIsZeroAndDrawsNothing) {
  ChaCha20Rng rng(3);
  ChaCha20Rng untouched(3);
  Result<std::vector<BigInt>> shares =
      DrawZeroShares(rng, 1, BigInt(1) << 64);
  ASSERT_TRUE(shares.ok());
  EXPECT_EQ(*shares, std::vector<BigInt>{BigInt(0)});
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
}

TEST(ZeroShareDrawTest, RejectsDegenerateInputs) {
  ChaCha20Rng rng(4);
  EXPECT_FALSE(DrawZeroShares(rng, 0, BigInt(1) << 64).ok());  // no parties
  EXPECT_FALSE(DrawZeroShares(rng, 3, BigInt(1)).ok());  // modulus < 2
  EXPECT_FALSE(DrawZeroShares(rng, 3, BigInt(0)).ok());
}

// ---------------------------------------------------------------------------
// The blinding bound: M >= 2 and (summands + 1) * M <= n.

TEST(BlindModulusTest, RejectsModulusBelowTwo) {
  const BigInt n = BigInt(1) << 256;
  for (size_t summands : {1u, 3u}) {
    Status zero = CheckBlindModulus(BigInt(0), n, summands);
    Status one = CheckBlindModulus(BigInt(1), n, summands);
    EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(one.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(one.ToString().find("must be >= 2"), std::string::npos)
        << one.ToString();
  }
}

TEST(BlindModulusTest, AcceptsModulusTwo) {
  EXPECT_TRUE(CheckBlindModulus(BigInt(2), BigInt(4), 1).ok());
  EXPECT_FALSE(CheckBlindModulus(BigInt(2), BigInt(3), 1).ok());
  EXPECT_TRUE(CheckBlindModulus(BigInt(2), BigInt(1) << 256, 5).ok());
}

TEST(BlindModulusTest, BoundIsInclusiveAtN) {
  const BigInt modulus = BigInt(1) << 64;
  for (size_t summands : {1u, 3u, 8u}) {
    const BigInt limit = BigInt(static_cast<uint64_t>(summands + 1)) * modulus;
    // (s + 1) * M == n passes; (s + 1) * M == n + 1 fails.
    EXPECT_TRUE(CheckBlindModulus(modulus, limit, summands).ok()) << summands;
    Status over = CheckBlindModulus(modulus, limit - BigInt(1), summands);
    EXPECT_EQ(over.code(), StatusCode::kInvalidArgument) << summands;
    EXPECT_NE(over.ToString().find("need " + std::to_string(summands + 1) +
                                   "M <= n"),
              std::string::npos)
        << over.ToString();
  }
}

}  // namespace
}  // namespace ppstats
