#include "crypto/pool.h"

#include <gtest/gtest.h>

#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& KeyPair() {
    static const PaillierKeyPair* kp = [] {
      ChaCha20Rng rng(4242);
      return new PaillierKeyPair(
          Paillier::GenerateKeyPair(256, rng).ValueOrDie());
    }();
    return *kp;
  }

  ChaCha20Rng rng_{1};
};

TEST_F(PoolTest, RandomnessPoolGeneratesAndTakes) {
  RandomnessPool pool(KeyPair().public_key);
  EXPECT_EQ(pool.available(), 0u);
  pool.Generate(5, rng_);
  EXPECT_EQ(pool.available(), 5u);
  BigInt f = pool.Take().ValueOrDie();
  EXPECT_FALSE(f.IsZero());
  EXPECT_EQ(pool.available(), 4u);
}

TEST_F(PoolTest, RandomnessPoolTakeFailsWhenEmpty) {
  RandomnessPool pool(KeyPair().public_key);
  EXPECT_EQ(pool.Take().status().code(), StatusCode::kResourceExhausted);
}

TEST_F(PoolTest, RandomnessPoolEncryptionsDecryptCorrectly) {
  RandomnessPool pool(KeyPair().public_key);
  pool.Generate(8, rng_);
  for (uint64_t m : {0ULL, 1ULL, 17ULL, 123456ULL}) {
    PaillierCiphertext ct = pool.Encrypt(BigInt(m), rng_).ValueOrDie();
    EXPECT_EQ(Paillier::Decrypt(KeyPair().private_key, ct).ValueOrDie(),
              BigInt(m));
  }
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST_F(PoolTest, RandomnessPoolFallsBackOnExhaustion) {
  RandomnessPool pool(KeyPair().public_key);
  pool.Generate(1, rng_);
  PaillierCiphertext a = pool.Encrypt(BigInt(1), rng_).ValueOrDie();
  PaillierCiphertext b = pool.Encrypt(BigInt(2), rng_).ValueOrDie();
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(Paillier::Decrypt(KeyPair().private_key, a).ValueOrDie(),
            BigInt(1));
  EXPECT_EQ(Paillier::Decrypt(KeyPair().private_key, b).ValueOrDie(),
            BigInt(2));
}

TEST_F(PoolTest, EncryptionPoolServesPrecomputedValues) {
  EncryptionPool pool(KeyPair().public_key);
  ASSERT_TRUE(pool.Generate(BigInt(0), 3, rng_).ok());
  ASSERT_TRUE(pool.Generate(BigInt(1), 2, rng_).ok());
  EXPECT_EQ(pool.available(BigInt(0)), 3u);
  EXPECT_EQ(pool.available(BigInt(1)), 2u);
  EXPECT_EQ(pool.available(BigInt(7)), 0u);

  PaillierCiphertext zero = pool.Take(BigInt(0), rng_).ValueOrDie();
  PaillierCiphertext one = pool.Take(BigInt(1), rng_).ValueOrDie();
  EXPECT_EQ(Paillier::Decrypt(KeyPair().private_key, zero).ValueOrDie(),
            BigInt(0));
  EXPECT_EQ(Paillier::Decrypt(KeyPair().private_key, one).ValueOrDie(),
            BigInt(1));
  EXPECT_EQ(pool.available(BigInt(0)), 2u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST_F(PoolTest, EncryptionPoolEntriesAreDistinctCiphertexts) {
  EncryptionPool pool(KeyPair().public_key);
  ASSERT_TRUE(pool.Generate(BigInt(1), 2, rng_).ok());
  PaillierCiphertext a = pool.Take(BigInt(1), rng_).ValueOrDie();
  PaillierCiphertext b = pool.Take(BigInt(1), rng_).ValueOrDie();
  EXPECT_NE(a, b);  // each pooled encryption uses fresh randomness
}

TEST_F(PoolTest, EncryptionPoolFallsBackForUnknownPlaintext) {
  EncryptionPool pool(KeyPair().public_key);
  PaillierCiphertext ct = pool.Take(BigInt(5), rng_).ValueOrDie();
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(Paillier::Decrypt(KeyPair().private_key, ct).ValueOrDie(),
            BigInt(5));
}

TEST_F(PoolTest, EncryptionPoolRejectsOutOfRangePlaintext) {
  EncryptionPool pool(KeyPair().public_key);
  EXPECT_FALSE(pool.Generate(KeyPair().public_key.n(), 1, rng_).ok());
}

TEST_F(PoolTest, RandomnessPoolGenerateMatchesPerRowFactors) {
  RandomnessPool pool(KeyPair().public_key);
  ChaCha20Rng row_rng(1);
  pool.Generate(11, rng_);
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(pool.Take().ValueOrDie(),
              Paillier::GenerateRandomFactor(KeyPair().public_key, row_rng))
        << "factor " << i;
  }
  EXPECT_EQ(rng_.NextUint64(), row_rng.NextUint64());
}

TEST_F(PoolTest, EncryptionPoolGenerateMatchesPerRowEncrypt) {
  EncryptionPool pool(KeyPair().public_key);
  ChaCha20Rng row_rng(1);
  ASSERT_TRUE(pool.Generate(BigInt(1), 10, rng_).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pool.Take(BigInt(1), rng_).ValueOrDie(),
              Paillier::Encrypt(KeyPair().public_key, BigInt(1), row_rng)
                  .ValueOrDie())
        << "encryption " << i;
  }
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(rng_.NextUint64(), row_rng.NextUint64());
}

}  // namespace
}  // namespace ppstats
