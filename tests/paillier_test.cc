#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/modarith.h"
#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

// A fixture holding one key pair per modulus size (keygen is the slow
// part; share it across the suite).
class PaillierTest : public ::testing::TestWithParam<size_t> {
 protected:
  static PaillierKeyPair MakeKeyPair(size_t bits) {
    ChaCha20Rng rng(9000 + bits);
    return Paillier::GenerateKeyPair(bits, rng).ValueOrDie();
  }

  PaillierKeyPair key_pair_ = MakeKeyPair(GetParam());
  ChaCha20Rng rng_{GetParam()};
};

TEST_P(PaillierTest, KeyHasRequestedModulusBits) {
  EXPECT_EQ(key_pair_.public_key.n().BitLength(), GetParam());
  EXPECT_EQ(key_pair_.public_key.modulus_bits(), GetParam());
  EXPECT_EQ(key_pair_.public_key.n_squared(),
            key_pair_.public_key.n() * key_pair_.public_key.n());
}

TEST_P(PaillierTest, EncryptDecryptRoundTrip) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  for (int iter = 0; iter < 10; ++iter) {
    BigInt m = RandomBelow(rng_, pub.n());
    PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
    EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, ct).ValueOrDie(), m);
  }
}

TEST_P(PaillierTest, CrtAndDirectDecryptionAgree) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  for (int iter = 0; iter < 5; ++iter) {
    BigInt m = RandomBelow(rng_, pub.n());
    PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
    EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, ct).ValueOrDie(),
              Paillier::DecryptDirect(key_pair_.private_key, ct)
                  .ValueOrDie());
  }
}

TEST_P(PaillierTest, EdgePlaintexts) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  for (const BigInt& m :
       {BigInt(0), BigInt(1), pub.n() - BigInt(1), pub.n() >> 1}) {
    PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
    EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, ct).ValueOrDie(), m);
  }
}

TEST_P(PaillierTest, EncryptRejectsOutOfRange) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  EXPECT_FALSE(Paillier::Encrypt(pub, pub.n(), rng_).ok());
  EXPECT_FALSE(Paillier::Encrypt(pub, pub.n() + BigInt(5), rng_).ok());
  EXPECT_FALSE(Paillier::Encrypt(pub, BigInt(-1), rng_).ok());
}

TEST_P(PaillierTest, EncryptionIsRandomized) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  BigInt m(42);
  PaillierCiphertext a = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
  PaillierCiphertext b = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
  EXPECT_NE(a, b);  // semantic security: same plaintext, fresh ciphertext
}

TEST_P(PaillierTest, AdditiveHomomorphism) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  for (int iter = 0; iter < 5; ++iter) {
    BigInt a = RandomBelow(rng_, pub.n() >> 1);
    BigInt b = RandomBelow(rng_, pub.n() >> 1);
    PaillierCiphertext ca = Paillier::Encrypt(pub, a, rng_).ValueOrDie();
    PaillierCiphertext cb = Paillier::Encrypt(pub, b, rng_).ValueOrDie();
    PaillierCiphertext sum = Paillier::Add(pub, ca, cb);
    EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, sum).ValueOrDie(),
              a + b);
  }
}

TEST_P(PaillierTest, AdditionWrapsModN) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  BigInt a = pub.n() - BigInt(1);
  BigInt b(2);
  PaillierCiphertext ca = Paillier::Encrypt(pub, a, rng_).ValueOrDie();
  PaillierCiphertext cb = Paillier::Encrypt(pub, b, rng_).ValueOrDie();
  PaillierCiphertext sum = Paillier::Add(pub, ca, cb);
  EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, sum).ValueOrDie(),
            BigInt(1));
}

TEST_P(PaillierTest, ScalarMultiplicationHomomorphism) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  for (uint64_t k : {0ULL, 1ULL, 2ULL, 12345ULL, 0xFFFFFFFFULL}) {
    BigInt m(999);
    PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
    PaillierCiphertext scaled = Paillier::ScalarMultiply(pub, ct, BigInt(k));
    EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, scaled).ValueOrDie(),
              Mod(m * BigInt(k), pub.n()))
        << k;
  }
}

TEST_P(PaillierTest, AddPlaintextHomomorphism) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  BigInt m(1234);
  PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
  PaillierCiphertext shifted =
      Paillier::AddPlaintext(pub, ct, BigInt(876)).ValueOrDie();
  EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, shifted).ValueOrDie(),
            BigInt(2110));
}

TEST_P(PaillierTest, RerandomizePreservesPlaintext) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  BigInt m(777);
  PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
  PaillierCiphertext rr = Paillier::Rerandomize(pub, ct, rng_);
  EXPECT_NE(ct, rr);
  EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, rr).ValueOrDie(), m);
}

TEST_P(PaillierTest, EncryptWithPrecomputedFactor) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  BigInt factor = Paillier::GenerateRandomFactor(pub, rng_);
  BigInt m(31337);
  PaillierCiphertext ct =
      Paillier::EncryptWithFactor(pub, m, factor).ValueOrDie();
  EXPECT_EQ(Paillier::Decrypt(key_pair_.private_key, ct).ValueOrDie(), m);
}

TEST_P(PaillierTest, SerializeDeserializeRoundTrip) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  BigInt m(424242);
  PaillierCiphertext ct = Paillier::Encrypt(pub, m, rng_).ValueOrDie();
  Bytes wire = Paillier::SerializeCiphertext(pub, ct);
  EXPECT_EQ(wire.size(), pub.CiphertextBytes());
  PaillierCiphertext back =
      Paillier::DeserializeCiphertext(pub, wire).ValueOrDie();
  EXPECT_EQ(back, ct);
}

TEST_P(PaillierTest, DeserializeRejectsBadInput) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  Bytes wrong_width(pub.CiphertextBytes() - 1, 0);
  EXPECT_FALSE(Paillier::DeserializeCiphertext(pub, wrong_width).ok());
  Bytes too_large(pub.CiphertextBytes(), 0xFF);
  EXPECT_FALSE(Paillier::DeserializeCiphertext(pub, too_large).ok());
}

TEST_P(PaillierTest, DecryptRejectsOutOfRangeCiphertext) {
  const PaillierPublicKey& pub = key_pair_.public_key;
  PaillierCiphertext bad{pub.n_squared() + BigInt(1)};
  EXPECT_FALSE(Paillier::Decrypt(key_pair_.private_key, bad).ok());
  EXPECT_FALSE(Paillier::DecryptDirect(key_pair_.private_key, bad).ok());
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierTest,
                         ::testing::Values(128, 256, 512, 1024));

TEST(PaillierKeygenTest, RejectsBadModulusBits) {
  ChaCha20Rng rng(1);
  EXPECT_FALSE(Paillier::GenerateKeyPair(15, rng).ok());
  EXPECT_FALSE(Paillier::GenerateKeyPair(14, rng).ok());
  EXPECT_FALSE(Paillier::GenerateKeyPair(0, rng).ok());
  EXPECT_FALSE(Paillier::GenerateKeyPair(129, rng).ok());
}

TEST(PaillierKeygenTest, FromPrimesValidates) {
  EXPECT_FALSE(PaillierPrivateKey::FromPrimes(BigInt(7), BigInt(7), 6).ok());
  EXPECT_FALSE(PaillierPrivateKey::FromPrimes(BigInt(8), BigInt(7), 6).ok());
}

TEST(PaillierKeygenTest, FromPrimesSmallExample) {
  // p=11, q=13: n=143, works end-to-end at toy scale.
  PaillierPrivateKey key =
      PaillierPrivateKey::FromPrimes(BigInt(11), BigInt(13), 8).ValueOrDie();
  ChaCha20Rng rng(2);
  for (uint64_t m = 0; m < 143; m += 17) {
    PaillierCiphertext ct =
        Paillier::Encrypt(key.public_key(), BigInt(m), rng).ValueOrDie();
    EXPECT_EQ(Paillier::Decrypt(key, ct).ValueOrDie(), BigInt(m));
  }
}

TEST(PaillierKeygenTest, DeterministicUnderSeed) {
  ChaCha20Rng a(99), b(99);
  PaillierKeyPair ka = Paillier::GenerateKeyPair(128, a).ValueOrDie();
  PaillierKeyPair kb = Paillier::GenerateKeyPair(128, b).ValueOrDie();
  EXPECT_EQ(ka.public_key.n(), kb.public_key.n());
}

TEST(PaillierKeygenTest, DistinctSeedsDistinctKeys) {
  ChaCha20Rng a(98), b(99);
  PaillierKeyPair ka = Paillier::GenerateKeyPair(128, a).ValueOrDie();
  PaillierKeyPair kb = Paillier::GenerateKeyPair(128, b).ValueOrDie();
  EXPECT_NE(ka.public_key.n(), kb.public_key.n());
}

// Batched encryption must reproduce per-row encryption from the same
// seed exactly: ciphertexts, factors, and the RNG state left behind.
class PaillierBatchTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& KeyPair512() {
    static const PaillierKeyPair* kp = [] {
      ChaCha20Rng rng(9512);
      return new PaillierKeyPair(
          Paillier::GenerateKeyPair(512, rng).ValueOrDie());
    }();
    return *kp;
  }
};

TEST_F(PaillierBatchTest, EncryptBatchMatchesPerRowEncrypt) {
  const PaillierPublicKey& pub = KeyPair512().public_key;
  std::vector<BigInt> plaintexts;
  for (uint64_t i = 0; i < 37; ++i) {
    plaintexts.push_back(i % 4 == 3 ? pub.n() - BigInt(i) : BigInt(i % 2));
  }
  ChaCha20Rng batch_rng(31);
  ChaCha20Rng row_rng(31);
  const std::vector<PaillierCiphertext> batch =
      Paillier::EncryptBatch(pub, plaintexts, batch_rng).ValueOrDie();
  ASSERT_EQ(batch.size(), plaintexts.size());
  for (size_t i = 0; i < plaintexts.size(); ++i) {
    EXPECT_EQ(batch[i],
              Paillier::Encrypt(pub, plaintexts[i], row_rng).ValueOrDie())
        << "row " << i;
    EXPECT_EQ(Paillier::Decrypt(KeyPair512().private_key, batch[i])
                  .ValueOrDie(),
              plaintexts[i]);
  }
  EXPECT_EQ(batch_rng.NextUint64(), row_rng.NextUint64());
}

TEST_F(PaillierBatchTest, GenerateRandomFactorsMatchesPerRowFactors) {
  const PaillierPublicKey& pub = KeyPair512().public_key;
  for (size_t count : {0u, 1u, 7u, 8u, 9u, 17u}) {
    ChaCha20Rng batch_rng(40 + count);
    ChaCha20Rng row_rng(40 + count);
    const std::vector<BigInt> factors =
        Paillier::GenerateRandomFactors(pub, batch_rng, count);
    ASSERT_EQ(factors.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(factors[i], Paillier::GenerateRandomFactor(pub, row_rng))
          << "count " << count << ", row " << i;
    }
    EXPECT_EQ(batch_rng.NextUint64(), row_rng.NextUint64()) << "count " << count;
  }
}

TEST_F(PaillierBatchTest, EncryptBatchRejectsOutOfRangeWithoutDrawing) {
  const PaillierPublicKey& pub = KeyPair512().public_key;
  const std::vector<BigInt> plaintexts = {BigInt(1), pub.n(), BigInt(0)};
  ChaCha20Rng rng(50);
  ChaCha20Rng untouched(50);
  EXPECT_EQ(Paillier::EncryptBatch(pub, plaintexts, rng).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
}

TEST_F(PaillierBatchTest, TinyKeyRejectionsKeepTheDrawOrder) {
  // n = 251 * 241: about 1 in 125 candidates shares a factor with n, so
  // RandomUnit really rejects draws here. Replaying the draws by hand
  // (RandomBelow, skipping zero and non-units) must give the r's the
  // batch used, in row order.
  const PaillierPrivateKey key =
      PaillierPrivateKey::FromPrimes(BigInt(251), BigInt(241), 16)
          .ValueOrDie();
  const PaillierPublicKey& pub = key.public_key();
  constexpr size_t kRows = 512;
  std::vector<BigInt> plaintexts;
  for (size_t i = 0; i < kRows; ++i) plaintexts.push_back(BigInt(i % 3));

  ChaCha20Rng replay(60);
  std::vector<BigInt> units;
  size_t rejected = 0;
  while (units.size() < kRows) {
    BigInt candidate = RandomBelow(replay, pub.n());
    if (candidate.IsZero() || !Gcd(candidate, pub.n()).IsOne()) {
      ++rejected;
      continue;
    }
    units.push_back(std::move(candidate));
  }
  ASSERT_GT(rejected, 0u) << "the seed must exercise RandomUnit's rejection";

  ChaCha20Rng batch_rng(60);
  ChaCha20Rng row_rng(60);
  const std::vector<PaillierCiphertext> batch =
      Paillier::EncryptBatch(pub, plaintexts, batch_rng).ValueOrDie();
  ASSERT_EQ(batch.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const BigInt expected = MulMod(
        BigInt(1) + plaintexts[i] * pub.n(),
        ModExpPlain(units[i], pub.n(), pub.n_squared()), pub.n_squared());
    EXPECT_EQ(batch[i].value, expected) << "row " << i;
    EXPECT_EQ(batch[i],
              Paillier::Encrypt(pub, plaintexts[i], row_rng).ValueOrDie())
        << "row " << i;
  }
  const uint64_t next = replay.NextUint64();
  EXPECT_EQ(batch_rng.NextUint64(), next);
  EXPECT_EQ(row_rng.NextUint64(), next);
}

}  // namespace
}  // namespace ppstats
