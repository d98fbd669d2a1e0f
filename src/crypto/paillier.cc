#include "crypto/paillier.h"

#include <algorithm>
#include <utility>

#include "bigint/modarith.h"
#include "bigint/prime.h"

namespace ppstats {

namespace {

// L(x) = (x - 1) / d, defined for x = 1 (mod d).
BigInt LFunction(const BigInt& x, const BigInt& d) {
  return (x - BigInt(1)) / d;
}

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigInt n, size_t modulus_bits)
    : n_(std::move(n)),
      n_squared_(n_ * n_),
      modulus_bits_(modulus_bits),
      mont_n2_(std::make_shared<MontgomeryContext>(n_squared_)) {}

Result<PaillierPrivateKey> PaillierPrivateKey::FromPrimes(
    const BigInt& p, const BigInt& q, size_t modulus_bits) {
  if (p == q) return Status::InvalidArgument("p and q must be distinct");
  if (p.IsEven() || q.IsEven()) {
    return Status::InvalidArgument("p and q must be odd primes");
  }
  BigInt n = p * q;
  BigInt p1 = p - BigInt(1);
  BigInt q1 = q - BigInt(1);
  if (!Gcd(n, p1 * q1).IsOne()) {
    return Status::CryptoError("gcd(n, phi(n)) != 1; regenerate primes");
  }

  PaillierPrivateKey key;
  key.pub_ = PaillierPublicKey(n, modulus_bits);
  key.p_ = p;
  key.q_ = q;
  key.p_squared_ = p * p;
  key.q_squared_ = q * q;
  key.lambda_ = Lcm(p1, q1);
  PPSTATS_ASSIGN_OR_RETURN(key.mu_, ModInverse(key.lambda_, n));
  key.mont_p2_ = std::make_shared<MontgomeryContext>(key.p_squared_);
  key.mont_q2_ = std::make_shared<MontgomeryContext>(key.q_squared_);

  // CRT constants: hp = L_p(g^(p-1) mod p^2)^{-1} mod p, with g = n + 1.
  BigInt g = n + BigInt(1);
  BigInt gp = key.mont_p2_->Exp(Mod(g, key.p_squared_), p1);
  BigInt gq = key.mont_q2_->Exp(Mod(g, key.q_squared_), q1);
  PPSTATS_ASSIGN_OR_RETURN(key.hp_, ModInverse(LFunction(gp, p), p));
  PPSTATS_ASSIGN_OR_RETURN(key.hq_, ModInverse(LFunction(gq, q), q));
  return key;
}

Result<PaillierKeyPair> Paillier::GenerateKeyPair(size_t modulus_bits,
                                                  RandomSource& rng) {
  if (modulus_bits < 16 || modulus_bits % 2 != 0) {
    return Status::InvalidArgument(
        "modulus_bits must be even and at least 16");
  }
  for (;;) {
    auto [p, q] = GeneratePrimePair(modulus_bits / 2, rng);
    auto priv = PaillierPrivateKey::FromPrimes(p, q, modulus_bits);
    if (!priv.ok()) continue;  // gcd(n, phi) != 1 is possible; retry
    PaillierKeyPair pair;
    pair.private_key = std::move(priv).ValueOrDie();
    pair.public_key = pair.private_key.public_key();
    return pair;
  }
}

BigInt Paillier::GenerateRandomFactor(const PaillierPublicKey& pub,
                                      RandomSource& rng) {
  return std::move(GenerateRandomFactors(pub, rng, 1)[0]);
}

std::vector<BigInt> Paillier::GenerateRandomFactors(const PaillierPublicKey& pub,
                                                    RandomSource& rng,
                                                    size_t count) {
  std::vector<BigInt> units;
  units.reserve(count);
  for (size_t i = 0; i < count; ++i) units.push_back(RandomUnit(rng, pub.n()));
  std::vector<BigInt> factors;
  factors.reserve(count);
  for (size_t begin = 0; begin < count; begin += kEncryptLanes) {
    const size_t group = std::min(kEncryptLanes, count - begin);
    for (BigInt& factor : pub.mont_n2().ExpBatch(
             std::span<const BigInt>(units).subspan(begin, group), pub.n())) {
      factors.push_back(std::move(factor));
    }
  }
  return factors;
}

Result<PaillierCiphertext> Paillier::EncryptWithFactor(
    const PaillierPublicKey& pub, const BigInt& m, const BigInt& r_to_n) {
  if (m.IsNegative() || m >= pub.n()) {
    return Status::OutOfRange("plaintext must be in [0, n)");
  }
  // (1 + m n) mod n^2  — no exponentiation needed since g = n + 1.
  BigInt gm = Mod(BigInt(1) + m * pub.n(), pub.n_squared());
  return PaillierCiphertext{MulMod(gm, r_to_n, pub.n_squared())};
}

Result<PaillierCiphertext> Paillier::Encrypt(const PaillierPublicKey& pub,
                                             const BigInt& m,
                                             RandomSource& rng) {
  const std::span<const BigInt> one(&m, 1);
  PPSTATS_ASSIGN_OR_RETURN(std::vector<PaillierCiphertext> cts,
                           EncryptBatch(pub, one, rng));
  return std::move(cts[0]);
}

Result<std::vector<PaillierCiphertext>> Paillier::EncryptBatch(
    const PaillierPublicKey& pub, std::span<const BigInt> plaintexts,
    RandomSource& rng) {
  for (const BigInt& m : plaintexts) {
    if (m.IsNegative() || m >= pub.n()) {
      return Status::OutOfRange("plaintext must be in [0, n)");
    }
  }
  const std::vector<BigInt> factors =
      GenerateRandomFactors(pub, rng, plaintexts.size());
  std::vector<PaillierCiphertext> cts;
  cts.reserve(plaintexts.size());
  for (size_t i = 0; i < plaintexts.size(); ++i) {
    PPSTATS_ASSIGN_OR_RETURN(PaillierCiphertext ct,
                             EncryptWithFactor(pub, plaintexts[i], factors[i]));
    cts.push_back(std::move(ct));
  }
  return cts;
}

Result<BigInt> Paillier::DecryptDirect(const PaillierPrivateKey& priv,
                                       const PaillierCiphertext& ct) {
  const PaillierPublicKey& pub = priv.public_key();
  if (ct.value.IsNegative() || ct.value >= pub.n_squared()) {
    return Status::OutOfRange("ciphertext out of range");
  }
  BigInt u = pub.mont_n2().Exp(ct.value, priv.lambda());
  return MulMod(LFunction(u, pub.n()), priv.mu(), pub.n());
}

Result<BigInt> Paillier::Decrypt(const PaillierPrivateKey& priv,
                                 const PaillierCiphertext& ct) {
  const PaillierPublicKey& pub = priv.public_key();
  if (ct.value.IsNegative() || ct.value >= pub.n_squared()) {
    return Status::OutOfRange("ciphertext out of range");
  }
  // CRT decryption over p^2 and q^2.
  BigInt p1 = priv.p() - BigInt(1);
  BigInt q1 = priv.q() - BigInt(1);
  BigInt cp = priv.mont_p2().Exp(Mod(ct.value, priv.p_squared()), p1);
  BigInt cq = priv.mont_q2().Exp(Mod(ct.value, priv.q_squared()), q1);
  BigInt mp = MulMod(LFunction(cp, priv.p()), priv.hp(), priv.p());
  BigInt mq = MulMod(LFunction(cq, priv.q()), priv.hq(), priv.q());
  return CrtCombine(mp, priv.p(), mq, priv.q());
}

PaillierCiphertext Paillier::Add(const PaillierPublicKey& pub,
                                 const PaillierCiphertext& a,
                                 const PaillierCiphertext& b) {
  return PaillierCiphertext{MulMod(a.value, b.value, pub.n_squared())};
}

Result<PaillierCiphertext> Paillier::AddPlaintext(
    const PaillierPublicKey& pub, const PaillierCiphertext& a,
    const BigInt& k) {
  BigInt km = Mod(k, pub.n());
  BigInt gk = Mod(BigInt(1) + km * pub.n(), pub.n_squared());
  return PaillierCiphertext{MulMod(a.value, gk, pub.n_squared())};
}

PaillierCiphertext Paillier::ScalarMultiply(const PaillierPublicKey& pub,
                                            const PaillierCiphertext& a,
                                            const BigInt& k) {
  return PaillierCiphertext{pub.mont_n2().Exp(a.value, Mod(k, pub.n()))};
}

PaillierCiphertext Paillier::WeightedFold(
    const PaillierPublicKey& pub, std::span<const PaillierCiphertext> cts,
    std::span<const BigInt> weights) {
  std::vector<BigInt> bases;
  std::vector<BigInt> exponents;
  bases.reserve(cts.size());
  exponents.reserve(cts.size());
  for (size_t i = 0; i < cts.size(); ++i) {
    bases.push_back(cts[i].value);
    exponents.push_back(Mod(weights[i], pub.n()));
  }
  return PaillierCiphertext{pub.mont_n2().MultiExp(bases, exponents)};
}

PaillierCiphertext Paillier::Rerandomize(const PaillierPublicKey& pub,
                                         const PaillierCiphertext& a,
                                         RandomSource& rng) {
  BigInt factor = GenerateRandomFactor(pub, rng);
  return PaillierCiphertext{MulMod(a.value, factor, pub.n_squared())};
}

Bytes Paillier::SerializeCiphertext(const PaillierPublicKey& pub,
                                    const PaillierCiphertext& ct) {
  return ct.value.ToBytes(pub.CiphertextBytes());
}

Result<PaillierCiphertext> Paillier::DeserializeCiphertext(
    const PaillierPublicKey& pub, BytesView bytes) {
  if (bytes.size() != pub.CiphertextBytes()) {
    return Status::SerializationError("ciphertext has wrong wire width");
  }
  BigInt v = BigInt::FromBytes(bytes);
  if (v >= pub.n_squared()) {
    return Status::SerializationError("ciphertext >= n^2");
  }
  return PaillierCiphertext{std::move(v)};
}

}  // namespace ppstats
