// Paillier public-key cryptosystem (Paillier, EUROCRYPT '99) with the
// additive homomorphism the selected-sum protocol relies on:
//
//   E(a) * E(b) mod n^2          = E(a + b mod n)
//   E(a)^c mod n^2               = E(a * c mod n)
//
// Implementation notes:
//  * g is fixed to n + 1, so encryption is
//      E(m; r) = (1 + m n) * r^n  mod n^2
//    which costs one |n|-bit modular exponentiation (the dominant cost the
//    paper measures for the client).
//  * Decryption uses the standard CRT acceleration over p^2 and q^2
//    (~4x faster than the direct c^lambda mod n^2); the direct path is
//    kept for the ablation benchmark.
//  * The expensive factor r^n mod n^2 is exposed separately
//    (GenerateRandomFactor(s) / EncryptWithFactor) so the preprocessing
//    optimization of Section 3.3 can precompute it offline.
//  * Encryption is batched: every row's factor has the same exponent n,
//    so GenerateRandomFactors / EncryptBatch run r^n for groups of
//    kEncryptLanes rows as one lockstep MontgomeryContext::ExpBatch
//    window walk. Every r is drawn with RandomUnit in row order before
//    any exponentiation (the exponentiations consume no randomness), so
//    under a seeded RandomSource a batch's ciphertexts, and the RNG state
//    it leaves behind, are bit-identical to one Encrypt per row. Encrypt
//    and GenerateRandomFactor are the one-row batches.
//
// Plaintext space is Z_n; callers must supply m in [0, n).

#ifndef PPSTATS_CRYPTO_PAILLIER_H_
#define PPSTATS_CRYPTO_PAILLIER_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/random.h"
#include "common/result.h"

namespace ppstats {

/// A Paillier ciphertext: a residue modulo n^2. Wrapped in a struct so
/// ciphertexts and plaintexts cannot be confused at an API boundary.
struct PaillierCiphertext {
  BigInt value;

  friend bool operator==(const PaillierCiphertext& a,
                         const PaillierCiphertext& b) = default;
};

/// Public (encryption) key.
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  PaillierPublicKey(BigInt n, size_t modulus_bits);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }
  size_t modulus_bits() const { return modulus_bits_; }

  /// Fixed wire width of a serialized ciphertext under this key.
  size_t CiphertextBytes() const { return (2 * modulus_bits_ + 7) / 8; }

  /// Montgomery context modulo n^2 (shared, immutable).
  const MontgomeryContext& mont_n2() const { return *mont_n2_; }

  bool valid() const { return mont_n2_ != nullptr; }

 private:
  BigInt n_;
  BigInt n_squared_;
  size_t modulus_bits_ = 0;
  std::shared_ptr<const MontgomeryContext> mont_n2_;
};

/// Private (decryption) key. Embeds the matching public key.
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;

  /// Builds a private key from the prime factorization of n. Fails if
  /// p == q, p or q is even, or gcd(n, (p-1)(q-1)) != 1.
  [[nodiscard]] static Result<PaillierPrivateKey> FromPrimes(const BigInt& p,
                                                             const BigInt& q,
                                                             size_t modulus_bits);

  const PaillierPublicKey& public_key() const { return pub_; }
  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& lambda() const { return lambda_; }

  // Internal accessors used by the decryption routines.
  const BigInt& mu() const { return mu_; }
  const BigInt& p_squared() const { return p_squared_; }
  const BigInt& q_squared() const { return q_squared_; }
  const BigInt& hp() const { return hp_; }
  const BigInt& hq() const { return hq_; }
  const MontgomeryContext& mont_p2() const { return *mont_p2_; }
  const MontgomeryContext& mont_q2() const { return *mont_q2_; }

 private:
  PaillierPublicKey pub_;
  BigInt p_, q_;
  BigInt p_squared_, q_squared_;
  BigInt lambda_;  // lcm(p-1, q-1)
  BigInt mu_;      // lambda^{-1} mod n (g = n+1)
  BigInt hp_, hq_; // CRT decryption constants
  std::shared_ptr<const MontgomeryContext> mont_p2_, mont_q2_;
};

/// A generated key pair.
struct PaillierKeyPair {
  PaillierPublicKey public_key;
  PaillierPrivateKey private_key;
};

/// Stateless Paillier operations.
class Paillier {
 public:
  /// Generates a key pair with an n of exactly `modulus_bits` bits
  /// (two random primes of modulus_bits/2 bits each). modulus_bits must
  /// be even and >= 16.
  [[nodiscard]] static Result<PaillierKeyPair> GenerateKeyPair(size_t modulus_bits,
                                                               RandomSource& rng);

  /// Rows per ExpBatch group in GenerateRandomFactors: the ifma
  /// backend's lane count, so each lockstep step fills one 8-lane batch.
  static constexpr size_t kEncryptLanes = 8;

  /// The expensive precomputable part of encryption: r^n mod n^2 for a
  /// fresh random unit r.
  static BigInt GenerateRandomFactor(const PaillierPublicKey& pub,
                                     RandomSource& rng);

  /// `count` factors r_i^n mod n^2. Draws every r_i with RandomUnit in
  /// order first, then exponentiates kEncryptLanes at a time through
  /// ExpBatch; identical to `count` GenerateRandomFactor calls.
  static std::vector<BigInt> GenerateRandomFactors(const PaillierPublicKey& pub,
                                                   RandomSource& rng,
                                                   size_t count);

  /// E(m; r) for fresh randomness. Fails if m is outside [0, n).
  [[nodiscard]] static Result<PaillierCiphertext> Encrypt(const PaillierPublicKey& pub,
                                                          const BigInt& m,
                                                          RandomSource& rng);

  /// E(m_i; r_i) for every plaintext, the factors from
  /// GenerateRandomFactors: bit-identical to one Encrypt per row from the
  /// same RandomSource. Fails, drawing no randomness, if any m_i is
  /// outside [0, n).
  [[nodiscard]] static Result<std::vector<PaillierCiphertext>> EncryptBatch(
      const PaillierPublicKey& pub, std::span<const BigInt> plaintexts,
      RandomSource& rng);

  /// E(m) using a precomputed factor r^n mod n^2 (see
  /// GenerateRandomFactor); the online cost is two modular
  /// multiplications.
  [[nodiscard]] static Result<PaillierCiphertext> EncryptWithFactor(
      const PaillierPublicKey& pub, const BigInt& m,
      const BigInt& r_to_n);

  /// Decrypts via CRT (the default, fast path). Fails if the ciphertext
  /// is out of range or not a unit mod n^2.
  [[nodiscard]] static Result<BigInt> Decrypt(const PaillierPrivateKey& priv,
                                              const PaillierCiphertext& ct);

  /// Direct decryption m = L(c^lambda mod n^2) * mu mod n; kept for the
  /// CRT-vs-direct ablation and as a cross-check.
  [[nodiscard]] static Result<BigInt> DecryptDirect(const PaillierPrivateKey& priv,
                                                    const PaillierCiphertext& ct);

  /// Homomorphic addition: E(a + b mod n).
  static PaillierCiphertext Add(const PaillierPublicKey& pub,
                                const PaillierCiphertext& a,
                                const PaillierCiphertext& b);

  /// Homomorphic addition of a plaintext constant: E(a + k mod n), at the
  /// cost of two modular multiplications (no exponentiation).
  [[nodiscard]] static Result<PaillierCiphertext> AddPlaintext(const PaillierPublicKey& pub,
                                                               const PaillierCiphertext& a,
                                                               const BigInt& k);

  /// Homomorphic scalar multiplication: E(a * k mod n) = a^k mod n^2.
  /// This is the server-side operation (k is a database value).
  static PaillierCiphertext ScalarMultiply(const PaillierPublicKey& pub,
                                           const PaillierCiphertext& a,
                                           const BigInt& k);

  /// Batched homomorphic fold: E(sum_i a_i * w_i mod n) =
  /// prod_i cts[i]^{weights[i]} mod n^2, via the Pippenger/Straus
  /// multi-exponentiation kernel — the server's whole per-chunk work in
  /// one call. Bit-identical to folding ScalarMultiply results with Add.
  /// Spans must have equal length; zero weights are skipped.
  static PaillierCiphertext WeightedFold(const PaillierPublicKey& pub,
                                         std::span<const PaillierCiphertext> cts,
                                         std::span<const BigInt> weights);

  /// Re-randomizes a ciphertext: same plaintext, fresh randomness.
  static PaillierCiphertext Rerandomize(const PaillierPublicKey& pub,
                                        const PaillierCiphertext& a,
                                        RandomSource& rng);

  /// Serializes a ciphertext to its fixed wire width under `pub`.
  static Bytes SerializeCiphertext(const PaillierPublicKey& pub,
                                   const PaillierCiphertext& ct);

  /// Parses and validates a ciphertext (must decode to a value < n^2).
  [[nodiscard]] static Result<PaillierCiphertext> DeserializeCiphertext(
      const PaillierPublicKey& pub, BytesView bytes);
};

}  // namespace ppstats

#endif  // PPSTATS_CRYPTO_PAILLIER_H_
