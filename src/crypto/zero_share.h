// Additive shares of zero, the blinding primitive behind the paper's
// Sec 3.5 multi-party protocol, and the one bound every blinded sum
// must respect. Both serving forms of the protocol draw their shares
// here: the multi-client run (core/multiclient.h), where one server
// draws every share from its RNG (DrawZeroShares), and the blinded
// shard coordinator (cluster/coordinator.h), where each shard derives
// its own share from a pairwise PRF (DeriveZeroShare).
//
// For the PRF form, d parties agree on a master seed out of band. For
// every unordered pair {a, b} with a < b and a per-query nonce, both
// endpoints derive the same pseudorandom value
// v_ab = PRF(seed, a, b, nonce) mod M; party a adds it to its share
// and party b subtracts it. Party i's share
//
//   R_i = sum_{i < j} v_ij - sum_{a < i} v_ai  (mod M)
//
// then satisfies sum_i R_i = 0 (mod M) exactly: each v_ab appears once
// with each sign. A coordinator seeing blinded partials p_i + R_i mod M
// learns nothing about any individual p_i beyond the final aggregate,
// which is recovered by summing all d shares and reducing mod M.
//
// The nonce MUST be unique per query under one seed: reusing a nonce
// reuses the shares, letting an observer cancel blinding across
// queries by subtracting two blinded partials from the same shard.

#ifndef PPSTATS_CRYPTO_ZERO_SHARE_H_
#define PPSTATS_CRYPTO_ZERO_SHARE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"

namespace ppstats {

/// Derives party `index`'s additive share of zero among `count` parties
/// for the given seed/nonce, reduced into [0, modulus). The shares of
/// all `count` indices sum to 0 mod modulus. Fails when count == 0,
/// index >= count, the seed is empty, or modulus < 2.
[[nodiscard]] Result<BigInt> DeriveZeroShare(BytesView seed, uint32_t index,
                                             uint32_t count, uint64_t nonce,
                                             const BigInt& modulus);

/// Draws `count` additive shares of zero from `rng`, each in
/// [0, modulus): count - 1 uniform draws, then the complement of their
/// sum, so the shares sum to 0 mod modulus. Fails when count == 0 or
/// modulus < 2.
[[nodiscard]] Result<std::vector<BigInt>> DrawZeroShares(
    RandomSource& rng, size_t count, const BigInt& modulus);

/// The blinding bound for a key with plaintext modulus `n`: a decrypted
/// value is a true sum below M plus `summands` shares in [0, M), so it
/// stays below (summands + 1)M and must not wrap mod n. Fails with
/// InvalidArgument unless modulus >= 2 and (summands + 1) * modulus <= n.
/// A client or shard adds one share (2M <= n); a coordinator merging d
/// blinded shard partials adds d.
[[nodiscard]] Status CheckBlindModulus(const BigInt& modulus, const BigInt& n,
                                       size_t summands);

}  // namespace ppstats

#endif  // PPSTATS_CRYPTO_ZERO_SHARE_H_
