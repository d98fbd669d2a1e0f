#include "crypto/zero_share.h"

#include <cstddef>
#include <string>
#include <utility>

#include "bigint/modarith.h"
#include "crypto/sha256.h"

namespace ppstats {
namespace {

void AppendU32(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void AppendU64(Bytes& out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v >> 32));
  AppendU32(out, static_cast<uint32_t>(v));
}

// v_ab for the pair a < b: a counter-mode SHA-256 expansion of
// (seed, a, b, nonce) reduced mod M. The expansion draws 64 bits more
// than M's width so the reduction bias is negligible (2^-64).
BigInt PairValue(BytesView seed, uint32_t a, uint32_t b, uint64_t nonce,
                 const BigInt& modulus) {
  static constexpr char kTag[] = "ppstats.zero-share.v1";
  const size_t want_bits = modulus.BitLength() + 64;
  const size_t blocks = (want_bits + 255) / 256;
  Bytes stream;
  stream.reserve(blocks * Sha256::kDigestSize);
  for (size_t block = 0; block < blocks; ++block) {
    Sha256 hasher;
    hasher.Update(BytesView(reinterpret_cast<const uint8_t*>(kTag),
                            sizeof(kTag) - 1));
    hasher.Update(seed);
    Bytes fields;
    AppendU32(fields, a);
    AppendU32(fields, b);
    AppendU64(fields, nonce);
    AppendU32(fields, static_cast<uint32_t>(block));
    hasher.Update(fields);
    Sha256::Digest digest = hasher.Finish();
    stream.insert(stream.end(), digest.begin(), digest.end());
  }
  return Mod(BigInt::FromBytes(stream), modulus);
}

}  // namespace

Result<BigInt> DeriveZeroShare(BytesView seed, uint32_t index, uint32_t count,
                               uint64_t nonce, const BigInt& modulus) {
  if (count == 0 || index >= count) {
    return Status::InvalidArgument("zero-share index out of range");
  }
  if (seed.empty()) {
    return Status::InvalidArgument("zero-share seed is empty");
  }
  if (modulus < BigInt(2)) {
    return Status::InvalidArgument("zero-share modulus must be >= 2");
  }
  BigInt share(0);
  for (uint32_t j = index + 1; j < count; ++j) {
    share = AddMod(share, PairValue(seed, index, j, nonce, modulus), modulus);
  }
  for (uint32_t a = 0; a < index; ++a) {
    share = SubMod(share, PairValue(seed, a, index, nonce, modulus), modulus);
  }
  return share;
}

Result<std::vector<BigInt>> DrawZeroShares(RandomSource& rng, size_t count,
                                           const BigInt& modulus) {
  if (count == 0) {
    return Status::InvalidArgument("zero shares need at least one party");
  }
  if (modulus < BigInt(2)) {
    return Status::InvalidArgument("zero-share modulus must be >= 2");
  }
  std::vector<BigInt> shares;
  shares.reserve(count);
  BigInt sum(0);
  for (size_t i = 0; i + 1 < count; ++i) {
    BigInt r = RandomBelow(rng, modulus);
    sum = AddMod(sum, r, modulus);
    shares.push_back(std::move(r));
  }
  shares.push_back(SubMod(BigInt(0), sum, modulus));
  return shares;
}

Status CheckBlindModulus(const BigInt& modulus, const BigInt& n,
                         size_t summands) {
  if (modulus < BigInt(2)) {
    return Status::InvalidArgument("blinding modulus must be >= 2");
  }
  const uint64_t factor = static_cast<uint64_t>(summands) + 1;
  if (BigInt(factor) * modulus > n) {
    return Status::InvalidArgument(
        "blinding modulus too large for the key: need " +
        std::to_string(factor) + "M <= n");
  }
  return Status::OK();
}

}  // namespace ppstats
