// Byte-buffer aliases and hex encoding helpers shared across modules.

#ifndef PPSTATS_COMMON_BYTES_H_
#define PPSTATS_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace ppstats {

/// Owned byte buffer used for wire messages and key material.
using Bytes = std::vector<uint8_t>;

/// Non-owning view of bytes.
using BytesView = std::span<const uint8_t>;

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "the big-endian word codec needs a little- or big-endian host");

/// The eight bytes at `p` as one big-endian word: one unaligned 8-byte
/// load plus a byte swap on little-endian hosts. `p` needs no alignment
/// (IndexBatch rows start 13 bytes into their frame).
inline uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Writes `v` big-endian to the eight bytes at `p` (any alignment): one
/// byte swap on little-endian hosts plus one 8-byte store.
inline void StoreBigEndian64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

/// The four bytes at `p` as one big-endian word (any alignment).
inline uint32_t LoadBigEndian32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

/// Writes `v` big-endian to the four bytes at `p` (any alignment).
inline void StoreBigEndian32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

/// Encodes bytes as lowercase hex ("deadbeef").
std::string ToHex(BytesView bytes);

/// Decodes lowercase/uppercase hex into bytes. Fails on odd length or
/// non-hex characters.
[[nodiscard]] Result<Bytes> FromHex(std::string_view hex);

/// Constant-time byte equality (length leaks; contents do not).
bool ConstantTimeEqual(BytesView a, BytesView b);

}  // namespace ppstats

#endif  // PPSTATS_COMMON_BYTES_H_
