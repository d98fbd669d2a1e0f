// BigInt: arbitrary-precision signed integers on 64-bit limbs.
//
// This is the arithmetic substrate for the Paillier cryptosystem and the
// oblivious-transfer group operations. It implements schoolbook and
// Karatsuba multiplication, Knuth Algorithm D division, and byte/decimal/
// hex conversions. Modular arithmetic helpers live in modarith.h and
// montgomery.h; primality testing in prime.h.
//
// The representation is magnitude (little-endian vector of 64-bit limbs,
// normalized so the most significant limb is nonzero) plus a sign flag.
// Zero is canonical: empty limb vector, non-negative.
//
// This library targets experimental reproduction, not side-channel-hardened
// production crypto: operations are not constant-time with respect to
// operand values.

#ifndef PPSTATS_BIGINT_BIGINT_H_
#define PPSTATS_BIGINT_BIGINT_H_

#include <compare>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ppstats {

/// Arbitrary-precision signed integer.
class BigInt {
 public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from any built-in integer type.
  template <typename T>
    requires std::integral<T>
  BigInt(T value) {  // NOLINT(runtime/explicit)
    if constexpr (std::is_signed_v<T>) {
      InitSigned(static_cast<int64_t>(value));
    } else {
      InitUnsigned(static_cast<uint64_t>(value));
    }
  }

  /// Parses a decimal string, optionally prefixed with '-'.
  [[nodiscard]] static Result<BigInt> FromDecimal(std::string_view s);

  /// Parses a (case-insensitive) hex string, optionally prefixed with '-'
  /// and/or "0x".
  [[nodiscard]] static Result<BigInt> FromHexString(std::string_view s);

  /// Interprets big-endian bytes as a non-negative integer.
  static BigInt FromBytes(BytesView bytes);

  /// Writes big-endian `bytes` into `out` as little-endian limbs,
  /// zero-filling the limbs above them: the fixed-width form the
  /// Montgomery kernels read, with no BigInt in between. Requires
  /// bytes.size() <= 8 * out.size().
  static void LimbsFromBytes(BytesView bytes, std::span<uint64_t> out);

  /// --- Introspection -------------------------------------------------

  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return !negative_ && limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsEven() const { return !IsOdd(); }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  /// Number of limbs in the magnitude.
  size_t LimbCount() const { return limbs_.size(); }

  /// Value of bit `i` (little-endian bit order) of the magnitude.
  bool Bit(size_t i) const;

  /// Low 64 bits of the magnitude (0 for zero).
  uint64_t LowUint64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Whether the magnitude fits in a uint64_t.
  bool FitsUint64() const { return limbs_.size() <= 1; }

  /// --- Arithmetic ----------------------------------------------------

  BigInt operator-() const;
  BigInt Abs() const;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }

  /// Truncated division (C semantics: quotient rounds toward zero,
  /// remainder has the sign of the dividend). Fails on zero divisor.
  [[nodiscard]] static Result<std::pair<BigInt, BigInt>> DivRem(const BigInt& num,
                                                                const BigInt& den);

  /// Truncated quotient / remainder. Divisor must be nonzero (asserted).
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);

  /// Left/right shift of the magnitude (sign preserved; -1 >> 10 == 0
  /// would be -0 => canonicalized to 0).
  friend BigInt operator<<(const BigInt& a, size_t bits);
  friend BigInt operator>>(const BigInt& a, size_t bits);
  BigInt& operator<<=(size_t bits) { return *this = *this << bits; }
  BigInt& operator>>=(size_t bits) { return *this = *this >> bits; }

  /// --- Comparison ----------------------------------------------------

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Compares magnitudes only: -1, 0, or +1.
  static int CompareMagnitude(const BigInt& a, const BigInt& b);

  /// --- Conversion ----------------------------------------------------

  /// Decimal representation, '-'-prefixed when negative.
  std::string ToDecimal() const;

  /// Lowercase hex representation without "0x", '-'-prefixed when negative.
  std::string ToHexString() const;

  /// Big-endian bytes of the magnitude, left-padded with zeros to at
  /// least `min_width` bytes. Always at least one byte (zero encodes as
  /// a single 0x00).
  Bytes ToBytes(size_t min_width = 0) const;

  /// Writes the low out.size() bytes of the magnitude big-endian into
  /// `out`, zero-padded on the left. Callers check that it fits: bytes
  /// above out.size() are dropped.
  void ToBytesInto(std::span<uint8_t> out) const;

  /// Direct limb access (little-endian) for the Montgomery kernel.
  const std::vector<uint64_t>& limbs() const { return limbs_; }

  /// Builds a non-negative BigInt from little-endian limbs (normalizes).
  static BigInt FromLimbs(std::vector<uint64_t> limbs);

 private:
  friend class MontgomeryContext;

  void InitUnsigned(uint64_t value);
  void InitSigned(int64_t value);

  void Normalize();

  // Magnitude helpers (ignore sign).
  static std::vector<uint64_t> AddMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint64_t> SubMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MulMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MulSchoolbook(const std::vector<uint64_t>& a,
                                             const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MulKaratsuba(const std::vector<uint64_t>& a,
                                            const std::vector<uint64_t>& b);
  static int CompareMag(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b);
  // Knuth Algorithm D on magnitudes; returns {quotient, remainder}.
  static std::pair<std::vector<uint64_t>, std::vector<uint64_t>> DivRemMag(
      const std::vector<uint64_t>& num, const std::vector<uint64_t>& den);

  std::vector<uint64_t> limbs_;  // little-endian, normalized
  bool negative_ = false;        // false when zero
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace ppstats

#endif  // PPSTATS_BIGINT_BIGINT_H_
