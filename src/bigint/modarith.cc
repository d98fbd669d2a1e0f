#include "bigint/modarith.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "bigint/montgomery.h"

namespace ppstats {

BigInt Mod(const BigInt& a, const BigInt& m) {
  assert(!m.IsZero() && !m.IsNegative());
  BigInt r = a % m;
  if (r.IsNegative()) r += m;
  return r;
}

BigInt AddMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt s = a + b;
  if (s >= m) s -= m;
  return s;
}

BigInt SubMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt s = a - b;
  if (s.IsNegative()) s += m;
  return s;
}

BigInt MulMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a * b, m);
}

namespace {

// Binary-GCD helpers over little-endian limb arrays. Lengths are kept
// normalized (no high zero limbs), so every pass shrinks with the values.

size_t TrimLimbs(const uint64_t* x, size_t len) {
  while (len > 0 && x[len - 1] == 0) --len;
  return len;
}

// x >>= shift in place; returns the trimmed length.
size_t ShiftRightLimbs(uint64_t* x, size_t len, size_t shift) {
  const size_t limbs = shift / 64;
  const unsigned bits = static_cast<unsigned>(shift % 64);
  if (limbs >= len) return 0;
  const size_t out_len = len - limbs;
  if (bits == 0) {
    std::copy(x + limbs, x + len, x);
  } else {
    for (size_t i = 0; i + 1 < out_len; ++i) {
      x[i] = (x[i + limbs] >> bits) | (x[i + limbs + 1] << (64 - bits));
    }
    x[out_len - 1] = x[len - 1] >> bits;
  }
  return TrimLimbs(x, out_len);
}

// Trailing zero bits of a nonzero x.
size_t TrailingZeroBits(const uint64_t* x) {
  size_t i = 0;
  while (x[i] == 0) ++i;
  return 64 * i + static_cast<size_t>(__builtin_ctzll(x[i]));
}

// Three-way magnitude comparison of trimmed x and y.
int CompareLimbs(const uint64_t* x, size_t x_len, const uint64_t* y,
                 size_t y_len) {
  if (x_len != y_len) return x_len < y_len ? -1 : 1;
  for (size_t i = x_len; i-- > 0;) {
    if (x[i] != y[i]) return x[i] < y[i] ? -1 : 1;
  }
  return 0;
}

// x -= y for x >= y; returns the trimmed length.
size_t SubLimbs(uint64_t* x, size_t x_len, const uint64_t* y, size_t y_len) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < x_len; ++i) {
    const uint64_t yi = i < y_len ? y[i] : 0;
    if (i >= y_len && borrow == 0) break;
    const uint64_t d = x[i] - yi;
    const uint64_t next = (x[i] < yi) | (d < borrow);
    x[i] = d - borrow;
    borrow = next;
  }
  return TrimLimbs(x, x_len);
}

// gcd of two odd single limbs.
uint64_t GcdOdd64(uint64_t u, uint64_t v) {
  while (u != v) {
    if (u > v) std::swap(u, v);
    v -= u;
    v >>= __builtin_ctzll(v);
  }
  return u;
}

}  // namespace

BigInt Gcd(const BigInt& a, const BigInt& b) {
  // Binary (Stein) GCD on copies of the magnitudes: strip the common
  // power of two, then repeatedly subtract the smaller odd value from the
  // larger and shift out the new trailing zeros. No division and, up to
  // kInline limbs per operand, no heap allocation besides the result.
  if (a.IsZero()) return b.Abs();
  if (b.IsZero()) return a.Abs();
  constexpr size_t kInline = 64;
  size_t u_len = a.LimbCount();
  size_t v_len = b.LimbCount();
  uint64_t inline_buf[2 * kInline] = {};
  std::vector<uint64_t> heap_buf;
  uint64_t* u = inline_buf;
  if (u_len > kInline || v_len > kInline) {
    heap_buf.resize(u_len + v_len);
    u = heap_buf.data();
  }
  uint64_t* v = u + (heap_buf.empty() ? kInline : u_len);
  std::copy(a.limbs().begin(), a.limbs().end(), u);
  std::copy(b.limbs().begin(), b.limbs().end(), v);

  const size_t u_zeros = TrailingZeroBits(u);
  const size_t v_zeros = TrailingZeroBits(v);
  const size_t common_zeros = std::min(u_zeros, v_zeros);
  u_len = ShiftRightLimbs(u, u_len, u_zeros);
  v_len = ShiftRightLimbs(v, v_len, v_zeros);
  // Both odd from here on; keep u <= v.
  for (;;) {
    if (u_len == 1 && v_len == 1) {
      u[0] = GcdOdd64(u[0], v[0]);
      break;
    }
    const int cmp = CompareLimbs(u, u_len, v, v_len);
    if (cmp == 0) break;
    if (cmp > 0) {
      std::swap(u, v);
      std::swap(u_len, v_len);
    }
    v_len = SubLimbs(v, v_len, u, u_len);  // even and nonzero
    v_len = ShiftRightLimbs(v, v_len, TrailingZeroBits(v));
  }
  return BigInt::FromLimbs(std::vector<uint64_t>(u, u + u_len))
         << common_zeros;
}

BigInt Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt g = Gcd(a, b);
  return (a.Abs() / g) * b.Abs();
}

ExtendedGcdResult ExtendedGcd(const BigInt& a, const BigInt& b) {
  // Iterative extended Euclid on the given (possibly negative) inputs.
  BigInt old_r = a, r = b;
  BigInt old_s = 1, s = 0;
  BigInt old_t = 0, t = 1;
  while (!r.IsZero()) {
    BigInt q = old_r / r;
    BigInt tmp = old_r - q * r;
    old_r = std::move(r);
    r = std::move(tmp);
    tmp = old_s - q * s;
    old_s = std::move(s);
    s = std::move(tmp);
    tmp = old_t - q * t;
    old_t = std::move(t);
    t = std::move(tmp);
  }
  if (old_r.IsNegative()) {
    old_r = -old_r;
    old_s = -old_s;
    old_t = -old_t;
  }
  return {std::move(old_r), std::move(old_s), std::move(old_t)};
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) return Status::InvalidArgument("modulus must be > 1");
  ExtendedGcdResult e = ExtendedGcd(Mod(a, m), m);
  if (!e.g.IsOne()) {
    return Status::CryptoError("value is not invertible modulo m");
  }
  return Mod(e.x, m);
}

BigInt ModExpPlain(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(!exp.IsNegative());
  assert(!m.IsZero() && !m.IsNegative());
  if (m.IsOne()) return BigInt();
  BigInt result(1);
  BigInt b = Mod(base, m);
  size_t bits = exp.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = MulMod(result, result, m);
    if (exp.Bit(i)) result = MulMod(result, b, m);
  }
  return result;
}

BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(!exp.IsNegative());
  assert(!m.IsZero() && !m.IsNegative());
  if (m.IsOne()) return BigInt();
  if (m.IsOdd()) {
    MontgomeryContext ctx(m);
    return ctx.Exp(Mod(base, m), exp);
  }
  return ModExpPlain(base, exp, m);
}

Result<BigInt> CrtCombine(const BigInt& r1, const BigInt& m1,
                          const BigInt& r2, const BigInt& m2) {
  // x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2)
  PPSTATS_ASSIGN_OR_RETURN(BigInt m1_inv, ModInverse(m1, m2));
  BigInt diff = Mod(r2 - r1, m2);
  BigInt t = MulMod(diff, m1_inv, m2);
  return Mod(r1, m1) + m1 * t;
}

BigInt RandomBits(RandomSource& rng, size_t bits) {
  if (bits == 0) return BigInt();
  Bytes buf((bits + 7) / 8);
  rng.Fill(buf);
  // Mask excess high bits.
  size_t excess = buf.size() * 8 - bits;
  buf[0] &= static_cast<uint8_t>(0xFF >> excess);
  return BigInt::FromBytes(buf);
}

BigInt RandomBelow(RandomSource& rng, const BigInt& bound) {
  assert(!bound.IsZero() && !bound.IsNegative());
  size_t bits = bound.BitLength();
  for (;;) {
    BigInt candidate = RandomBits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

BigInt RandomUnit(RandomSource& rng, const BigInt& m) {
  assert(m > BigInt(1));
  for (;;) {
    BigInt candidate = RandomBelow(rng, m);
    if (candidate.IsZero()) continue;
    if (Gcd(candidate, m).IsOne()) return candidate;
  }
}

}  // namespace ppstats
