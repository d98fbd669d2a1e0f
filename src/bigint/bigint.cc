#include "bigint/bigint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>

namespace ppstats {

namespace {

using uint128 = unsigned __int128;

constexpr size_t kKaratsubaThreshold = 24;  // limbs

// 10^19 is the largest power of ten below 2^64.
constexpr uint64_t kDecChunkBase = 10000000000000000000ULL;
constexpr int kDecChunkDigits = 19;

}  // namespace

void BigInt::InitUnsigned(uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigInt::InitSigned(int64_t value) {
  if (value < 0) {
    negative_ = true;
    // Avoid UB on INT64_MIN.
    limbs_.push_back(static_cast<uint64_t>(-(value + 1)) + 1);
  } else if (value > 0) {
    limbs_.push_back(static_cast<uint64_t>(value));
  }
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::FromLimbs(std::vector<uint64_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.Normalize();
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

// --- magnitude primitives ---------------------------------------------

int BigInt::CompareMag(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  return CompareMag(a.limbs_, b.limbs_);
}

std::vector<uint64_t> BigInt::AddMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  const std::vector<uint64_t>& big = a.size() >= b.size() ? a : b;
  const std::vector<uint64_t>& small = a.size() >= b.size() ? b : a;
  std::vector<uint64_t> out(big.size() + 1, 0);
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < small.size(); ++i) {
    uint128 s = static_cast<uint128>(big[i]) + small[i] + carry;
    out[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  for (; i < big.size(); ++i) {
    uint128 s = static_cast<uint128>(big[i]) + carry;
    out[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  out[i] = carry;
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint64_t> BigInt::SubMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  assert(CompareMag(a, b) >= 0);
  std::vector<uint64_t> out(a.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bi = i < b.size() ? b[i] : 0;
    uint128 d = static_cast<uint128>(a[i]) - bi - borrow;
    out[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;  // underflow wraps; high bits set on borrow
  }
  assert(borrow == 0);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint64_t> BigInt::MulSchoolbook(const std::vector<uint64_t>& a,
                                            const std::vector<uint64_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint64_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    if (ai == 0) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      uint128 cur = static_cast<uint128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + b.size()] += carry;
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint64_t> BigInt::MulKaratsuba(const std::vector<uint64_t>& a,
                                           const std::vector<uint64_t>& b) {
  size_t n = std::max(a.size(), b.size());
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) {
    return MulSchoolbook(a, b);
  }
  size_t half = n / 2;
  auto split = [half](const std::vector<uint64_t>& v)
      -> std::pair<std::vector<uint64_t>, std::vector<uint64_t>> {
    if (v.size() <= half) return {v, {}};
    std::vector<uint64_t> lo(v.begin(), v.begin() + half);
    std::vector<uint64_t> hi(v.begin() + half, v.end());
    while (!lo.empty() && lo.back() == 0) lo.pop_back();
    return {lo, hi};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);

  std::vector<uint64_t> z0 = MulKaratsuba(a0, b0);
  std::vector<uint64_t> z2 = MulKaratsuba(a1, b1);
  std::vector<uint64_t> sa = AddMag(a0, a1);
  std::vector<uint64_t> sb = AddMag(b0, b1);
  std::vector<uint64_t> z1 = MulKaratsuba(sa, sb);
  z1 = SubMag(z1, AddMag(z0, z2));

  // result = z2 << (2*half) + z1 << half + z0
  std::vector<uint64_t> out(std::max({z0.size(), z1.size() + half,
                                      z2.size() + 2 * half}) + 1, 0);
  auto add_at = [&out](const std::vector<uint64_t>& v, size_t off) {
    uint64_t carry = 0;
    size_t i = 0;
    for (; i < v.size(); ++i) {
      uint128 s = static_cast<uint128>(out[off + i]) + v[i] + carry;
      out[off + i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    for (; carry != 0; ++i) {
      uint128 s = static_cast<uint128>(out[off + i]) + carry;
      out[off + i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint64_t> BigInt::MulMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  return MulKaratsuba(a, b);
}

std::pair<std::vector<uint64_t>, std::vector<uint64_t>> BigInt::DivRemMag(
    const std::vector<uint64_t>& num, const std::vector<uint64_t>& den) {
  assert(!den.empty());
  if (CompareMag(num, den) < 0) return {{}, num};

  // Single-limb divisor: straightforward 128/64 division.
  if (den.size() == 1) {
    uint64_t d = den[0];
    std::vector<uint64_t> q(num.size(), 0);
    uint64_t rem = 0;
    for (size_t i = num.size(); i-- > 0;) {
      uint128 cur = (static_cast<uint128>(rem) << 64) | num[i];
      q[i] = static_cast<uint64_t>(cur / d);
      rem = static_cast<uint64_t>(cur % d);
    }
    while (!q.empty() && q.back() == 0) q.pop_back();
    std::vector<uint64_t> r;
    if (rem != 0) r.push_back(rem);
    return {q, r};
  }

  // Knuth TAoCP vol 2, Algorithm D.
  const size_t n = den.size();
  const size_t m = num.size() - n;
  const int shift = std::countl_zero(den.back());

  // Normalized divisor vn and dividend un (un has one extra limb).
  std::vector<uint64_t> vn(n);
  for (size_t i = n; i-- > 1;) {
    vn[i] = shift == 0 ? den[i]
                       : (den[i] << shift) | (den[i - 1] >> (64 - shift));
  }
  vn[0] = den[0] << shift;

  std::vector<uint64_t> un(num.size() + 1);
  un[num.size()] =
      shift == 0 ? 0 : num.back() >> (64 - shift);
  for (size_t i = num.size(); i-- > 1;) {
    un[i] = shift == 0 ? num[i]
                       : (num[i] << shift) | (num[i - 1] >> (64 - shift));
  }
  un[0] = num[0] << shift;

  std::vector<uint64_t> q(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    uint128 numerator = (static_cast<uint128>(un[j + n]) << 64) | un[j + n - 1];
    uint128 qhat = numerator / vn[n - 1];
    uint128 rhat = numerator % vn[n - 1];

    while (qhat >= (static_cast<uint128>(1) << 64) ||
           qhat * vn[n - 2] >
               ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= (static_cast<uint128>(1) << 64)) break;
    }

    // Multiply and subtract: un[j..j+n] -= qhat * vn.
    uint64_t qh = static_cast<uint64_t>(qhat);
    uint64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint128 p = static_cast<uint128>(qh) * vn[i] + carry;
      carry = static_cast<uint64_t>(p >> 64);
      uint64_t plo = static_cast<uint64_t>(p);
      uint128 d = static_cast<uint128>(un[j + i]) - plo - borrow;
      un[j + i] = static_cast<uint64_t>(d);
      borrow = (d >> 64) ? 1 : 0;
    }
    uint128 d = static_cast<uint128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<uint64_t>(d);
    bool negative = (d >> 64) != 0;

    q[j] = qh;
    if (negative) {
      // Add back (rare branch, probability ~2/2^64).
      --q[j];
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint128 s = static_cast<uint128>(un[j + i]) + vn[i] + c;
        un[j + i] = static_cast<uint64_t>(s);
        c = static_cast<uint64_t>(s >> 64);
      }
      un[j + n] += c;
    }
  }

  // Denormalize remainder.
  std::vector<uint64_t> r(n);
  for (size_t i = 0; i < n - 1; ++i) {
    r[i] = shift == 0 ? un[i] : (un[i] >> shift) | (un[i + 1] << (64 - shift));
  }
  r[n - 1] = un[n - 1] >> shift;

  while (!q.empty() && q.back() == 0) q.pop_back();
  while (!r.empty() && r.back() == 0) r.pop_back();
  return {q, r};
}

// --- signed arithmetic -------------------------------------------------

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  if (a.negative_ == b.negative_) {
    out.limbs_ = BigInt::AddMag(a.limbs_, b.limbs_);
    out.negative_ = a.negative_;
  } else {
    int cmp = BigInt::CompareMag(a.limbs_, b.limbs_);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      out.limbs_ = BigInt::SubMag(a.limbs_, b.limbs_);
      out.negative_ = a.negative_;
    } else {
      out.limbs_ = BigInt::SubMag(b.limbs_, a.limbs_);
      out.negative_ = b.negative_;
    }
  }
  out.Normalize();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_ = BigInt::MulMag(a.limbs_, b.limbs_);
  out.negative_ = !out.limbs_.empty() && (a.negative_ != b.negative_);
  return out;
}

Result<std::pair<BigInt, BigInt>> BigInt::DivRem(const BigInt& num,
                                                 const BigInt& den) {
  if (den.IsZero()) return Status::InvalidArgument("division by zero");
  auto [qm, rm] = DivRemMag(num.limbs_, den.limbs_);
  BigInt q, r;
  q.limbs_ = std::move(qm);
  r.limbs_ = std::move(rm);
  q.negative_ = !q.limbs_.empty() && (num.negative_ != den.negative_);
  r.negative_ = !r.limbs_.empty() && num.negative_;
  return std::make_pair(std::move(q), std::move(r));
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  auto res = BigInt::DivRem(a, b);
  assert(res.ok() && "division by zero");
  return std::move(res).ValueOrDie().first;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  auto res = BigInt::DivRem(a, b);
  assert(res.ok() && "division by zero");
  return std::move(res).ValueOrDie().second;
}

BigInt operator<<(const BigInt& a, size_t bits) {
  if (a.IsZero() || bits == 0) {
    BigInt out = a;
    return out;
  }
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  std::vector<uint64_t> out(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? a.limbs_[i]
                                          : a.limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
    }
  }
  BigInt r;
  r.limbs_ = std::move(out);
  r.negative_ = a.negative_;
  r.Normalize();
  return r;
}

BigInt operator>>(const BigInt& a, size_t bits) {
  if (a.IsZero() || bits == 0) return a;
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  std::vector<uint64_t> out(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = bit_shift == 0 ? a.limbs_[i + limb_shift]
                            : a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      out[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  BigInt r;
  r.limbs_ = std::move(out);
  r.negative_ = a.negative_;
  r.Normalize();
  return r;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  }
  int cmp = BigInt::CompareMag(a.limbs_, b.limbs_);
  if (a.negative_) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

// --- conversions -------------------------------------------------------

Result<BigInt> BigInt::FromDecimal(std::string_view s) {
  bool negative = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    negative = s[0] == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) return Status::InvalidArgument("empty decimal string");
  BigInt out;
  size_t i = 0;
  while (i < s.size()) {
    size_t take = std::min<size_t>(kDecChunkDigits, s.size() - i);
    uint64_t chunk = 0;
    uint64_t scale = 1;
    for (size_t j = 0; j < take; ++j) {
      char c = s[i + j];
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("non-digit in decimal string");
      }
      chunk = chunk * 10 + static_cast<uint64_t>(c - '0');
      scale *= 10;
    }
    out = out * BigInt(scale) + BigInt(chunk);
    i += take;
  }
  if (negative && !out.IsZero()) out.negative_ = true;
  return out;
}

Result<BigInt> BigInt::FromHexString(std::string_view s) {
  bool negative = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    negative = s[0] == '-';
    s.remove_prefix(1);
  }
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
  }
  if (s.empty()) return Status::InvalidArgument("empty hex string");
  BigInt out;
  std::vector<uint64_t> limbs((s.size() + 15) / 16, 0);
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[s.size() - 1 - i];
    uint64_t v;
    if (c >= '0' && c <= '9') v = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<uint64_t>(c - 'A' + 10);
    else return Status::InvalidArgument("non-hex character");
    limbs[i / 16] |= v << (4 * (i % 16));
  }
  out.limbs_ = std::move(limbs);
  out.Normalize();
  if (negative && !out.IsZero()) out.negative_ = true;
  return out;
}

BigInt BigInt::FromBytes(BytesView bytes) {
  BigInt out;
  out.limbs_.resize((bytes.size() + 7) / 8);
  LimbsFromBytes(bytes, out.limbs_);
  out.Normalize();
  return out;
}

void BigInt::LimbsFromBytes(BytesView bytes, std::span<uint64_t> out) {
  // bytes are big-endian: limb i is the 8 bytes ending 8*i bytes before
  // the end, and the top limb takes the size % 8 leading bytes.
  assert(bytes.size() <= 8 * out.size());
  const size_t full = bytes.size() / 8;
  const size_t head = bytes.size() % 8;
  const uint8_t* end = bytes.data() + bytes.size();
  for (size_t i = 0; i < full; ++i) {
    out[i] = LoadBigEndian64(end - 8 * (i + 1));
  }
  size_t filled = full;
  if (head != 0) {
    uint64_t top = 0;
    for (size_t i = 0; i < head; ++i) top = (top << 8) | bytes[i];
    out[filled++] = top;
  }
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(filled), out.end(),
            uint64_t{0});
}

std::string BigInt::ToDecimal() const {
  if (IsZero()) return "0";
  std::vector<uint64_t> chunks;
  std::vector<uint64_t> cur = limbs_;
  std::vector<uint64_t> base = {kDecChunkBase};
  while (!cur.empty()) {
    auto [q, r] = DivRemMag(cur, base);
    chunks.push_back(r.empty() ? 0 : r[0]);
    cur = std::move(q);
  }
  std::string out;
  if (negative_) out.push_back('-');
  out += std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(kDecChunkDigits - part.size(), '0');
    out += part;
  }
  return out;
}

std::string BigInt::ToHexString() const {
  if (IsZero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  if (negative_) out.push_back('-');
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      uint64_t v = (limbs_[i] >> (4 * nib)) & 0xF;
      if (leading && v == 0) continue;
      leading = false;
      out.push_back(kDigits[v]);
    }
  }
  return out;
}

Bytes BigInt::ToBytes(size_t min_width) const {
  size_t nbytes = (BitLength() + 7) / 8;
  if (nbytes == 0) nbytes = 1;
  if (nbytes < min_width) nbytes = min_width;
  Bytes out(nbytes);
  ToBytesInto(out);
  return out;
}

void BigInt::ToBytesInto(std::span<uint8_t> out) const {
  // Mirror of FromBytes: limb i fills the 8 bytes ending 8*i bytes
  // before the end; the out.size() % 8 leading bytes take the low bytes
  // of the next limb. Limbs past the buffer are not written.
  const size_t full = out.size() / 8;
  const size_t head = out.size() % 8;
  auto limb = [this](size_t i) -> uint64_t {
    return i < limbs_.size() ? limbs_[i] : 0;
  };
  uint8_t* end = out.data() + out.size();
  for (size_t i = 0; i < full; ++i) {
    StoreBigEndian64(end - 8 * (i + 1), limb(i));
  }
  uint64_t top = limb(full);
  for (size_t i = head; i-- > 0;) {
    out[i] = static_cast<uint8_t>(top);
    top >>= 8;
  }
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToDecimal();
}

}  // namespace ppstats
