#include "bigint/montgomery.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <new>
#include <utility>

#include "bigint/modarith.h"
#include "obs/metrics.h"

namespace ppstats {

namespace {

// Inverse of odd x modulo 2^64 by Newton iteration; 6 steps double the
// correct low bits from 1 to 64.
uint64_t InverseMod2_64(uint64_t x) {
  assert(x & 1);
  uint64_t inv = x;  // correct to 3 bits (for odd x, x*x = 1 mod 8)
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - x * inv;
  }
  assert(inv * x == 1);
  return inv;
}

// Below this exponent width Exp uses plain square-and-multiply: the
// 4-bit window trades ~bits/4 multiplications in the ladder for 14 table
// multiplications up front, which only pays off past ~50 bits. Database
// values (the ScalarMultiply regime) are 32-128 bits wide at most.
constexpr size_t kSmallExpBits = 48;

// Bits [window * width, (window + 1) * width) of the little-endian
// limbs `e`; width < 64.
size_t WindowDigit(std::span<const uint64_t> limbs, size_t window,
                   size_t width) {
  const size_t bit = window * width;
  const size_t index = bit / 64;
  const size_t offset = bit % 64;
  if (index >= limbs.size()) return 0;
  uint64_t v = limbs[index] >> offset;
  if (offset + width > 64 && index + 1 < limbs.size()) {
    v |= limbs[index + 1] << (64 - offset);
  }
  return static_cast<size_t>(v & ((uint64_t{1} << width) - 1));
}

// *sum += x over little-endian limb magnitudes.
void AddLimbs(std::vector<uint64_t>* sum, const std::vector<uint64_t>& x) {
  if (sum->size() < x.size()) sum->resize(x.size(), 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < sum->size() && (i < x.size() || carry != 0); ++i) {
    const unsigned __int128 s = static_cast<unsigned __int128>((*sum)[i]) +
                                (i < x.size() ? x[i] : 0) + carry;
    (*sum)[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  if (carry != 0) sum->push_back(carry);
}

// Approximate multiplication counts for the two MultiExp schedules, with
// squarings weighted at 0.75 of a general multiplication (the MontSqr
// discount). Returns {window, cost}; MultiExp picks the cheaper schedule.
std::pair<size_t, double> PickStrausWindow(size_t k, size_t bits) {
  size_t best_w = 1;
  double best_cost = -1;
  for (size_t w = 1; w <= 6; ++w) {
    const double windows = static_cast<double>((bits + w - 1) / w);
    const double table = static_cast<double>(k) *
                         static_cast<double>((size_t{1} << w) - 2);
    const double cost = table + windows * static_cast<double>(k) +
                        0.75 * static_cast<double>(bits);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return {best_w, best_cost};
}

std::pair<size_t, double> PickPippengerWindow(size_t k, size_t bits) {
  size_t best_w = 1;
  double best_cost = -1;
  for (size_t w = 1; w <= MontgomeryContext::kMaxPippengerWindow; ++w) {
    const double windows = static_cast<double>((bits + w - 1) / w);
    // Per window: up to k bucket insertions, then the gap-walk reduction
    // over the m <= min(k, 2^w - 1) occupied buckets: ~2 mults per
    // occupied bucket plus ~1.5 * log2(gap) for each gap exponentiation
    // (gaps multiply out to at most 2^w, so the log terms total at most
    // ~m * (w - log2 m)). The one-time 2^w term charges for the bucket
    // array allocation so oversized windows lose even when the mult
    // count alone would favor them.
    const double m =
        static_cast<double>(std::min(k, (size_t{1} << w) - 1));
    const double gap_bits =
        std::max(0.0, static_cast<double>(w) - std::log2(m + 1));
    const double per_window =
        static_cast<double>(k) + 2.0 * m + 1.5 * m * gap_bits;
    const double cost = windows * per_window +
                        0.75 * static_cast<double>(bits) +
                        0.01 * static_cast<double>(size_t{1} << w);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return {best_w, best_cost};
}

// One segment of the accumulator's bucket reduction. Over a run of one
// window's occupied digits d_1 > ... > d_m, with S_i = B_{d_1} ... B_{d_i}
// and d_{m+1} = 0, it computes
//   T = prod_i S_i^(d_i - d_{i+1}) = prod_i B_{d_i}^{d_i},
// the segment's share of the window's prod_d B_d^d, so a window's total
// is the product of its segments' T. Next stages one Montgomery product
// at a time from a few words of state; the products of one segment
// depend on each other, those of different segments never do.
class ReductionSegment {
 public:
  static constexpr size_t kBuffers = 3;  // S, the power P, T

  // Walks digits [first, last) (descending, nonempty) over `buckets`;
  // `scratch` holds kBuffers n-limb buffers.
  ReductionSegment(const uint64_t* buckets, const size_t* first,
                   const size_t* last, uint64_t* scratch, size_t n)
      : buckets_(buckets),
        digit_(first),
        last_(last),
        n_(n),
        s_(scratch),
        p_(scratch + n),
        t_(scratch + 2 * n) {}

  // Stages the next product out = a * b, or returns false once T is done.
  bool Next(const uint64_t** a, const uint64_t** b, uint64_t** out) {
    for (;;) {
      switch (stage_) {
        case Stage::kAbsorb: {  // S *= B_d
          const uint64_t* bucket = buckets_ + *digit_ * n_;
          exp_ = *digit_ - (digit_ + 1 < last_ ? digit_[1] : 0);
          stage_ = Stage::kRaise;
          if (have_s_) return Emit(s_, bucket, s_, a, b, out);
          std::copy_n(bucket, n_, s_);
          have_s_ = true;
          continue;
        }
        case Stage::kRaise:  // begin T *= S^exp
          if (exp_ == 1) {
            if (have_t_) {
              Advance();
              return Emit(t_, s_, t_, a, b, out);
            }
            std::copy_n(s_, n_, t_);
            have_t_ = true;
            Advance();
            continue;
          }
          std::copy_n(s_, n_, p_);
          bit_ = static_cast<size_t>(std::bit_width(exp_)) - 1;
          stage_ = Stage::kSquare;
          continue;
        case Stage::kSquare:  // P = P^2, then fold in bit bit_ - 1
          --bit_;
          stage_ = (exp_ >> bit_) & 1 ? Stage::kTimesS
                   : bit_ == 0        ? Stage::kCombine
                                      : Stage::kSquare;
          return Emit(p_, p_, p_, a, b, out);
        case Stage::kTimesS:  // P *= S
          stage_ = bit_ == 0 ? Stage::kCombine : Stage::kSquare;
          return Emit(p_, s_, p_, a, b, out);
        case Stage::kCombine:  // T *= P
          if (have_t_) {
            Advance();
            return Emit(t_, p_, t_, a, b, out);
          }
          std::swap(t_, p_);
          have_t_ = true;
          Advance();
          continue;
        case Stage::kDone:
          return false;
      }
    }
  }

  // T, valid once Next has returned false.
  uint64_t* result() const { return t_; }

 private:
  enum class Stage { kAbsorb, kRaise, kSquare, kTimesS, kCombine, kDone };

  static bool Emit(const uint64_t* x, const uint64_t* y, uint64_t* z,
                   const uint64_t** a, const uint64_t** b, uint64_t** out) {
    *a = x;
    *b = y;
    *out = z;
    return true;
  }

  void Advance() {
    ++digit_;
    stage_ = digit_ == last_ ? Stage::kDone : Stage::kAbsorb;
  }

  const uint64_t* buckets_;
  const size_t* digit_;  // the digit being folded in
  const size_t* last_;
  size_t n_;
  uint64_t* s_;
  uint64_t* p_;
  uint64_t* t_;
  size_t exp_ = 0;  // the current digit's exponent, d_i - d_{i+1}
  size_t bit_ = 0;  // exponent bits below this one are still to apply
  bool have_s_ = false;
  bool have_t_ = false;
  Stage stage_ = Stage::kAbsorb;
};

// Plans the bucket reduction over runs of descending digits — run j is
// [run_end[j - 1], run_end[j]) of `digits`, one per window — for at most
// `lanes` lanes. Each lane takes a contiguous stretch of the digits and
// walks it as segments, a new one wherever the stretch crosses into the
// next run. With P(e) the products of the binary power x^e (a squaring
// per bit below the top one, a multiply per set bit below it), a
// segment d_1 > ... > d_m costs
//   2 (m - 1) + sum_{i<m} P(d_i - d_{i+1}) + P(d_m)
// products. Taking in one more digit never makes a lane cheaper, so
// greedy lanes under a cap are the fewest that fit, and bisection finds
// the smallest cap (the longest lane) for which they number at most
// `lanes`. Returns each segment's end offset in `segment_end` and each
// lane's end, as a segment count, in `lane_end`.
void PlanReduction(const std::vector<size_t>& digits,
                   const std::vector<size_t>& run_end, size_t lanes,
                   std::vector<size_t>* segment_end,
                   std::vector<size_t>* lane_end) {
  // P(e) for every e up to the largest digit: P(2e + b) = P(e) + 1 + b.
  std::vector<uint8_t> pow(*std::max_element(digits.begin(), digits.end()) +
                           1);
  for (size_t e = 2; e < pow.size(); ++e) pow[e] = pow[e / 2] + 1 + e % 2;
  std::vector<uint8_t> opens_run(digits.size(), 0);
  for (size_t j = 0, begin = 0; j < run_end.size(); begin = run_end[j++]) {
    if (begin < run_end[j]) opens_run[begin] = 1;
  }
  // grown[i]: the sum over 0 < k <= i of what digit k adds to a lane
  // that already holds digit k - 1 — its own P when it opens a new
  // segment, else two products plus the change in the segment's powers.
  // A lane over digits [s, e) costs P(d_s) + grown[e - 1] - grown[s].
  std::vector<size_t> grown(digits.size());
  for (size_t k = 1; k < digits.size(); ++k) {
    const size_t d = digits[k];
    const size_t prev = digits[k - 1];
    grown[k] = grown[k - 1] + (opens_run[k] ? pow[d]
                                            : 2 + pow[prev - d] + pow[d] -
                                                  pow[prev]);
  }
  // End of the greedy lane that starts at digit `s` under `cap`.
  auto lane_from = [&](size_t s, size_t cap) {
    return static_cast<size_t>(
        std::upper_bound(grown.begin() + s, grown.end(),
                         cap - pow[digits[s]] + grown[s]) -
        grown.begin());
  };
  auto fits = [&](size_t cap) {
    size_t count = 0;
    for (size_t s = 0; s < digits.size() && count <= lanes; ++count) {
      s = lane_from(s, cap);
    }
    return count <= lanes;
  };
  // No cap below a single digit's cost fits; one lane holding
  // everything always does.
  size_t low = 0;
  for (size_t d : digits) low = std::max<size_t>(low, pow[d]);
  size_t high = pow[digits.front()] + grown.back();
  while (low < high) {
    const size_t mid = low + (high - low) / 2;
    if (fits(mid)) {
      high = mid;
    } else {
      low = mid + 1;
    }
  }
  for (size_t s = 0; s < digits.size();) {
    const size_t e = lane_from(s, low);
    for (size_t k = s + 1; k < e; ++k) {
      if (opens_run[k]) segment_end->push_back(k);
    }
    segment_end->push_back(e);
    lane_end->push_back(segment_end->size());
    s = e;
  }
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigInt& modulus)
    : MontgomeryContext(modulus, MontBackendKind::kAuto) {}

MontgomeryContext::MontgomeryContext(const BigInt& modulus,
                                     MontBackendKind backend)
    : modulus_(modulus) {
  assert(modulus.IsOdd());
  assert(modulus > BigInt(1));
  mod_limbs_ = modulus.limbs();
  n_ = mod_limbs_.size();
  n0_inv_ = ~InverseMod2_64(mod_limbs_[0]) + 1;  // -m^{-1} mod 2^64
  backend_ = &SelectMontBackend(n_, backend);

  // R = 2^(64 n); r2_ = R^2 mod m computed with plain BigInt arithmetic.
  BigInt r = BigInt(1) << (64 * n_);
  BigInt r2 = (r * r) % modulus_;
  r2_ = ToFixed(r2);
  one_mont_ = ToFixed(r % modulus_);
}

MontgomeryContext::Limbs MontgomeryContext::ToFixed(const BigInt& x) const {
  assert(!x.IsNegative());
  Limbs out = x.limbs();
  assert(out.size() <= n_);
  out.resize(n_, 0);
  return out;
}

void MontgomeryContext::MontMul(const Limbs& a, const Limbs& b,
                                Limbs* out) const {
  assert(out != &a && out != &b);
  out->resize(n_);
  backend_->mul(View(), a.data(), b.data(), out->data());
  backend_->mul_ops->Increment();
}

void MontgomeryContext::MontMulRaw(const uint64_t* a, const uint64_t* b,
                                   uint64_t* out) const {
  backend_->mul(View(), a, b, out);
  backend_->mul_ops->Increment();
}

void MontgomeryContext::MontSqrRaw(const uint64_t* a, uint64_t* out) const {
  backend_->sqr(View(), a, out);
  backend_->sqr_ops->Increment();
}

void MontgomeryContext::MontSqr(const Limbs& a, Limbs* out) const {
  assert(out != &a);
  out->resize(n_);
  backend_->sqr(View(), a.data(), out->data());
  backend_->sqr_ops->Increment();
}

void MontgomeryContext::MontMulBatch(size_t count, const uint64_t* const* a,
                                     const uint64_t* const* b,
                                     uint64_t* const* out) const {
  backend_->mul_batch(View(), count, a, b, out);
  backend_->mul_ops->Add(count);
}

BigInt MontgomeryContext::ToMontgomery(const BigInt& x) const {
  Limbs out;
  MontMul(ToFixed(x), r2_, &out);
  return BigInt::FromLimbs(std::move(out));
}

std::vector<BigInt> MontgomeryContext::ToMontgomeryBatch(
    std::span<const BigInt> xs) const {
  const size_t k = xs.size();
  std::vector<Limbs> fixed(k);
  std::vector<Limbs> outs(k);
  std::vector<const uint64_t*> a(k);
  std::vector<const uint64_t*> b(k);
  std::vector<uint64_t*> o(k);
  for (size_t i = 0; i < k; ++i) {
    fixed[i] = ToFixed(xs[i]);
    outs[i].resize(n_);
    a[i] = fixed[i].data();
    b[i] = r2_.data();  // every conversion multiplies by the same R^2
    o[i] = outs[i].data();
  }
  MontMulBatch(k, a.data(), b.data(), o.data());
  std::vector<BigInt> result;
  result.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    result.push_back(BigInt::FromLimbs(std::move(outs[i])));
  }
  return result;
}

BigInt MontgomeryContext::FromMontgomery(const BigInt& x) const {
  Limbs one(n_, 0);
  one[0] = 1;
  Limbs out;
  MontMul(ToFixed(x), one, &out);
  return BigInt::FromLimbs(std::move(out));
}

BigInt MontgomeryContext::MulMontgomery(const BigInt& a,
                                        const BigInt& b) const {
  Limbs out;
  MontMul(ToFixed(a), ToFixed(b), &out);
  return BigInt::FromLimbs(std::move(out));
}

BigInt MontgomeryContext::Sqr(const BigInt& a) const {
  Limbs out;
  MontSqr(ToFixed(a), &out);
  return BigInt::FromLimbs(std::move(out));
}

BigInt MontgomeryContext::OneMontgomery() const {
  return BigInt::FromLimbs(Limbs(one_mont_));
}

BigInt MontgomeryContext::Exp(const BigInt& base, const BigInt& exp) const {
  assert(!exp.IsNegative());
  if (exp.IsZero()) return BigInt(1);  // modulus > 1 by construction
  const size_t bits = exp.BitLength();
  if (bits > kSmallExpBits) return std::move(ExpBatch({&base, 1}, exp)[0]);

  // Plain left-to-right square-and-multiply: no window table.
  const Limbs base_m = ToFixed(ToMontgomery(Mod(base, modulus_)));
  Limbs acc = base_m;
  Limbs tmp;
  for (size_t b = bits - 1; b-- > 0;) {
    MontSqr(acc, &tmp);
    acc.swap(tmp);
    if (exp.Bit(b)) {
      MontMul(acc, base_m, &tmp);
      acc.swap(tmp);
    }
  }
  return FromMontgomery(BigInt::FromLimbs(std::move(acc)));
}

std::vector<BigInt> MontgomeryContext::ExpBatch(std::span<const BigInt> bases,
                                                const BigInt& exp) const {
  assert(!exp.IsNegative());
  const size_t k = bases.size();
  std::vector<BigInt> result;
  result.reserve(k);
  const size_t bits = exp.BitLength();
  if (bits <= kSmallExpBits) {
    for (const BigInt& base : bases) result.push_back(Exp(base, exp));
    return result;
  }

  // Per base, one flat block: window-table entries 1..15 (entry d holds
  // base^d in Montgomery form; a zero digit multiplies by nothing, so
  // slot 0 is never read) and then the accumulator.
  constexpr size_t kWindow = 4;
  constexpr size_t kAcc = size_t{1} << kWindow;
  const size_t stride = (kAcc + 1) * n_;
  Limbs state(k * stride);
  auto slot = [&](size_t i, size_t d) {
    return state.data() + i * stride + d * n_;
  };
  std::vector<const uint64_t*> a(k);
  std::vector<const uint64_t*> b(k);
  std::vector<uint64_t*> out(k);
  // One batched product per step: out[i] = a[i] * b[i] for every base.
  // A lone base takes the backend's single-product kernel directly.
  auto step = [&](auto&& operands) {
    for (size_t i = 0; i < k; ++i) operands(i);
    if (k == 1) {
      MontMulRaw(a[0], b[0], out[0]);
    } else {
      MontMulBatch(k, a.data(), b.data(), out.data());
    }
  };

  // Reduced bases staged in the accumulators, converted into entry 1.
  for (size_t i = 0; i < k; ++i) {
    const BigInt reduced = Mod(bases[i], modulus_);
    std::copy(reduced.limbs().begin(), reduced.limbs().end(), slot(i, kAcc));
  }
  step([&](size_t i) {
    a[i] = slot(i, kAcc);
    b[i] = r2_.data();
    out[i] = slot(i, 1);
  });
  for (size_t d = 2; d < kAcc; ++d) {
    step([&](size_t i) {
      a[i] = slot(i, d - 1);
      b[i] = slot(i, 1);
      out[i] = slot(i, d);
    });
  }

  for (size_t i = 0; i < k; ++i) {
    std::copy(one_mont_.begin(), one_mont_.end(), slot(i, kAcc));
  }
  const size_t windows = (bits + kWindow - 1) / kWindow;
  for (size_t w = windows; w-- > 0;) {
    if (w != windows - 1) {
      for (size_t s = 0; s < kWindow; ++s) {
        if (k == 1) {
          // One base: the backend's squaring kernel (Decrypt, and the
          // fold's R^sum(e) correction, stay on their single-product path).
          MontSqrRaw(slot(0, kAcc), slot(0, kAcc));
        } else {
          step([&](size_t i) { a[i] = b[i] = out[i] = slot(i, kAcc); });
        }
      }
    }
    const size_t digit = WindowDigit(exp.limbs(), w, kWindow);
    if (digit != 0) {
      step([&](size_t i) {
        a[i] = out[i] = slot(i, kAcc);
        b[i] = slot(i, digit);
      });
    }
  }

  // Out of Montgomery form: acc * 1.
  Limbs one(n_, 0);
  one[0] = 1;
  step([&](size_t i) {
    a[i] = out[i] = slot(i, kAcc);
    b[i] = one.data();
  });
  for (size_t i = 0; i < k; ++i) {
    const uint64_t* acc = slot(i, kAcc);
    result.push_back(BigInt::FromLimbs(Limbs(acc, acc + n_)));
  }
  return result;
}

MontgomeryContext::Limbs MontgomeryContext::StrausMont(
    std::span<const uint64_t> bases, std::span<const uint64_t> exps,
    size_t exp_limbs, size_t max_bits, size_t window) const {
  // Straus/simultaneous exponentiation: per-base window tables, one
  // shared squaring ladder. Best for small batches, where Pippenger's
  // bucket overhead (~2^w multiplications per window) dominates.
  const size_t k = bases.size() / n_;
  const size_t table_size = size_t{1} << window;
  std::vector<std::vector<Limbs>> tables(k);
  for (size_t i = 0; i < k; ++i) {
    tables[i].resize(table_size);
    tables[i][1].assign(bases.begin() + i * n_, bases.begin() + (i + 1) * n_);
  }
  // Table level j depends only on level j-1 of the *same* base, so one
  // batched call per level runs the k independent chains side by side
  // (the adx backend interleaves row pairs through the carry chains).
  std::vector<const uint64_t*> prev(k);
  std::vector<const uint64_t*> base_ptrs(k);
  std::vector<uint64_t*> next(k);
  for (size_t i = 0; i < k; ++i) base_ptrs[i] = tables[i][1].data();
  for (size_t j = 2; j < table_size; ++j) {
    for (size_t i = 0; i < k; ++i) {
      tables[i][j].resize(n_);
      prev[i] = tables[i][j - 1].data();
      next[i] = tables[i][j].data();
    }
    MontMulBatch(k, prev.data(), base_ptrs.data(), next.data());
  }

  const size_t windows = (max_bits + window - 1) / window;
  Limbs acc = one_mont_;
  Limbs tmp;
  for (size_t w = windows; w-- > 0;) {
    if (w != windows - 1) {
      for (size_t s = 0; s < window; ++s) {
        MontSqr(acc, &tmp);
        acc.swap(tmp);
      }
    }
    for (size_t i = 0; i < k; ++i) {
      const size_t digit =
          WindowDigit(exps.subspan(i * exp_limbs, exp_limbs), w, window);
      if (digit != 0) {
        MontMul(acc, tables[i][digit], &tmp);
        acc.swap(tmp);
      }
    }
  }
  return acc;
}

void MontgomeryContext::MultiExpAccumulator::Unmap::operator()(
    uint64_t* p) const {
  munmap(p, bytes);
}

// A fresh anonymous mapping of `limbs` zero limbs. Pages become resident
// only when written.
std::unique_ptr<uint64_t[], MontgomeryContext::MultiExpAccumulator::Unmap>
MontgomeryContext::MultiExpAccumulator::MapBuckets(size_t limbs) {
  const size_t bytes = limbs * sizeof(uint64_t);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return {static_cast<uint64_t*>(p), Unmap{bytes}};
}

MontgomeryContext::MultiExpAccumulator::MultiExpAccumulator(
    const MontgomeryContext& mont, size_t expected_terms)
    : mont_(&mont), expected_terms_(expected_terms) {}

void MontgomeryContext::MultiExpAccumulator::Add(
    std::span<const uint64_t> bases, std::span<const uint64_t> exponents,
    size_t exp_limbs) {
  const MontgomeryContext& mont = *mont_;
  const size_t n = mont.n_;
  assert(bases.size() % n == 0);
  const size_t count = bases.size() / n;
  assert(exponents.size() == count * exp_limbs);
  if (count == 0) return;
  // One pass per limb position: the OR of the terms' limbs gives the
  // widest exponent, and the 128-bit column sum (a carry of at most
  // count per column) adds the call's exponents into exponent_sum_.
  size_t max_bits = 0;
  column_sums_.assign(exp_limbs + 1, 0);
  unsigned __int128 carry = 0;
  for (size_t k = 0; k < exp_limbs; ++k) {
    uint64_t any = 0;
    unsigned __int128 column = carry;
    for (size_t i = 0; i < count; ++i) {
      const uint64_t limb = exponents[i * exp_limbs + k];
      any |= limb;
      column += limb;
    }
    if (any != 0) max_bits = 64 * k + std::bit_width(any);
    column_sums_[k] = static_cast<uint64_t>(column);
    carry = column >> 64;
  }
  column_sums_[exp_limbs] = static_cast<uint64_t>(carry);
  AddLimbs(&exponent_sum_, column_sums_);
  if (max_bits == 0) return;  // every term is c^0 = 1
  if (window_ == 0) {
    window_ = PickPippengerWindow(std::max(expected_terms_, count), max_bits)
                  .first;
    deferred_.assign(size_t{1} << window_, 0);
  }
  const size_t bucket_count = size_t{1} << window_;
  const size_t windows = (max_bits + window_ - 1) / window_;
  if (windows_.size() < windows) {
    // Map the new windows' buckets together; pages stay untouched (and
    // not resident) until a bucket on them is written.
    const size_t stride = bucket_count * n;
    const size_t opened = windows - windows_.size();
    mappings_.push_back(MapBuckets(opened * stride));
    for (size_t j = 0; j < opened; ++j) {
      Window& win = windows_.emplace_back();
      win.buckets = mappings_.back().get() + j * stride;
      win.used.assign(bucket_count, 0);
    }
  }

  for (size_t j = 0; j < windows; ++j) {
    Window& win = windows_[j];
    pending_.clear();
    round_end_.clear();
    for (size_t i = 0; i < count; ++i) {
      const size_t digit = WindowDigit(
          exponents.subspan(i * exp_limbs, exp_limbs), j, window_);
      if (digit == 0) continue;
      if (win.used[digit]) {
        // Deferred: one multiply into an occupied bucket, in round k
        // for the bucket's k-th deferred insert of this window.
        const uint32_t round = deferred_[digit]++;
        if (round == round_end_.size()) round_end_.push_back(0);
        ++round_end_[round];
        pending_.push_back(
            {static_cast<uint32_t>(digit), round, bases.data() + i * n});
      } else {
        std::copy_n(bases.data() + i * n, n, win.buckets + digit * n);
        win.used[digit] = 1;
      }
    }
    // Counting sort by round. A round holds at most one insert per
    // bucket, so its products are independent and run as one batched
    // call; products into one bucket commute, so the rounds' order
    // leaves the result exact.
    size_t offset = 0;
    for (size_t& slot : round_end_) {
      // Counts become start offsets, advanced to the ends below.
      const size_t count = slot;
      slot = offset;
      offset += count;
    }
    group_b_.resize(pending_.size());
    group_out_.resize(pending_.size());
    for (const Deferred& d : pending_) {
      deferred_[d.digit] = 0;
      const size_t slot = round_end_[d.round]++;
      group_b_[slot] = d.base;
      group_out_[slot] = win.buckets + size_t{d.digit} * n;
    }
    // Each product multiplies its bucket in place: out == a.
    size_t start = 0;
    for (size_t end : round_end_) {
      mont.MontMulBatch(end - start, group_out_.data() + start,
                        group_b_.data() + start, group_out_.data() + start);
      start = end;
    }
  }
}

BigInt MontgomeryContext::MultiExpAccumulator::Finish() const {
  // Per window, prod_d B_d^d over its occupied buckets, then the windows
  // combined most significant first through a shared ladder of w
  // squarings. The bucket reduction runs on as many lanes as the
  // backend's batch kernel is wide: every window's occupied digits,
  // descending, are cut into segments, each lane walks a stretch of
  // consecutive segments (possibly crossing windows) one after another,
  // and round r runs the r-th product of every lane as one batched
  // multiply. The segments' results then merge into window totals.
  const MontgomeryContext& mont = *mont_;
  const size_t n = mont.n_;
  const size_t bucket_count = size_t{1} << window_;
  std::vector<size_t> digits;
  std::vector<size_t> run_end(windows_.size());
  for (size_t j = 0; j < windows_.size(); ++j) {
    for (size_t d = bucket_count; d-- > 1;) {
      if (windows_[j].used[d]) digits.push_back(d);
    }
    run_end[j] = digits.size();
  }
  if (digits.empty()) return mont.OneMontgomery();

  std::vector<size_t> segment_end;
  std::vector<size_t> lane_end;
  PlanReduction(digits, run_end, mont.backend_->lanes, &segment_end,
                &lane_end);
  Limbs scratch(segment_end.size() * ReductionSegment::kBuffers * n);
  std::vector<ReductionSegment> segments;
  segments.reserve(segment_end.size());
  // Window j's segments are [first_segment[j], first_segment[j + 1]).
  std::vector<size_t> first_segment(windows_.size() + 1);
  size_t begin = 0;
  for (size_t j = 0; j < windows_.size(); ++j) {
    first_segment[j] = segments.size();
    while (begin < run_end[j]) {
      const size_t end = segment_end[segments.size()];
      assert(begin < end && end <= run_end[j]);
      uint64_t* buffers =
          scratch.data() + segments.size() * ReductionSegment::kBuffers * n;
      segments.emplace_back(windows_[j].buckets, digits.data() + begin,
                            digits.data() + end, buffers, n);
      begin = end;
    }
  }
  first_segment[windows_.size()] = segments.size();

  // Per lane, the segment it is walking; lane l ends at lane_end[l].
  std::vector<size_t> walking(lane_end.size());
  for (size_t l = 1; l < lane_end.size(); ++l) walking[l] = lane_end[l - 1];
  std::vector<const uint64_t*> a(segments.size());
  std::vector<const uint64_t*> b(segments.size());
  std::vector<uint64_t*> out(segments.size());
  for (;;) {
    size_t count = 0;
    for (size_t l = 0; l < lane_end.size(); ++l) {
      for (size_t& seg = walking[l]; seg < lane_end[l]; ++seg) {
        if (segments[seg].Next(&a[count], &b[count], &out[count])) {
          ++count;
          break;
        }
      }
    }
    if (count == 0) break;
    mont.MontMulBatch(count, a.data(), b.data(), out.data());
  }
  // Merge each window's segments pairwise, every window's merges of one
  // tree level batched together, into the window's first segment.
  for (size_t stride = 1;; stride *= 2) {
    size_t count = 0;
    for (size_t j = 0; j < windows_.size(); ++j) {
      for (size_t i = first_segment[j] + stride; i < first_segment[j + 1];
           i += 2 * stride) {
        a[count] = out[count] = segments[i - stride].result();
        b[count++] = segments[i].result();
      }
    }
    if (count == 0) break;
    mont.MontMulBatch(count, a.data(), b.data(), out.data());
  }

  Limbs acc;
  Limbs tmp;
  for (size_t j = windows_.size(); j-- > 0;) {
    if (!acc.empty()) {
      for (size_t s = 0; s < window_; ++s) {
        mont.MontSqr(acc, &tmp);
        acc.swap(tmp);
      }
    }
    if (first_segment[j] == first_segment[j + 1]) continue;
    const uint64_t* total = segments[first_segment[j]].result();
    if (acc.empty()) {
      acc.assign(total, total + n);
    } else {
      mont.MontMulRaw(acc.data(), total, acc.data());
    }
  }
  return BigInt::FromLimbs(std::move(acc));
}

BigInt MontgomeryContext::MultiExpMontgomery(
    std::span<const BigInt> bases_mont, std::span<const BigInt> exponents,
    MultiExpSchedule schedule) const {
  assert(bases_mont.size() == exponents.size());
  size_t max_bits = 0;
  size_t k = 0;
  for (size_t i = 0; i < bases_mont.size(); ++i) {
    assert(!exponents[i].IsNegative());
    if (exponents[i].IsZero()) continue;  // c^0 = 1: no-op factor
    max_bits = std::max(max_bits, exponents[i].BitLength());
    ++k;
  }
  if (k == 0) return OneMontgomery();

  // The nonzero terms as flat operands: n-limb base rows and exponents
  // padded to the widest one's limbs.
  const size_t exp_limbs = (max_bits + 63) / 64;
  Limbs bases(k * n_, 0);
  Limbs exps(k * exp_limbs, 0);
  for (size_t i = 0, t = 0; i < bases_mont.size(); ++i) {
    if (exponents[i].IsZero()) continue;
    const Limbs& base = bases_mont[i].limbs();
    const Limbs& exp = exponents[i].limbs();
    assert(!bases_mont[i].IsNegative() && base.size() <= n_);
    std::copy(base.begin(), base.end(), bases.begin() + t * n_);
    std::copy(exp.begin(), exp.end(), exps.begin() + t * exp_limbs);
    ++t;
  }

  const auto [straus_w, straus_cost] = PickStrausWindow(k, max_bits);
  const double pip_cost = PickPippengerWindow(k, max_bits).second;
  const bool use_straus =
      schedule == MultiExpSchedule::kStraus ||
      (schedule == MultiExpSchedule::kAuto && straus_cost <= pip_cost);
  if (!use_straus) {
    // One-shot Pippenger: the streaming accumulator fed once, sized for
    // exactly these k terms.
    MultiExpAccumulator acc(*this, k);
    acc.Add(bases, exps, exp_limbs);
    return acc.Finish();
  }
  return BigInt::FromLimbs(
      StrausMont(bases, exps, exp_limbs, max_bits, straus_w));
}

BigInt MontgomeryContext::MultiExp(std::span<const BigInt> bases,
                                   std::span<const BigInt> exponents,
                                   MultiExpSchedule schedule) const {
  assert(bases.size() == exponents.size());
  std::vector<BigInt> reduced;
  reduced.reserve(bases.size());
  for (const BigInt& base : bases) {
    reduced.push_back(Mod(base, modulus_));
  }
  const std::vector<BigInt> bases_mont = ToMontgomeryBatch(reduced);
  return FromMontgomery(MultiExpMontgomery(bases_mont, exponents, schedule));
}

}  // namespace ppstats
