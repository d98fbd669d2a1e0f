#include "bigint/mont_backend.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.h"

// The adx kernel is inline asm (GCC 12 does not emit dual carry chains
// from the _addcarryx_u64 intrinsics), assembled unconditionally on
// x86-64 — no -madx compile flags needed — and gated at runtime by the
// CPUID probe in DetectMontCpuFeatures(). The ifma kernel sits in the
// same block: its single products run on the adx kernels.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PPSTATS_MONT_HAVE_ADX 1
#include <immintrin.h>
#else
#define PPSTATS_MONT_HAVE_ADX 0
#endif

namespace ppstats {

namespace {

using uint128 = unsigned __int128;

// ---------------------------------------------------------------------
// Shared pieces.

// Per-thread scratch for the variable-width kernels. MontgomeryContext
// objects are shared across ThreadPool workers (FoldEngine hands one
// context to every slice; PIR folds all its rows under one), so the
// scratch that replaced the old per-call std::vector allocation must be
// thread-local rather than context-owned — each worker grows its own
// buffer once and the kernels stay lock-free with nothing for the
// thread-safety analysis to guard.
uint64_t* MontScratch(size_t limbs) {
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < limbs) scratch.resize(limbs);
  return scratch.data();
}

// Final conditional subtraction: `t` holds n limbs plus an overflow
// limb t[n], together a value in [0, 2m); writes the canonical residue
// to `out`. out may alias any kernel input — by this point the inputs
// are dead.
void ReduceOnceRaw(const uint64_t* t, const uint64_t* mod, size_t n,
                   uint64_t* out) {
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = n; i-- > 0;) {
      if (t[i] != mod[i]) {
        ge = t[i] > mod[i];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + n, out);
    return;
  }
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    uint128 d = static_cast<uint128>(t[i]) - mod[i] - borrow;
    out[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
}

// ---------------------------------------------------------------------
// Generic backend: the CIOS multiply and SOS squaring formerly inside
// MontgomeryContext, on raw limb pointers with per-thread scratch.

void GenericMontMul(const MontModulusView& mv, const uint64_t* a,
                    const uint64_t* b, uint64_t* out) {
  // CIOS (coarsely integrated operand scanning), Koc et al. 1996.
  const size_t n = mv.n;
  const uint64_t* mod = mv.mod;
  uint64_t* t = MontScratch(n + 2);
  std::fill(t, t + n + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
    for (size_t j = 0; j < n; ++j) {
      uint128 cur = static_cast<uint128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    uint128 s = static_cast<uint128>(t[n]) + carry;
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] = static_cast<uint64_t>(s >> 64);

    // t += (t[0] * n0') * m; then t >>= 64
    uint64_t m = t[0] * mv.n0_inv;
    uint128 cur = static_cast<uint128>(m) * mod[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < n; ++j) {
      cur = static_cast<uint128>(m) * mod[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    s = static_cast<uint128>(t[n]) + carry;
    t[n - 1] = static_cast<uint64_t>(s);
    t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
    t[n + 1] = 0;
  }
  ReduceOnceRaw(t, mod, n, out);
}

void GenericMontSqr(const MontModulusView& mv, const uint64_t* a,
                    uint64_t* out) {
  // SOS (separated operand scanning) squaring: the product phase
  // computes only the cross terms a[i]*a[j] for i < j (half the
  // multiplications of a general product), doubles them, and adds the
  // diagonal squares; the reduction phase is the standard Montgomery
  // sweep. Net ~1.3x faster than GenericMontMul(a, a).
  const size_t n = mv.n;
  const uint64_t* mod = mv.mod;
  uint64_t* t = MontScratch(2 * n + 1);
  std::fill(t, t + 2 * n + 1, 0);

  // Upper triangle: t += a[i] * a[j] for j > i.
  for (size_t i = 0; i + 1 < n; ++i) {
    uint64_t carry = 0;
    for (size_t j = i + 1; j < n; ++j) {
      uint128 cur = static_cast<uint128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    t[i + n] = carry;  // position i+n is untouched by earlier rows
  }

  // Double the cross terms: t <<= 1 (cannot overflow 2n limbs since
  // 2 * triangle <= a^2 - sum a[i]^2 < m^2).
  uint64_t carry = 0;
  for (size_t i = 0; i < 2 * n; ++i) {
    const uint64_t hi = t[i] >> 63;
    t[i] = (t[i] << 1) | carry;
    carry = hi;
  }

  // Add the diagonal squares a[i]^2 at bit offset 128 i.
  carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint128 sq = static_cast<uint128>(a[i]) * a[i];
    uint128 lo = static_cast<uint128>(t[2 * i]) +
                 static_cast<uint64_t>(sq) + carry;
    t[2 * i] = static_cast<uint64_t>(lo);
    uint128 hi = static_cast<uint128>(t[2 * i + 1]) +
                 static_cast<uint64_t>(sq >> 64) +
                 static_cast<uint64_t>(lo >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(hi);
    carry = static_cast<uint64_t>(hi >> 64);
  }
  t[2 * n] = carry;

  // Montgomery reduction: for each low limb, cancel it with a multiple
  // of m and carry into the high half.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t m = t[i] * mv.n0_inv;
    uint64_t c = 0;
    for (size_t j = 0; j < n; ++j) {
      uint128 cur = static_cast<uint128>(m) * mod[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
    for (size_t k = i + n; c != 0 && k <= 2 * n; ++k) {
      uint128 cur = static_cast<uint128>(t[k]) + c;
      t[k] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
  }
  ReduceOnceRaw(t + n, mod, n, out);
}

void GenericMontMulBatch(const MontModulusView& mv, size_t count,
                         const uint64_t* const* a, const uint64_t* const* b,
                         uint64_t* const* out) {
  for (size_t i = 0; i < count; ++i) GenericMontMul(mv, a[i], b[i], out[i]);
}

// ---------------------------------------------------------------------
// adx backend (x86-64): MULX with dual ADCX/ADOX carry chains.

#if PPSTATS_MONT_HAVE_ADX

// t[0..n] += x * s[0..n-1]; returns the carry destined for t[n+1].
// n must be a positive multiple of 4. The even products ride the CF
// (adcx) chain and the odd halves the OF (adox) chain, so the two
// per-limb additions issue in parallel instead of serializing on one
// flag. Loop control must not clobber either flag mid-chain: lea and
// jrcxz preserve both (dec would clobber OF), with the count pinned to
// rcx for jrcxz.
uint64_t MulAccRowAdx(uint64_t* t, const uint64_t* s, uint64_t x, size_t n) {
  uint64_t acc;
  uint64_t c_out;
  size_t count = n / 4;
  __asm__ volatile(
      "xorl %%r11d, %%r11d\n\t"  // clear CF and OF
      "movq (%[t]), %[acc]\n\t"
      "1:\n\t"
      "mulxq (%[s]), %%r8, %%r9\n\t"
      "adcxq %%r8, %[acc]\n\t"
      "movq %[acc], (%[t])\n\t"
      "movq 8(%[t]), %[acc]\n\t"
      "adoxq %%r9, %[acc]\n\t"
      "mulxq 8(%[s]), %%r8, %%r9\n\t"
      "adcxq %%r8, %[acc]\n\t"
      "movq %[acc], 8(%[t])\n\t"
      "movq 16(%[t]), %[acc]\n\t"
      "adoxq %%r9, %[acc]\n\t"
      "mulxq 16(%[s]), %%r8, %%r9\n\t"
      "adcxq %%r8, %[acc]\n\t"
      "movq %[acc], 16(%[t])\n\t"
      "movq 24(%[t]), %[acc]\n\t"
      "adoxq %%r9, %[acc]\n\t"
      "mulxq 24(%[s]), %%r8, %%r9\n\t"
      "adcxq %%r8, %[acc]\n\t"
      "movq %[acc], 24(%[t])\n\t"
      "movq 32(%[t]), %[acc]\n\t"
      "adoxq %%r9, %[acc]\n\t"
      "leaq 32(%[t]), %[t]\n\t"
      "leaq 32(%[s]), %[s]\n\t"
      "leaq -1(%[count]), %[count]\n\t"
      "jrcxz 2f\n\t"
      "jmp 1b\n\t"
      "2:\n\t"
      // Tail: the last adox's OF is a carry *out of* position n (it
      // belongs at t[n+1], not in acc), so capture it before folding
      // CF into acc. setc/seto preserve both flags.
      "movl $0, %%r8d\n\t"
      "movl $0, %%r9d\n\t"
      "seto %%r9b\n\t"
      "adcxq %%r8, %[acc]\n\t"
      "setc %%r8b\n\t"
      "movq %[acc], (%[t])\n\t"
      "leaq (%%r8, %%r9), %[c_out]\n\t"
      : [t] "+r"(t), [s] "+r"(s), [acc] "=&r"(acc), [c_out] "=&r"(c_out),
        [count] "+c"(count)
      : "d"(x)
      : "r8", "r9", "r11", "cc", "memory");
  return c_out;
}

// SOS Montgomery multiply on the adx row primitive: full 2n-limb
// product, then n reduction rows. `t` is caller scratch of 2n+2 zeroed
// limbs; the reduced (pre-subtraction) value lands at t[n..2n].
void AdxMontMulInto(const MontModulusView& mv, const uint64_t* a,
                    const uint64_t* b, uint64_t* t) {
  const size_t n = mv.n;
  for (size_t i = 0; i < n; ++i) {
    // Rows land in order, so t[i+n+1] is still zero: assign, not add.
    t[i + n + 1] = MulAccRowAdx(t + i, b, a[i], n);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t m = t[i] * mv.n0_inv;
    uint64_t c = MulAccRowAdx(t + i, mv.mod, m, n);
    for (size_t k = i + n + 1; c != 0; ++k) {
      assert(k < 2 * n + 2);
      const uint64_t prev = t[k];
      t[k] = prev + c;
      c = t[k] < prev ? 1 : 0;
    }
  }
  assert(t[2 * n + 1] == 0);  // result < 2m fits n+1 limbs at t[n..2n]
}

void AdxMontMul(const MontModulusView& mv, const uint64_t* a,
                const uint64_t* b, uint64_t* out) {
  const size_t n = mv.n;
  uint64_t* t = MontScratch(2 * n + 2);
  std::fill(t, t + 2 * n + 2, 0);
  AdxMontMulInto(mv, a, b, t);
  ReduceOnceRaw(t + n, mv.mod, n, out);
}

void AdxMontSqr(const MontModulusView& mv, const uint64_t* a, uint64_t* out) {
  AdxMontMul(mv, a, a, out);
}

// Two independent products with their rows interleaved: while product
// 0's carry chain for row i retires, product 1's row i issues, keeping
// the multiplier ports fed across the chain-latency bubbles. Both
// outputs are written only after both products complete.
void AdxMontMulPair(const MontModulusView& mv, const uint64_t* a0,
                    const uint64_t* b0, uint64_t* out0, const uint64_t* a1,
                    const uint64_t* b1, uint64_t* out1) {
  const size_t n = mv.n;
  const size_t width = 2 * n + 2;
  uint64_t* t0 = MontScratch(2 * width);
  uint64_t* t1 = t0 + width;
  std::fill(t0, t0 + 2 * width, 0);
  for (size_t i = 0; i < n; ++i) {
    t0[i + n + 1] = MulAccRowAdx(t0 + i, b0, a0[i], n);
    t1[i + n + 1] = MulAccRowAdx(t1 + i, b1, a1[i], n);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t m0 = t0[i] * mv.n0_inv;
    uint64_t c0 = MulAccRowAdx(t0 + i, mv.mod, m0, n);
    const uint64_t m1 = t1[i] * mv.n0_inv;
    uint64_t c1 = MulAccRowAdx(t1 + i, mv.mod, m1, n);
    for (size_t k = i + n + 1; c0 != 0; ++k) {
      const uint64_t prev = t0[k];
      t0[k] = prev + c0;
      c0 = t0[k] < prev ? 1 : 0;
    }
    for (size_t k = i + n + 1; c1 != 0; ++k) {
      const uint64_t prev = t1[k];
      t1[k] = prev + c1;
      c1 = t1[k] < prev ? 1 : 0;
    }
  }
  ReduceOnceRaw(t0 + n, mv.mod, n, out0);
  ReduceOnceRaw(t1 + n, mv.mod, n, out1);
}

void AdxMontMulBatch(const MontModulusView& mv, size_t count,
                     const uint64_t* const* a, const uint64_t* const* b,
                     uint64_t* const* out) {
  size_t i = 0;
  for (; i + 1 < count; i += 2) {
    AdxMontMulPair(mv, a[i], b[i], out[i], a[i + 1], b[i + 1], out[i + 1]);
  }
  if (i < count) AdxMontMul(mv, a[i], b[i], out[i]);
}

// ---------------------------------------------------------------------
// ifma backend (x86-64 AVX-512 IFMA): eight independent products per
// mul_batch step, one per 64-bit lane.
//
// Operands are re-cut into L = ceil(64n / 52) limbs of 52 bits so that
// vpmadd52{lo,hi}uq can form each 104-bit limb product exactly; the
// accumulator limbs are 64 bits wide, so the low/high halves pile up
// lazily (at most 4L * 2^52 < 2^61 per limb for n <= 64) and carries
// are resolved once, at the end. The word-serial reduction divides by
// 2^52 on the first L - 1 steps and by 2^s, s = 64n - 52(L - 1), on the
// last, so the total shift is exactly 2^(64n): R stays 2^(64 n) and the
// result is the same canonical residue the scalar kernels return.
// Lane l holds product l throughout, so operands enter and leave
// through 8x8 qword transposes. The kernel is compiled for AVX-512 by
// function attribute only (no global -m flags) and gated at runtime by
// DetectMontCpuFeatures().

#define PPSTATS_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
// Full unrolling turns every accumulator index into a constant, so GCC
// keeps the limb arrays in zmm registers. Clang gets no hint: its
// forced-unroll pragma warns (an error under -Werror) whenever a loop
// exceeds its unroll budget.
#if defined(__clang__)
#define PPSTATS_UNROLL_FULL
#else
#define PPSTATS_UNROLL_FULL _Pragma("GCC unroll 128")
#endif

// GCC 12's AVX-512 headers build their "undefined" source vectors by
// self-initialization, which -Wuninitialized flags at every inlined
// shift, unpack and shuffle; the values are never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

constexpr size_t kIfmaLanes = 8;
constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

// Lane-major <-> word-major for an 8x8 block of qwords: on return r[c]
// lane l holds what was r[l] lane c.
PPSTATS_IFMA_TARGET inline void Transpose8x8(__m512i r[8]) {
  const __m512i t0 = _mm512_unpacklo_epi64(r[0], r[1]);
  const __m512i t1 = _mm512_unpackhi_epi64(r[0], r[1]);
  const __m512i t2 = _mm512_unpacklo_epi64(r[2], r[3]);
  const __m512i t3 = _mm512_unpackhi_epi64(r[2], r[3]);
  const __m512i t4 = _mm512_unpacklo_epi64(r[4], r[5]);
  const __m512i t5 = _mm512_unpackhi_epi64(r[4], r[5]);
  const __m512i t6 = _mm512_unpacklo_epi64(r[6], r[7]);
  const __m512i t7 = _mm512_unpackhi_epi64(r[6], r[7]);
  // 0x88 keeps 128-bit blocks {0, 2} of each source, 0xDD blocks {1, 3}.
  const __m512i u0 = _mm512_shuffle_i64x2(t0, t2, 0x88);
  const __m512i u1 = _mm512_shuffle_i64x2(t1, t3, 0x88);
  const __m512i u2 = _mm512_shuffle_i64x2(t0, t2, 0xDD);
  const __m512i u3 = _mm512_shuffle_i64x2(t1, t3, 0xDD);
  const __m512i u4 = _mm512_shuffle_i64x2(t4, t6, 0x88);
  const __m512i u5 = _mm512_shuffle_i64x2(t5, t7, 0x88);
  const __m512i u6 = _mm512_shuffle_i64x2(t4, t6, 0xDD);
  const __m512i u7 = _mm512_shuffle_i64x2(t5, t7, 0xDD);
  r[0] = _mm512_shuffle_i64x2(u0, u4, 0x88);
  r[1] = _mm512_shuffle_i64x2(u1, u5, 0x88);
  r[2] = _mm512_shuffle_i64x2(u2, u6, 0x88);
  r[3] = _mm512_shuffle_i64x2(u3, u7, 0x88);
  r[4] = _mm512_shuffle_i64x2(u0, u4, 0xDD);
  r[5] = _mm512_shuffle_i64x2(u1, u5, 0xDD);
  r[6] = _mm512_shuffle_i64x2(u2, u6, 0xDD);
  r[7] = _mm512_shuffle_i64x2(u3, u7, 0xDD);
}

template <size_t N>
struct IfmaShape {
  static constexpr size_t kLimbs = (64 * N + 51) / 52;  // L
  static constexpr unsigned kLastShift =
      static_cast<unsigned>(64 * N - 52 * (kLimbs - 1));  // s
  static_assert(N % kIfmaLanes == 0, "whole 8x8 transpose blocks");
  // A result < 2m needs bit 64n, so 52-bit limbs must overshoot 64n.
  static_assert(52 * kLimbs > 64 * N, "no spare bit above 64n");
};

// x[j] lane l = 52-bit limb j of the N-word operand p[l].
template <size_t N>
PPSTATS_IFMA_TARGET inline void LoadLimbs52(const uint64_t* const* p,
                                            __m512i* x) {
  constexpr size_t kLimbs = IfmaShape<N>::kLimbs;
  __m512i w[N];
  PPSTATS_UNROLL_FULL
  for (size_t blk = 0; blk < N; blk += kIfmaLanes) {
    __m512i r[kIfmaLanes];
    for (size_t l = 0; l < kIfmaLanes; ++l) {
      r[l] = _mm512_loadu_si512(p[l] + blk);
    }
    Transpose8x8(r);
    for (size_t c = 0; c < kIfmaLanes; ++c) w[blk + c] = r[c];
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<int64_t>(kMask52));
  PPSTATS_UNROLL_FULL
  for (size_t j = 0; j < kLimbs; ++j) {
    const size_t k = 52 * j / 64;
    const unsigned o = 52 * j % 64;
    __m512i v = _mm512_srli_epi64(w[k], o);
    if (o > 12 && k + 1 < N) {
      v = _mm512_or_si512(v, _mm512_slli_epi64(w[k + 1], 64 - o));
    }
    x[j] = _mm512_and_si512(v, mask);
  }
}

// Inverse of LoadLimbs52 for normalized limbs of a value < 2^(64 N).
template <size_t N>
PPSTATS_IFMA_TARGET inline void StoreLimbs52(const __m512i* y,
                                             uint64_t* const* p) {
  constexpr size_t kLimbs = IfmaShape<N>::kLimbs;
  PPSTATS_UNROLL_FULL
  for (size_t blk = 0; blk < N; blk += kIfmaLanes) {
    __m512i r[kIfmaLanes];
    for (size_t c = 0; c < kIfmaLanes; ++c) {
      const size_t k = blk + c;
      const size_t j = 64 * k / 52;
      const unsigned o = 64 * k % 52;
      __m512i v = _mm512_srli_epi64(y[j], o);
      if (j + 1 < kLimbs) {
        v = _mm512_or_si512(v, _mm512_slli_epi64(y[j + 1], 52 - o));
      }
      if (o > 40 && j + 2 < kLimbs) {
        v = _mm512_or_si512(v, _mm512_slli_epi64(y[j + 2], 104 - o));
      }
      r[c] = v;
    }
    Transpose8x8(r);
    for (size_t l = 0; l < kIfmaLanes; ++l) {
      _mm512_storeu_si512(p[l] + blk, r[l]);
    }
  }
}

// out[l] = a[l] * b[l] * 2^(-64 N) mod m for l in [0, 8). All inputs
// are loaded before any output is stored, so an output may alias its
// own product's inputs.
template <size_t N>
PPSTATS_IFMA_TARGET void IfmaMontMul8(const MontModulusView& mv,
                                      const uint64_t* const* a,
                                      const uint64_t* const* b,
                                      uint64_t* const* out) {
  constexpr size_t kLimbs = IfmaShape<N>::kLimbs;
  constexpr unsigned kShift = IfmaShape<N>::kLastShift;
  assert(mv.n == N);

  // The modulus in 52-bit limbs, the same in every lane.
  const uint64_t* const mods[kIfmaLanes] = {mv.mod, mv.mod, mv.mod, mv.mod,
                                            mv.mod, mv.mod, mv.mod, mv.mod};
  __m512i m[kLimbs];
  __m512i x[kLimbs];
  __m512i y[kLimbs];
  LoadLimbs52<N>(mods, m);
  LoadLimbs52<N>(a, x);
  LoadLimbs52<N>(b, y);

  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask = _mm512_set1_epi64(static_cast<int64_t>(kMask52));
  // -m^{-1} mod 2^52 is the low 52 bits of n0' = -m^{-1} mod 2^64.
  const __m512i n0 = _mm512_set1_epi64(static_cast<int64_t>(mv.n0_inv));
  __m512i t[kLimbs + 1];
  PPSTATS_UNROLL_FULL
  for (size_t j = 0; j <= kLimbs; ++j) t[j] = zero;

  for (size_t i = 0; i < kLimbs; ++i) {
    const __m512i ai = x[i];
    // The low column first: it alone decides the reduction digit q,
    // taken from t[0]'s low 52 bits (madd52 reads only those).
    t[0] = _mm512_madd52lo_epu64(t[0], ai, y[0]);
    __m512i q = _mm512_madd52lo_epu64(zero, t[0], n0);
    if (i + 1 == kLimbs) {
      // Last step: divide by 2^s rather than 2^52.
      const __m512i low_bits = _mm512_set1_epi64(
          static_cast<int64_t>((uint64_t{1} << kShift) - 1));
      q = _mm512_and_si512(q, low_bits);
    }
    t[0] = _mm512_madd52lo_epu64(t[0], q, m[0]);
    t[1] = _mm512_madd52hi_epu64(t[1], ai, y[0]);
    t[1] = _mm512_madd52hi_epu64(t[1], q, m[0]);
    PPSTATS_UNROLL_FULL
    for (size_t j = 1; j < kLimbs; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], ai, y[j]);
      t[j] = _mm512_madd52lo_epu64(t[j], q, m[j]);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, y[j]);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], q, m[j]);
    }
    if (i + 1 == kLimbs) break;
    // t[0] is now a multiple of 2^52: drop it, carrying its high bits.
    t[1] = _mm512_add_epi64(t[1], _mm512_srli_epi64(t[0], 52));
    PPSTATS_UNROLL_FULL
    for (size_t j = 0; j < kLimbs; ++j) t[j] = t[j + 1];
    t[kLimbs] = zero;
  }

  // Resolve the lazy carries, then shift out the last step's s zero
  // bits: x = t / 2^s < 2m, in normalized 52-bit limbs.
  PPSTATS_UNROLL_FULL
  for (size_t j = 0; j < kLimbs; ++j) {
    t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_srli_epi64(t[j], 52));
    t[j] = _mm512_and_si512(t[j], mask);
  }
  PPSTATS_UNROLL_FULL
  for (size_t j = 0; j < kLimbs; ++j) {
    x[j] = _mm512_or_si512(
        _mm512_srli_epi64(t[j], kShift),
        _mm512_and_si512(_mm512_slli_epi64(t[j + 1], 52 - kShift), mask));
  }
  // Final conditional subtraction, per lane: y = x - m, kept where it
  // did not borrow.
  __m512i borrow = zero;
  PPSTATS_UNROLL_FULL
  for (size_t j = 0; j < kLimbs; ++j) {
    const __m512i d =
        _mm512_sub_epi64(_mm512_sub_epi64(x[j], m[j]), borrow);
    borrow = _mm512_srli_epi64(d, 63);
    y[j] = _mm512_and_si512(d, mask);
  }
  const __mmask8 ge = _mm512_cmpeq_epi64_mask(borrow, zero);
  PPSTATS_UNROLL_FULL
  for (size_t j = 0; j < kLimbs; ++j) {
    x[j] = _mm512_mask_blend_epi64(ge, x[j], y[j]);
  }
  StoreLimbs52<N>(x, out);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// The widths the lane kernel is instantiated for; IfmaMontMul8For
// returns nullptr elsewhere.
using IfmaMul8Fn = void (*)(const MontModulusView&, const uint64_t* const*,
                            const uint64_t* const*, uint64_t* const*);
IfmaMul8Fn IfmaMontMul8For(size_t n_limbs) {
  switch (n_limbs) {
    case 16: return IfmaMontMul8<16>;
    case 32: return IfmaMontMul8<32>;
    case 64: return IfmaMontMul8<64>;
    default: return nullptr;
  }
}

void IfmaMontMulBatch(const MontModulusView& mv, size_t count,
                      const uint64_t* const* a, const uint64_t* const* b,
                      uint64_t* const* out) {
  const IfmaMul8Fn mul8 = IfmaMontMul8For(mv.n);
  assert(mul8 != nullptr);
  size_t i = 0;
  for (; i + kIfmaLanes <= count; i += kIfmaLanes) {
    mul8(mv, a + i, b + i, out + i);
  }
  const size_t tail = count - i;
  if (tail == 1) {
    AdxMontMul(mv, a[i], b[i], out[i]);
  } else if (tail > 1) {
    // Two to seven left: one more 8-lane step, whose spare lanes repeat
    // the last real product into per-thread scratch. Every input is
    // loaded before any output is stored, so the repeat reads the real
    // product's operands even when it runs in place.
    const uint64_t* pad_a[kIfmaLanes];
    const uint64_t* pad_b[kIfmaLanes];
    uint64_t* pad_out[kIfmaLanes];
    uint64_t* const spare = MontScratch(mv.n);
    for (size_t l = 0; l < kIfmaLanes; ++l) {
      const size_t src = i + std::min(l, tail - 1);
      pad_a[l] = a[src];
      pad_b[l] = b[src];
      pad_out[l] = l < tail ? out[src] : spare;
    }
    mul8(mv, pad_a, pad_b, pad_out);
  }
}

#endif  // PPSTATS_MONT_HAVE_ADX

// ---------------------------------------------------------------------
// Registry and dispatch.

const MontBackendOps& GenericOps() {
  static const MontBackendOps ops = {
      MontBackendKind::kGeneric,
      "generic",
      GenericMontMul,
      GenericMontSqr,
      GenericMontMulBatch,
      1,
      obs::MetricRegistry::Global().GetCounter("mont.mul_ops.generic"),
      obs::MetricRegistry::Global().GetCounter("mont.sqr_ops.generic")};
  return ops;
}

#if PPSTATS_MONT_HAVE_ADX
const MontBackendOps& AdxOps() {
  static const MontBackendOps ops = {
      MontBackendKind::kAdx,
      "adx",
      AdxMontMul,
      AdxMontSqr,
      AdxMontMulBatch,
      2,
      obs::MetricRegistry::Global().GetCounter("mont.mul_ops.adx"),
      obs::MetricRegistry::Global().GetCounter("mont.sqr_ops.adx")};
  return ops;
}

// Single products gain nothing from lanes, so mul and sqr are adx's.
const MontBackendOps& IfmaOps() {
  static const MontBackendOps ops = {
      MontBackendKind::kIfma,
      "ifma",
      AdxMontMul,
      AdxMontSqr,
      IfmaMontMulBatch,
      kIfmaLanes,
      obs::MetricRegistry::Global().GetCounter("mont.mul_ops.ifma"),
      obs::MetricRegistry::Global().GetCounter("mont.sqr_ops.ifma")};
  return ops;
}
#endif

// PPSTATS_FORCE_BACKEND, parsed per context construction (cold path)
// so tests can flip it with setenv between contexts.
MontBackendKind ForcedBackendFromEnv() {
  const char* env = std::getenv("PPSTATS_FORCE_BACKEND");
  if (env == nullptr || env[0] == '\0') return MontBackendKind::kAuto;
  const std::string value(env);
  if (value == "generic") return MontBackendKind::kGeneric;
  if (value == "adx") return MontBackendKind::kAdx;
  if (value == "ifma") return MontBackendKind::kIfma;
  return MontBackendKind::kAuto;  // unknown values mean "don't force"
}

}  // namespace

const char* MontBackendKindName(MontBackendKind kind) {
  switch (kind) {
    case MontBackendKind::kAuto: return "auto";
    case MontBackendKind::kGeneric: return "generic";
    case MontBackendKind::kAdx: return "adx";
    case MontBackendKind::kIfma: return "ifma";
  }
  return "unknown";
}

const MontCpuFeatures& DetectMontCpuFeatures() {
  static const MontCpuFeatures features = [] {
    MontCpuFeatures f;
#if PPSTATS_MONT_HAVE_ADX
    f.bmi2 = __builtin_cpu_supports("bmi2") != 0;
    f.adx = __builtin_cpu_supports("adx") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
    f.avx512ifma = __builtin_cpu_supports("avx512ifma") != 0;
#endif
    return f;
  }();
  return features;
}

bool MontBackendSupports(MontBackendKind kind, size_t n_limbs) {
  const MontCpuFeatures& cpu = DetectMontCpuFeatures();
  switch (kind) {
    case MontBackendKind::kAuto:
      return n_limbs > 0;
    case MontBackendKind::kGeneric:
      return n_limbs > 0;
    case MontBackendKind::kAdx:
      return cpu.bmi2 && cpu.adx && n_limbs >= 4 && n_limbs % 4 == 0;
    case MontBackendKind::kIfma:
#if PPSTATS_MONT_HAVE_ADX
      return cpu.bmi2 && cpu.adx && cpu.avx512f && cpu.avx512ifma &&
             IfmaMontMul8For(n_limbs) != nullptr;
#else
      return false;
#endif
  }
  return false;
}

const MontBackendOps& SelectMontBackend(size_t n_limbs,
                                        MontBackendKind requested) {
  MontBackendKind kind =
      requested == MontBackendKind::kAuto ? ForcedBackendFromEnv() : requested;
  if (kind == MontBackendKind::kAuto || !MontBackendSupports(kind, n_limbs)) {
    // Auto dispatch and the fallback for unsupported requests share one
    // preference order; generic always supports the width.
    const MontBackendKind order[] = {MontBackendKind::kIfma,
                                     MontBackendKind::kAdx,
                                     MontBackendKind::kGeneric};
    for (MontBackendKind candidate : order) {
      if (candidate > kind && kind != MontBackendKind::kAuto) continue;
      if (MontBackendSupports(candidate, n_limbs)) {
        kind = candidate;
        break;
      }
    }
  }
  switch (kind) {
#if PPSTATS_MONT_HAVE_ADX
    case MontBackendKind::kAdx:
      return AdxOps();
    case MontBackendKind::kIfma:
      return IfmaOps();
#endif
    default:
      break;
  }
  return GenericOps();
}

}  // namespace ppstats
