// Montgomery multiplication, squaring, fixed-window modular
// exponentiation, and batched multi-exponentiation.
//
// A MontgomeryContext is bound to one odd modulus and caches the values
// (n0', R^2 mod m) needed for CIOS Montgomery multiplication. The
// per-limb kernels themselves live behind the pluggable backend layer
// (bigint/mont_backend.h): the context resolves a backend for its width
// at construction — generic CIOS, the x86-64 MULX/ADX kernel, or the
// AVX-512 IFMA 8-lane batch kernel — and every multiply, square, and
// batched conversion routes through it. Modular exponentiation with a
// 4-bit fixed window over Montgomery residues is the workhorse of Paillier
// encryption/decryption (ExpBatch walks one window schedule for many
// bases that share an exponent, in lockstep batched products, which is
// how a client encrypts), and the batched multi-exponentiation (Pippenger
// buckets with a Straus fallback for small one-shot batches) is the
// workhorse of the server's homomorphic fold prod_i c_i^{e_i} mod m —
// the component the paper measures as dominant at every database size.
//
// There is one Pippenger implementation, the streaming
// MultiExpAccumulator: terms are dropped into per-window buckets over
// any number of Add calls and the bucket reduction runs once, in
// Finish. One-shot MultiExp/MultiExpMontgomery is a single Add + Finish;
// the server's FoldEngine keeps one accumulator open for a whole query.

#ifndef PPSTATS_BIGINT_MONTGOMERY_H_
#define PPSTATS_BIGINT_MONTGOMERY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/mont_backend.h"

namespace ppstats {

/// Schedule used by MultiExp. kAuto picks by a multiplication-count cost
/// model; the explicit values exist for benchmarks and differential tests.
enum class MultiExpSchedule {
  kAuto,       ///< cheaper of Straus / Pippenger by the cost model
  kStraus,     ///< per-base window tables, shared squaring ladder
  kPippenger,  ///< per-window bucket accumulation
};

/// Precomputed context for arithmetic modulo a fixed odd modulus.
class MontgomeryContext {
 public:
  /// Builds a context for odd `modulus` > 1, resolving the
  /// multiplication backend automatically (PPSTATS_FORCE_BACKEND
  /// override, then best supported for the width).
  explicit MontgomeryContext(const BigInt& modulus);

  /// Same, but pins the backend (benchmarks and differential tests).
  /// A kind this host/width cannot serve falls back down the dispatch
  /// order, so construction always succeeds.
  MontgomeryContext(const BigInt& modulus, MontBackendKind backend);

  const BigInt& modulus() const { return modulus_; }

  /// The backend this context resolved to (never kAuto).
  MontBackendKind backend_kind() const { return backend_->kind; }
  const char* backend_name() const { return backend_->name; }

  /// Converts a canonical residue (0 <= x < m) to Montgomery form.
  BigInt ToMontgomery(const BigInt& x) const;

  /// Batched ToMontgomery: element-for-element identical results, but
  /// the conversions run through the backend's batch entry point so
  /// independent multiplies can interleave (one-shot MultiExp converts
  /// its bases this way).
  std::vector<BigInt> ToMontgomeryBatch(std::span<const BigInt> xs) const;

  /// Converts a Montgomery-form value back to a canonical residue.
  BigInt FromMontgomery(const BigInt& x) const;

  /// Montgomery product of two Montgomery-form values.
  BigInt MulMontgomery(const BigInt& a, const BigInt& b) const;

  /// Montgomery square of a Montgomery-form value. Same reduction
  /// invariants as MulMontgomery but ~1.3x faster: the product phase
  /// computes only the upper triangle and doubles it.
  BigInt Sqr(const BigInt& a) const;

  /// Montgomery form of 1 — the identity for MulMontgomery, and the
  /// correct initial value for a Montgomery-form fold accumulator.
  BigInt OneMontgomery() const;

  /// base^exp mod m for base >= 0 (reduced internally) and exp >= 0.
  /// Small exponents (< ~48 bits, the ScalarMultiply regime) use plain
  /// square-and-multiply, skipping the 16-entry window table whose
  /// construction would dominate; larger exponents use the 4-bit fixed
  /// window — the one-base case of ExpBatch, squaring through the
  /// backend's sqr. Returns a canonical residue.
  BigInt Exp(const BigInt& base, const BigInt& exp) const;

  /// bases[i]^exp mod m for every i, bit-identical to one Exp call per
  /// base. Every base shares the exponent, so above the small-exponent
  /// cutoff the bases walk one 4-bit fixed-window schedule in lockstep:
  /// each conversion, table entry, squaring and window multiply is one
  /// batched product across the bases (squarings as acc * acc when there
  /// are two or more), which the ifma backend runs eight lanes at a time.
  /// This is Paillier's r^n for a batch of encryptions. Memory is 16
  /// n-limb table entries per base, so callers batch in small groups.
  std::vector<BigInt> ExpBatch(std::span<const BigInt> bases,
                               const BigInt& exp) const;

  /// prod_i bases[i]^exponents[i] mod m for bases >= 0 (reduced
  /// internally) and exponents >= 0. Spans must have equal length;
  /// zero-exponent terms are skipped. Returns a canonical residue equal
  /// bit-for-bit to the naive per-term Exp/MulMod fold.
  BigInt MultiExp(std::span<const BigInt> bases,
                  std::span<const BigInt> exponents,
                  MultiExpSchedule schedule = MultiExpSchedule::kAuto) const;

  /// MultiExp over bases already in Montgomery form; the result stays in
  /// Montgomery form so callers can chain chunks into a Montgomery-form
  /// accumulator and convert back exactly once.
  BigInt MultiExpMontgomery(
      std::span<const BigInt> bases_mont, std::span<const BigInt> exponents,
      MultiExpSchedule schedule = MultiExpSchedule::kAuto) const;

  /// Widest Pippenger window. Caps the bucket state of a
  /// MultiExpAccumulator independent of how many terms it folds.
  static constexpr size_t kMaxPippengerWindow = 9;

  class MultiExpAccumulator;

 private:
  using Limbs = std::vector<uint64_t>;

  // The modulus constants the backend kernels consume.
  MontModulusView View() const { return {mod_limbs_.data(), n_, n0_inv_}; }

  // Montgomery product / square of n-limb operands via the resolved
  // backend. `out` is resized to n limbs and must not alias a or b
  // (resizing could invalidate their storage); internal callers keep a
  // separate tmp and swap.
  void MontMul(const Limbs& a, const Limbs& b, Limbs* out) const;
  void MontSqr(const Limbs& a, Limbs* out) const;
  // MontMul / MontSqr over bare n-limb arrays (the accumulator's flat
  // buckets, ExpBatch's accumulators); out may alias the inputs.
  void MontMulRaw(const uint64_t* a, const uint64_t* b, uint64_t* out) const;
  void MontSqrRaw(const uint64_t* a, uint64_t* out) const;

  // Batched Montgomery products out[i] = a[i] * b[i] over already-sized
  // n-limb arrays. An output may alias its own product's inputs, never
  // another product's (the backend may interleave products).
  void MontMulBatch(size_t count, const uint64_t* const* a,
                    const uint64_t* const* b, uint64_t* const* out) const;

  // Straus multi-exponentiation over the flat operands of nonzero terms
  // (see MultiExpAccumulator::Add): n-limb Montgomery-form base rows and
  // exp_limbs-limb exponents. Returns Montgomery form.
  Limbs StrausMont(std::span<const uint64_t> bases,
                   std::span<const uint64_t> exps, size_t exp_limbs,
                   size_t max_bits, size_t window) const;

  Limbs ToFixed(const BigInt& x) const;  // pad/truncate to n limbs

  BigInt modulus_;
  Limbs mod_limbs_;     // n limbs
  size_t n_;            // limb count of modulus
  uint64_t n0_inv_;     // -m^{-1} mod 2^64
  Limbs r2_;            // R^2 mod m, R = 2^(64 n)
  Limbs one_mont_;      // R mod m (Montgomery form of 1)
  // Resolved multiplication backend; points at a process-lifetime ops
  // table (bigint/mont_backend.cc), so copies of the context stay valid.
  const MontBackendOps* backend_ = nullptr;
};

/// Streaming Pippenger multi-exponentiation: the running Montgomery-form
/// product prod_i bases[i]^exponents[i] over every term passed to Add,
/// across any number of calls.
///
/// Exponent bits are cut into windows of w bits. Each window keeps its
/// own bucket array for the accumulator's whole life: Add drops a base
/// into bucket (window j, digit d) of every window its exponent touches
/// — the first base in a bucket is a copy, later ones one multiply each,
/// deferred and flushed through the backend's batched multiply in
/// rounds: the k-th deferred insert of every bucket runs in round k, so
/// each round is one batch of products into distinct buckets. Finish
/// runs the bucket reduction and the shared squaring ladder once for
/// everything added, so splitting a fold over many Add calls costs the
/// same as one call. The reduction is the gap walk
/// prod_i S_i^(d_i - d_{i+1}) over each window's occupied digits
/// d_1 > ... > d_m (S_i the product of the first i buckets), cut into
/// segments that run as independent lanes, as many as the backend's
/// batched multiply is wide: round r batches every lane's r-th product,
/// so on the ifma backend the reduction runs eight products at a time.
///
/// w comes from the MultiExp cost model at the first Add with a nonzero
/// exponent, sized for `expected_terms` terms of that batch's widest
/// exponent, and never exceeds kMaxPippengerWindow; a later, wider
/// exponent just opens more windows. Buckets live in anonymous mappings,
/// one per batch of windows opened, unmapped with the accumulator: only
/// pages holding occupied buckets become resident, and they go back to
/// the OS when the fold ends rather than stranding in whichever pool
/// thread's malloc arena allocated them.
/// Bucket state is bounded by ceil(b / w) * 2^w buckets of 8n bytes, b
/// the widest exponent added: with w <= 9 that is at most
/// 64 KiB per window for a 512-bit Paillier key (1024-bit n^2, 16 limbs)
/// and 128 KiB for a 1024-bit key. The server fold's exponents (32-bit
/// row values and their squares/products, <= 64 bits, <= 8 windows) cap
/// it at 512 KiB and 1 MiB per accumulator, whatever the row count.
///
/// Bases are n-limb canonical residues (< m), taken as Montgomery-form
/// values. A caller holding plain residues c can pass them unconverted:
/// c is the Montgomery form of c * R^-1 (R = 2^(64 n)), so Finish returns
/// the Montgomery form of prod c_i^e_i * R^-sum(e_i), and one
/// MulMontgomery by the plain residue R^sum(e_i) mod m — that is,
/// Exp(OneMontgomery(), exponent_sum()), since the Montgomery form of 1
/// is R mod m — yields prod c_i^e_i exactly, as a canonical residue.
///
/// Not thread-safe; the FoldEngine keeps one per worker slice. The
/// context must outlive the accumulator.
class MontgomeryContext::MultiExpAccumulator {
 public:
  MultiExpAccumulator(const MontgomeryContext& mont, size_t expected_terms);

  /// Adds base_i^exponent_i for every term i, over flat operands:
  /// `bases` holds the terms' bases back to back as n-limb rows (n the
  /// modulus' limb count, each row < the modulus), and `exponents` their
  /// exponents back to back, `exp_limbs` little-endian limbs each. A
  /// row's one uint64_t (exp_limbs = 1) and a BigInt's limbs() padded to
  /// exp_limbs are both that form. Zero-exponent terms are skipped. The
  /// spans are only read during the call.
  void Add(std::span<const uint64_t> bases,
           std::span<const uint64_t> exponents, size_t exp_limbs);

  /// The Montgomery-form product of every term added so far (the
  /// Montgomery form of 1 when there are none). Does not consume the
  /// buckets: more terms may be added and Finish called again.
  BigInt Finish() const;

  /// Sum of the exponents added so far.
  BigInt exponent_sum() const { return BigInt::FromLimbs(exponent_sum_); }

  /// True until a term with a nonzero exponent has been added.
  bool empty() const { return windows_.empty(); }

  /// Window width in bits; 0 until the first nonzero exponent arrives.
  size_t window_bits() const { return window_; }

 private:
  struct Unmap {
    explicit Unmap(size_t mapped_bytes = 0) : bytes(mapped_bytes) {}
    void operator()(uint64_t* p) const;
    size_t bytes;
  };
  struct Window {
    uint64_t* buckets = nullptr;  // 2^w buckets of n limbs, in mappings_
    std::vector<uint8_t> used;    // per digit: bucket holds a value
  };
  // A deferred bucket insert: base joins bucket `digit` in `round`.
  struct Deferred {
    uint32_t digit;
    uint32_t round;
    const uint64_t* base;
  };

  static std::unique_ptr<uint64_t[], Unmap> MapBuckets(size_t limbs);

  const MontgomeryContext* mont_;
  size_t expected_terms_;
  size_t window_ = 0;
  std::vector<Window> windows_;  // index j covers bits [j w, (j+1) w)
  std::vector<std::unique_ptr<uint64_t[], Unmap>> mappings_;
  Limbs exponent_sum_;
  // Add's scratch, kept to avoid per-call allocation.
  std::vector<Deferred> pending_;
  std::vector<uint32_t> deferred_;   // per digit: inserts deferred so far
  std::vector<size_t> round_end_;    // per round: end offset in group_*
  Limbs column_sums_;  // per exponent limb: the call's sum, carried
  std::vector<const uint64_t*> group_b_;
  std::vector<uint64_t*> group_out_;  // also the products' a operands
};

}  // namespace ppstats

#endif  // PPSTATS_BIGINT_MONTGOMERY_H_
