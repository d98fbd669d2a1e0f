// Pluggable Montgomery-multiplication backends.
//
// Every homomorphic fold bottoms out in the Montgomery product of two
// n-limb operands, so MontgomeryContext routes its inner loops through
// one of three interchangeable kernels:
//
//   generic  variable-width CIOS multiply / SOS squaring over a
//            per-thread scratch buffer. Works for every odd modulus and
//            is the reference the other backends are differentially
//            tested against.
//   adx      x86-64 kernel built on MULX with dual ADCX/ADOX carry
//            chains (two independent carry flags, so the two additions
//            per limb pipeline instead of serializing). Requires BMI2 +
//            ADX, probed once at startup. Its mul_batch interleaves the
//            rows of product pairs.
//   ifma     AVX-512 IFMA batch kernel: mul_batch runs eight
//            independent products at once, one per 64-bit lane, on
//            52-bit limbs (L = ceil(64n / 52) of them) with
//            vpmadd52{lo,hi}uq. Operands enter and leave through 8x8
//            qword transposes. The last reduction step divides by
//            2^(64n - 52(L - 1)) instead of 2^52, so R stays 2^(64 n).
//            A batch tail of two to seven products still runs through
//            the 8-lane kernel, its spare lanes repeating a real product
//            into scratch; a lone product, and single mul/sqr, run on
//            the adx kernels. Requires AVX-512F + IFMA + BMI2 + ADX;
//            built for 16, 32 and 64 limbs (1024-, 2048- and 4096-bit
//            moduli). The kernel is compiled by function target
//            attribute, not global -m flags.
//
// All kernels produce the same canonical residue bit for bit: the
// Montgomery product of canonical inputs is a unique value < m, so the
// choice of backend can never change a protocol transcript.
//
// Selection is automatic (best supported backend for the width, in the
// order ifma > adx > generic) and can be overridden with
// PPSTATS_FORCE_BACKEND=generic|adx|ifma for benchmarks, differential
// tests, and fleet debugging.

#ifndef PPSTATS_BIGINT_MONT_BACKEND_H_
#define PPSTATS_BIGINT_MONT_BACKEND_H_

#include <cstddef>
#include <cstdint>

namespace ppstats {

namespace obs {
class Counter;
}  // namespace obs

/// Backend identities. kAuto is a *request* (resolve per the dispatch
/// order, honoring PPSTATS_FORCE_BACKEND); a resolved context always
/// reports one of the concrete kinds.
enum class MontBackendKind {
  kAuto,     ///< dispatcher's choice (env override, then best supported)
  kGeneric,  ///< variable-width CIOS, per-thread scratch
  kAdx,      ///< x86-64 MULX/ADCX/ADOX dual carry chains
  kIfma,     ///< AVX-512 IFMA, eight batched products per call
};
// SelectMontBackend's fallback compares enum order: a later kind is a
// preferred one, so keep new kinds in dispatch order.

/// Stable lowercase name ("auto", "generic", "adx", "ifma").
const char* MontBackendKindName(MontBackendKind kind);

/// The modulus constants a kernel needs, borrowed from the owning
/// MontgomeryContext: n limbs of m plus n0' = -m^{-1} mod 2^64.
struct MontModulusView {
  const uint64_t* mod;
  size_t n;
  uint64_t n0_inv;
};

/// One backend's entry points. All operands are n-limb little-endian
/// arrays; `out` is written only after the inputs are fully consumed,
/// so an output may alias its own operation's inputs. Within mul_batch
/// the products are independent: an output must not alias another
/// product's input (callers batch distinct accumulators only).
struct MontBackendOps {
  MontBackendKind kind;
  const char* name;
  void (*mul)(const MontModulusView& m, const uint64_t* a, const uint64_t* b,
              uint64_t* out);
  void (*sqr)(const MontModulusView& m, const uint64_t* a, uint64_t* out);
  void (*mul_batch)(const MontModulusView& m, size_t count,
                    const uint64_t* const* a, const uint64_t* const* b,
                    uint64_t* const* out);
  /// Products mul_batch runs side by side (ifma 8, adx 2, generic 1).
  /// A caller that can split its work into this many independent
  /// chains of products keeps the kernel full.
  size_t lanes;
  /// Per-backend op counters (mont.mul_ops.<name> / mont.sqr_ops.<name>
  /// in the global registry), cached here so the hot path never takes
  /// the registry lock.
  obs::Counter* mul_ops;
  obs::Counter* sqr_ops;
};

/// CPU features relevant to backend dispatch, probed once per process.
struct MontCpuFeatures {
  bool bmi2 = false;        ///< MULX
  bool adx = false;         ///< ADCX/ADOX
  bool avx512f = false;     ///< AVX-512 foundation (and OS zmm state)
  bool avx512ifma = false;  ///< VPMADD52LUQ/VPMADD52HUQ
};
const MontCpuFeatures& DetectMontCpuFeatures();

/// True when `kind` can serve n_limbs-limb operands on this host:
/// generic always; adx on x86-64 with BMI2+ADX for any positive multiple
/// of 4; ifma with AVX-512F+IFMA besides for 16, 32 and 64 limbs.
bool MontBackendSupports(MontBackendKind kind, size_t n_limbs);

/// Resolves a backend for n_limbs-limb moduli. A kAuto request first
/// honors PPSTATS_FORCE_BACKEND (values generic / adx / ifma), then
/// picks the best supported kind in the order ifma > adx > generic. A
/// concrete request (or override) that this host/width cannot serve
/// falls back down the same order, so a forced backend can never
/// produce a context that fails — only a slower one.
const MontBackendOps& SelectMontBackend(
    size_t n_limbs, MontBackendKind requested = MontBackendKind::kAuto);

}  // namespace ppstats

#endif  // PPSTATS_BIGINT_MONT_BACKEND_H_
