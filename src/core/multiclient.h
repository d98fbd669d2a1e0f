// Multi-client parallel selected sum (paper Section 3.5, Figure 8).
//
// k clients each take a 1/k partition of the database and run the
// selected-sum protocol in parallel, each under its own key. To protect
// database privacy, the server adds a random blinding term R_i (with
// sum_i R_i = 0 mod M) to each partial sum before responding. In phase
// two the clients pass their blinded partials around a ring; the final
// client's total is sum_i (P_i + R_i) = sum_i P_i (mod M), which it
// broadcasts.
//
// The shares come from DrawZeroShares, and M (the blinding modulus)
// must pass CheckBlindModulus with one summand for every client key:
// 2M <= n_i, so blinded partials never wrap the plaintext space
// (crypto/zero_share.h). The true sum must be < M for the result to be
// exact.

#ifndef PPSTATS_CORE_MULTICLIENT_H_
#define PPSTATS_CORE_MULTICLIENT_H_

#include <vector>

#include "core/runner.h"

namespace ppstats {

/// Configuration for a multi-client execution.
struct MultiClientConfig {
  /// Blinding modulus M. The default (2^64) comfortably bounds sums of
  /// 32-bit values over any realistic database.
  BigInt blind_modulus = BigInt(1) << 64;

  /// Per-client protocol options (chunking, preprocessing pools are not
  /// shared across clients and must be null here).
  size_t chunk_size = 0;
};

/// Result and metrics of one multi-client execution.
struct MultiClientRunResult {
  BigInt total;  ///< unblinded selected sum (mod M)

  /// Phase-1 metrics, one entry per client (client i covered partition i).
  std::vector<RunMetrics> client_metrics;

  /// Phase-2 ring + broadcast traffic (client-to-client).
  TrafficStats ring_traffic;
  uint64_t ring_sequential_messages = 0;  ///< messages on the critical path

  /// Elapsed time with all k clients working in parallel: the slowest
  /// client's phase 1, plus the sequential ring, under `env`.
  double ParallelSeconds(const ExecutionEnvironment& env) const;

  /// Sum of all clients' work as if one client did everything (the
  /// baseline the paper's Figure 9 compares against).
  double SequentialSeconds(const ExecutionEnvironment& env) const;
};

/// Runs the full two-phase multi-client protocol with `keys.size()`
/// clients. `selection` covers the whole database; client i handles the
/// i-th contiguous partition. Fails unless every key satisfies
/// 2M <= n_i and there are at least 2 clients.
[[nodiscard]] Result<MultiClientRunResult> RunMultiClientSum(
    const std::vector<const PaillierPrivateKey*>& keys, const Database& db,
    const SelectionVector& selection, const MultiClientConfig& config,
    RandomSource& rng);

}  // namespace ppstats

#endif  // PPSTATS_CORE_MULTICLIENT_H_
