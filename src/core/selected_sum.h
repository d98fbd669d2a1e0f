// The selected-sum protocol of the paper (Figure 1), in sans-IO style.
//
//   Client                         Server (holds x_1..x_n)
//     E(I_1) ... E(I_n)  ------>     v = prod_i E(I_i)^{x_i} mod n^2
//                        <------     v
//     decrypt v  =>  sum_{I_i=1} x_i
//
// SumClient and SumServer produce and consume wire frames; a runner (or a
// real channel) moves the frames. Each side times its own cryptographic
// work, per chunk, so the harness can report the paper's component
// breakdown and the pipelined (batched) schedule of Section 3.2.
//
// Generalization: the client-side vector holds integer weights, not just
// 0/1 — E(w_i) yields the weighted sum sum_i w_i x_i (paper Section 2),
// from which weighted averages follow. On the server side, variance and
// covariance queries are not special cases here: a CompiledQuery (see
// core/query.h) carries the per-row exponent transform, partition, and
// blinding, and the fold itself lives in core/fold_engine.h.

#ifndef PPSTATS_CORE_SELECTED_SUM_H_
#define PPSTATS_CORE_SELECTED_SUM_H_

#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "core/fold_engine.h"
#include "core/messages.h"
#include "core/query.h"
#include "core/query_exec.h"
#include "crypto/pool.h"
#include "db/database.h"

namespace ppstats {

/// Client-side tuning knobs.
struct SumClientOptions {
  /// Rows per request frame. 0 sends the entire index vector in one
  /// frame (the paper's unoptimized protocol); the paper's batching
  /// experiment uses 100.
  size_t chunk_size = 0;

  /// When set, index encryptions come from this pool of precomputed
  /// encryptions (paper Section 3.3). The pool must be for the same key.
  EncryptionPool* encryption_pool = nullptr;

  /// When set (and encryption_pool is null), encryption uses precomputed
  /// r^n factors from this pool — two modular multiplications online.
  RandomnessPool* randomness_pool = nullptr;

  /// Global row index of this client's first weight. Used by the
  /// multi-client protocol, where client i covers one partition of the
  /// database and must address rows by their global position.
  size_t index_offset = 0;
};

/// Client endpoint: owns the private key and the (secret) weight vector.
class SumClient {
 public:
  /// Weighted-sum client. Weights must each be < n.
  SumClient(const PaillierPrivateKey& key, WeightVector weights,
            SumClientOptions options, RandomSource& rng);

  /// Selection (0/1-weight) client.
  SumClient(const PaillierPrivateKey& key, const SelectionVector& selection,
            SumClientOptions options, RandomSource& rng);

  /// True once every index chunk has been produced.
  bool RequestsDone() const { return next_index_ >= weights_.size(); }

  /// Encrypts and encodes the next chunk of the index vector.
  /// Fails with FailedPrecondition once RequestsDone().
  [[nodiscard]] Result<Bytes> NextRequest();

  /// Decrypts the server's response; returns the (possibly blinded) sum.
  /// A SumClient runs one protocol execution: once a response has been
  /// handled, further calls fail with FailedPrecondition.
  [[nodiscard]] Result<BigInt> HandleResponse(BytesView frame);

  /// Same, for a response sum the caller has already decoded (a session
  /// driver's ClientProtocolFsm decodes every answer frame).
  [[nodiscard]] Result<BigInt> HandleResponse(const PaillierCiphertext& sum);

  /// Number of request frames this client will send in total.
  size_t TotalChunks() const;

  // --- timing, for the experiment harness ---------------------------
  double encrypt_seconds() const { return encrypt_seconds_; }
  double decrypt_seconds() const { return decrypt_seconds_; }
  const std::vector<double>& chunk_encrypt_seconds() const {
    return chunk_encrypt_seconds_;
  }

  const PaillierPublicKey& public_key() const { return key_->public_key(); }

 private:
  const PaillierPrivateKey* key_;
  WeightVector weights_;
  SumClientOptions options_;
  RandomSource* rng_;
  size_t next_index_ = 0;
  bool response_handled_ = false;
  double encrypt_seconds_ = 0;
  double decrypt_seconds_ = 0;
  std::vector<double> chunk_encrypt_seconds_;
};

/// Server endpoint: executes one compiled query, accumulating the
/// homomorphic product as index chunks arrive. It is the QueryExecution
/// a LocalQueryRouter opens for every local query.
class SumServer : public QueryExecution {
 public:
  /// Plain selected/weighted sum over the whole of `db` (the common
  /// case: the figure harnesses).
  SumServer(PaillierPublicKey pub, const Database* db);

  /// Executes `query` (see CompileQuery): the lowered exponent
  /// transform, partition, and blinding of any statistic kind. The
  /// referenced columns must outlive the server. `worker_threads`
  /// splits each chunk's fold across slices of the shared ThreadPool
  /// (the server-side counterpart of the paper's Section 3.5
  /// parallelization); 0 or 1 = single-threaded.
  SumServer(PaillierPublicKey pub, const CompiledQuery& query,
            size_t worker_threads = 1);

  /// Plain selected sum over every row of `rows` — e.g. a FileRowSource,
  /// which holds one chunk resident at a time instead of the table.
  SumServer(PaillierPublicKey pub, std::unique_ptr<RowSource> rows,
            size_t worker_threads = 1);

  /// Consumes one request frame. Returns the encoded response frame once
  /// the last expected row has been processed, std::nullopt before that.
  [[nodiscard]] Result<std::optional<Bytes>> HandleRequest(
      BytesView frame) override;

  /// True once the response has been produced.
  bool Finished() const override { return finished_; }

  /// Largest number of row values the row source has held resident at
  /// once (0 for in-memory columns, which do not track it).
  size_t peak_resident_rows() const { return engine_.peak_resident_rows(); }

  // --- timing --------------------------------------------------------
  double compute_seconds() const override { return compute_seconds_; }
  const std::vector<double>& chunk_compute_seconds() const {
    return chunk_compute_seconds_;
  }

 private:
  PaillierPublicKey pub_;
  FoldEngine engine_;
  std::optional<BigInt> blinding_;
  bool finished_ = false;
  double compute_seconds_ = 0;
  std::vector<double> chunk_compute_seconds_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SELECTED_SUM_H_
