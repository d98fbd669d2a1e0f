// Fold engine: the one implementation of the server-side homomorphic
// fold prod_i E(I_i)^{e_i} mod n^2.
//
// Every Paillier sum server — SumServer over an in-memory column or a
// file-backed one, and so every query the service host answers — is
// this fold over a different row source and exponent rule. (The packed
// Damgård–Jurik multi-sum and the PIR row folds are one-shot products
// over prepared vectors; they call DamgardJurik::WeightedFold and
// MontgomeryContext::MultiExpMontgomery directly.) The engine owns the
// ThreadPool slicing and the Montgomery-form accumulators; chunk
// validation and order are its IndexUploadSequencer's (core/messages.h,
// shared with the cluster coordinator), rows come from a pluggable
// RowSource and exponents from the query layer's ExponentTransform.
//
// The Paillier fold is conversion-free and chunk-spanning. Each worker
// slice keeps one streaming Pippenger accumulator
// (MontgomeryContext::MultiExpAccumulator) open for the whole query, so
// chunks only drop terms into buckets and the bucket reduction runs once,
// in Finish. Chunks arrive as IndexBatch frames whose ciphertexts stay
// wire bytes: rows are decoded from wire bytes into a per-chunk limb buffer
// (big-endian bytes to n little-endian limbs, no BigInt per row; the
// buffer is the folding thread's own, sized to its stretch of the chunk
// and reused by later chunks), and exponents are u64. Rows go into the
// accumulators with no per-row conversion to Montgomery form: a
// canonical residue c is the Montgomery form of c * R^-1, so the fold
// yields prod c_i^e_i * R^-sum(e_i) in Montgomery form, and Finish
// Montgomery-multiplies it once by the plain residue R^sum(e_i) (about
// BitLength(sum e_i) operations to compute). That one multiply cancels
// the R^-sum(e_i) and is the fold's single conversion out of Montgomery
// form.
//
// Bit-for-bit invariant: multiplication mod n^2 is associative,
// commutative, and exact, Montgomery products of canonical operands are
// canonical, and the R-power correction is exact, so the final residue
// is independent of chunking and slicing — the engine's output is
// identical to a per-row exponentiate-and-multiply server for every
// transform, partition, and thread count.

#ifndef PPSTATS_CORE_FOLD_ENGINE_H_
#define PPSTATS_CORE_FOLD_ENGINE_H_

#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/query.h"
#include "crypto/paillier.h"

namespace ppstats {

/// Supplies row values to the fold engine. Implementations may hold the
/// whole column in memory or page it in per chunk.
class RowSource {
 public:
  virtual ~RowSource() = default;

  /// Total rows available.
  virtual size_t size() const = 0;

  /// Reads rows [begin, begin + out.size()) into `out`. The range is
  /// validated by the engine before the call.
  [[nodiscard]] virtual Status ReadRows(size_t begin, std::span<uint32_t> out) = 0;

  /// Largest number of row values this source has held resident at once;
  /// 0 when the source does not track residency (in-memory columns).
  virtual size_t peak_resident_rows() const { return 0; }
};

/// Rows served from an in-memory Database column.
class ColumnRowSource : public RowSource {
 public:
  explicit ColumnRowSource(const Database* db) : db_(db) {}

  size_t size() const override { return db_->size(); }
  [[nodiscard]] Status ReadRows(size_t begin, std::span<uint32_t> out) override;

 private:
  const Database* db_;
};

/// Writes a database as the binary column file FileRowSource reads: u32
/// row count, then row values as little-endian u32.
[[nodiscard]] Status WriteColumnFile(const Database& db,
                                     const std::string& path);

/// Rows paged in from a binary column file (see WriteColumnFile). The
/// paper's Section 3.2 notes that batching means "the server need only
/// hold a single database chunk in memory at one time": a SumServer over
/// this source reads exactly the rows each IndexBatch covers, so its
/// resident state is one chunk, not the table.
class FileRowSource : public RowSource {
 public:
  /// Opens `path`; fails if the file is missing, truncated, or sized
  /// inconsistently with its header.
  [[nodiscard]] static Result<std::unique_ptr<FileRowSource>> Open(const std::string& path);

  size_t size() const override { return row_count_; }
  [[nodiscard]] Status ReadRows(size_t begin, std::span<uint32_t> out) override;
  size_t peak_resident_rows() const override { return peak_resident_rows_; }

 private:
  FileRowSource(std::ifstream file, size_t row_count)
      : file_(std::move(file)), row_count_(row_count) {}

  std::ifstream file_;
  size_t row_count_ = 0;
  size_t peak_resident_rows_ = 0;
};

/// The chunked fold behind every Paillier sum server: consumes index
/// ciphertext chunks in row order over [begin, end), drops them into one
/// streaming Pippenger accumulator per worker slice, and produces the
/// final (optionally blinded) ciphertext with one bucket reduction per
/// slice and a single conversion out of Montgomery form.
class FoldEngine {
 public:
  /// Folds rows [begin, end) of `rows` (pass 0, rows->size() for the
  /// whole column). Per-row exponents come from `transform`; chunks are
  /// split across `worker_threads` slices of the shared ThreadPool. The
  /// accumulators' window width is sized for end - begin rows.
  FoldEngine(const PaillierPublicKey& pub, std::unique_ptr<RowSource> rows,
             ExponentTransform transform, size_t begin, size_t end,
             size_t worker_threads = 1);

  /// Folds one IndexBatch frame. The engine's IndexUploadSequencer
  /// accepts or refuses it (parse errors, out-of-order chunks, overruns,
  /// chunks after the last row), so a refused frame folds nothing; an
  /// accepted one holds canonical residues in [0, n^2), the only inputs
  /// on which the conversion-free fold is exact.
  [[nodiscard]] Status FoldChunk(BytesView frame);

  /// True once chunks have covered every row in [begin, end).
  bool done() const { return upload_.complete(); }

  /// Runs each slice's bucket reduction (the fold's only one), combines
  /// the slices, Montgomery-multiplies by the plain residue R^sum(e_i) —
  /// undoing the conversion-free inputs' R^-1 factors and leaving
  /// Montgomery form in one step — and applies `blinding`.
  /// Requires done().
  [[nodiscard]] Result<PaillierCiphertext> Finish(const std::optional<BigInt>& blinding);

  size_t peak_resident_rows() const { return rows_->peak_resident_rows(); }

 private:
  PaillierPublicKey pub_;
  std::unique_ptr<RowSource> rows_;
  ExponentTransform transform_;
  IndexUploadSequencer upload_;
  size_t width_;          // wire bytes per ciphertext
  size_t limbs_;          // limbs of n^2: one decoded row
  uint64_t small_n_ = 0;  // n when n < 2^64 (exponents reduce mod n), else 0
  std::vector<uint32_t> values_;  // the current chunk's row values
  // One accumulator per worker slice, open across all chunks; slice t of
  // every chunk goes to slices_[t].
  std::vector<MontgomeryContext::MultiExpAccumulator> slices_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_FOLD_ENGINE_H_
