#include "core/fold_engine.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ppstats {

namespace {

uint32_t ReadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

Status ColumnRowSource::ReadRows(size_t begin, std::span<uint32_t> out) {
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = db_->value(begin + i);
  }
  return Status::OK();
}

Status WriteColumnFile(const Database& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot write column file: " + path);
  uint32_t count = static_cast<uint32_t>(db.size());
  uint8_t header[4] = {
      static_cast<uint8_t>(count), static_cast<uint8_t>(count >> 8),
      static_cast<uint8_t>(count >> 16), static_cast<uint8_t>(count >> 24)};
  out.write(reinterpret_cast<const char*>(header), 4);
  for (uint32_t v : db.values()) {
    uint8_t cell[4] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
                       static_cast<uint8_t>(v >> 16),
                       static_cast<uint8_t>(v >> 24)};
    out.write(reinterpret_cast<const char*>(cell), 4);
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<std::unique_ptr<FileRowSource>> FileRowSource::Open(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open column file: " + path);
  uint8_t header[4];
  file.read(reinterpret_cast<char*>(header), 4);
  if (!file) return Status::SerializationError("column file too short");
  size_t rows = ReadU32Le(header);

  file.seekg(0, std::ios::end);
  auto size = static_cast<uint64_t>(file.tellg());
  if (size != 4 + 4 * static_cast<uint64_t>(rows)) {
    return Status::SerializationError("column file size mismatch");
  }
  file.seekg(4);
  return std::unique_ptr<FileRowSource>(
      new FileRowSource(std::move(file), rows));
}

Status FileRowSource::ReadRows(size_t begin, std::span<uint32_t> out) {
  // The cells land in `out` as file bytes, then each is read back as
  // little-endian in place (a no-op on little-endian hosts).
  auto* raw = reinterpret_cast<uint8_t*>(out.data());
  file_.seekg(4 + 4 * static_cast<std::streamoff>(begin));
  file_.read(reinterpret_cast<char*>(raw),
             static_cast<std::streamsize>(out.size_bytes()));
  if (!file_) return Status::Internal("column file read failed");
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ReadU32Le(raw + 4 * i);
  }
  peak_resident_rows_ = std::max(peak_resident_rows_, out.size());
  return Status::OK();
}

FoldEngine::FoldEngine(const PaillierPublicKey& pub,
                       std::unique_ptr<RowSource> rows,
                       ExponentTransform transform, size_t begin, size_t end,
                       size_t worker_threads)
    : pub_(pub),
      rows_(std::move(rows)),
      transform_(transform),
      upload_(begin, end),
      width_(pub_.CiphertextBytes()),
      limbs_(pub_.n_squared().LimbCount()),
      small_n_(pub_.n().FitsUint64() ? pub_.n().LowUint64() : 0) {
  const size_t threads = std::max<size_t>(worker_threads, 1);
  const size_t rows_per_slice = (end - begin + threads - 1) / threads;
  slices_.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    slices_.emplace_back(pub_.mont_n2(), rows_per_slice);
  }
}

Status FoldEngine::FoldChunk(BytesView frame) {
  static obs::Counter* const chunks =
      obs::MetricRegistry::Global().GetCounter("fold.chunks");
  static obs::Counter* const rows =
      obs::MetricRegistry::Global().GetCounter("fold.rows");
  obs::ObsSpan span(obs::kSpanFold);
  PPSTATS_ASSIGN_OR_RETURN(IndexBatchView batch, upload_.Next(pub_, frame));
  const size_t start_row = batch.start_index;
  const size_t count = batch.count;

  values_.resize(count);
  PPSTATS_RETURN_IF_ERROR(rows_->ReadRows(start_row, values_));

  // Each slice decodes its own stretch of rows straight from the wire
  // bytes into n-limb bases, keeping only rows with a nonzero exponent
  // (E(I)^0 == 1: no-op factor). The decoded residues go into the
  // accumulators unconverted (Finish corrects for that). A row < n^2
  // fits in limbs_ limbs, so any wire bytes above them are zero and are
  // skipped. The limb buffer is the folding thread's own, grown once to
  // the widest stretch it has folded and reused by every later chunk
  // and query: Add reads it only during the call, and it stays in that
  // thread's cache.
  const size_t skip = width_ > 8 * limbs_ ? width_ - 8 * limbs_ : 0;
  const size_t threads = std::min(slices_.size(), std::max<size_t>(count, 1));
  const size_t stride = (count + threads - 1) / threads;
  auto fold_slice = [this, &batch, start_row, count, stride, skip](size_t t) {
    thread_local std::vector<uint64_t> scratch;
    const size_t begin = std::min(t * stride, count);
    const size_t end = std::min(begin + stride, count);
    // The stretch's bases, then its exponents.
    const size_t rows = end - begin;
    if (scratch.size() < rows * (limbs_ + 1)) {
      scratch.resize(rows * (limbs_ + 1));
    }
    const std::span<uint64_t> bases(scratch.data(), rows * limbs_);
    const std::span<uint64_t> exponents(scratch.data() + rows * limbs_, rows);
    size_t kept = 0;
    for (size_t i = begin; i < end; ++i) {
      uint64_t exponent = transform_.RowExponent(start_row + i, values_[i]);
      if (exponent == 0) continue;
      if (small_n_ != 0 && exponent >= small_n_) exponent %= small_n_;
      BigInt::LimbsFromBytes(
          batch.payload.subspan(i * width_ + skip, width_ - skip),
          bases.subspan(kept * limbs_, limbs_));
      exponents[kept++] = exponent;
    }
    slices_[t].Add(bases.first(kept * limbs_), exponents.first(kept), 1);
  };
  if (threads <= 1) {
    fold_slice(0);
  } else {
    ThreadPool::Shared().Run(threads, fold_slice);
  }
  chunks->Increment();
  rows->Add(count);
  return Status::OK();
}

Result<PaillierCiphertext> FoldEngine::Finish(
    const std::optional<BigInt>& blinding) {
  if (!done()) {
    return Status::FailedPrecondition("fold has uncovered rows");
  }
  const MontgomeryContext& mont = pub_.mont_n2();
  std::vector<BigInt> partials(slices_.size());
  auto reduce = [this, &partials](size_t t) {
    partials[t] = slices_[t].Finish();
  };
  if (slices_.size() <= 1) {
    reduce(0);
  } else {
    ThreadPool::Shared().Run(slices_.size(), reduce);
  }
  BigInt product = mont.OneMontgomery();
  BigInt exponent_sum;
  for (size_t t = 0; t < slices_.size(); ++t) {
    if (slices_[t].empty()) continue;
    product = mont.MulMontgomery(product, partials[t]);
    exponent_sum += slices_[t].exponent_sum();
  }
  // Every base went in as c, the Montgomery form of c * R^-1, so product
  // is the Montgomery form of prod c^e * R^-sum(e). One Montgomery
  // multiply by the plain residue R^sum(e) (OneMontgomery() is R mod n^2)
  // cancels that factor and is the fold's only conversion out of
  // Montgomery form: the result is the canonical prod c^e.
  const BigInt r_pow = mont.Exp(mont.OneMontgomery(), exponent_sum);
  PaillierCiphertext out{mont.MulMontgomery(product, r_pow)};
  if (blinding.has_value()) {
    return Paillier::AddPlaintext(pub_, out, *blinding);
  }
  return out;
}

}  // namespace ppstats
