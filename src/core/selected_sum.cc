#include "core/selected_sum.h"

#include <algorithm>

#include "obs/span.h"

namespace ppstats {

namespace {

WeightVector SelectionToWeights(const SelectionVector& selection) {
  WeightVector weights(selection.size());
  for (size_t i = 0; i < selection.size(); ++i) {
    weights[i] = selection[i] ? 1 : 0;
  }
  return weights;
}

FoldEngine WholeSourceEngine(const PaillierPublicKey& pub,
                             std::unique_ptr<RowSource> rows,
                             size_t worker_threads) {
  const size_t row_count = rows->size();
  return FoldEngine(pub, std::move(rows), ExponentTransform::Identity(),
                    /*begin=*/0, /*end=*/row_count, worker_threads);
}

}  // namespace

SumClient::SumClient(const PaillierPrivateKey& key, WeightVector weights,
                     SumClientOptions options, RandomSource& rng)
    : key_(&key),
      weights_(std::move(weights)),
      options_(options),
      rng_(&rng) {}

SumClient::SumClient(const PaillierPrivateKey& key,
                     const SelectionVector& selection,
                     SumClientOptions options, RandomSource& rng)
    : SumClient(key, SelectionToWeights(selection), options, rng) {}

size_t SumClient::TotalChunks() const {
  if (weights_.empty()) return 0;
  size_t chunk = options_.chunk_size == 0 ? weights_.size()
                                          : options_.chunk_size;
  return (weights_.size() + chunk - 1) / chunk;
}

Result<Bytes> SumClient::NextRequest() {
  if (RequestsDone()) {
    return Status::FailedPrecondition("all request chunks already produced");
  }
  const size_t chunk = options_.chunk_size == 0 ? weights_.size()
                                                : options_.chunk_size;
  const size_t begin = next_index_;
  const size_t end = std::min(begin + chunk, weights_.size());

  IndexBatchMessage msg;
  msg.start_index = options_.index_offset + begin;
  msg.ciphertexts.reserve(end - begin);

  const PaillierPublicKey& pub = key_->public_key();
  double elapsed = 0;
  {
    obs::ScopedPhaseTimer timer(&elapsed, obs::kSpanClientEncrypt);
    std::vector<BigInt> plaintexts(weights_.begin() + begin,
                                   weights_.begin() + end);
    if (options_.encryption_pool == nullptr &&
        options_.randomness_pool == nullptr) {
      // No pool: the whole chunk is one batch (lockstep r^n lanes).
      PPSTATS_ASSIGN_OR_RETURN(msg.ciphertexts,
                               Paillier::EncryptBatch(pub, plaintexts, *rng_));
    } else {
      for (const BigInt& plaintext : plaintexts) {
        Result<PaillierCiphertext> ct =
            options_.encryption_pool != nullptr
                ? options_.encryption_pool->Take(plaintext, *rng_)
                : options_.randomness_pool->Encrypt(plaintext, *rng_);
        if (!ct.ok()) return ct.status();
        msg.ciphertexts.push_back(std::move(ct).ValueOrDie());
      }
    }
  }
  encrypt_seconds_ += elapsed;
  chunk_encrypt_seconds_.push_back(elapsed);

  next_index_ = end;
  return msg.Encode(pub);
}

Result<BigInt> SumClient::HandleResponse(BytesView frame) {
  PPSTATS_ASSIGN_OR_RETURN(SumResponseMessage msg,
                           SumResponseMessage::Decode(key_->public_key(), frame));
  return HandleResponse(msg.sum);
}

Result<BigInt> SumClient::HandleResponse(const PaillierCiphertext& sum) {
  if (response_handled_) {
    return Status::FailedPrecondition(
        "response already handled; a SumClient runs one execution");
  }
  Result<BigInt> plain = [&] {
    obs::ScopedPhaseTimer timer(&decrypt_seconds_, obs::kSpanClientDecrypt);
    return Paillier::Decrypt(*key_, sum);
  }();
  if (plain.ok()) response_handled_ = true;
  return plain;
}

SumServer::SumServer(PaillierPublicKey pub, const Database* db)
    : SumServer(std::move(pub), std::make_unique<ColumnRowSource>(db)) {}

SumServer::SumServer(PaillierPublicKey pub, const CompiledQuery& query,
                     size_t worker_threads)
    : pub_(std::move(pub)),
      engine_(pub_, std::make_unique<ColumnRowSource>(query.column),
              query.transform, query.begin, query.end, worker_threads),
      blinding_(query.blinding) {}

SumServer::SumServer(PaillierPublicKey pub, std::unique_ptr<RowSource> rows,
                     size_t worker_threads)
    : pub_(std::move(pub)),
      engine_(WholeSourceEngine(pub_, std::move(rows), worker_threads)) {}

Result<std::optional<Bytes>> SumServer::HandleRequest(BytesView frame) {
  // The engine's upload sequencer validates the frame; the ciphertexts
  // stay wire bytes, decoded into the engine's limb buffer as it folds.
  double elapsed = 0;
  {
    obs::ScopedPhaseTimer timer(&elapsed, obs::kSpanServerCompute);
    PPSTATS_RETURN_IF_ERROR(engine_.FoldChunk(frame));
  }
  compute_seconds_ += elapsed;
  chunk_compute_seconds_.push_back(elapsed);

  if (!engine_.done()) return std::optional<Bytes>();

  // All rows processed: the engine leaves Montgomery form (the only
  // conversion in the whole session), blinds if requested, and we
  // respond.
  obs::ScopedPhaseTimer finish_timer(&compute_seconds_,
                                     obs::kSpanServerCompute);
  PPSTATS_ASSIGN_OR_RETURN(PaillierCiphertext accumulator,
                           engine_.Finish(blinding_));
  finish_timer.Stop();
  finished_ = true;
  SumResponseMessage response;
  response.sum = accumulator;
  return std::optional<Bytes>(response.Encode(pub_));
}

}  // namespace ppstats
