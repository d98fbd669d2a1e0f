// Fuzz target: the server fold's wire input. Arbitrary bytes go to
// SumServer::HandleRequest as one IndexBatch frame, for a sum and a
// sum-of-squares query over a small fixed column, under a fixed 256-bit
// test key (same construction as the other codec harnesses) so the
// checked-in corpus replays deterministically. Invariants:
//   - nothing crashes;
//   - a frame IndexBatchMessage::Parse rejects is rejected by the server
//     with the same status code and message;
//   - a frame Parse accepts is either refused as out of order or
//     overrunning (ProtocolError), or folded; once it covers the whole
//     column, the answer is exactly Paillier::WeightedFold over Decode's
//     ciphertexts with the query's per-row exponents.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "core/messages.h"
#include "core/query.h"
#include "core/selected_sum.h"
#include "crypto/chacha20_rng.h"
#include "crypto/paillier.h"
#include "db/database.h"

namespace {

const ppstats::PaillierPublicKey& FixturePublicKey() {
  static const ppstats::PaillierPublicKey* pub = [] {
    ppstats::ChaCha20Rng rng(1717);
    return new ppstats::PaillierPublicKey(
        ppstats::Paillier::GenerateKeyPair(256, rng).ValueOrDie().public_key);
  }();
  return *pub;
}

// Four rows, including 0 (a skipped term) and 2^32 - 1 (the widest
// square).
const ppstats::Database& FixtureColumn() {
  static const ppstats::Database* db =
      new ppstats::Database("fuzz", {3, 0, 0xFFFFFFFFu, 7});
  return *db;
}

void CheckQuery(ppstats::StatisticKind kind, ppstats::BytesView frame) {
  using ppstats::BigInt;
  using ppstats::Bytes;
  using ppstats::IndexBatchMessage;
  using ppstats::Result;

  const ppstats::PaillierPublicKey& pub = FixturePublicKey();
  const ppstats::Database& db = FixtureColumn();
  ppstats::QuerySpec spec;
  spec.kind = kind;
  const ppstats::CompiledQuery query =
      ppstats::CompileQuery(spec, &db).ValueOrDie();
  ppstats::SumServer server(pub, query, 1);

  const Result<std::optional<Bytes>> answer = server.HandleRequest(frame);
  const Result<ppstats::IndexBatchView> parsed =
      IndexBatchMessage::Parse(pub, frame);
  if (!parsed.ok()) {
    if (answer.ok() || answer.status().code() != parsed.status().code() ||
        answer.status().message() != parsed.status().message()) {
      __builtin_trap();
    }
    return;
  }
  if (!answer.ok()) {
    const bool out_of_order = parsed.value().start_index != 0;
    const bool overrun = parsed.value().count > db.size();
    if (answer.status().code() != ppstats::StatusCode::kProtocolError ||
        !(out_of_order || overrun)) {
      __builtin_trap();
    }
    return;
  }
  if (!answer.value().has_value()) {
    // A prefix of the column: folded, no answer yet.
    if (parsed.value().count >= db.size()) __builtin_trap();
    return;
  }

  const IndexBatchMessage decoded =
      IndexBatchMessage::Decode(pub, frame).ValueOrDie();
  std::vector<BigInt> exponents;
  for (size_t i = 0; i < db.size(); ++i) {
    exponents.emplace_back(query.transform.RowExponent(i, db.value(i)));
  }
  const ppstats::PaillierCiphertext expected =
      ppstats::Paillier::WeightedFold(pub, decoded.ciphertexts, exponents);
  const Result<ppstats::SumResponseMessage> response =
      ppstats::SumResponseMessage::Decode(pub, *answer.value());
  if (!response.ok() || response.value().sum != expected) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const ppstats::BytesView frame(data, size);
  CheckQuery(ppstats::StatisticKind::kSum, frame);
  CheckQuery(ppstats::StatisticKind::kSumOfSquares, frame);
  return 0;
}

#include "tests/fuzz/standalone_main.inc"
