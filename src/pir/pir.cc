#include "pir/pir.h"

#include <cmath>

#include "bigint/modarith.h"
#include "common/thread_pool.h"
#include "obs/span.h"

namespace ppstats {

namespace {

// The value at (row, col), or 0 beyond the end of the vector (the
// matrix may overhang the last row).
uint64_t CellValue(const std::vector<uint64_t>& cells,
                   const PirLayout& layout, size_t row, size_t col) {
  size_t index = row * layout.cols + col;
  return index < cells.size() ? cells[index] : 0;
}

// The selector plaintexts e_j = [j == target], j < size.
std::vector<BigInt> UnitVector(size_t size, size_t target) {
  std::vector<BigInt> e(size);
  e[target] = BigInt(1);
  return e;
}

std::vector<uint64_t> ToCells(const Database& db) {
  return std::vector<uint64_t>(db.values().begin(), db.values().end());
}

// Server-side row fold v_i = prod_j E(e_j)^{M[i][j]} = E(M[i][c]) for
// every row, via one Pippenger multi-exponentiation per row. The column
// selector is converted to Montgomery form once and shared by all rows;
// independent rows run on the persistent thread pool.
std::vector<PaillierCiphertext> FoldRows(
    const PaillierPublicKey& pub,
    const std::vector<PaillierCiphertext>& selector,
    const std::vector<uint64_t>& cells, const PirLayout& layout) {
  const MontgomeryContext& mont = pub.mont_n2();
  std::vector<BigInt> selector_mont;
  selector_mont.reserve(selector.size());
  for (const PaillierCiphertext& ct : selector) {
    selector_mont.push_back(mont.ToMontgomery(ct.value));
  }
  std::vector<PaillierCiphertext> responses(layout.rows);
  ThreadPool::Shared().Run(layout.rows, [&](size_t i) {
    std::vector<BigInt> exponents;
    exponents.reserve(layout.cols);
    for (size_t j = 0; j < layout.cols; ++j) {
      exponents.push_back(BigInt(CellValue(cells, layout, i, j)));
    }
    responses[i] = PaillierCiphertext{
        mont.FromMontgomery(mont.MultiExpMontgomery(selector_mont, exponents))};
  });
  return responses;
}

Result<PirRunResult> Narrow(Result<PirRawResult> raw) {
  if (!raw.ok()) return raw.status();
  PirRunResult out;
  if (!raw->value.FitsUint64() || raw->value.LowUint64() > 0xFFFFFFFFull) {
    return Status::Internal("retrieved record exceeds 32 bits");
  }
  out.value = static_cast<uint32_t>(raw->value.LowUint64());
  out.client_to_server = raw->client_to_server;
  out.server_to_client = raw->server_to_client;
  out.client_seconds = raw->client_seconds;
  out.server_seconds = raw->server_seconds;
  out.layout = raw->layout;
  return out;
}

}  // namespace

PirLayout PirLayout::Square(size_t n) {
  PirLayout layout;
  layout.cols = static_cast<size_t>(std::ceil(std::sqrt(
      static_cast<double>(n > 0 ? n : 1))));
  layout.rows = (n + layout.cols - 1) / layout.cols;
  if (layout.rows == 0) layout.rows = 1;
  return layout;
}

Result<PirRawResult> RunSingleLevelPirRaw(const std::vector<uint64_t>& cells,
                                          size_t index,
                                          const PaillierPrivateKey& key,
                                          RandomSource& rng) {
  if (index >= cells.size()) {
    return Status::InvalidArgument("record index out of range");
  }
  const PaillierPublicKey& pub = key.public_key();
  PirRawResult result;
  result.layout = PirLayout::Square(cells.size());
  const PirLayout& layout = result.layout;

  // --- Client: encrypted column selector e_j = [j == target_col]. -----
  const size_t target_col = layout.ColOf(index);
  const size_t target_row = layout.RowOf(index);
  std::vector<PaillierCiphertext> selector;
  {
    obs::ScopedPhaseTimer timer(&result.client_seconds,
                                obs::kSpanClientEncrypt);
    PPSTATS_ASSIGN_OR_RETURN(
        selector, Paillier::EncryptBatch(
                      pub, UnitVector(layout.cols, target_col), rng));
  }
  result.client_to_server.Record(layout.cols * pub.CiphertextBytes());

  // --- Server: per row, v_i = prod_j E(e_j)^{M[i][j]} = E(M[i][c]). ---
  std::vector<PaillierCiphertext> responses;
  {
    obs::ScopedPhaseTimer timer(&result.server_seconds,
                                obs::kSpanServerCompute);
    responses = FoldRows(pub, selector, cells, layout);
  }
  result.server_to_client.Record(layout.rows * pub.CiphertextBytes());

  // --- Client: decrypt only the target row. ---------------------------
  {
    obs::ScopedPhaseTimer timer(&result.client_seconds,
                                obs::kSpanClientDecrypt);
    PPSTATS_ASSIGN_OR_RETURN(result.value,
                             Paillier::Decrypt(key, responses[target_row]));
  }
  return result;
}

Result<PirRawResult> RunTwoLevelPirRaw(const std::vector<uint64_t>& cells,
                                       size_t index,
                                       const PaillierPrivateKey& key,
                                       RandomSource& rng) {
  if (index >= cells.size()) {
    return Status::InvalidArgument("record index out of range");
  }
  const PaillierPublicKey& pub = key.public_key();
  // Level-2 key: Damgård–Jurik with s = 2 over the same modulus, so its
  // plaintext space Z_{n^2} holds a level-1 ciphertext exactly.
  PPSTATS_ASSIGN_OR_RETURN(DjPrivateKey dj_key,
                           DjPrivateKey::FromPaillier(key, 2));
  const DjPublicKey& dj_pub = dj_key.public_key();

  PirRawResult result;
  result.layout = PirLayout::Square(cells.size());
  const PirLayout& layout = result.layout;
  const size_t target_col = layout.ColOf(index);
  const size_t target_row = layout.RowOf(index);

  // --- Client: column selector under level 1, row selector under
  // level 2. ------------------------------------------------------------
  std::vector<PaillierCiphertext> col_selector;
  std::vector<DjCiphertext> row_selector;
  {
    obs::ScopedPhaseTimer timer(&result.client_seconds,
                                obs::kSpanClientEncrypt);
    PPSTATS_ASSIGN_OR_RETURN(
        col_selector, Paillier::EncryptBatch(
                          pub, UnitVector(layout.cols, target_col), rng));
    row_selector.reserve(layout.rows);
    for (size_t i = 0; i < layout.rows; ++i) {
      PPSTATS_ASSIGN_OR_RETURN(
          DjCiphertext ct,
          DamgardJurik::Encrypt(dj_pub, BigInt(i == target_row ? 1 : 0),
                                rng));
      row_selector.push_back(std::move(ct));
    }
  }
  result.client_to_server.Record(layout.cols * pub.CiphertextBytes());
  result.client_to_server.Record(layout.rows * dj_pub.CiphertextBytes());

  // --- Server: level 1 as before, then fold the row responses into a
  // single level-2 ciphertext: w = prod_i E2(s_i)^{v_i} = E2(v_target).
  // The level-2 combine is itself a multi-exponentiation: bases are the
  // row selector, exponents the level-1 row values (valid level-2
  // plaintexts, since each is in [0, n^2)).
  obs::ScopedPhaseTimer server_timer(&result.server_seconds,
                                     obs::kSpanServerCompute);
  std::vector<PaillierCiphertext> row_values =
      FoldRows(pub, col_selector, cells, layout);
  std::vector<BigInt> row_exponents;
  row_exponents.reserve(layout.rows);
  for (const PaillierCiphertext& v : row_values) {
    row_exponents.push_back(v.value);
  }
  DjCiphertext folded =
      DamgardJurik::WeightedFold(dj_pub, row_selector, row_exponents);
  server_timer.Stop();
  result.server_to_client.Record(dj_pub.CiphertextBytes());

  // --- Client: peel level 2, then level 1. -----------------------------
  {
    obs::ScopedPhaseTimer timer(&result.client_seconds,
                                obs::kSpanClientDecrypt);
    PPSTATS_ASSIGN_OR_RETURN(BigInt inner,
                             DamgardJurik::Decrypt(dj_key, folded));
    PPSTATS_ASSIGN_OR_RETURN(
        result.value, Paillier::Decrypt(key, PaillierCiphertext{inner}));
  }
  return result;
}

Result<PirRunResult> RunSingleLevelPir(const Database& db, size_t index,
                                       const PaillierPrivateKey& key,
                                       RandomSource& rng) {
  return Narrow(RunSingleLevelPirRaw(ToCells(db), index, key, rng));
}

Result<PirRunResult> RunTwoLevelPir(const Database& db, size_t index,
                                    const PaillierPrivateKey& key,
                                    RandomSource& rng) {
  return Narrow(RunTwoLevelPirRaw(ToCells(db), index, key, rng));
}

}  // namespace ppstats
