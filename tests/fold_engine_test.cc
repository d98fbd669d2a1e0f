#include "core/fold_engine.h"

#include <gtest/gtest.h>

#include <string>

#include "bigint/modarith.h"
#include "crypto/chacha20_rng.h"
#include "db/workload.h"
#include "obs/metrics.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(4242);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

// The wire bytes an IndexBatch frame carries for `cts`.
Bytes WirePayload(const PaillierPublicKey& pub,
                  std::span<const PaillierCiphertext> cts) {
  Bytes payload;
  for (const PaillierCiphertext& ct : cts) {
    const Bytes row = ct.value.ToBytes(pub.CiphertextBytes());
    payload.insert(payload.end(), row.begin(), row.end());
  }
  return payload;
}

// Hands `cts` to the engine as the IndexBatch frame of rows from
// `start`.
Status FoldRows(FoldEngine& engine, const PaillierPublicKey& pub,
                size_t start, std::span<const PaillierCiphertext> cts) {
  return engine.FoldChunk(IndexBatchMessage::EncodeRaw(
      start, static_cast<uint32_t>(cts.size()), WirePayload(pub, cts)));
}

std::vector<PaillierCiphertext> EncryptWeights(const WeightVector& weights,
                                               RandomSource& rng) {
  std::vector<PaillierCiphertext> cts;
  cts.reserve(weights.size());
  for (uint64_t w : weights) {
    cts.push_back(Paillier::Encrypt(SharedKeyPair().public_key, BigInt(w), rng)
                      .ValueOrDie());
  }
  return cts;
}

TEST(RowSourceTest, ColumnRowSourceReadsRanges) {
  Database db("d", {10, 20, 30, 40, 50});
  ColumnRowSource source(&db);
  EXPECT_EQ(source.size(), 5u);
  std::vector<uint32_t> out(3);
  ASSERT_TRUE(source.ReadRows(1, out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{20, 30, 40}));
  EXPECT_EQ(source.peak_resident_rows(), 0u);  // in-memory: not tracked
}

TEST(RowSourceTest, FileRowSourceRoundTripsAndTracksResidency) {
  Database db("d", {7, 8, 9, 10, 11, 12});
  std::string path =
      std::string(::testing::TempDir()) + "/fold_engine_col.bin";
  ASSERT_TRUE(WriteColumnFile(db, path).ok());

  auto source = FileRowSource::Open(path).ValueOrDie();
  EXPECT_EQ(source->size(), 6u);
  std::vector<uint32_t> out(2);
  ASSERT_TRUE(source->ReadRows(4, out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{11, 12}));
  std::vector<uint32_t> bigger(4);
  ASSERT_TRUE(source->ReadRows(0, bigger).ok());
  EXPECT_EQ(bigger, (std::vector<uint32_t>{7, 8, 9, 10}));
  EXPECT_EQ(source->peak_resident_rows(), 4u);
}

TEST(RowSourceTest, FileRowSourceRejectsMissingOrTruncatedFiles) {
  EXPECT_FALSE(FileRowSource::Open("/no/such/file.bin").ok());

  std::string path = std::string(::testing::TempDir()) + "/truncated_col.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.put(1);  // shorter than the 4-byte header
  }
  EXPECT_FALSE(FileRowSource::Open(path).ok());
}

TEST(FoldEngineTest, MatchesNaiveWeightedFoldBitForBit) {
  // The refactor's core claim: for every transform and thread count the
  // engine's ciphertext equals the naive exponentiate-and-multiply fold
  // exactly, not just after decryption.
  ChaCha20Rng rng(1);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(33, 1000);
  WeightVector weights(33);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = (i % 3 == 0) ? 0 : i + 1;  // include zero weights
  }
  std::vector<PaillierCiphertext> cts = EncryptWeights(weights, rng);

  // Both sides fold base E(w_i) with exponent x_i (the row value).
  std::vector<BigInt> row_exponents;
  for (size_t i = 0; i < cts.size(); ++i) {
    row_exponents.push_back(BigInt(db.value(i)));
  }
  PaillierCiphertext reference =
      Paillier::WeightedFold(SharedKeyPair().public_key, cts, row_exponents);

  for (size_t threads : {1u, 2u, 5u}) {
    for (size_t chunk : {33u, 7u, 1u}) {
      FoldEngine engine(SharedKeyPair().public_key,
                        std::make_unique<ColumnRowSource>(&db),
                        ExponentTransform::Identity(), 0, db.size(), threads);
      for (size_t start = 0; start < cts.size(); start += chunk) {
        size_t len = std::min(chunk, cts.size() - start);
        ASSERT_TRUE(FoldRows(engine, SharedKeyPair().public_key, start,
                             std::span<const PaillierCiphertext>(
                                 cts.data() + start, len))
                        .ok());
      }
      ASSERT_TRUE(engine.done());
      PaillierCiphertext result = engine.Finish(std::nullopt).ValueOrDie();
      EXPECT_EQ(result, reference)
          << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST(FoldEngineTest, TransformsAndBlindingDecryptCorrectly) {
  ChaCha20Rng rng(2);
  Database db("d", {3, 4, 5, 6});
  Database other("o", {10, 20, 30, 40});
  WeightVector weights = {1, 0, 1, 1};
  std::vector<PaillierCiphertext> cts = EncryptWeights(weights, rng);

  struct Case {
    ExponentTransform transform;
    std::optional<BigInt> blinding;
    BigInt expected;
  };
  std::vector<Case> cases = {
      {ExponentTransform::Identity(), std::nullopt, BigInt(3 + 5 + 6)},
      {ExponentTransform::Square(), std::nullopt, BigInt(9 + 25 + 36)},
      {ExponentTransform::ProductWith(&other), std::nullopt,
       BigInt(30 + 150 + 240)},
      {ExponentTransform::Identity(), BigInt(1000), BigInt(14 + 1000)},
  };
  for (const Case& c : cases) {
    FoldEngine engine(SharedKeyPair().public_key,
                      std::make_unique<ColumnRowSource>(&db), c.transform, 0,
                      db.size());
    ASSERT_TRUE(FoldRows(engine, SharedKeyPair().public_key, 0, cts).ok());
    PaillierCiphertext result = engine.Finish(c.blinding).ValueOrDie();
    EXPECT_EQ(Paillier::Decrypt(SharedKeyPair().private_key, result)
                  .ValueOrDie(),
              c.expected);
  }
}

TEST(FoldEngineTest, PartitionFoldsOnlyItsRows) {
  ChaCha20Rng rng(3);
  Database db("d", {1, 2, 4, 8, 16});
  WeightVector local = {1, 1};  // rows 2 and 3
  std::vector<PaillierCiphertext> cts = EncryptWeights(local, rng);

  FoldEngine engine(SharedKeyPair().public_key,
                    std::make_unique<ColumnRowSource>(&db),
                    ExponentTransform::Identity(), 2, 4);
  ASSERT_TRUE(FoldRows(engine, SharedKeyPair().public_key, 2, cts).ok());
  ASSERT_TRUE(engine.done());
  PaillierCiphertext result = engine.Finish(std::nullopt).ValueOrDie();
  EXPECT_EQ(
      Paillier::Decrypt(SharedKeyPair().private_key, result).ValueOrDie(),
      BigInt(4 + 8));
}

TEST(FoldEngineTest, RejectsOutOfOrderGapsAndOverruns) {
  ChaCha20Rng rng(4);
  Database db("d", {1, 2, 3, 4});
  WeightVector weights = {1, 1, 1, 1};
  std::vector<PaillierCiphertext> cts = EncryptWeights(weights, rng);
  std::span<const PaillierCiphertext> all(cts);
  const PaillierPublicKey& pub = SharedKeyPair().public_key;

  FoldEngine engine(pub, std::make_unique<ColumnRowSource>(&db),
                    ExponentTransform::Identity(), 0, db.size());
  // Premature finish.
  EXPECT_FALSE(engine.Finish(std::nullopt).ok());
  // Gap: starts at row 1 instead of 0.
  EXPECT_EQ(FoldRows(engine, pub, 1, all.subspan(1)).code(),
            StatusCode::kProtocolError);
  // Overrun: 4 ciphertexts starting at row 2.
  ASSERT_TRUE(FoldRows(engine, pub, 0, all.subspan(0, 2)).ok());
  EXPECT_EQ(FoldRows(engine, pub, 2, all).code(), StatusCode::kProtocolError);
  // Correct completion still works after rejected chunks.
  ASSERT_TRUE(FoldRows(engine, pub, 2, all.subspan(2)).ok());
  ASSERT_TRUE(engine.done());
  // Extra chunk after completion.
  EXPECT_EQ(FoldRows(engine, pub, 4, all.subspan(0, 0)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Finish(std::nullopt).ok());
}

TEST(FoldEngineTest, FileBackedEngineMatchesInMemory) {
  ChaCha20Rng rng(5);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(20, 500);
  WeightVector weights(20, 1);
  std::vector<PaillierCiphertext> cts = EncryptWeights(weights, rng);
  std::string path =
      std::string(::testing::TempDir()) + "/fold_engine_match.bin";
  ASSERT_TRUE(WriteColumnFile(db, path).ok());

  FoldEngine memory_engine(SharedKeyPair().public_key,
                           std::make_unique<ColumnRowSource>(&db),
                           ExponentTransform::Identity(), 0, db.size());
  auto file_rows = FileRowSource::Open(path).ValueOrDie();
  FoldEngine file_engine(SharedKeyPair().public_key, std::move(file_rows),
                         ExponentTransform::Identity(), 0, db.size());
  ASSERT_TRUE(FoldRows(memory_engine, SharedKeyPair().public_key, 0, cts).ok());
  ASSERT_TRUE(FoldRows(file_engine, SharedKeyPair().public_key, 0, cts).ok());
  EXPECT_EQ(memory_engine.Finish(std::nullopt).ValueOrDie(),
            file_engine.Finish(std::nullopt).ValueOrDie());
}

// Folds `cts` through a fresh engine in `chunk`-row chunks.
PaillierCiphertext FoldInChunks(const PaillierPublicKey& pub,
                                const Database& db,
                                ExponentTransform transform,
                                std::span<const PaillierCiphertext> cts,
                                size_t chunk, size_t threads,
                                const std::optional<BigInt>& blinding) {
  FoldEngine engine(pub, std::make_unique<ColumnRowSource>(&db), transform,
                    0, db.size(), threads);
  for (size_t start = 0; start < cts.size(); start += chunk) {
    const size_t len = std::min(chunk, cts.size() - start);
    EXPECT_TRUE(FoldRows(engine, pub, start, cts.subspan(start, len)).ok());
  }
  EXPECT_TRUE(engine.done());
  return engine.Finish(blinding).ValueOrDie();
}

TEST(FoldEngineDifferentialTest, MatchesWeightedFoldAcrossShapes) {
  // The conversion-free, chunk-spanning fold against the one-shot
  // Paillier::WeightedFold, bit for bit. Rows: zero values (exponent 0),
  // the edge residues 1 and n^2 - 1 as ciphertexts (0 only on a
  // zero-exponent row, else the whole product is 0 — see below), and a
  // column whose later rows have wider exponents than the first chunk's,
  // so the accumulators open new windows mid-query.
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  const BigInt& n2 = pub.n_squared();
  ChaCha20Rng rng(6);
  constexpr size_t kRows = 700;
  std::vector<uint32_t> values(kRows);
  std::vector<uint32_t> others(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const auto r = static_cast<uint32_t>(rng.NextUint64());
    // Rows [0, 512) hold 4-bit values; later rows up to 32 bits.
    values[i] = i % 7 == 0 ? 0 : (i < 512 ? r % 16 : r);
    others[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  Database db("d", values);
  Database other("o", others);
  std::vector<PaillierCiphertext> cts(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    cts[i].value = RandomBelow(rng, n2);
  }
  cts[7].value = BigInt(0);  // row 7 holds value 0
  cts[2].value = BigInt(1);
  cts[3].value = n2 - BigInt(1);
  cts[600].value = BigInt(1);
  cts[601].value = n2 - BigInt(1);

  struct Transform {
    const char* name;
    ExponentTransform transform;
  };
  const std::vector<Transform> transforms = {
      {"identity", ExponentTransform::Identity()},
      {"square", ExponentTransform::Square()},
      {"product", ExponentTransform::ProductWith(&other)},
  };
  for (const Transform& t : transforms) {
    std::vector<BigInt> exponents;
    for (size_t i = 0; i < kRows; ++i) {
      exponents.push_back(t.transform.RowExponent(i, db.value(i)));
    }
    const PaillierCiphertext reference =
        Paillier::WeightedFold(pub, cts, exponents);
    ASSERT_GT(reference.value, BigInt(1)) << t.name;
    const BigInt blinding(123456789);
    const PaillierCiphertext blinded =
        Paillier::AddPlaintext(pub, reference, blinding).ValueOrDie();
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{512}, kRows}) {
      for (size_t threads : {1u, 3u}) {
        EXPECT_EQ(FoldInChunks(pub, db, t.transform, cts, chunk, threads,
                               std::nullopt),
                  reference)
            << t.name << " chunk=" << chunk << " threads=" << threads;
        EXPECT_EQ(FoldInChunks(pub, db, t.transform, cts, chunk, threads,
                               blinding),
                  blinded)
            << t.name << " blinded chunk=" << chunk
            << " threads=" << threads;
      }
    }
  }
}

TEST(FoldEngineDifferentialTest, ZeroCiphertextWithLiveExponentFoldsToZero) {
  // 0 is a canonical residue the decoder accepts; raised to a nonzero
  // exponent it zeroes the product, in every chunking and slicing, with
  // and without blinding — exactly as WeightedFold does.
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  ChaCha20Rng rng(9);
  Database db("d", {3, 0, 5, 9, 2});
  std::vector<PaillierCiphertext> cts(db.size());
  for (PaillierCiphertext& ct : cts) ct.value = RandomBelow(rng, pub.n_squared());
  cts[2].value = BigInt(0);
  const std::vector<BigInt> exponents(db.values().begin(), db.values().end());
  const PaillierCiphertext reference =
      Paillier::WeightedFold(pub, cts, exponents);
  ASSERT_EQ(reference.value, BigInt(0));
  const BigInt blinding(77);
  for (size_t chunk : {size_t{1}, size_t{3}, db.size()}) {
    for (size_t threads : {1u, 3u}) {
      EXPECT_EQ(FoldInChunks(pub, db, ExponentTransform::Identity(), cts,
                             chunk, threads, std::nullopt),
                reference);
      EXPECT_EQ(FoldInChunks(pub, db, ExponentTransform::Identity(), cts,
                             chunk, threads, blinding),
                Paillier::AddPlaintext(pub, reference, blinding).ValueOrDie());
    }
  }
}

TEST(FoldEngineDifferentialTest, AllZeroExponentsFoldToOne) {
  Database db("d", {0, 0, 0});
  std::vector<PaillierCiphertext> cts(3);
  for (PaillierCiphertext& ct : cts) ct.value = BigInt(5);
  for (size_t threads : {1u, 3u}) {
    EXPECT_EQ(FoldInChunks(SharedKeyPair().public_key, db,
                           ExponentTransform::Identity(), cts, 1, threads,
                           std::nullopt)
                  .value,
              BigInt(1));
  }
}

TEST(FoldEngineTest, RejectsCiphertextsOutsideTheResidueRange) {
  // The conversion-free fold is only exact on canonical residues. The
  // engine folds only frames its upload sequencer accepts, so a wire row
  // >= n^2, or a payload that is not count rows wide, is refused with
  // IndexBatchMessage::Parse's status before anything reaches the
  // accumulator, and the fold stays intact.
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  const size_t width = pub.CiphertextBytes();
  Database db("d", {1, 2});
  ChaCha20Rng rng(7);
  std::vector<PaillierCiphertext> good = EncryptWeights({1, 1}, rng);
  const Bytes good_rows = WirePayload(pub, good);
  auto with_second_row = [&](const Bytes& row) {
    Bytes payload(good_rows.begin(), good_rows.begin() + width);
    payload.insert(payload.end(), row.begin(), row.end());
    return payload;
  };
  struct Bad {
    const char* name;
    uint32_t count;
    Bytes payload;
    StatusCode code;
  };
  const std::vector<Bad> bad = {
      {"n^2", 2, with_second_row(pub.n_squared().ToBytes(width)),
       StatusCode::kProtocolError},
      {"all 0xFF", 2, with_second_row(Bytes(width, 0xFF)),
       StatusCode::kProtocolError},
      {"count above payload", 3, good_rows, StatusCode::kSerializationError},
      {"count below payload", 1, good_rows, StatusCode::kSerializationError},
  };
  for (const Bad& b : bad) {
    FoldEngine engine(pub, std::make_unique<ColumnRowSource>(&db),
                      ExponentTransform::Identity(), 0, db.size());
    EXPECT_EQ(
        engine.FoldChunk(IndexBatchMessage::EncodeRaw(0, b.count, b.payload))
            .code(),
        b.code)
        << b.name;
    ASSERT_TRUE(
        engine.FoldChunk(IndexBatchMessage::EncodeRaw(0, 2, good_rows)).ok())
        << b.name;
    EXPECT_EQ(engine.Finish(std::nullopt).ValueOrDie(),
              Paillier::WeightedFold(pub, good,
                                     std::vector<BigInt>{BigInt(1), BigInt(2)}))
        << b.name;
  }
}

TEST(FoldEngineTest, WireFoldMatchesPerRowExpAndMultiply) {
  // The wire-byte fold against the slowest obviously-correct server: per
  // row, c^(e mod n) by one Exp with a BigInt exponent, multiplied into
  // a plain accumulator. Keys: 60-bit (n < 2^64, so u64 exponents at or
  // above n take the reduction; 15-byte ciphertexts), 100-bit (25-byte
  // ciphertexts), and the 60-bit n under a declared 100-bit size, as a
  // client's hello may state it (25-byte ciphertexts over a 2-limb n^2,
  // so each row's leading wire bytes lie above its limbs). No wire width
  // is a multiple of 8, so every row's top limb is partial. Values 0 and
  // 0xFFFFFFFF, whose square and product with 0xFFFFFFFF must be exact
  // in u64.
  ChaCha20Rng key_rng(160);
  const PaillierKeyPair k60 =
      Paillier::GenerateKeyPair(60, key_rng).ValueOrDie();
  const PaillierKeyPair k100 =
      Paillier::GenerateKeyPair(100, key_rng).ValueOrDie();
  const std::vector<PaillierPublicKey> keys = {
      k60.public_key, k100.public_key,
      PaillierPublicKey(k60.public_key.n(), 100)};
  for (const PaillierPublicKey& pub : keys) {
    ChaCha20Rng rng(60 + pub.CiphertextBytes());
    const size_t bits = pub.modulus_bits();
    ASSERT_NE(pub.CiphertextBytes() % 8, 0u);
    ASSERT_EQ(pub.n().FitsUint64(), pub.n() == k60.public_key.n());
    constexpr size_t kRows = 41;
    std::vector<uint32_t> values(kRows);
    std::vector<uint32_t> others(kRows);
    std::vector<PaillierCiphertext> cts(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      values[i] = static_cast<uint32_t>(rng.NextUint64());
      others[i] = static_cast<uint32_t>(rng.NextUint64());
      cts[i].value = RandomBelow(rng, pub.n_squared());
    }
    values[0] = 0;
    values[1] = 0xFFFFFFFFu;
    others[1] = 0xFFFFFFFFu;
    values[2] = 0xFFFFFFFFu;
    others[2] = 0;
    values[3] = 1;
    cts[3].value = pub.n_squared() - BigInt(1);
    values[4] = 0xFFFFFFFFu;
    cts[4].value = BigInt(1);
    const Database db("d", values);
    const Database other("o", others);

    struct Transform {
      const char* name;
      ExponentTransform transform;
      BigInt (*exponent)(uint32_t x, uint32_t y);
    };
    const std::vector<Transform> transforms = {
        {"identity", ExponentTransform::Identity(),
         [](uint32_t x, uint32_t) { return BigInt(x); }},
        {"square", ExponentTransform::Square(),
         [](uint32_t x, uint32_t) { return BigInt(x) * BigInt(x); }},
        {"product", ExponentTransform::ProductWith(&other),
         [](uint32_t x, uint32_t y) { return BigInt(x) * BigInt(y); }},
    };
    for (const Transform& t : transforms) {
      BigInt reference(1);
      for (size_t i = 0; i < kRows; ++i) {
        const BigInt e = Mod(t.exponent(values[i], others[i]), pub.n());
        reference = MulMod(reference, pub.mont_n2().Exp(cts[i].value, e),
                           pub.n_squared());
      }
      for (size_t threads : {1u, 3u}) {
        for (size_t chunk : {size_t{1}, size_t{6}, kRows}) {
          EXPECT_EQ(FoldInChunks(pub, db, t.transform, cts, chunk, threads,
                                 std::nullopt)
                        .value,
                    reference)
              << bits << "-bit key, n of " << pub.n().BitLength()
              << " bits, " << t.name << ", threads=" << threads
              << ", chunk=" << chunk;
        }
      }
    }
  }
}

uint64_t MontOps() {
  uint64_t total = 0;
  for (const auto& [name, value] :
       obs::MetricRegistry::Global().Snapshot().counters) {
    if (name.rfind("mont.", 0) == 0) total += value;
  }
  return total;
}

TEST(FoldEngineOpCountTest, ChunkedFoldPaysOneReductionAndNoConversions) {
  // Exact Montgomery operation budget for the served query shape: a
  // 2048-row column of 7-bit values under a 512-bit key, uploaded in four
  // 512-row chunks. Per-row conversion to Montgomery form (+2048) or a
  // bucket reduction per chunk (+~750) would blow through it.
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(4343);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(512, rng).ValueOrDie());
  }();
  const PaillierPublicKey& pub = kp->public_key;
  ChaCha20Rng rng(8);
  constexpr size_t kRows = 2048;
  std::vector<uint32_t> values(kRows);
  std::vector<PaillierCiphertext> cts(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    values[i] = static_cast<uint32_t>(rng.NextBelow(128));
    cts[i].value = RandomBelow(rng, pub.n_squared());
  }
  Database db("d", values);

  const uint64_t before = MontOps();
  FoldEngine engine(pub, std::make_unique<ColumnRowSource>(&db),
                    ExponentTransform::Identity(), 0, kRows);
  for (size_t start = 0; start < kRows; start += 512) {
    ASSERT_TRUE(FoldRows(engine, pub, start,
                         std::span<const PaillierCiphertext>(
                             cts.data() + start, 512))
                    .ok());
  }
  const PaillierCiphertext result = engine.Finish(std::nullopt).ValueOrDie();
  const uint64_t ops = MontOps() - before;
  RecordProperty("mont_ops", std::to_string(ops));
  EXPECT_LE(ops, 2300u);
  std::vector<BigInt> exponents(values.begin(), values.end());
  EXPECT_EQ(result, Paillier::WeightedFold(pub, cts, exponents));
}

TEST(FoldEngineOpCountTest, SquaresFoldStaysWithinReductionBudget) {
  // The sum_of_squares shape: 2048 rows of 18-bit values, squared into
  // 36-bit exponents, under a 512-bit key in four 512-row chunks. Most of
  // its Montgomery operations are the bucket reduction of four or more
  // windows, so this budget (3% over the count the sequential gap walk
  // took) bounds what splitting the reduction into lanes may add.
  constexpr uint64_t kBudget = 10248;  // 9950 * 1.03
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(4344);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(512, rng).ValueOrDie());
  }();
  const PaillierPublicKey& pub = kp->public_key;
  ChaCha20Rng rng(9);
  constexpr size_t kRows = 2048;
  std::vector<uint32_t> values(kRows);
  std::vector<PaillierCiphertext> cts(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    values[i] = static_cast<uint32_t>(rng.NextBelow(uint64_t{1} << 18));
    cts[i].value = RandomBelow(rng, pub.n_squared());
  }
  Database db("d", values);

  const uint64_t before = MontOps();
  FoldEngine engine(pub, std::make_unique<ColumnRowSource>(&db),
                    ExponentTransform::Square(), 0, kRows);
  for (size_t start = 0; start < kRows; start += 512) {
    ASSERT_TRUE(FoldRows(engine, pub, start,
                         std::span<const PaillierCiphertext>(
                             cts.data() + start, 512))
                    .ok());
  }
  const PaillierCiphertext result = engine.Finish(std::nullopt).ValueOrDie();
  const uint64_t ops = MontOps() - before;
  RecordProperty("mont_ops", std::to_string(ops));
  EXPECT_LE(ops, kBudget);
  std::vector<BigInt> exponents;
  for (uint32_t v : values) exponents.push_back(BigInt(v) * BigInt(v));
  EXPECT_EQ(result, Paillier::WeightedFold(pub, cts, exponents));
}

}  // namespace
}  // namespace ppstats
