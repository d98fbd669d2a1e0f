#include "core/selected_sum.h"

#include <gtest/gtest.h>

#include "core/runner.h"
#include "crypto/chacha20_rng.h"
#include "crypto/sha256.h"
#include "db/workload.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(606);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

// (n, m, chunk_size) parameter sweep of the plain protocol.
class SelectedSumProtocolTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(SelectedSumProtocolTest, ComputesCorrectSum) {
  auto [n, m, chunk] = GetParam();
  ChaCha20Rng rng(1000 + n * 7 + m * 3 + chunk);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(n, 1000);
  SelectionVector selection = gen.RandomSelection(n, m);
  uint64_t truth = db.SelectedSum(selection).ValueOrDie();

  SumClientOptions options;
  options.chunk_size = chunk;
  SumClient client(SharedKeyPair().private_key, selection, options, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(truth));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectedSumProtocolTest,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(10, 0, 0),
                      std::make_tuple(10, 10, 0), std::make_tuple(50, 25, 0),
                      std::make_tuple(50, 25, 7), std::make_tuple(50, 25, 50),
                      std::make_tuple(50, 25, 64),
                      std::make_tuple(101, 33, 10),
                      std::make_tuple(128, 64, 16)));

TEST(SelectedSumTest, WeightedSumUsesWeights) {
  ChaCha20Rng rng(2);
  Database db("d", {10, 20, 30, 40});
  WeightVector weights = {3, 0, 1, 2};
  SumClient client(SharedKeyPair().private_key, weights, {}, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(30 + 0 + 30 + 80));
}

TEST(SelectedSumTest, SquareValuesOptionComputesSumOfSquares) {
  ChaCha20Rng rng(3);
  Database db("d", {3, 4, 5});
  SelectionVector selection = {true, false, true};
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  QuerySpec spec;
  spec.kind = StatisticKind::kSumOfSquares;
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  SumServer server(SharedKeyPair().public_key, query);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(9 + 25));
}

TEST(SelectedSumTest, BlindingAddsConstant) {
  ChaCha20Rng rng(4);
  Database db("d", {100, 200, 300});
  SelectionVector selection = {true, true, false};
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  QuerySpec spec;
  spec.blinding = BigInt(5555);
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  SumServer server(SharedKeyPair().public_key, query);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(300 + 5555));
}

TEST(SelectedSumTest, PartitionCoversOnlyItsRows) {
  ChaCha20Rng rng(5);
  Database db("d", {1, 2, 4, 8, 16, 32});
  // Client covers rows [2, 5) with local weights for rows 2,3,4.
  SelectionVector local = {true, false, true};
  SumClientOptions client_options;
  client_options.index_offset = 2;
  SumClient client(SharedKeyPair().private_key, local, client_options, rng);
  QuerySpec spec;
  spec.partition = std::make_pair<size_t, size_t>(2, 5);
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  SumServer server(SharedKeyPair().public_key, query);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(4 + 16));
}

TEST(SelectedSumTest, EncryptionPoolPathMatchesPlain) {
  ChaCha20Rng rng(6);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(30, 500);
  SelectionVector selection = gen.RandomSelection(30, 11);
  uint64_t truth = db.SelectedSum(selection).ValueOrDie();

  EncryptionPool pool(SharedKeyPair().public_key);
  ASSERT_TRUE(pool.Generate(BigInt(0), 30, rng).ok());
  ASSERT_TRUE(pool.Generate(BigInt(1), 30, rng).ok());

  SumClientOptions options;
  options.encryption_pool = &pool;
  SumClient client(SharedKeyPair().private_key, selection, options, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(truth));
  EXPECT_EQ(pool.misses(), 0u);
  // Exactly 30 pooled encryptions were consumed.
  EXPECT_EQ(pool.available(BigInt(0)) + pool.available(BigInt(1)), 30u);
}

TEST(SelectedSumTest, RandomnessPoolPathMatchesPlain) {
  ChaCha20Rng rng(7);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(20, 500);
  SelectionVector selection = gen.RandomSelection(20, 8);
  uint64_t truth = db.SelectedSum(selection).ValueOrDie();

  RandomnessPool pool(SharedKeyPair().public_key);
  pool.Generate(20, rng);

  SumClientOptions options;
  options.randomness_pool = &pool;
  SumClient client(SharedKeyPair().private_key, selection, options, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(truth));
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(SelectedSumTest, ClientChunkAccounting) {
  ChaCha20Rng rng(8);
  SelectionVector selection(25, true);
  SumClientOptions options;
  options.chunk_size = 10;
  SumClient client(SharedKeyPair().private_key, selection, options, rng);
  EXPECT_EQ(client.TotalChunks(), 3u);
  EXPECT_FALSE(client.RequestsDone());
  ASSERT_TRUE(client.NextRequest().ok());
  ASSERT_TRUE(client.NextRequest().ok());
  EXPECT_FALSE(client.RequestsDone());
  ASSERT_TRUE(client.NextRequest().ok());
  EXPECT_TRUE(client.RequestsDone());
  EXPECT_FALSE(client.NextRequest().ok());  // exhausted
  EXPECT_EQ(client.chunk_encrypt_seconds().size(), 3u);
}

TEST(SelectedSumTest, ServerRejectsOutOfOrderChunks) {
  ChaCha20Rng rng(9);
  Database db("d", {1, 2, 3, 4});
  SelectionVector selection(4, true);
  SumClientOptions options;
  options.chunk_size = 2;
  SumClient client(SharedKeyPair().private_key, selection, options, rng);
  SumServer server(SharedKeyPair().public_key, &db);

  Bytes first = client.NextRequest().ValueOrDie();
  Bytes second = client.NextRequest().ValueOrDie();
  // Deliver the second chunk first.
  Result<std::optional<Bytes>> r = server.HandleRequest(second);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  (void)first;
}

TEST(SelectedSumTest, ServerRejectsOverrun) {
  ChaCha20Rng rng(10);
  Database db("d", {1, 2});
  SelectionVector selection(3, true);  // one more than the database holds
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  Bytes frame = client.NextRequest().ValueOrDie();
  EXPECT_FALSE(server.HandleRequest(frame).ok());
}

TEST(SelectedSumTest, ServerRefusesWorkAfterFinishing) {
  ChaCha20Rng rng(11);
  Database db("d", {5, 6});
  SelectionVector selection(2, true);
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  Bytes frame = client.NextRequest().ValueOrDie();
  auto response = server.HandleRequest(frame).ValueOrDie();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(server.Finished());
  EXPECT_FALSE(server.HandleRequest(frame).ok());
}

TEST(SelectedSumTest, ThreadedServerMatchesSingleThreaded) {
  ChaCha20Rng rng(14);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(64, 100000);
  SelectionVector selection = gen.RandomSelection(64, 30);
  uint64_t truth = db.SelectedSum(selection).ValueOrDie();

  for (size_t threads : {1u, 2u, 4u, 7u, 64u, 100u}) {
    ChaCha20Rng run_rng(100 + threads);
    SumClient client(SharedKeyPair().private_key, selection, {}, run_rng);
    CompiledQuery query = CompileQuery(QuerySpec{}, &db).ValueOrDie();
    SumServer server(SharedKeyPair().public_key, query, threads);
    SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
    EXPECT_EQ(result.sum, BigInt(truth)) << "threads=" << threads;
  }
}

TEST(SelectedSumTest, ThreadedServerWithChunkingAndTransforms) {
  ChaCha20Rng rng(15);
  Database db("d", {3, 4, 5, 6, 7});
  SelectionVector selection = {true, false, true, true, false};
  SumClientOptions client_options;
  client_options.chunk_size = 2;
  SumClient client(SharedKeyPair().private_key, selection, client_options,
                   rng);
  QuerySpec spec;
  spec.kind = StatisticKind::kSumOfSquares;
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  SumServer server(SharedKeyPair().public_key, query, /*worker_threads=*/3);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(9 + 25 + 36));
}

TEST(SelectedSumTest, ClientRefusesSecondResponse) {
  // Regression for the single-shot contract: reusing a SumClient for a
  // second execution must fail loudly instead of silently re-decrypting.
  ChaCha20Rng rng(18);
  Database db("d", {5, 6});
  SelectionVector selection(2, true);
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  Bytes frame = client.NextRequest().ValueOrDie();
  auto response = server.HandleRequest(frame).ValueOrDie();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(client.HandleResponse(*response).ok());
  Result<BigInt> again = client.HandleResponse(*response);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SelectedSumTest, ZeroWeightVectorYieldsZero) {
  ChaCha20Rng rng(12);
  Database db("d", {7, 8, 9});
  SelectionVector selection(3, false);
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_TRUE(result.sum.IsZero());
}

TEST(SelectedSumTest, SquareValuesNearUint32MaxDoNotOverflow) {
  // Regression: the per-row exponent x_i^2 was once formed with
  // fixed-width integer multiplication, which silently wraps for values
  // near 2^32. Expected sums are computed with BigInt throughout.
  ChaCha20Rng rng(16);
  Database db("d", {0xFFFFFFFFu, 4000000000u, 0xFFFFFFFEu, 3u});
  SelectionVector selection = {true, true, true, false};
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  QuerySpec spec;
  spec.kind = StatisticKind::kSumOfSquares;
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  SumServer server(SharedKeyPair().public_key, query);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  BigInt expected = BigInt(0xFFFFFFFFull) * BigInt(0xFFFFFFFFull) +
                    BigInt(4000000000ull) * BigInt(4000000000ull) +
                    BigInt(0xFFFFFFFEull) * BigInt(0xFFFFFFFEull);
  EXPECT_EQ(result.sum, expected);
}

TEST(SelectedSumTest, ProductWithNearUint32MaxDoesNotOverflow) {
  ChaCha20Rng rng(17);
  Database db("d", {0xFFFFFFFFu, 3000000000u, 5u});
  Database other("o", {0xFFFFFFFEu, 4123456789u, 7u});
  SelectionVector selection = {true, true, true};
  SumClient client(SharedKeyPair().private_key, selection, {}, rng);
  QuerySpec spec;
  spec.kind = StatisticKind::kProduct;
  CompiledQuery query = CompileQuery(spec, &db, &other).ValueOrDie();
  SumServer server(SharedKeyPair().public_key, query);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  BigInt expected = BigInt(0xFFFFFFFFull) * BigInt(0xFFFFFFFEull) +
                    BigInt(3000000000ull) * BigInt(4123456789ull) +
                    BigInt(5) * BigInt(7);
  EXPECT_EQ(result.sum, expected);
}

TEST(SelectedSumTest, LargeWeightsProduceWeightedSum) {
  ChaCha20Rng rng(13);
  Database db("d", {0xFFFFFFFFu, 0xFFFFFFFFu});
  WeightVector weights = {0xFFFFFFFFull, 1};
  SumClient client(SharedKeyPair().private_key, weights, {}, rng);
  SumServer server(SharedKeyPair().public_key, &db);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  BigInt expected = BigInt(0xFFFFFFFFull) * BigInt(0xFFFFFFFFull) +
                    BigInt(0xFFFFFFFFull);
  EXPECT_EQ(result.sum, expected);
}

// SHA-256 over every request frame a seeded client sends for a fixed
// 300-row weight vector (zeros, ones and wide weights) under a seeded
// 512-bit key.
std::string RequestFramesDigest(size_t chunk_size) {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(5120);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(512, rng).ValueOrDie());
  }();
  WeightVector weights(300);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = i % 3 == 0 ? 0 : (i % 3 == 1 ? 1 : 7919 * i);
  }
  ChaCha20Rng rng(77 + chunk_size);
  SumClientOptions options;
  options.chunk_size = chunk_size;
  SumClient client(kp->private_key, weights, options, rng);
  Sha256 hasher;
  while (!client.RequestsDone()) {
    hasher.Update(client.NextRequest().ValueOrDie());
  }
  const Sha256::Digest digest = hasher.Finish();
  return ToHex(digest);
}

TEST(SelectedSumTest, SeededRequestFramesMatchGoldenDigest) {
  // Digests captured from the per-row Encrypt client, before encryption
  // was batched: the batched path must send exactly the same bytes.
  EXPECT_EQ(RequestFramesDigest(100),
            "0f94217d9b898f94bbdb51219ae911c0"
            "479f3274d6c94851bac1d321e05fae4f");
  EXPECT_EQ(RequestFramesDigest(0),
            "878609fbcb9ec2b35e60e5e730d1ecca"
            "4656513aad377f79939f6af864a77102");
}

}  // namespace
}  // namespace ppstats
