// Randomized configuration-matrix test: the selected-sum protocol must
// be correct under every combination of knobs the library exposes —
// chunking, preprocessing pools, server threads, value transforms, key
// sizes — including interactions between them. Each case is seeded, so
// failures reproduce exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/runner.h"
#include "crypto/chacha20_rng.h"
#include "db/workload.h"

namespace ppstats {
namespace {

const PaillierKeyPair& KeyFor(size_t bits) {
  static const PaillierKeyPair* k128 = [] {
    ChaCha20Rng rng(2525);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(128, rng).ValueOrDie());
  }();
  static const PaillierKeyPair* k256 = [] {
    ChaCha20Rng rng(2526);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return bits == 128 ? *k128 : *k256;
}

// gtest names each case by the struct's raw bytes. The padding is
// spelled out as zeroed members, so those names (and the ctest IDs
// discovered from them) are the same in every build instead of carrying
// whatever stale bytes the compiler's padding held.
struct MatrixCase {
  uint64_t seed;
  size_t key_bits;
  size_t n;
  size_t chunk;
  bool use_encryption_pool;
  bool use_randomness_pool;
  uint8_t pad0[6] = {};
  size_t threads;
  bool square;
  uint8_t pad1[7] = {};
};
static_assert(std::has_unique_object_representations_v<MatrixCase>,
              "MatrixCase must have no implicit padding");

class ProtocolMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ProtocolMatrixTest, SumIsCorrect) {
  const MatrixCase& c = GetParam();
  const PaillierKeyPair& keys = KeyFor(c.key_bits);
  ChaCha20Rng rng(c.seed);
  WorkloadGenerator gen(rng);
  // Small values when squaring so sums stay well inside the plaintext
  // space of a 128-bit key.
  Database db = gen.UniformDatabase(c.n, c.square ? 1000 : 100000);
  SelectionVector sel =
      gen.RandomSelection(c.n, rng.NextBelow(c.n) + 1);

  uint64_t truth = c.square
                       ? db.SelectedSumOfSquares(sel).ValueOrDie()
                       : db.SelectedSum(sel).ValueOrDie();

  EncryptionPool enc_pool(keys.public_key);
  RandomnessPool rand_pool(keys.public_key);
  SumClientOptions client_options;
  client_options.chunk_size = c.chunk;
  if (c.use_encryption_pool) {
    ASSERT_TRUE(enc_pool.Generate(BigInt(0), c.n, rng).ok());
    ASSERT_TRUE(enc_pool.Generate(BigInt(1), c.n, rng).ok());
    client_options.encryption_pool = &enc_pool;
  } else if (c.use_randomness_pool) {
    rand_pool.Generate(c.n, rng);
    client_options.randomness_pool = &rand_pool;
  }

  SumClient client(keys.private_key, sel, client_options, rng);
  QuerySpec spec;
  if (c.square) spec.kind = StatisticKind::kSumOfSquares;
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  SumServer server(keys.public_key, query, c.threads);
  SumRunResult result = RunSelectedSum(client, server).ValueOrDie();
  EXPECT_EQ(result.sum, BigInt(truth))
      << "seed=" << c.seed << " n=" << c.n << " chunk=" << c.chunk;
}

std::vector<MatrixCase> BuildMatrix() {
  std::vector<MatrixCase> cases;
  uint64_t seed = 1;
  for (size_t key_bits : {128u, 256u}) {
    for (size_t n : {1u, 7u, 33u, 64u}) {
      for (size_t chunk : {0u, 1u, 5u, 64u}) {
        for (int pool = 0; pool < 3; ++pool) {
          for (size_t threads : {1u, 3u}) {
            // Keep the matrix tractable: squaring only on one diagonal.
            bool square = (seed % 5 == 0);
            cases.push_back(MatrixCase{.seed = seed++,
                                       .key_bits = key_bits,
                                       .n = n,
                                       .chunk = chunk,
                                       .use_encryption_pool = pool == 1,
                                       .use_randomness_pool = pool == 2,
                                       .threads = threads,
                                       .square = square});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ProtocolMatrixTest,
                         ::testing::ValuesIn(BuildMatrix()));

}  // namespace
}  // namespace ppstats
