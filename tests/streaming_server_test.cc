// SumServer over a FileRowSource: the paper's Section 3.2 memory claim
// that a batched server holds one database chunk at a time.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/fold_engine.h"
#include "core/selected_sum.h"
#include "crypto/chacha20_rng.h"
#include "db/workload.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(2222);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// A SumServer reading its column from the file at `path`.
Result<SumServer> OpenStreaming(const std::string& path) {
  PPSTATS_ASSIGN_OR_RETURN(std::unique_ptr<FileRowSource> rows,
                           FileRowSource::Open(path));
  return SumServer(SharedKeyPair().public_key, std::move(rows));
}

// Drives a client against the streaming server directly.
Result<BigInt> RunStreaming(SumServer& server, SumClient& client) {
  std::optional<Bytes> response;
  while (!client.RequestsDone()) {
    PPSTATS_ASSIGN_OR_RETURN(Bytes request, client.NextRequest());
    PPSTATS_ASSIGN_OR_RETURN(response, server.HandleRequest(request));
  }
  if (!response.has_value()) {
    return Status::ProtocolError("no response produced");
  }
  return client.HandleResponse(*response);
}

TEST(StreamingServerTest, MatchesInMemoryServer) {
  ChaCha20Rng rng(1);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(120, 100000);
  SelectionVector sel = gen.RandomSelection(120, 50);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();

  std::string path = TempPath("stream_col.bin");
  ASSERT_TRUE(WriteColumnFile(db, path).ok());

  SumClientOptions options;
  options.chunk_size = 16;
  SumClient client(SharedKeyPair().private_key, sel, options, rng);
  EXPECT_EQ(FileRowSource::Open(path).ValueOrDie()->size(), 120u);
  SumServer server = OpenStreaming(path).ValueOrDie();

  BigInt sum = RunStreaming(server, client).ValueOrDie();
  EXPECT_EQ(sum, BigInt(truth));
  std::remove(path.c_str());
}

TEST(StreamingServerTest, ResidentRowsBoundedByChunk) {
  // The paper's memory claim: resident data is one chunk, not the table.
  ChaCha20Rng rng(2);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(200, 1000);
  SelectionVector sel = gen.RandomSelection(200, 80);

  std::string path = TempPath("stream_mem.bin");
  ASSERT_TRUE(WriteColumnFile(db, path).ok());

  SumClientOptions options;
  options.chunk_size = 25;
  SumClient client(SharedKeyPair().private_key, sel, options, rng);
  SumServer server = OpenStreaming(path).ValueOrDie();
  ASSERT_TRUE(RunStreaming(server, client).ok());
  EXPECT_EQ(server.peak_resident_rows(), 25u);  // << 200 rows total
  std::remove(path.c_str());
}

TEST(StreamingServerTest, RejectsBadFiles) {
  EXPECT_FALSE(OpenStreaming(TempPath("missing-file.bin")).ok());
  // Truncated file: header claims more rows than present.
  std::string path = TempPath("stream_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    uint8_t header[4] = {100, 0, 0, 0};
    out.write(reinterpret_cast<const char*>(header), 4);
    uint8_t one_cell[4] = {1, 0, 0, 0};
    out.write(reinterpret_cast<const char*>(one_cell), 4);
  }
  EXPECT_FALSE(OpenStreaming(path).ok());
  std::remove(path.c_str());
}

TEST(StreamingServerTest, RejectsOutOfOrderChunks) {
  ChaCha20Rng rng(3);
  Database db("d", {1, 2, 3, 4});
  std::string path = TempPath("stream_order.bin");
  ASSERT_TRUE(WriteColumnFile(db, path).ok());

  SumClientOptions options;
  options.chunk_size = 2;
  SumClient client(SharedKeyPair().private_key, SelectionVector(4, true),
                   options, rng);
  SumServer server = OpenStreaming(path).ValueOrDie();
  Bytes first = client.NextRequest().ValueOrDie();
  Bytes second = client.NextRequest().ValueOrDie();
  EXPECT_FALSE(server.HandleRequest(second).ok());
  (void)first;
  std::remove(path.c_str());
}

TEST(StreamingServerTest, RoundTripsColumnFile) {
  Database db("d", {0, 0xFFFFFFFFu, 42});
  std::string path = TempPath("stream_rt.bin");
  ASSERT_TRUE(WriteColumnFile(db, path).ok());
  EXPECT_EQ(FileRowSource::Open(path).ValueOrDie()->size(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppstats
