// Cluster subsystem tests: shard maps, the wire extensions, and
// in-process coordinator fan-out over real sockets against real shard
// ServiceHosts, blinded and plain. The zero-share primitives themselves
// are tested in zero_share_test.cc.

#include "cluster/coordinator.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bigint/modarith.h"
#include "common/thread_pool.h"
#include "core/messages.h"
#include "core/query.h"
#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "crypto/paillier.h"
#include "crypto/zero_share.h"
#include "db/column_registry.h"
#include "db/database.h"
#include "db/workload.h"
#include "net/socket_channel.h"
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

ShardDescriptor MakeShard(uint32_t id, const std::string& uri, uint64_t begin,
                          uint64_t end) {
  ShardDescriptor shard;
  shard.id = id;
  shard.uri = uri;
  shard.begin = begin;
  shard.end = end;
  return shard;
}

// ---------------------------------------------------------------------------
// Shard maps in the ColumnRegistry.

TEST(ClusterShardMapTest, RegistersAndResolvesAContiguousMap) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry
                  .SetShards("v", {MakeShard(0, "unix:/a", 0, 10),
                                   MakeShard(1, "unix:/b", 10, 30)})
                  .ok());
  const std::vector<ShardDescriptor>* shards = registry.FindShards("v");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->size(), 2u);
  EXPECT_EQ(registry.ShardedRows("v"), 30u);
  EXPECT_EQ(registry.ShardedColumnNames(),
            std::vector<std::string>{"v"});
  EXPECT_EQ(registry.FindShards("nope"), nullptr);
}

TEST(ClusterShardMapTest, SortsShardsByRowRange) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry
                  .SetShards("v", {MakeShard(1, "unix:/b", 10, 30),
                                   MakeShard(0, "unix:/a", 0, 10)})
                  .ok());
  const std::vector<ShardDescriptor>* shards = registry.FindShards("v");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->front().begin, 0u);
  EXPECT_EQ(shards->back().end, 30u);
}

TEST(ClusterShardMapTest, RejectsMalformedMaps) {
  ColumnRegistry registry;
  // Gap between shards.
  EXPECT_FALSE(registry
                   .SetShards("gap", {MakeShard(0, "unix:/a", 0, 10),
                                      MakeShard(1, "unix:/b", 11, 20)})
                   .ok());
  // Overlapping shards.
  EXPECT_FALSE(registry
                   .SetShards("overlap", {MakeShard(0, "unix:/a", 0, 10),
                                          MakeShard(1, "unix:/b", 9, 20)})
                   .ok());
  // Map not starting at row 0.
  EXPECT_FALSE(
      registry.SetShards("offset", {MakeShard(0, "unix:/a", 5, 10)}).ok());
  // Empty row range.
  EXPECT_FALSE(
      registry.SetShards("empty", {MakeShard(0, "unix:/a", 3, 3)}).ok());
  // Missing endpoint.
  EXPECT_FALSE(registry.SetShards("nouri", {MakeShard(0, "", 0, 10)}).ok());
  // Duplicate shard ids and duplicate endpoints.
  EXPECT_FALSE(registry
                   .SetShards("dupid", {MakeShard(0, "unix:/a", 0, 10),
                                        MakeShard(0, "unix:/b", 10, 20)})
                   .ok());
  EXPECT_FALSE(registry
                   .SetShards("dupuri", {MakeShard(0, "unix:/a", 0, 10),
                                         MakeShard(1, "unix:/a", 10, 20)})
                   .ok());
  // Empty map / empty name / double registration.
  EXPECT_FALSE(registry.SetShards("none", {}).ok());
  EXPECT_FALSE(registry.SetShards("", {MakeShard(0, "unix:/a", 0, 1)}).ok());
  ASSERT_TRUE(
      registry.SetShards("twice", {MakeShard(0, "unix:/a", 0, 1)}).ok());
  EXPECT_FALSE(
      registry.SetShards("twice", {MakeShard(0, "unix:/a", 0, 1)}).ok());
}

TEST(ClusterShardMapTest, LocalColumnOfSameNameMustMatchShardedRows) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("v", {1, 2, 3})).ok());
  EXPECT_FALSE(
      registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 2)}).ok());
  EXPECT_TRUE(
      registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 3)}).ok());
}

// ---------------------------------------------------------------------------
// Wire extensions.

TEST(ClusterMessagesTest, QueryHeaderBlindExtensionRoundTrips) {
  QueryHeaderMessage header;
  header.kind = 1;
  header.column = "v";
  header.blind_partial = true;
  header.blind_nonce = 0xDEADBEEFCAFEull;
  Result<QueryHeaderMessage> decoded =
      QueryHeaderMessage::Decode(header.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->blind_partial);
  EXPECT_EQ(decoded->blind_nonce, header.blind_nonce);

  // A plain header (no extension block) still decodes, blind off: the
  // wire stays compatible with pre-cluster encoders.
  QueryHeaderMessage plain;
  plain.kind = 1;
  plain.column = "v";
  Result<QueryHeaderMessage> plain_decoded =
      QueryHeaderMessage::Decode(plain.Encode());
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_FALSE(plain_decoded->blind_partial);
  EXPECT_EQ(plain_decoded->blind_nonce, 0u);
}

TEST(ClusterMessagesTest, PartialResultRoundTripsAndValidates) {
  const PaillierKeyPair& kp = SharedKeyPair();
  ChaCha20Rng rng(3);
  PartialResultMessage partial;
  partial.sum =
      Paillier::Encrypt(kp.public_key, BigInt(17), rng).ValueOrDie();
  partial.shards_total = 4;
  partial.shards_responded = 3;
  partial.rows_covered = 75;
  Bytes frame = partial.Encode(kp.public_key);
  Result<MessageType> type = PeekMessageType(frame);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MessageType::kPartialResult);

  Result<PartialResultMessage> decoded =
      PartialResultMessage::Decode(kp.public_key, frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shards_total, 4u);
  EXPECT_EQ(decoded->shards_responded, 3u);
  EXPECT_EQ(decoded->rows_covered, 75u);
  Result<BigInt> value = Paillier::Decrypt(kp.private_key, decoded->sum);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, BigInt(17));

  // Implausible shard counts are rejected at decode.
  PartialResultMessage bogus = partial;
  bogus.shards_responded = 9;
  EXPECT_FALSE(
      PartialResultMessage::Decode(kp.public_key, bogus.Encode(kp.public_key))
          .ok());
  bogus.shards_responded = 0;
  EXPECT_FALSE(
      PartialResultMessage::Decode(kp.public_key, bogus.Encode(kp.public_key))
          .ok());
}

// ---------------------------------------------------------------------------
// Coordinator validation.

TEST(ClusterCoordinatorTest, ValidateCatchesMisconfiguration) {
  ColumnRegistry empty;
  EXPECT_FALSE(ShardCoordinator(&empty, {}).Validate().ok());
  EXPECT_FALSE(ShardCoordinator(nullptr, {}).Validate().ok());

  ColumnRegistry registry;
  ASSERT_TRUE(
      registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 10)}).ok());
  EXPECT_TRUE(ShardCoordinator(&registry, {}).Validate().ok());

  CoordinatorOptions bad_default;
  bad_default.default_column = "nope";
  EXPECT_FALSE(ShardCoordinator(&registry, bad_default).Validate().ok());

  CoordinatorOptions no_attempts;
  no_attempts.retry.max_attempts = 0;
  EXPECT_FALSE(ShardCoordinator(&registry, no_attempts).Validate().ok());

  CoordinatorOptions blind_no_seed;
  blind_no_seed.blind_partials = true;
  EXPECT_FALSE(ShardCoordinator(&registry, blind_no_seed).Validate().ok());

  // Blinded partials are incompatible with the partial-result policy:
  // a missing shard's zero-share would leave the merged sum garbage.
  CoordinatorOptions blind_partial_policy;
  blind_partial_policy.blind_partials = true;
  blind_partial_policy.blind_seed = {1, 2, 3};
  blind_partial_policy.partial_policy = PartialResultPolicy::kPartial;
  EXPECT_FALSE(
      ShardCoordinator(&registry, blind_partial_policy).Validate().ok());
  blind_partial_policy.partial_policy = PartialResultPolicy::kFail;
  EXPECT_TRUE(
      ShardCoordinator(&registry, blind_partial_policy).Validate().ok());
}

// ---------------------------------------------------------------------------
// In-process cluster: real shard ServiceHosts + a coordinator host.

struct TestCluster {
  std::vector<uint32_t> values;  ///< the logical column, concatenated
  std::vector<uint32_t> values2;  ///< column "w", when configured
  std::vector<std::unique_ptr<ColumnRegistry>> shard_registries;
  std::vector<std::unique_ptr<ServiceHost>> shard_hosts;
  ColumnRegistry map_registry;
  std::unique_ptr<ThreadPool> pool;  ///< fan-out legs, kept off Shared()
  std::unique_ptr<ShardCoordinator> coordinator;
  std::unique_ptr<ServiceHost> coordinator_host;

  ~TestCluster() {
    if (coordinator_host != nullptr) coordinator_host->Stop();
    for (auto& host : shard_hosts) {
      if (host != nullptr) host->Stop();
    }
  }
};

struct TestClusterConfig {
  size_t shards = 4;
  /// Rows of the logical column. Shard i holds base + (i < extra) rows,
  /// base = rows / shards and extra = rows % shards, in order.
  size_t rows = 32;
  /// The coordinator blinds its fan-outs with zero-shares mod
  /// blind_modulus and the shards carry the matching ShardBlindConfig.
  bool blind = false;
  BigInt blind_modulus = BigInt(1) << 64;
  /// When false, a blinding coordinator fans out to shards that have
  /// no ShardBlindConfig.
  bool shards_know_blinding = true;
  PartialResultPolicy policy = PartialResultPolicy::kFail;
  size_t shard_attempts = 1;
  uint32_t shard_io_deadline_ms = 5000;
  /// I/O deadline of each shard host. A host stops only once its
  /// sessions end, so one that must stop while the coordinator holds an
  /// idle session to it needs this to evict that session.
  uint32_t shard_host_io_deadline_ms = 0;
  /// When nonzero, the last shard serves only this many of its rows
  /// while the shard map still claims its whole range.
  size_t last_shard_served_rows = 0;
  /// Adds a second column "w" (value 3 * row + 2) under the same shard
  /// map, so the registries hold two columns.
  bool second_column = false;
  /// Default column of every host ("" = the sole column, if any).
  std::string default_column;
};

std::unique_ptr<TestCluster> StartCluster(const std::string& tag,
                                          const TestClusterConfig& config) {
  auto cluster = std::make_unique<TestCluster>();
  const Bytes blind_seed = {7, 7, 7, 7};
  const size_t base = config.rows / config.shards;
  const size_t extra = config.rows % config.shards;
  std::vector<ShardDescriptor> shards;
  size_t begin = 0;
  for (size_t i = 0; i < config.shards; ++i) {
    std::vector<uint32_t> slice(base + (i < extra ? 1 : 0));
    std::vector<uint32_t> slice2(slice.size());
    for (size_t r = 0; r < slice.size(); ++r) {
      slice[r] = static_cast<uint32_t>(10 * (begin + r) + 1);
      slice2[r] = static_cast<uint32_t>(3 * (begin + r) + 2);
      cluster->values.push_back(slice[r]);
      if (config.second_column) cluster->values2.push_back(slice2[r]);
    }
    if (i + 1 == config.shards && config.last_shard_served_rows != 0) {
      slice.resize(config.last_shard_served_rows);
    }
    auto registry = std::make_unique<ColumnRegistry>();
    EXPECT_TRUE(registry->Register(Database("v", slice)).ok());
    if (config.second_column) {
      EXPECT_TRUE(registry->Register(Database("w", slice2)).ok());
    }
    // Shard and coordinator hosts share this process's ThreadPool::
    // Shared(): the coordinator session parks one worker on its blocking
    // fan-out while the shards fold on another, which the pool's
    // two-worker floor guarantees even on a 1-CPU host.
    ServiceHostOptions options;
    options.default_column = config.default_column;
    options.io_deadline_ms = config.shard_host_io_deadline_ms;
    if (config.blind && config.shards_know_blinding) {
      ShardBlindConfig blind;
      blind.shard_index = static_cast<uint32_t>(i);
      blind.shard_count = static_cast<uint32_t>(config.shards);
      blind.seed = blind_seed;
      blind.modulus = config.blind_modulus;
      options.shard_blind = blind;
    }
    auto host = std::make_unique<ServiceHost>(registry.get(), options);
    const std::string path = std::string(::testing::TempDir()) + "/cl_" +
                             tag + "_s" + std::to_string(i) + ".sock";
    EXPECT_TRUE(host->Start("unix:" + path).ok());
    const size_t end = begin + base + (i < extra ? 1 : 0);
    shards.push_back(
        MakeShard(static_cast<uint32_t>(i), host->bound_uri(), begin, end));
    begin = end;
    cluster->shard_registries.push_back(std::move(registry));
    cluster->shard_hosts.push_back(std::move(host));
  }
  if (config.second_column) {
    EXPECT_TRUE(cluster->map_registry.SetShards("w", shards).ok());
  }
  EXPECT_TRUE(cluster->map_registry.SetShards("v", std::move(shards)).ok());

  // A dedicated fan-out pool: legs do blocking upstream I/O, and on a
  // small machine parking them on Shared() could starve the shard
  // hosts' own fold tasks mid-test.
  cluster->pool = std::make_unique<ThreadPool>(config.shards);
  CoordinatorOptions coordinator_options;
  coordinator_options.default_column = config.default_column;
  coordinator_options.retry.max_attempts = config.shard_attempts;
  coordinator_options.shard_io_deadline_ms = config.shard_io_deadline_ms;
  coordinator_options.retry.initial_backoff_ms = 1;
  coordinator_options.retry.max_backoff_ms = 5;
  coordinator_options.partial_policy = config.policy;
  coordinator_options.pool = cluster->pool.get();
  if (config.blind) {
    coordinator_options.blind_partials = true;
    coordinator_options.blind_seed = blind_seed;
    coordinator_options.blind_modulus = config.blind_modulus;
  }
  cluster->coordinator = std::make_unique<ShardCoordinator>(
      &cluster->map_registry, coordinator_options);
  EXPECT_TRUE(cluster->coordinator->Validate().ok());

  ServiceHostOptions host_options;
  host_options.router_factory = cluster->coordinator->RouterFactory();
  cluster->coordinator_host = std::make_unique<ServiceHost>(
      &cluster->map_registry, host_options);
  const std::string path =
      std::string(::testing::TempDir()) + "/cl_" + tag + "_coord.sock";
  EXPECT_TRUE(cluster->coordinator_host->Start("unix:" + path).ok());
  return cluster;
}

uint64_t ExpectedSum(const std::vector<uint32_t>& values,
                     const SelectionVector& selection) {
  uint64_t sum = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (selection[i]) sum += values[i];
  }
  return sum;
}

TEST(ClusterServiceTest, FansOutAndMergesAcrossFourShards) {
  TestClusterConfig config;
  auto cluster = StartCluster("fan", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(11);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  EXPECT_EQ(session.server_rows(), rows);

  // Selections crossing every shard boundary, plus a single-shard one.
  SelectionVector all(rows, true);
  SelectionVector alternating(rows, false);
  for (size_t i = 0; i < rows; i += 2) alternating[i] = true;
  SelectionVector one_shard(rows, false);
  for (size_t i = 8; i < 16; ++i) one_shard[i] = true;
  for (const SelectionVector& selection : {all, alternating, one_shard}) {
    QuerySpec spec;
    spec.column = "v";
    Result<BigInt> total = session.RunQuery(spec, selection);
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, selection)));
    EXPECT_FALSE(session.last_partial().has_value());
  }

  // Named statistics fan out too: sum of squares over all rows.
  QuerySpec sumsq;
  sumsq.kind = StatisticKind::kSumOfSquares;
  sumsq.column = "v";
  Result<BigInt> squares = session.RunQuery(sumsq, all);
  ASSERT_TRUE(squares.ok()) << squares.status().ToString();
  BigInt expected_squares(0);
  for (uint64_t v : cluster->values) {
    expected_squares = expected_squares + BigInt(v) * BigInt(v);
  }
  EXPECT_EQ(*squares, expected_squares);
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterServiceTest, BlindedPartialsStillMergeToTheTrueSum) {
  TestClusterConfig config;
  config.blind = true;
  auto cluster = StartCluster("blind", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(12);
  ClientSessionOptions options;
  options.result_modulus = BigInt(1) << 64;  // zero-shares cancel mod M
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  SelectionVector selection(rows, false);
  for (size_t i = 0; i < rows; i += 3) selection[i] = true;
  QuerySpec spec;
  spec.column = "v";
  for (int repeat = 0; repeat < 2; ++repeat) {  // fresh nonce per query
    Result<BigInt> total = session.RunQuery(spec, selection);
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, selection)));
  }
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterServiceTest, RejectsUnknownColumns) {
  TestClusterConfig config;
  config.shards = 2;
  config.rows = 16;
  auto cluster = StartCluster("rej", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(13);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec unknown;
  unknown.column = "nope";
  SelectionVector selection(rows, true);
  Result<BigInt> result = session.RunQuery(unknown, selection);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("unknown column"),
            std::string::npos);
}

TEST(ClusterServiceTest, EmptyColumnGetsTheDefaultColumnFanOut) {
  TestClusterConfig config;
  config.shards = 2;
  config.rows = 16;
  // An empty column name selects the coordinator's default column.
  auto cluster = StartCluster("default", config);
  const size_t rows = cluster->values.size();

  SelectionVector selection(rows, false);
  selection[0] = selection[rows - 1] = true;
  ChaCha20Rng rng(14);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  EXPECT_EQ(session.server_rows(), rows);
  Result<BigInt> total = session.RunQuery(QuerySpec{}, selection);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, selection)));
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterServiceTest, ShardRowCountContradictingItsMapIsAProtocolError) {
  TestClusterConfig config;
  config.shards = 2;
  config.rows = 16;
  config.last_shard_served_rows = 5;  // the map says 8
  auto cluster = StartCluster("rows", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(15);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  Result<BigInt> total = session.RunQuery(spec, SelectionVector(rows, true));
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(total.status().ToString().find(
                "shard row count does not match its shard map range"),
            std::string::npos)
      << total.status().ToString();
}

// Opens a raw v2 session on `uri`: hello sent, ServerHello received.
Result<std::unique_ptr<Channel>> OpenRawSession(const std::string& uri) {
  PPSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Channel> channel,
                           ConnectChannel(uri));
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  PPSTATS_RETURN_IF_ERROR(channel->Send(hello.Encode()));
  PPSTATS_ASSIGN_OR_RETURN(Bytes server_hello, channel->Receive());
  PPSTATS_RETURN_IF_ERROR(ServerHelloMessage::Decode(server_hello).status());
  return channel;
}

// Sends `header` on a raw session to `uri`. Returns the status the
// server's Error frame carries, or OK when it accepts the query.
Status HeaderOutcome(const std::string& uri, const QueryHeaderMessage& header) {
  PPSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Channel> channel,
                           OpenRawSession(uri));
  PPSTATS_RETURN_IF_ERROR(channel->Send(header.Encode()));
  PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel->Receive());
  PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(reply));
  if (type == MessageType::kError) return StatusFromErrorFrame(reply);
  return QueryAcceptMessage::Decode(reply).status();
}

// Opens a raw v2 session on `uri`, starts a sum query over column "v"
// and sends `chunk` as its first index frame. Returns the status the
// server's Error frame carries, or OK when it answers with a sum.
Status FirstChunkOutcome(const std::string& uri, const Bytes& chunk) {
  PPSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Channel> channel,
                           OpenRawSession(uri));
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kSum);
  header.column = "v";
  PPSTATS_RETURN_IF_ERROR(channel->Send(header.Encode()));
  PPSTATS_ASSIGN_OR_RETURN(Bytes accept, channel->Receive());
  PPSTATS_RETURN_IF_ERROR(QueryAcceptMessage::Decode(accept).status());
  PPSTATS_RETURN_IF_ERROR(channel->Send(chunk));
  PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel->Receive());
  PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(reply));
  if (type == MessageType::kError) return StatusFromErrorFrame(reply);
  return SumResponseMessage::Decode(SharedKeyPair().public_key, reply)
      .status();
}

TEST(ClusterCoordinatorTest, HostileIndexChunksFailAsOnAPlainServer) {
  // The coordinator validates index chunks itself and never decodes
  // them; a client must still get the code and reason a shard host
  // would give it.
  TestClusterConfig config;
  config.shards = 1;
  config.rows = 16;
  auto cluster = StartCluster("parity", config);
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  const size_t width = pub.CiphertextBytes();
  ChaCha20Rng rng(17);
  const Bytes zero =
      Paillier::Encrypt(pub, BigInt(0), rng).ValueOrDie().value.ToBytes(width);
  auto rows_of = [&](size_t count, const Bytes& last) {
    Bytes payload;
    for (size_t i = 0; i + 1 < count; ++i) {
      payload.insert(payload.end(), zero.begin(), zero.end());
    }
    payload.insert(payload.end(), last.begin(), last.end());
    return payload;
  };
  const struct {
    const char* name;
    Bytes frame;
    StatusCode code;
  } cases[] = {
      {"valid", IndexBatchMessage::EncodeRaw(0, 16, rows_of(16, zero)),
       StatusCode::kOk},
      {"ciphertext equal to n^2",
       IndexBatchMessage::EncodeRaw(
           0, 16, rows_of(16, pub.n_squared().ToBytes(width))),
       StatusCode::kProtocolError},
      {"all-0xFF ciphertext",
       IndexBatchMessage::EncodeRaw(0, 16, rows_of(16, Bytes(width, 0xFF))),
       StatusCode::kProtocolError},
      {"count/payload mismatch",
       IndexBatchMessage::EncodeRaw(0, 3, rows_of(2, zero)),
       StatusCode::kSerializationError},
      {"out-of-order start_index",
       IndexBatchMessage::EncodeRaw(5, 1, rows_of(1, zero)),
       StatusCode::kProtocolError},
      {"overrun", IndexBatchMessage::EncodeRaw(0, 17, rows_of(17, zero)),
       StatusCode::kProtocolError},
  };
  for (const auto& c : cases) {
    const Status direct =
        FirstChunkOutcome(cluster->shard_hosts[0]->bound_uri(), c.frame);
    const Status coordinated =
        FirstChunkOutcome(cluster->coordinator_host->bound_uri(), c.frame);
    EXPECT_EQ(direct.code(), c.code) << c.name << ": " << direct.ToString();
    EXPECT_EQ(coordinated.code(), direct.code()) << c.name;
    EXPECT_EQ(coordinated.message(), direct.message()) << c.name;
  }
}

TEST(ClusterCoordinatorTest, QueryHeadersFailAsOnAPlainServer) {
  // The coordinator resolves QueryHeaders against shard maps under the
  // server's header rule: each refusal carries the code and reason a
  // shard host gives, before any index chunk is sent. Two columns and no
  // default on either side.
  TestClusterConfig config;
  config.shards = 1;
  config.rows = 16;
  config.second_column = true;
  auto cluster = StartCluster("header", config);
  auto header = [](uint8_t kind, std::string column, std::string column2) {
    QueryHeaderMessage h;
    h.kind = kind;
    h.column = std::move(column);
    h.column2 = std::move(column2);
    return h;
  };
  const uint8_t sum = static_cast<uint8_t>(StatisticKind::kSum);
  const uint8_t product = static_cast<uint8_t>(StatisticKind::kProduct);
  const struct {
    const char* name;
    QueryHeaderMessage header;
    StatusCode code;
  } cases[] = {
      {"valid product", header(product, "v", "w"), StatusCode::kOk},
      {"unknown kind", header(9, "v", ""), StatusCode::kInvalidArgument},
      {"unknown column", header(sum, "nope", ""), StatusCode::kNotFound},
      {"empty column, no default", header(sum, "", ""),
       StatusCode::kNotFound},
      {"product without column2", header(product, "v", ""),
       StatusCode::kInvalidArgument},
      {"product with unknown column2", header(product, "v", "nope"),
       StatusCode::kNotFound},
      {"column2 on a sum", header(sum, "v", "w"),
       StatusCode::kInvalidArgument},
  };
  for (const auto& c : cases) {
    const Status direct =
        HeaderOutcome(cluster->shard_hosts[0]->bound_uri(), c.header);
    const Status coordinated =
        HeaderOutcome(cluster->coordinator_host->bound_uri(), c.header);
    EXPECT_EQ(direct.code(), c.code) << c.name << ": " << direct.ToString();
    EXPECT_EQ(coordinated.code(), direct.code()) << c.name;
    EXPECT_EQ(coordinated.message(), direct.message()) << c.name;
  }
}

TEST(ClusterCoordinatorTest, ProductColumnsMustShareOneShardMap) {
  // Each shard folds its slice of both columns, so a product over
  // columns sharded differently is refused at the QueryHeader.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 10)}).ok());
  ASSERT_TRUE(registry.SetShards("w", {MakeShard(0, "unix:/b", 0, 10)}).ok());
  ASSERT_TRUE(registry.SetShards("x", {MakeShard(0, "unix:/a", 0, 10)}).ok());
  ShardCoordinator coordinator(&registry, {});
  ASSERT_TRUE(coordinator.Validate().ok());
  std::shared_ptr<QueryRouter> router = coordinator.RouterFactory()();
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kProduct);
  header.column = "v";
  header.column2 = "w";
  Result<OpenedQuery> mismatched =
      router->Open(header, SharedKeyPair().public_key);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  header.column2 = "x";
  Result<OpenedQuery> aligned =
      router->Open(header, SharedKeyPair().public_key);
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  EXPECT_EQ(aligned->rows, 10u);
}

// A shard whose every answer is a flagged PartialResult, as a nested
// coordinator missing a shard of its own would send upstream.
class PartialAnswerRouter : public QueryRouter {
 public:
  explicit PartialAnswerRouter(uint64_t rows) : rows_(rows) {}

  uint64_t DefaultRows() const override { return rows_; }
  [[nodiscard]] Status OnClientHello(BytesView /*key_blob*/,
                                     const PaillierPublicKey& /*pub*/) override {
    return Status::OK();
  }
  [[nodiscard]] Result<OpenedQuery> Open(
      const QueryHeaderMessage& /*header*/,
      const PaillierPublicKey& pub) override {
    OpenedQuery opened;
    opened.rows = rows_;
    opened.execution = std::make_unique<Answer>(pub);
    return opened;
  }

 private:
  // Answers the first index chunk (the coordinator sends each shard its
  // whole slice in one) with a partial over E(0).
  class Answer : public QueryExecution {
   public:
    explicit Answer(PaillierPublicKey pub) : pub_(std::move(pub)) {}
    [[nodiscard]] Result<std::optional<Bytes>> HandleRequest(
        BytesView /*frame*/) override {
      finished_ = true;
      PartialResultMessage partial;
      partial.sum = PaillierCiphertext{BigInt(1)};
      partial.shards_total = 2;
      partial.shards_responded = 1;
      partial.rows_covered = 1;
      return std::optional<Bytes>(partial.Encode(pub_));
    }
    bool Finished() const override { return finished_; }
    double compute_seconds() const override { return 0; }

   private:
    PaillierPublicKey pub_;
    bool finished_ = false;
  };

  uint64_t rows_;
};

TEST(ClusterCoordinatorTest, ShardPartialAnswerIsARetryableProtocolError) {
  // A shard's partial would pass for its whole range, so the leg refuses
  // it — as ProtocolError, which retries and feeds the partial policy.
  const uint64_t rows = 4;
  ColumnRegistry shard_registry;
  ASSERT_TRUE(shard_registry.Register(Database("v", {1, 2, 3, 4})).ok());
  ServiceHostOptions shard_options;
  shard_options.router_factory = [rows] {
    return std::make_shared<PartialAnswerRouter>(rows);
  };
  ServiceHost shard(&shard_registry, shard_options);
  ASSERT_TRUE(shard
                  .Start("unix:" + std::string(::testing::TempDir()) +
                         "/cl_nested_s0.sock")
                  .ok());

  ColumnRegistry map;
  ASSERT_TRUE(
      map.SetShards("v", {MakeShard(0, shard.bound_uri(), 0, rows)}).ok());
  ThreadPool pool(1);
  CoordinatorOptions coordinator_options;
  coordinator_options.retry.max_attempts = 2;
  coordinator_options.retry.initial_backoff_ms = 1;
  coordinator_options.retry.max_backoff_ms = 2;
  coordinator_options.pool = &pool;
  ShardCoordinator coordinator(&map, coordinator_options);
  ASSERT_TRUE(coordinator.Validate().ok());
  ServiceHostOptions host_options;
  host_options.router_factory = coordinator.RouterFactory();
  ServiceHost host(&map, host_options);
  ASSERT_TRUE(host
                  .Start("unix:" + std::string(::testing::TempDir()) +
                         "/cl_nested_coord.sock")
                  .ok());

  ChaCha20Rng rng(16);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(session.ConnectWithRetry(host.bound_uri(), retry).ok());
  Result<BigInt> total =
      session.RunQuery(QuerySpec{}, SelectionVector(rows, true));
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(total.status().ToString().find("shard answered with a partial"),
            std::string::npos)
      << total.status().ToString();
  host.Stop();
  shard.Stop();
  // Retryable: the leg used both of its attempts.
  EXPECT_EQ(shard.SnapshotStats().sessions_accepted, 2u);
}

// ---------------------------------------------------------------------------
// Partition sweep: the coordinator over real shard hosts returns the
// plaintext statistic (mod M when blinded) for even and uneven
// partitions, one to five shards: the selected sum, the sum of squares,
// and the product with a second column under the same shard map.

struct SweepShape {
  size_t shards;
  size_t rows;
  bool blind;
  StatisticKind kind = StatisticKind::kSum;
};

// Names each case in the test listing (gtest would otherwise dump the
// struct's bytes, padding included).
void PrintTo(const SweepShape& shape, std::ostream* os) {
  *os << shape.shards << " shards, " << shape.rows << " rows, "
      << (shape.blind ? "blinded" : "plain");
  if (shape.kind != StatisticKind::kSum) {
    *os << ", " << StatisticKindName(shape.kind);
  }
}

std::vector<SweepShape> SweepShapes() {
  std::vector<SweepShape> shapes;
  for (StatisticKind kind : {StatisticKind::kSum, StatisticKind::kSumOfSquares,
                             StatisticKind::kProduct}) {
    for (const auto& [shards, rows] :
         {std::pair<size_t, size_t>{1, 10}, {2, 20}, {3, 31}, {5, 47}}) {
      for (bool blind : {false, true}) {
        shapes.push_back(SweepShape{shards, rows, blind, kind});
      }
    }
  }
  return shapes;
}

class ClusterSweepTest : public ::testing::TestWithParam<SweepShape> {};

TEST_P(ClusterSweepTest, CoordinatorReturnsThePlaintextSum) {
  const SweepShape shape = GetParam();
  const bool product = shape.kind == StatisticKind::kProduct;
  TestClusterConfig config;
  config.shards = shape.shards;
  config.rows = shape.rows;
  config.blind = shape.blind;
  if (product) {
    config.second_column = true;
    config.default_column = "v";
  }
  auto cluster = StartCluster(
      "sw" + std::to_string(shape.shards) + "_" + std::to_string(shape.rows) +
          (shape.blind ? "b" : "p") +
          std::to_string(static_cast<int>(shape.kind)),
      config);
  ASSERT_EQ(cluster->values.size(), shape.rows);

  ChaCha20Rng rng(shape.shards * 1000 + shape.rows);
  WorkloadGenerator gen(rng);
  SelectionVector selection = gen.RandomSelection(shape.rows, shape.rows / 2);
  ClientSessionOptions options;
  if (shape.blind) options.result_modulus = config.blind_modulus;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  EXPECT_EQ(session.server_rows(), shape.rows);
  QuerySpec spec;
  spec.kind = shape.kind;
  spec.column = "v";
  if (product) spec.column2 = "w";
  Result<BigInt> total = session.RunQuery(spec, selection);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  // The plaintext oracle: sum over the selected rows of x, x^2 or x*y.
  uint64_t oracle = 0;
  for (size_t i = 0; i < shape.rows; ++i) {
    if (!selection[i]) continue;
    const uint64_t x = cluster->values[i];
    oracle += shape.kind == StatisticKind::kSum ? x
              : product                         ? x * cluster->values2[i]
                                                : x * x;
  }
  BigInt expected(oracle);
  if (shape.blind) expected = Mod(expected, config.blind_modulus);
  EXPECT_EQ(*total, expected);
  EXPECT_TRUE(session.Finish().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterSweepTest, ::testing::ValuesIn(SweepShapes()),
    [](const ::testing::TestParamInfo<SweepShape>& info) {
      const SweepShape& shape = info.param;
      std::string name = std::to_string(shape.shards) + "Shards" +
                         std::to_string(shape.rows) + "Rows" +
                         (shape.blind ? "Blinded" : "Plain");
      if (shape.kind == StatisticKind::kSumOfSquares) name += "SumOfSquares";
      if (shape.kind == StatisticKind::kProduct) name += "Product";
      return name;
    });

// ---------------------------------------------------------------------------
// Blinding bounds on the wire.

TEST(ClusterBlindBoundTest, ModulusTooLargeForTheMergeIsInvalidArgument) {
  // M = 2^254 under a 256-bit key: each shard's 2M <= n holds, but the
  // coordinator merging three blinded partials needs 4M <= n.
  const BigInt& n = SharedKeyPair().public_key.n();
  TestClusterConfig config;
  config.shards = 3;
  config.rows = 24;
  config.blind = true;
  config.blind_modulus = BigInt(1) << 254;
  ASSERT_TRUE(CheckBlindModulus(config.blind_modulus, n, 1).ok());
  ASSERT_FALSE(CheckBlindModulus(config.blind_modulus, n, 3).ok());
  auto cluster = StartCluster("bigm", config);

  ChaCha20Rng rng(51);
  ClientSessionOptions options;
  options.result_modulus = config.blind_modulus;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  Result<BigInt> total = session.RunQuery(spec, SelectionVector(24, true));
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kInvalidArgument)
      << total.status().ToString();
  EXPECT_NE(total.status().ToString().find("need 4M <= n"), std::string::npos)
      << total.status().ToString();
  // Refused before the fan-out: no shard was ever dialed.
  for (const auto& host : cluster->shard_hosts) {
    EXPECT_EQ(host->SnapshotStats().sessions_accepted, 0u);
  }
}

TEST(ClusterBlindBoundTest, ShardWithoutBlindConfigIsFailedPrecondition) {
  TestClusterConfig config;
  config.shards = 2;
  config.rows = 16;
  config.blind = true;
  config.shards_know_blinding = false;
  auto cluster = StartCluster("noblind", config);

  ChaCha20Rng rng(52);
  ClientSessionOptions options;
  options.result_modulus = config.blind_modulus;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  Result<BigInt> total = session.RunQuery(spec, SelectionVector(16, true));
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kFailedPrecondition)
      << total.status().ToString();
  EXPECT_NE(total.status().ToString().find(
                "shard blinding is not configured"),
            std::string::npos)
      << total.status().ToString();
}

// ---------------------------------------------------------------------------
// Failure policies with a dead shard.

TEST(ClusterPolicyTest, FailPolicyPropagatesTheShardFailure) {
  TestClusterConfig config;
  config.shards = 2;
  config.rows = 16;
  config.policy = PartialResultPolicy::kFail;
  auto cluster = StartCluster("polfail", config);
  const size_t rows = cluster->values.size();
  cluster->shard_hosts[1]->Stop();  // dead shard: dialing now fails

  ChaCha20Rng rng(41);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  SelectionVector selection(rows, true);
  Result<BigInt> total = session.RunQuery(spec, selection);
  EXPECT_FALSE(total.ok());
  EXPECT_NE(total.status().ToString().find("shard"), std::string::npos);
}

TEST(ClusterPolicyTest, PartialPolicyServesFlaggedCoverage) {
  TestClusterConfig config;
  config.shards = 2;
  config.rows = 16;
  config.policy = PartialResultPolicy::kPartial;
  auto cluster = StartCluster("polpart", config);
  const size_t rows = cluster->values.size();
  cluster->shard_hosts[1]->Stop();

  // Without opt-in the flagged partial must fail the query, not pass
  // silently for a complete answer.
  {
    ChaCha20Rng rng(42);
    QuerySession strict(SharedKeyPair().private_key, rng);
    RetryOptions retry;
    ASSERT_TRUE(
        strict.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
            .ok());
    QuerySpec spec;
    spec.column = "v";
    SelectionVector selection(rows, true);
    Result<BigInt> total = strict.RunQuery(spec, selection);
    EXPECT_FALSE(total.ok());
    EXPECT_NE(total.status().ToString().find("partial"), std::string::npos);
  }

  ChaCha20Rng rng(43);
  ClientSessionOptions options;
  options.accept_partial = true;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  SelectionVector selection(rows, true);
  Result<BigInt> total = session.RunQuery(spec, selection);
  ASSERT_TRUE(total.ok()) << total.status().ToString();

  // The answer covers exactly shard 0's rows and says so.
  SelectionVector shard0_only(rows, false);
  for (size_t i = 0; i < rows / 2; ++i) shard0_only[i] = true;
  EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, shard0_only)));
  ASSERT_TRUE(session.last_partial().has_value());
  EXPECT_EQ(session.last_partial()->shards_total, 2u);
  EXPECT_EQ(session.last_partial()->shards_responded, 1u);
  EXPECT_EQ(session.last_partial()->rows_covered, rows / 2);

  // The shard is still gone, so the next query on the same session is
  // partial again (fresh fan-out per query, no stale cached success).
  cluster->shard_hosts[1].reset();
  Result<BigInt> partial_again = session.RunQuery(spec, selection);
  EXPECT_TRUE(partial_again.ok());
  EXPECT_TRUE(session.last_partial().has_value());
  EXPECT_TRUE(session.Finish().ok());
}

// ---------------------------------------------------------------------------
// Upstream connections: reused across queries, redialed after a shard
// restart, and ended with a Goodbye.

uint64_t GlobalCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->Value();
}

TEST(ClusterUpstreamTest, ShardRestartedBetweenQueriesIsRedialedOnce) {
  // One shard: the host's I/O deadline evicts every idle upstream
  // session, so a second shard's would be redialed too.
  TestClusterConfig config;
  config.shards = 1;
  config.rows = 8;
  config.shard_attempts = 2;
  config.shard_host_io_deadline_ms = 300;
  auto cluster = StartCluster("restart", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(44);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  SelectionVector selection(rows, true);
  const uint64_t expected = ExpectedSum(cluster->values, selection);
  Result<BigInt> first = session.RunQuery(spec, selection);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, BigInt(expected));

  // The shard restarts on the same URI; the coordinator's cached
  // session to it is dead, so the next leg fails once and redials.
  ServiceHost& shard = *cluster->shard_hosts[0];
  const std::string uri = shard.bound_uri();
  shard.Stop();
  ASSERT_TRUE(shard.Start(uri).ok());
  ASSERT_EQ(shard.bound_uri(), uri);

  const uint64_t retries = GlobalCounter("cluster.upstream_retries");
  const uint64_t redials = GlobalCounter("cluster.upstream_redials");
  Result<BigInt> second = session.RunQuery(spec, selection);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, BigInt(expected));
  EXPECT_EQ(GlobalCounter("cluster.upstream_retries"), retries + 1);
  EXPECT_EQ(GlobalCounter("cluster.upstream_redials"), redials + 1);
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterUpstreamTest, EndedClientSessionSaysGoodbyeToEveryShard) {
  TestClusterConfig config;
  config.shards = 3;
  config.rows = 12;
  auto cluster = StartCluster("goodbye", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(45);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  for (int repeat = 0; repeat < 2; ++repeat) {  // one upstream per shard
    Result<BigInt> total = session.RunQuery(spec, SelectionVector(rows, true));
    ASSERT_TRUE(total.ok()) << total.status().ToString();
  }
  ASSERT_TRUE(session.Finish().ok());

  // Tearing down the client's session tears down its router, whose
  // upstream sessions end with a Goodbye: each shard counts one clean
  // session. Stopping the shards after the coordinator drains them.
  cluster->coordinator_host->Stop();
  for (auto& host : cluster->shard_hosts) {
    host->Stop();
    const ServiceHost::Stats stats = host->SnapshotStats();
    EXPECT_EQ(stats.sessions_accepted, 1u);
    EXPECT_EQ(stats.sessions_ok, 1u);
    EXPECT_EQ(stats.sessions_failed, 0u);
  }
}

}  // namespace
}  // namespace ppstats
