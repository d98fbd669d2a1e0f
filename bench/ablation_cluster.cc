// Ablation: coordinator scatter-gather throughput vs shard count. One
// logical column of fixed total size is served by 1/2/4/8 ppstats
// shard hosts behind a ShardCoordinator, all over TCP loopback, and
// the table reports whole queries per second through the coordinator.
// The client's index vector is encrypted and framed ONCE outside the
// timing loop and replayed over a raw channel each iteration, so the
// measured path is exactly the fan-out: header round-trip, index
// upload, per-shard slicing, shard folds, homomorphic merge. With the
// total rows fixed, each shard folds 1/N of the column; q/s should
// rise (or at worst hold) as shards are added. Every host runs in this
// one process and folds on its shared ThreadPool, so this is an
// in-process micro-benchmark; deployed shards are separate processes.
//
// BM_ClusterPartialQuery is the shard-kill point: a 4-shard cluster
// with one shard stopped and the partial-result policy enabled, so
// every query pays the dead-shard dial and answers with a flagged
// PartialResult (tag 11) over the three survivors — the price of a
// degraded-but-answering cluster.
//
// Emits BENCH_ablation_cluster.json under PPSTATS_BENCH_JSON_DIR via
// bench/microlib. Results are checked against the plaintext sum
// outside the timing loop; a mismatch fails the benchmark.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/microlib.h"
#include "cluster/coordinator.h"
#include "common/thread_pool.h"
#include "core/messages.h"
#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "db/column_registry.h"
#include "db/database.h"
#include "net/socket_channel.h"

namespace ppstats {
namespace {

constexpr size_t kTotalRows = 256;
constexpr size_t kKeyBits = 256;

const PaillierKeyPair& SharedKey() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(727272);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(kKeyBits, rng).ValueOrDie());
  }();
  return *kp;
}

/// An in-process cluster on TCP loopback: `shards` shard hosts plus a
/// coordinator host, one logical column "v" of kTotalRows rows.
struct BenchCluster {
  std::vector<uint32_t> values;
  std::vector<std::unique_ptr<ColumnRegistry>> shard_registries;
  std::vector<std::unique_ptr<ServiceHost>> shard_hosts;
  ColumnRegistry map_registry;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ShardCoordinator> coordinator;
  std::unique_ptr<ServiceHost> host;

  ~BenchCluster() {
    if (host != nullptr) host->Stop();
    for (auto& shard : shard_hosts) {
      if (shard != nullptr) shard->Stop();
    }
  }
};

std::unique_ptr<BenchCluster> StartCluster(size_t shards,
                                           PartialResultPolicy policy) {
  auto cluster = std::make_unique<BenchCluster>();
  const size_t rows_per_shard = kTotalRows / shards;
  std::vector<ShardDescriptor> map;
  for (size_t s = 0; s < shards; ++s) {
    std::vector<uint32_t> slice(rows_per_shard);
    for (size_t r = 0; r < rows_per_shard; ++r) {
      slice[r] = static_cast<uint32_t>(7 * (s * rows_per_shard + r) + 3);
      cluster->values.push_back(slice[r]);
    }
    auto registry = std::make_unique<ColumnRegistry>();
    if (!registry->Register(Database("v", std::move(slice))).ok()) {
      return nullptr;
    }
    auto host = std::make_unique<ServiceHost>(registry.get());
    if (!host->Start("tcp:127.0.0.1:0").ok()) return nullptr;
    ShardDescriptor shard;
    shard.id = static_cast<uint32_t>(s);
    shard.uri = host->bound_uri();
    shard.begin = s * rows_per_shard;
    shard.end = (s + 1) * rows_per_shard;
    map.push_back(std::move(shard));
    cluster->shard_registries.push_back(std::move(registry));
    cluster->shard_hosts.push_back(std::move(host));
  }
  if (!cluster->map_registry.SetShards("v", std::move(map)).ok()) {
    return nullptr;
  }

  cluster->pool = std::make_unique<ThreadPool>(shards);
  CoordinatorOptions coordinator_options;
  coordinator_options.retry.max_attempts = 1;
  coordinator_options.shard_io_deadline_ms = 10000;
  coordinator_options.connect_deadline_ms = 2000;
  coordinator_options.partial_policy = policy;
  coordinator_options.pool = cluster->pool.get();
  cluster->coordinator = std::make_unique<ShardCoordinator>(
      &cluster->map_registry, coordinator_options);
  if (!cluster->coordinator->Validate().ok()) return nullptr;

  ServiceHostOptions host_options;
  host_options.router_factory = cluster->coordinator->RouterFactory();
  cluster->host =
      std::make_unique<ServiceHost>(&cluster->map_registry, host_options);
  if (!cluster->host->Start("tcp:127.0.0.1:0").ok()) return nullptr;
  return cluster;
}

/// A raw v2 session with every client frame pre-encoded: handshake on
/// construction, then Query() replays the identical header + index
/// frames and reads one response per call.
class ReplayClient {
 public:
  /// Selects every third row of [0, kTotalRows).
  Status Open(const std::string& uri) {
    Result<std::unique_ptr<Channel>> dialed = ConnectChannel(uri);
    if (!dialed.ok()) return dialed.status();
    channel_ = std::move(*dialed);

    ClientHelloMessage hello;
    hello.protocol_version = kSessionProtocolV2;
    hello.public_key_blob = SerializePublicKey(SharedKey().public_key);
    PPSTATS_RETURN_IF_ERROR(channel_->Send(hello.Encode()));
    Result<Bytes> reply = channel_->Receive();
    if (!reply.ok()) return reply.status();
    Result<ServerHelloMessage> server_hello =
        ServerHelloMessage::Decode(*reply);
    if (!server_hello.ok()) return server_hello.status();

    QueryHeaderMessage header;
    header.kind = 1;  // kSum
    header.column = "v";
    header_frame_ = header.Encode();

    ChaCha20Rng rng(99);
    IndexBatchMessage batch;
    batch.start_index = 0;
    batch.ciphertexts.reserve(kTotalRows);
    for (size_t i = 0; i < kTotalRows; ++i) {
      const bool selected = i % 3 == 0;
      Result<PaillierCiphertext> bit = Paillier::Encrypt(
          SharedKey().public_key, BigInt(selected ? 1 : 0), rng);
      if (!bit.ok()) return bit.status();
      batch.ciphertexts.push_back(std::move(*bit));
    }
    index_frame_ = batch.Encode(SharedKey().public_key);
    return Status::OK();
  }

  /// One full query; returns the raw response frame.
  Result<Bytes> Query() {
    PPSTATS_RETURN_IF_ERROR(channel_->Send(header_frame_));
    Result<Bytes> accept = channel_->Receive();
    if (!accept.ok()) return accept.status();
    Result<MessageType> type = PeekMessageType(*accept);
    if (!type.ok()) return type.status();
    if (*type == MessageType::kError) return StatusFromErrorFrame(*accept);
    PPSTATS_RETURN_IF_ERROR(channel_->Send(index_frame_));
    return channel_->Receive();
  }

  uint64_t ExpectedSum(const std::vector<uint32_t>& values) const {
    uint64_t sum = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i % 3 == 0) sum += values[i];
    }
    return sum;
  }

 private:
  std::unique_ptr<Channel> channel_;
  Bytes header_frame_;
  Bytes index_frame_;
};

void BM_ClusterQuery(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  auto cluster = StartCluster(shards, PartialResultPolicy::kFail);
  if (cluster == nullptr) {
    state.SkipWithError("cluster failed to start");
    return;
  }
  ReplayClient client;
  Status opened = client.Open(cluster->host->bound_uri());
  if (!opened.ok()) {
    state.SkipWithError(opened.ToString().c_str());
    return;
  }

  Bytes last_response;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Result<Bytes> response = client.Query();
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    last_response = std::move(*response);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Correctness, outside the timing loop.
  Result<SumResponseMessage> sum =
      SumResponseMessage::Decode(SharedKey().public_key, last_response);
  if (!sum.ok()) {
    state.SkipWithError(sum.status().ToString().c_str());
    return;
  }
  Result<BigInt> total = Paillier::Decrypt(SharedKey().private_key, sum->sum);
  if (!total.ok() || *total != BigInt(client.ExpectedSum(cluster->values))) {
    state.SkipWithError("merged sum does not match the plaintext sum");
    return;
  }
  // Wall-clock rate: the loop blocks on sockets, so CPU-time rates
  // would flatter the coordinator enormously.
  state.counters["queries_per_s"] =
      static_cast<double>(state.iterations()) / wall_s;
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ClusterQuery)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ClusterPartialQuery(benchmark::State& state) {
  auto cluster = StartCluster(4, PartialResultPolicy::kPartial);
  if (cluster == nullptr) {
    state.SkipWithError("cluster failed to start");
    return;
  }
  cluster->shard_hosts[3]->Stop();  // the shard-kill point
  ReplayClient client;
  Status opened = client.Open(cluster->host->bound_uri());
  if (!opened.ok()) {
    state.SkipWithError(opened.ToString().c_str());
    return;
  }

  Bytes last_response;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Result<Bytes> response = client.Query();
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    last_response = std::move(*response);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  Result<MessageType> type = PeekMessageType(last_response);
  if (!type.ok() || *type != MessageType::kPartialResult) {
    state.SkipWithError("expected a flagged PartialResult frame");
    return;
  }
  Result<PartialResultMessage> partial =
      PartialResultMessage::Decode(SharedKey().public_key, last_response);
  if (!partial.ok() || partial->shards_responded != 3 ||
      partial->rows_covered != kTotalRows / 4 * 3) {
    state.SkipWithError("partial coverage is wrong");
    return;
  }
  std::vector<uint32_t> covered(cluster->values.begin(),
                                cluster->values.begin() + partial->rows_covered);
  Result<BigInt> total =
      Paillier::Decrypt(SharedKey().private_key, partial->sum);
  if (!total.ok() || *total != BigInt(client.ExpectedSum(covered))) {
    state.SkipWithError("partial sum does not match the surviving shards");
    return;
  }
  state.counters["queries_per_s"] =
      static_cast<double>(state.iterations()) / wall_s;
}
BENCHMARK(BM_ClusterPartialQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ppstats

PPSTATS_MICRO_BENCH_MAIN("ablation_cluster")
