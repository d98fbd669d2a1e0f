// Scenario: one analyst, several data holders. A retail chain's regional
// warehouses each hold their own sales table; an analyst computes a
// fleet-wide selected sum through a shard coordinator. No warehouse
// learns which rows the analyst chose, the coordinator and the analyst
// learn no per-warehouse subtotal (the warehouses blind their partial
// sums with pairwise shares of zero, crypto/zero_share.h), and nothing
// but the grand total leaves the protocol.
//
// Every party runs in this process but talks over unix sockets in a
// temporary directory, exactly as the ppstats_server (--shard-blind) and
// ppstats_coordinator (--blind) processes of a real deployment would.
//
//   build/examples/distributed_fleet

#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "common/thread_pool.h"
#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "db/column_registry.h"
#include "db/workload.h"

namespace {

using namespace ppstats;

// The analyst: one session against the coordinator. The shards' shares
// of zero cancel only mod M, so decrypted totals reduce mod M.
Result<BigInt> AskCoordinator(const std::string& uri,
                              const SelectionVector& selection,
                              const BigInt& blind_modulus, RandomSource& rng) {
  PPSTATS_ASSIGN_OR_RETURN(PaillierKeyPair keys,
                           Paillier::GenerateKeyPair(512, rng));
  ClientSessionOptions options;
  options.chunk_size = 100;
  options.result_modulus = blind_modulus;
  QuerySession session(keys.private_key, rng, options);
  PPSTATS_RETURN_IF_ERROR(session.ConnectWithRetry(uri, RetryOptions{}));
  QuerySpec spec;
  spec.column = "sales";
  PPSTATS_ASSIGN_OR_RETURN(BigInt total, session.RunQuery(spec, selection));
  PPSTATS_RETURN_IF_ERROR(session.Finish());
  return total;
}

}  // namespace

int main() {
  ChaCha20Rng rng(99);

  // Four warehouses with differently-sized tables.
  WorkloadGenerator gen(rng);
  std::vector<Database> warehouses;
  for (size_t rows : {800, 1200, 500, 1500}) {
    warehouses.push_back(gen.UniformDatabase(rows, 5000));
  }
  size_t total_rows = 0;
  for (const Database& w : warehouses) total_rows += w.size();

  // The analyst's secret selection over the concatenated logical table.
  SelectionVector selection = gen.RandomSelection(total_rows, total_rows / 3);

  // Ground truth for the demo.
  uint64_t expected = 0;
  {
    size_t offset = 0;
    for (const Database& w : warehouses) {
      for (size_t i = 0; i < w.size(); ++i) {
        if (selection[offset + i]) expected += w.value(i);
      }
      offset += w.size();
    }
  }

  char dir_template[] = "/tmp/ppstats_fleet_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string dir = dir_template;

  // The warehouses agree on the blinding seed and modulus out of band;
  // each derives its own share of zero per query from them.
  const Bytes blind_seed = {0x5e, 0xed, 0x0f, 0x1e, 0xe7};
  const BigInt blind_modulus = BigInt(1) << 64;

  std::vector<std::unique_ptr<ColumnRegistry>> registries;
  std::vector<std::unique_ptr<ServiceHost>> shard_hosts;
  std::vector<ShardDescriptor> shard_map;
  uint64_t begin = 0;
  for (size_t i = 0; i < warehouses.size(); ++i) {
    auto registry = std::make_unique<ColumnRegistry>();
    std::vector<uint32_t> values = warehouses[i].values();
    if (!registry->Register(Database("sales", std::move(values))).ok()) {
      return 1;
    }
    ServiceHostOptions options;
    ShardBlindConfig blind;
    blind.shard_index = static_cast<uint32_t>(i);
    blind.shard_count = static_cast<uint32_t>(warehouses.size());
    blind.seed = blind_seed;
    blind.modulus = blind_modulus;
    options.shard_blind = blind;
    auto host = std::make_unique<ServiceHost>(registry.get(), options);
    Status started =
        host->Start("unix:" + dir + "/w" + std::to_string(i) + ".sock");
    if (!started.ok()) {
      std::fprintf(stderr, "warehouse %zu: %s\n", i + 1,
                   started.ToString().c_str());
      return 1;
    }
    ShardDescriptor shard;
    shard.id = static_cast<uint32_t>(i);
    shard.uri = host->bound_uri();
    shard.begin = begin;
    shard.end = begin + warehouses[i].size();
    begin = shard.end;
    shard_map.push_back(shard);
    registries.push_back(std::move(registry));
    shard_hosts.push_back(std::move(host));
  }

  // The coordinator only holds the shard map; its fan-out legs run on a
  // pool of their own so they never wait behind the shards' folds.
  ColumnRegistry map;
  if (!map.SetShards("sales", shard_map).ok()) return 1;
  ThreadPool legs(warehouses.size());
  CoordinatorOptions coordinator_options;
  coordinator_options.blind_partials = true;
  coordinator_options.blind_seed = blind_seed;
  coordinator_options.blind_modulus = blind_modulus;
  coordinator_options.pool = &legs;
  ShardCoordinator coordinator(&map, coordinator_options);
  ServiceHostOptions coordinator_host_options;
  coordinator_host_options.router_factory = coordinator.RouterFactory();
  ServiceHost coordinator_host(&map, coordinator_host_options);
  Status serving = coordinator.Validate();
  if (serving.ok()) {
    serving = coordinator_host.Start("unix:" + dir + "/coordinator.sock");
  }

  Result<BigInt> total =
      serving.ok() ? AskCoordinator(coordinator_host.bound_uri(), selection,
                                    blind_modulus, rng)
                   : Result<BigInt>(serving);

  coordinator_host.Stop();
  for (auto& host : shard_hosts) host->Stop();
  ::rmdir(dir.c_str());  // the hosts' listeners unlinked their sockets

  if (!total.ok()) {
    std::fprintf(stderr, "failed: %s\n", total.status().ToString().c_str());
    return 1;
  }
  std::printf("fleet-wide selected sum over %zu warehouses (%zu rows)\n",
              warehouses.size(), total_rows);
  for (size_t i = 0; i < warehouses.size(); ++i) {
    std::printf("  warehouse %zu: rows [%llu, %llu)\n", i + 1,
                static_cast<unsigned long long>(shard_map[i].begin),
                static_cast<unsigned long long>(shard_map[i].end));
  }
  std::printf("result: %s (expected %llu) — %s\n", total->ToDecimal().c_str(),
              static_cast<unsigned long long>(expected),
              *total == BigInt(expected) ? "correct" : "WRONG");
  std::printf("privacy: warehouse subtotals were blinded with shares of "
              "zero; only the grand total decrypts.\n");
  return *total == BigInt(expected) ? 0 : 1;
}
