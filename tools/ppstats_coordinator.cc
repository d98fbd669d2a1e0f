// ppstats_coordinator: serves protocol-v2 client queries by fanning
// them out over a cluster of ppstats_server shards and merging the
// encrypted partial sums homomorphically (src/cluster/coordinator.h).
//
//   ppstats_coordinator --map <col>=<begin>-<end>@<uri> [--map ...]
//                       --listen <unix:path|tcp:host:port>
//                       [--default <name>] [--shard-attempts <n>]
//                       [--shard-io-deadline-ms <ms>]
//                       [--connect-deadline-ms <ms>]
//                       [--partial fail|partial]
//                       [--blind-seed <hex>] [--blind-mod-bits <b>]
//                       [--chunk <c>] [--max-sessions <n>]
//                       [--io-deadline-ms <ms>]
//                       [--reactor-threads <n>]
//                       [--stats-json <path>] [--stats-interval-ms <ms>]
//
// Each --map adds one shard of a column's shard map: global rows
// [<begin>, <end>) live on the ppstats_server dialable at <uri> (which
// must serve that column name with exactly <end>-<begin> rows). The
// ranges of one column must tile [0, rows) without gaps or overlaps.
// To clients this process is indistinguishable from a ppstats_server
// holding the whole column; it prints the same "listening on <uri>"
// line and understands the same host flags.
//
// --shard-attempts sets how many times a fan-out leg tries its shard
// (default 2; CoordinatorOptions::retry.max_attempts). --partial picks
// the failure policy once a shard exhausts its attempts: "fail"
// (default) answers with an Error frame, "partial" answers with a
// flagged PartialResult over the responsive shards (clients opt in via
// --accept-partial).
//
// --blind-seed enables blinded partials: every fan-out carries a fresh
// nonce and each shard (started with the matching --shard-blind flag)
// adds its zero-share to the partial, so this coordinator learns
// nothing even from individual shard responses. Clients then reduce
// results with --result-mod-bits <b> (default 64, must match
// --blind-mod-bits). Blinding forces --partial fail.

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli.h"
#include "cluster/coordinator.h"
#include "common/bytes.h"
#include "core/service_host.h"
#include "db/column_registry.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ppstats_coordinator --map <col>=<begin>-<end>@<uri> "
      "[--map ...] --listen <unix:path|tcp:host:port> [--default <name>] "
      "[--shard-attempts <n>] [--shard-io-deadline-ms <ms>] "
      "[--connect-deadline-ms <ms>] [--partial fail|partial] "
      "[--blind-seed <hex>] [--blind-mod-bits <b>] [--chunk <c>] "
      "[--max-sessions <n>] [--io-deadline-ms <ms>] "
      "[--reactor-threads <n>] "
      "[--stats-json <path>] [--stats-interval-ms <ms>]\n");
  return 2;
}

/// Parses one --map spec "<col>=<begin>-<end>@<uri>". The URI may
/// itself contain '=' or '-' (tcp ports, paths), so the column is
/// everything before the *first* '=', the range before the *first* '@'
/// after it, and the URI is the rest verbatim.
bool ParseMapSpec(const std::string& spec, std::string* column,
                  ppstats::ShardDescriptor* shard) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const size_t at = spec.find('@', eq + 1);
  if (at == std::string::npos || at + 1 >= spec.size()) return false;
  *column = spec.substr(0, eq);
  const std::string range = spec.substr(eq + 1, at - eq - 1);
  const size_t dash = range.find('-');
  if (dash == std::string::npos ||
      !ppstats::cli::ParseNumber(range.substr(0, dash), &shard->begin) ||
      !ppstats::cli::ParseNumber(range.substr(dash + 1), &shard->end)) {
    return false;
  }
  shard->uri = spec.substr(at + 1);
  return shard->end > shard->begin;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;

  // --map specs grouped per column; shard ids follow command-line order.
  std::map<std::string, std::vector<ShardDescriptor>> maps;
  std::string listen_uri;
  CoordinatorOptions coordinator_options;
  size_t blind_mod_bits = 64;
  std::string blind_seed_hex;
  ServiceHostOptions host_options;
  std::string value;
  for (cli::Args args(argc, argv); args.Next();) {
    if (args.Value("--map", &value)) {
      std::string column;
      ShardDescriptor shard;
      if (!ParseMapSpec(value, &column, &shard)) {
        std::fprintf(stderr, "bad --map spec: %s\n", value.c_str());
        return Usage();
      }
      shard.id = static_cast<uint32_t>(maps[column].size());
      maps[column].push_back(std::move(shard));
    } else if (args.Value("--partial", &value)) {
      if (value == "fail") {
        coordinator_options.partial_policy = PartialResultPolicy::kFail;
      } else if (value == "partial") {
        coordinator_options.partial_policy = PartialResultPolicy::kPartial;
      } else {
        std::fprintf(stderr, "unknown --partial policy: %s\n", value.c_str());
        return Usage();
      }
    } else if (!(args.Value("--listen", &listen_uri) ||
                 args.Value("--default", &coordinator_options.default_column) ||
                 args.Value("--shard-attempts",
                            &coordinator_options.retry.max_attempts) ||
                 args.Value("--shard-io-deadline-ms",
                            &coordinator_options.shard_io_deadline_ms) ||
                 args.Value("--connect-deadline-ms",
                            &coordinator_options.connect_deadline_ms) ||
                 args.Value("--blind-seed", &blind_seed_hex) ||
                 args.Value("--blind-mod-bits", &blind_mod_bits) ||
                 args.Value("--chunk", &coordinator_options.chunk_size) ||
                 args.Value("--max-sessions", &host_options.max_sessions) ||
                 args.Value("--io-deadline-ms", &host_options.io_deadline_ms) ||
                 args.Value("--reactor-threads",
                            &host_options.reactor_threads) ||
                 args.Value("--stats-json", &host_options.stats_json_path) ||
                 args.Value("--stats-interval-ms",
                            &host_options.stats_interval_ms))) {
      return Usage();
    }
  }
  if (maps.empty() || listen_uri.empty()) return Usage();

  // Install each column's shard map; SetShards validates the tiling.
  ColumnRegistry registry;
  for (auto& [column, shards] : maps) {
    const size_t count = shards.size();
    Status set = registry.SetShards(column, std::move(shards));
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.ToString().c_str());
      return 1;
    }
    std::printf("column %-16s %llu rows over %zu shard(s)\n", column.c_str(),
                static_cast<unsigned long long>(registry.ShardedRows(column)),
                count);
  }

  if (!blind_seed_hex.empty()) {
    Result<Bytes> seed = FromHex(blind_seed_hex);
    if (!seed.ok() || seed->empty()) {
      std::fprintf(stderr, "bad --blind-seed hex\n");
      return Usage();
    }
    coordinator_options.blind_partials = true;
    coordinator_options.blind_seed = std::move(*seed);
    coordinator_options.blind_modulus = BigInt(1) << blind_mod_bits;
  }

  // cluster.* counters go to the process-wide registry, which the
  // host's --stats-json dump merges in alongside its own counters.
  ShardCoordinator coordinator(&registry, coordinator_options);
  Status valid = coordinator.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }

  host_options.router_factory = coordinator.RouterFactory();
  ServiceHost host(&registry, host_options);
  return cli::Serve(host, listen_uri, "coordinating", maps.size());
}
