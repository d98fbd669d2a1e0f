// ppstats_server: serves private statistics queries from one or more
// database files over a Unix or TCP socket.
//
//   ppstats_server --db [name=]values.txt [--db ...] --listen unix:/tmp/pp.sock
//                  [--default <name>] [--threads <t>]
//                  [--max-sessions <n>] [--io-deadline-ms <ms>]
//                  [--backlog <n>] [--stats-json <path>]
//                  [--stats-interval-ms <ms>] [--reactor-threads <n>]
//                  [--shard-blind <index>:<count>:<seed-hex>[:<mod-bits>]]
//
// --listen takes an endpoint URI: "unix:/path", "tcp:host:port" (port 0
// binds an ephemeral port), or a bare socket path. The server prints
// "listening on <uri>" with the resolved address — scripts dialing an
// ephemeral TCP port read it from there.
//
// --shard-blind enrolls this server as shard <index> of <count> in a
// coordinator deployment (src/cluster): queries flagged blind_partial
// get the shard's pairwise zero-share (derived from the shared
// <seed-hex>, modulo 2^<mod-bits>, default 64) added to the encrypted
// partial, so the coordinator learns nothing from individual shard
// responses. All shards and the coordinator must agree on the seed,
// count, and modulus.
//
// Each --db registers one named column (the name defaults to the file
// path); clients address columns by name and may run several queries
// per connection. Concurrent clients are served on an epoll event loop
// (core/service_host.h): --reactor-threads sets the number of
// event-loop shards (each with its own listener; TCP shards share the
// port via SO_REUSEPORT). --max-sessions caps concurrent clients
// (extras get a retryable Error frame), --io-deadline-ms evicts clients
// that stall mid-protocol, --backlog sets the kernel listen queue. The
// server runs until SIGINT or SIGTERM.
//
// --stats-json writes the server's metrics (session/query counters,
// channel byte counts, span histograms — see docs/OBSERVABILITY.md) to
// the given path as one JSON document: every --stats-interval-ms while
// running, and a final snapshot on clean shutdown (SIGINT/SIGTERM).
// Writes are atomic (temp file + rename), so the file is always a
// complete document.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cli.h"
#include "common/bytes.h"
#include "core/service_host.h"
#include "db/io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ppstats_server --db [name=]<file> [--db ...] "
               "--listen <unix:path|tcp:host:port> [--default <name>] "
               "[--threads <t>] "
               "[--max-sessions <n>] [--io-deadline-ms <ms>] "
               "[--backlog <n>] [--stats-json <path>] "
               "[--stats-interval-ms <ms>] "
               "[--reactor-threads <n>] "
               "[--shard-blind <index>:<count>:<seed-hex>[:<mod-bits>]]\n");
  return 2;
}

/// Parses "<index>:<count>:<seed-hex>[:<mod-bits>]".
bool ParseShardBlind(const std::string& spec, ppstats::ShardBlindConfig* out) {
  std::vector<std::string> parts;
  for (size_t start = 0, colon = 0; colon != std::string::npos;
       start = colon + 1) {
    colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
  }
  if (parts.size() < 3 || parts.size() > 4) return false;
  if (!ppstats::cli::ParseNumber(parts[0], &out->shard_index) ||
      !ppstats::cli::ParseNumber(parts[1], &out->shard_count)) {
    return false;
  }
  ppstats::Result<ppstats::Bytes> seed = ppstats::FromHex(parts[2]);
  if (!seed.ok() || seed->empty()) return false;
  out->seed = std::move(*seed);
  if (parts.size() == 4) {
    size_t bits = 0;
    if (!ppstats::cli::ParseNumber(parts[3], &bits) || bits == 0) return false;
    out->modulus = ppstats::BigInt(1) << bits;
  }
  return out->shard_count > 0 && out->shard_index < out->shard_count;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;

  std::vector<std::string> db_specs;
  std::string listen_uri;
  ServiceHostOptions options;
  std::string value;
  for (cli::Args args(argc, argv); args.Next();) {
    if (args.Value("--db", &value)) {
      db_specs.push_back(value);
    } else if (args.Value("--shard-blind", &value)) {
      ShardBlindConfig config;
      if (!ParseShardBlind(value, &config)) {
        std::fprintf(stderr, "bad --shard-blind spec: %s\n", value.c_str());
        return Usage();
      }
      options.shard_blind = std::move(config);
    } else if (!(args.Value("--listen", &listen_uri) ||
                 args.Value("--default", &options.default_column) ||
                 args.Value("--threads", &options.worker_threads) ||
                 args.Value("--max-sessions", &options.max_sessions) ||
                 args.Value("--io-deadline-ms", &options.io_deadline_ms) ||
                 args.Value("--backlog", &options.accept_backlog) ||
                 args.Value("--stats-json", &options.stats_json_path) ||
                 args.Value("--stats-interval-ms",
                            &options.stats_interval_ms) ||
                 args.Value("--reactor-threads", &options.reactor_threads))) {
      return Usage();
    }
  }
  if (db_specs.empty() || listen_uri.empty()) return Usage();

  ColumnRegistry registry;
  for (const std::string& spec : db_specs) {
    std::string name, path;
    size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      path = spec;
    } else {
      name = spec.substr(0, eq);
      path = spec.substr(eq + 1);
    }
    Result<Database> db = LoadDatabaseFromFile(path);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    if (!name.empty()) db = Database(name, db->values());
    std::printf("column %-16s %zu rows (%s)\n", db->name().c_str(),
                db->size(), path.c_str());
    Status registered = registry.Register(std::move(db.value()));
    if (!registered.ok()) {
      std::fprintf(stderr, "%s\n", registered.ToString().c_str());
      return 1;
    }
  }

  ServiceHost host(&registry, options);
  return cli::Serve(host, listen_uri, "serving", registry.size());
}
