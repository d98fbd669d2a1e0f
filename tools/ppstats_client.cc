// ppstats_client: runs private statistics queries against a
// ppstats_server, all over one connection (session protocol v2).
//
//   ppstats_client --key mykey.priv --connect unix:/tmp/ppstats.sock
//                  --rows <n> --select 3,17,42 [--select ...]
//                  [--stat sum|sumsq|product] [--column <name>]
//                  [--column2 <name>] [--chunk 100] [--seed N]
//                  [--retries <n>] [--io-deadline-ms <ms>]
//                  [--connect-deadline-ms <ms>] [--accept-partial]
//                  [--result-mod-bits <b>] [--trace-json <path>]
//
// --connect takes an endpoint URI: "unix:/path", "tcp:host:port", or a
// bare socket path. Each --select runs one query; --stat/--column/
// --column2 apply to all of them. The server learns nothing about
// --select; the client learns only the requested statistic over the
// selected rows. --retries redials with exponential backoff + jitter
// when the connect or hello exchange fails retryably (server at
// capacity, transport died);
// --io-deadline-ms bounds how long any single read/write may stall and
// --connect-deadline-ms each connect() attempt itself.
//
// Cluster coordinators (src/cluster): --accept-partial opts into
// flagged PartialResult answers when shards are down (the coverage is
// printed to stderr); --result-mod-bits reduces decrypted values mod
// 2^<b>, required against blinded-partial deployments, whose shard
// zero-shares only cancel mod that modulus.
//
// --trace-json writes a JSONL phase trace of the whole run: one line per
// span (handshake, client_encrypt, communication, client_decrypt, each
// tagged with its 1-based query id) plus a final totals line summing the
// per-component seconds. The communication spans time the socket calls,
// so their receive leg includes the server's fold time — the wire cannot
// tell waiting from transfer (see docs/OBSERVABILITY.md).

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "cli.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "db/io.h"
#include "net/socket_channel.h"
#include "obs/export.h"
#include "obs/span.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ppstats_client --key <file.priv> "
               "--connect <unix:path|tcp:host:port> "
               "--rows <n> --select i,j,k [--select ...] "
               "[--stat sum|sumsq|product] [--column <name>] "
               "[--column2 <name>] [--chunk <c>] [--seed <n>] "
               "[--retries <n>] [--io-deadline-ms <ms>] "
               "[--connect-deadline-ms <ms>] [--accept-partial] "
               "[--result-mod-bits <b>] [--trace-json <path>]\n");
  return 2;
}

/// Total seconds recorded under the span `name` in `snapshot`.
double SpanSeconds(const ppstats::obs::MetricsSnapshot& snapshot,
                   const char* name) {
  const ppstats::obs::HistogramSnapshot* hist = snapshot.FindHistogram(
      std::string(ppstats::obs::kSpanMetricPrefix) + name);
  return hist == nullptr ? 0.0 : static_cast<double>(hist->sum) * 1e-9;
}

ppstats::Result<ppstats::Bytes> ReadHexFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return ppstats::Status::NotFound("cannot open " + path);
  std::string hex;
  in >> hex;
  return ppstats::FromHex(hex);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;

  std::string key_path, connect_uri, stat = "sum";
  std::vector<std::string> selects;
  QuerySpec spec;
  ClientSessionOptions session_options;
  size_t rows = 0, retries = 0, result_mod_bits = 0;
  uint32_t io_deadline_ms = 0, connect_deadline_ms = 0;
  uint64_t seed = std::random_device{}();
  std::string trace_json_path;
  std::string value;
  for (cli::Args args(argc, argv); args.Next();) {
    if (args.Value("--select", &value)) {
      selects.push_back(value);
    } else if (args.Switch("--accept-partial")) {
      session_options.accept_partial = true;
    } else if (!(args.Value("--trace-json", &trace_json_path) ||
                 args.Value("--key", &key_path) ||
                 args.Value("--connect", &connect_uri) ||
                 args.Value("--stat", &stat) ||
                 args.Value("--column", &spec.column) ||
                 args.Value("--column2", &spec.column2) ||
                 args.Value("--rows", &rows) ||
                 args.Value("--chunk", &session_options.chunk_size) ||
                 args.Value("--seed", &seed) ||
                 args.Value("--retries", &retries) ||
                 args.Value("--io-deadline-ms", &io_deadline_ms) ||
                 args.Value("--connect-deadline-ms", &connect_deadline_ms) ||
                 args.Value("--result-mod-bits", &result_mod_bits))) {
      return Usage();
    }
  }
  if (key_path.empty() || connect_uri.empty() || selects.empty() ||
      rows == 0) {
    return Usage();
  }

  if (stat == "sum") {
    spec.kind = StatisticKind::kSum;
  } else if (stat == "sumsq") {
    spec.kind = StatisticKind::kSumOfSquares;
  } else if (stat == "product") {
    spec.kind = StatisticKind::kProduct;
  } else {
    std::fprintf(stderr, "unknown --stat: %s\n", stat.c_str());
    return Usage();
  }

  Result<Bytes> key_blob = ReadHexFile(key_path);
  if (!key_blob.ok()) {
    std::fprintf(stderr, "%s\n", key_blob.status().ToString().c_str());
    return 1;
  }
  Result<PaillierPrivateKey> key = DeserializePrivateKey(*key_blob);
  if (!key.ok()) {
    std::fprintf(stderr, "%s\n", key.status().ToString().c_str());
    return 1;
  }

  if (!trace_json_path.empty()) obs::TraceLog::Global().Enable();

  ChaCha20Rng rng(seed);
  if (result_mod_bits > 0) {
    session_options.result_modulus = BigInt(1) << result_mod_bits;
  }
  QuerySession session(*key, rng, session_options);
  RetryOptions retry;
  retry.max_attempts = retries + 1;
  Status connected = session.ConnectWithRetry(connect_uri, retry,
                                              io_deadline_ms,
                                              connect_deadline_ms);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s (%llu attempts)\n",
                 connected.ToString().c_str(),
                 static_cast<unsigned long long>(
                     session.retry_metrics().attempts));
    return 1;
  }

  for (const std::string& select : selects) {
    Result<std::vector<size_t>> indices = ParseIndexList(select, rows);
    if (!indices.ok()) {
      std::fprintf(stderr, "%s\n", indices.status().ToString().c_str());
      return 1;
    }
    SelectionVector selection(rows, false);
    for (size_t i : *indices) selection[i] = true;

    Result<BigInt> value = session.RunQuery(spec, selection);
    if (!value.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   value.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", value->ToDecimal().c_str());
    if (session.last_partial().has_value()) {
      const PartialResultInfo& partial = *session.last_partial();
      std::fprintf(stderr,
                   "partial result: %llu/%llu shards, %llu rows covered\n",
                   static_cast<unsigned long long>(partial.shards_responded),
                   static_cast<unsigned long long>(partial.shards_total),
                   static_cast<unsigned long long>(partial.rows_covered));
    }
  }
  Status finished = session.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "finish: %s\n", finished.ToString().c_str());
    return 1;
  }

  if (!trace_json_path.empty()) {
    obs::TraceLog& trace = obs::TraceLog::Global();
    trace.Disable();
    std::string out = obs::TraceToJsonl(trace.Drain());
    obs::MetricsSnapshot snapshot = obs::MetricRegistry::Global().Snapshot();
    char totals[256];
    std::snprintf(totals, sizeof(totals),
                  "{\"totals\":{\"handshake_s\":%.9f,"
                  "\"client_encrypt_s\":%.9f,\"communication_s\":%.9f,"
                  "\"client_decrypt_s\":%.9f},\"queries\":%llu}\n",
                  SpanSeconds(snapshot, obs::kSpanHandshake),
                  SpanSeconds(snapshot, obs::kSpanClientEncrypt),
                  SpanSeconds(snapshot, obs::kSpanCommunication),
                  SpanSeconds(snapshot, obs::kSpanClientDecrypt),
                  static_cast<unsigned long long>(selects.size()));
    out += totals;
    if (!obs::WriteFileAtomic(trace_json_path, out)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   trace_json_path.c_str());
      return 1;
    }
  }
  return 0;
}
