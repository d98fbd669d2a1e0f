// ppstats_loadgen: the closed-loop load generator behind perfbench/run.py.
//
//   ppstats_loadgen --workload paper|served|churn|cluster --seed <n>
//                   --uri <endpoint> --column <name>=<file>[+<file>...]
//                   [--spans <path>]
//
// It generates its Paillier keys and index vectors from --seed, dials
// the already-running server (or coordinator) at --uri, and talks to
// run.py over stdin/stdout, one command or reply per line:
//
//   -> READY {json}        keys made, uploads pre-encrypted, every
//                          connection open and one checked warm-up
//                          query answered on each
//   <- RUN <seconds> <traced 0|1> <composed 0|1>
//                          one closed-loop timed phase; composed = 1
//                          makes paper drive the calls RunQuery
//                          composes even when untraced
//   -> DONE {json}         counts, latency samples, client CPU, wire
//   <- REPLAY              in-process decode/fold replay of the
//   -> REPLAYED {json}     workload's own upload frames
//   <- QUIT                write spans (--spans) and exit
//
// Every answer is decrypted and compared with the plaintext sum over
// the column files; a mismatch counts as a failed query. Spans are kept
// in memory per worker thread and written as JSONL only at QUIT, so a
// traced phase pays a clock read and a vector append per span.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "core/messages.h"
#include "core/query.h"
#include "core/selected_sum.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "crypto/paillier.h"
#include "db/database.h"
#include "db/io.h"
#include "net/socket_channel.h"
#include "obs/metrics.h"

namespace {

using ppstats::BigInt;
using ppstats::Bytes;
using ppstats::Channel;
using ppstats::ChaCha20Rng;
using ppstats::Database;
using ppstats::MessageType;
using ppstats::PaillierPrivateKey;
using ppstats::Result;
using ppstats::SelectionVector;
using ppstats::StatisticKind;
using ppstats::Status;
using Clock = std::chrono::steady_clock;

constexpr size_t kKeyBits = 512;  // the paper's key size

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- spans

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index into the same thread's span list, -1 = root
  uint64_t query;  // 0 = not part of a query (session, setup)
};

/// Per-thread span list. Workers hold a null Tracer* while untraced,
/// so the untraced path pays one branch per would-be span.
class Tracer {
 public:
  int64_t Begin(const char* name, uint64_t query, int64_t parent) {
    spans_.push_back({name, NowNs(), 0, parent, query});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, query, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ------------------------------------------------------------ workloads

/// One statistic a workload asks for: kind over a named column.
struct QueryDef {
  StatisticKind kind;
  std::string column;
};

struct WorkloadSpec {
  size_t connections = 1;
  bool shared_key = true;
  size_t chunk = 0;                // rows per IndexBatch frame
  size_t uploads_per_connection;   // pre-encrypted uploads; 0 = fresh
  size_t queries_per_session = 0;  // 0 = one persistent session
  bool reduce_mod_2_64 = false;    // blinded cluster answers
  std::vector<QueryDef> queries;   // cycled per connection
};

std::optional<WorkloadSpec> LookupWorkload(const std::string& name) {
  WorkloadSpec spec;
  if (name == "paper") {
    spec.chunk = 100;
    spec.uploads_per_connection = 0;
    spec.queries = {{StatisticKind::kSum, "v"}};
  } else if (name == "served") {
    spec.connections = 3;
    spec.chunk = 512;
    spec.uploads_per_connection = 1;
    spec.queries = {{StatisticKind::kSum, "age"},
                    {StatisticKind::kSumOfSquares, "income"}};
  } else if (name == "churn") {
    spec.connections = 2;
    spec.shared_key = false;
    spec.chunk = 64;
    spec.uploads_per_connection = 8;
    spec.queries_per_session = 4;
    spec.queries = {{StatisticKind::kSum, "v"}};
  } else if (name == "cluster") {
    spec.connections = 2;
    spec.shared_key = false;
    spec.chunk = 512;
    spec.uploads_per_connection = 1;
    spec.reduce_mod_2_64 = true;
    spec.queries = {{StatisticKind::kSum, "age"}};
  } else {
    return std::nullopt;
  }
  return spec;
}

/// Plaintext answer of `def` over `selection`: what the decrypted
/// response must equal. Column values are small enough (run.py keeps
/// x^2 * rows below 2^64) that uint64 arithmetic is exact.
uint64_t PlainAnswer(const Database& column, StatisticKind kind,
                     const SelectionVector& selection) {
  uint64_t sum = 0;
  for (size_t i = 0; i < selection.size(); ++i) {
    if (!selection[i]) continue;
    const uint64_t x = column.values()[i];
    sum += kind == StatisticKind::kSumOfSquares ? x * x : x;
  }
  return sum;
}

/// A pre-encrypted index vector, replayed verbatim on every use.
struct Upload {
  SelectionVector selection;
  std::vector<Bytes> frames;     // encoded IndexBatch frames
  std::vector<uint64_t> expect;  // per WorkloadSpec::queries entry
};

struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sessions = 0;
  uint64_t replayed_uploads = 0;
  uint64_t fresh_uploads = 0;
  std::vector<double> latencies_ms;
  std::vector<uint64_t> ends_ns;  // completion time of each sample
  std::vector<std::string> errors;  // first few, for diagnosis
};

/// When a timed phase ends; shared by the phase's worker threads.
class PhaseClock {
 public:
  explicit PhaseClock(double seconds)
      : deadline_(Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds))) {}
  bool KeepGoing() const { return Clock::now() < deadline_; }

 private:
  Clock::time_point deadline_;
};

class Worker {
 public:
  Worker(const WorkloadSpec& spec, size_t index, uint64_t seed,
         const std::string& uri,
         const std::vector<std::pair<std::string, Database>>& columns)
      : spec_(spec),
        index_(index),
        rng_(seed * 1000003u + 17u * (index + 1)),
        uri_(uri),
        columns_(columns) {}

  ChaCha20Rng& rng() { return rng_; }
  void set_key(const PaillierPrivateKey* key) { key_ = key; }
  const PaillierPrivateKey& key() const { return *key_; }
  Tracer& tracer() { return tracer_; }
  const PhaseStats& stats() const { return stats_; }
  const std::vector<Upload>& uploads() const { return uploads_; }
  const Upload& last_fresh() const { return last_fresh_; }

  const Database& Column(const std::string& name) const {
    for (const auto& [column_name, db] : columns_) {
      if (column_name == name) return db;
    }
    std::fprintf(stderr, "loadgen: no column %s\n", name.c_str());
    std::exit(2);
  }

  /// Draws this worker's replayed index vectors and their plaintext
  /// answers (setup). EncryptChunk fills in the frames.
  void DrawUploads() {
    const size_t rows = Column(spec_.queries.front().column).size();
    for (size_t u = 0; u < spec_.uploads_per_connection; ++u) {
      Upload upload;
      upload.selection = DrawSelection(rows);
      for (const QueryDef& def : spec_.queries) {
        upload.expect.push_back(
            PlainAnswer(Column(def.column), def.kind, upload.selection));
      }
      upload.frames.resize((rows + spec_.chunk - 1) / spec_.chunk);
      uploads_.push_back(std::move(upload));
    }
  }

  /// Encrypts frame `c` of upload `u` with SumClient::NextRequest (the
  /// client's public encryption entry point), placing the chunk by
  /// index_offset so that chunks can be encrypted on several threads.
  /// Each chunk draws from its own stream derived from `seed`.
  Status EncryptChunk(size_t u, size_t c, uint64_t seed) {
    Upload& upload = uploads_[u];
    const size_t begin = c * spec_.chunk;
    const size_t end = std::min(begin + spec_.chunk, upload.selection.size());
    SelectionVector part(upload.selection.begin() + begin,
                         upload.selection.begin() + end);
    ppstats::SumClientOptions options;
    options.index_offset = begin;
    ChaCha20Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (1 + index_) +
                            0xbf58476d1ce4e5b9ull * (1 + u) + c));
    ppstats::SumClient client(*key_, part, options, rng);
    PPSTATS_ASSIGN_OR_RETURN(upload.frames[c], client.NextRequest());
    return Status::OK();
  }

  /// Opens the persistent session and answers one checked query on
  /// it (churn: one whole short session).
  Status Warmup() {
    PhaseStats warmup;
    std::swap(warmup, stats_);
    Status status = Status::OK();
    if (spec_.queries_per_session > 0) {
      RunShortSession(&tracer_);
    } else {
      status = Reconnect(&tracer_);
      if (status.ok()) RunOneQuery(nullptr);
    }
    std::swap(warmup, stats_);
    if (!status.ok()) return status;
    if (warmup.failed > 0) {
      return Status::Internal("warm-up query failed: " +
                              warmup.errors.front());
    }
    return Status::OK();
  }

  /// Closed loop until the clock's deadline: each query waits for the
  /// previous answer. Short sessions always run to completion.
  void RunPhase(const PhaseClock& clock, Tracer* tracer, bool composed) {
    stats_ = PhaseStats{};
    composed_ = composed;
    while (clock.KeepGoing()) {
      if (spec_.queries_per_session > 0) {
        RunShortSession(tracer);
      } else {
        RunOneQuery(tracer);
      }
    }
    composed_ = false;
  }

  /// Sends Goodbye on the persistent session, if any.
  void Close() {
    if (session_ != nullptr) session_->Finish().IgnoreError();
    if (channel_ != nullptr && session_ == nullptr) {
      channel_->Send(ppstats::GoodbyeMessage{}.Encode()).IgnoreError();
    }
    session_.reset();
    channel_.reset();
  }

 private:
  SelectionVector DrawSelection(size_t rows) {
    SelectionVector selection(rows);
    for (size_t i = 0; i < rows; ++i) selection[i] = (rng_.NextUint64() & 1);
    return selection;
  }

  /// Dials and runs the hello exchange on a fresh channel.
  Result<std::unique_ptr<Channel>> Dial(Tracer* tracer) {
    std::unique_ptr<Channel> channel;
    {
      ScopedSpan span(tracer, "net.connect", 0);
      PPSTATS_ASSIGN_OR_RETURN(channel, ppstats::ConnectChannel(uri_));
    }
    ScopedSpan span(tracer, "core.handshake", 0);
    ppstats::ClientHelloMessage hello;
    hello.protocol_version = ppstats::kSessionProtocolV2;
    hello.public_key_blob = ppstats::SerializePublicKey(key_->public_key());
    PPSTATS_RETURN_IF_ERROR(channel->Send(hello.Encode()));
    PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel->Receive());
    PPSTATS_ASSIGN_OR_RETURN(MessageType type, ppstats::PeekMessageType(reply));
    if (type == MessageType::kError) return ppstats::StatusFromErrorFrame(reply);
    PPSTATS_ASSIGN_OR_RETURN(ppstats::ServerHelloMessage server_hello,
                             ppstats::ServerHelloMessage::Decode(reply));
    if (server_hello.protocol_version != ppstats::kSessionProtocolV2) {
      return Status::ProtocolError("server did not negotiate v2");
    }
    return channel;
  }

  /// (Re)opens the persistent session. The paper workload keeps a
  /// QuerySession on top of the channel for its untraced queries.
  Status Reconnect(Tracer* tracer) {
    session_.reset();
    channel_.reset();
    if (spec_.uploads_per_connection == 0) {
      {
        ScopedSpan span(tracer, "net.connect", 0);
        PPSTATS_ASSIGN_OR_RETURN(channel_, ppstats::ConnectChannel(uri_));
      }
      ScopedSpan span(tracer, "core.handshake", 0);
      ppstats::ClientSessionOptions options;
      options.chunk_size = spec_.chunk;
      session_ = std::make_unique<ppstats::QuerySession>(*key_, rng_, options);
      return session_->Connect(*channel_);
    }
    PPSTATS_ASSIGN_OR_RETURN(channel_, Dial(tracer));
    return Status::OK();
  }

  /// connect, hello, queries_per_session queries, Goodbye, close.
  void RunShortSession(Tracer* tracer) {
    ++stats_.sessions;
    ScopedSpan session_span(tracer, "session", 0);
    Result<std::unique_ptr<Channel>> channel = Dial(tracer);
    if (!channel.ok()) {
      Fail(channel.status());
      return;
    }
    channel_ = std::move(*channel);
    for (size_t q = 0; q < spec_.queries_per_session; ++q) {
      if (!RunOneQuery(tracer)) return;  // channel is gone
    }
    channel_->Send(ppstats::GoodbyeMessage{}.Encode()).IgnoreError();
    channel_.reset();
  }

  void Fail(const Status& status) {
    ++stats_.attempted;
    ++stats_.failed;
    if (stats_.errors.size() < 4) stats_.errors.push_back(status.ToString());
  }

  /// One query, timed from the QueryHeader send to the checked answer.
  /// Returns false when the query failed (the channel is dropped).
  bool RunOneQuery(Tracer* tracer) {
    if (channel_ == nullptr) {
      Status status = Reconnect(tracer);
      if (!status.ok()) {
        Fail(status);
        return false;
      }
    }
    const size_t def_index = next_def_++ % spec_.queries.size();
    const QueryDef& def = spec_.queries[def_index];
    const uint64_t query_id = (static_cast<uint64_t>(index_) << 32) | ++query_seq_;
    Status status = Status::OK();
    const uint64_t start = NowNs();
    {
      ScopedSpan query_span(tracer, "query", query_id);
      if (spec_.uploads_per_connection == 0) {
        status = FreshQuery(def, tracer, query_id, query_span.id());
      } else {
        const Upload& upload =
            uploads_[next_upload_++ % uploads_.size()];
        status = ReplayQuery(def, upload, upload.expect[def_index], tracer,
                             query_id, query_span.id());
      }
    }
    const uint64_t end = NowNs();
    if (!status.ok()) {
      Fail(status);
      session_.reset();
      channel_.reset();
      return false;
    }
    ++stats_.attempted;
    stats_.latencies_ms.push_back(static_cast<double>(end - start) * 1e-6);
    stats_.ends_ns.push_back(end);
    return true;
  }

  Status CheckAnswer(const BigInt& got, uint64_t expect) {
    BigInt value = got;
    if (spec_.reduce_mod_2_64) value = value % (BigInt(1) << 64);
    if (value == BigInt(expect)) return Status::OK();
    return Status::Internal("wrong sum: got " + value.ToDecimal() +
                            ", expected " + std::to_string(expect));
  }

  /// QueryHeader -> QueryAccept round trip.
  Status OpenQuery(const QueryDef& def, size_t rows, Tracer* tracer,
                   uint64_t query, int64_t parent) {
    ScopedSpan span(tracer, "core.header_rtt", query, parent);
    ppstats::QueryHeaderMessage header;
    header.kind = static_cast<uint8_t>(def.kind);
    header.column = def.column;
    PPSTATS_RETURN_IF_ERROR(channel_->Send(header.Encode()));
    PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel_->Receive());
    PPSTATS_ASSIGN_OR_RETURN(MessageType type, ppstats::PeekMessageType(reply));
    if (type == MessageType::kError) return ppstats::StatusFromErrorFrame(reply);
    PPSTATS_ASSIGN_OR_RETURN(ppstats::QueryAcceptMessage accept,
                             ppstats::QueryAcceptMessage::Decode(reply));
    if (accept.rows != rows) {
      return Status::ProtocolError("server announced " +
                                   std::to_string(accept.rows) + " rows");
    }
    return Status::OK();
  }

  Result<BigInt> AwaitAnswer(Tracer* tracer, uint64_t query, int64_t parent) {
    Bytes response;
    {
      ScopedSpan span(tracer, "net.wait", query, parent);
      PPSTATS_ASSIGN_OR_RETURN(response, channel_->Receive());
    }
    ScopedSpan span(tracer, "crypto.decrypt", query, parent);
    PPSTATS_ASSIGN_OR_RETURN(MessageType type,
                             ppstats::PeekMessageType(response));
    if (type == MessageType::kError) {
      return ppstats::StatusFromErrorFrame(response);
    }
    PPSTATS_ASSIGN_OR_RETURN(
        ppstats::SumResponseMessage message,
        ppstats::SumResponseMessage::Decode(key_->public_key(), response));
    return ppstats::Paillier::Decrypt(*key_, message.sum);
  }

  Status ReplayQuery(const QueryDef& def, const Upload& upload,
                     uint64_t expect, Tracer* tracer, uint64_t query,
                     int64_t parent) {
    ++stats_.replayed_uploads;
    PPSTATS_RETURN_IF_ERROR(
        OpenQuery(def, upload.selection.size(), tracer, query, parent));
    for (const Bytes& frame : upload.frames) {
      ScopedSpan span(tracer, "net.send", query, parent);
      PPSTATS_RETURN_IF_ERROR(channel_->Send(frame));
    }
    PPSTATS_ASSIGN_OR_RETURN(BigInt got, AwaitAnswer(tracer, query, parent));
    return CheckAnswer(got, expect);
  }

  /// The paper workload: a fresh selection, encrypted online. Normally
  /// it is one QuerySession::RunQuery; traced (or composed, for the
  /// untraced phases of a traced run) it drives the calls RunQuery
  /// composes (header round trip, SumClient::NextRequest, Channel::Send,
  /// Channel::Receive, decrypt) so each can be timed.
  Status FreshQuery(const QueryDef& def, Tracer* tracer, uint64_t query,
                    int64_t parent) {
    ++stats_.fresh_uploads;
    const Database& column = Column(def.column);
    SelectionVector selection = DrawSelection(column.size());
    const uint64_t expect = PlainAnswer(column, def.kind, selection);
    if (tracer == nullptr && !composed_) {
      ppstats::QuerySpec spec;
      spec.kind = def.kind;
      spec.column = def.column;
      PPSTATS_ASSIGN_OR_RETURN(BigInt got, session_->RunQuery(spec, selection));
      return CheckAnswer(got, expect);
    }
    PPSTATS_RETURN_IF_ERROR(
        OpenQuery(def, column.size(), tracer, query, parent));
    ppstats::SumClientOptions options;
    options.chunk_size = spec_.chunk;
    ppstats::SumClient client(*key_, selection, options, rng_);
    last_fresh_.frames.clear();
    while (!client.RequestsDone()) {
      Bytes frame;
      {
        ScopedSpan span(tracer, "crypto.encrypt", query, parent);
        PPSTATS_ASSIGN_OR_RETURN(frame, client.NextRequest());
      }
      ScopedSpan span(tracer, "net.send", query, parent);
      PPSTATS_RETURN_IF_ERROR(channel_->Send(frame));
      last_fresh_.frames.push_back(std::move(frame));
    }
    PPSTATS_ASSIGN_OR_RETURN(BigInt got, AwaitAnswer(tracer, query, parent));
    last_fresh_.expect = {expect};
    last_fresh_.selection = std::move(selection);
    return CheckAnswer(got, expect);
  }

  const WorkloadSpec& spec_;
  size_t index_;
  ChaCha20Rng rng_;
  std::string uri_;
  const std::vector<std::pair<std::string, Database>>& columns_;
  const PaillierPrivateKey* key_ = nullptr;
  std::vector<Upload> uploads_;
  Upload last_fresh_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<ppstats::QuerySession> session_;
  Tracer tracer_;
  PhaseStats stats_;
  bool composed_ = false;
  size_t next_def_ = 0;
  size_t next_upload_ = 0;
  uint64_t query_seq_ = 0;
};

// -------------------------------------------------------------- helpers

/// Sum of the loadgen process's own counters with one of `prefixes`.
uint64_t CounterSum(const ppstats::obs::MetricsSnapshot& snapshot,
                    const std::vector<std::string>& prefixes) {
  uint64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) {
    for (const std::string& prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) total += value;
    }
  }
  return total;
}

struct ClientCounters {
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t mont_ops = 0;
  uint64_t deadline_expirations = 0;

  static ClientCounters Read() {
    const ppstats::obs::MetricsSnapshot snapshot =
        ppstats::obs::MetricRegistry::Global().Snapshot();
    ClientCounters c;
    c.bytes = CounterSum(snapshot, {"net.bytes_sent", "net.bytes_received"});
    c.frames = CounterSum(snapshot, {"net.frames_sent", "net.frames_received"});
    c.mont_ops = CounterSum(snapshot, {"mont.mul_ops.", "mont.sqr_ops."});
    c.deadline_expirations =
        CounterSum(snapshot, {"net.deadline_expirations"});
    return c;
  }
};

std::string JsonNumberList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

using Workers = std::vector<std::unique_ptr<Worker>>;

/// Runs fn(worker) on one thread per worker and joins them.
template <typename Fn>
void ForEachWorker(Workers& workers, Fn fn) {
  std::vector<std::thread> threads;
  for (auto& worker : workers) {
    threads.emplace_back([&fn, w = worker.get()] { fn(*w); });
  }
  for (std::thread& t : threads) t.join();
}

/// CPUs this process may run on (run.py confines each process).
size_t AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Encrypts every chunk of every worker's uploads, each chunk one task,
/// on at most one thread per allowed CPU.
bool PreEncrypt(Workers& workers, uint64_t seed) {
  std::vector<std::tuple<Worker*, size_t, size_t>> tasks;
  for (auto& w : workers) {
    w->DrawUploads();
    for (size_t u = 0; u < w->uploads().size(); ++u) {
      for (size_t c = 0; c < w->uploads()[u].frames.size(); ++c) {
        tasks.emplace_back(w.get(), u, c);
      }
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  const size_t nthreads = std::min(AllowedCpus(), tasks.size());
  for (size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < tasks.size(); i = next++) {
        auto [w, u, c] = tasks[i];
        Status status = w->EncryptChunk(u, c, seed);
        if (!status.ok()) {
          ok = false;
          std::fprintf(stderr, "loadgen: pre-encrypt: %s\n",
                       status.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

/// One closed-loop timed phase on every worker; returns the DONE reply.
std::string TimedPhase(Workers& workers, double seconds, bool traced,
                       bool composed) {
  const ClientCounters before = ClientCounters::Read();
  const double cpu_before = ProcessCpuSeconds();
  const uint64_t start_ns = NowNs();
  const PhaseClock clock(seconds);
  ForEachWorker(workers, [&](Worker& w) {
    w.RunPhase(clock, traced ? &w.tracer() : nullptr, composed);
  });
  const uint64_t end_ns = NowNs();
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  const ClientCounters after = ClientCounters::Read();

  PhaseStats total;
  std::vector<double> ends_ms;
  std::string errors = "[";
  for (auto& w : workers) {
    const PhaseStats& s = w->stats();
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.sessions += s.sessions;
    total.replayed_uploads += s.replayed_uploads;
    total.fresh_uploads += s.fresh_uploads;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              s.latencies_ms.begin(), s.latencies_ms.end());
    for (uint64_t end : s.ends_ns) {
      ends_ms.push_back(static_cast<double>(end - start_ns) * 1e-6);
    }
    for (const std::string& e : s.errors) {
      errors += (errors.size() > 1 ? "," : "") + JsonString(e);
    }
  }
  errors += "]";
  char head[1024];
  std::snprintf(
      head, sizeof(head),
      "DONE {\"wall_s\": %.9f, \"start_ns\": %llu, \"end_ns\": %llu, "
      "\"attempted\": %llu, \"failed\": %llu, \"sessions\": %llu, "
      "\"replayed_uploads\": %llu, \"fresh_uploads\": %llu, "
      "\"cpu_s\": %.9f, \"bytes\": %llu, \"frames\": %llu, "
      "\"mont_ops\": %llu, \"deadline_expirations\": %llu, ",
      static_cast<double>(end_ns - start_ns) * 1e-9,
      static_cast<unsigned long long>(start_ns),
      static_cast<unsigned long long>(end_ns),
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.failed),
      static_cast<unsigned long long>(total.sessions),
      static_cast<unsigned long long>(total.replayed_uploads),
      static_cast<unsigned long long>(total.fresh_uploads), cpu_s,
      static_cast<unsigned long long>(after.bytes - before.bytes),
      static_cast<unsigned long long>(after.frames - before.frames),
      static_cast<unsigned long long>(after.mont_ops - before.mont_ops),
      static_cast<unsigned long long>(after.deadline_expirations -
                                      before.deadline_expirations));
  return std::string(head) + "\"errors\": " + errors +
         ", \"latencies_ms\": " + JsonNumberList(total.latencies_ms) +
         ", \"ends_ms\": " + JsonNumberList(ends_ms) + "}";
}

/// Replays each distinct upload (or, for fresh uploads, the last one)
/// through the public codec and SumServer::HandleRequest in this
/// process, timing decode apart from the whole server step, and checks
/// the decrypted result; returns the REPLAYED reply.
std::string Replay(Workers& workers, const WorkloadSpec& spec) {
  double decode_ns = 0, sum_server_ns = 0;
  size_t replays = 0;
  bool ok = true;
  for (auto& w : workers) {
    std::vector<const Upload*> uploads;
    for (const Upload& u : w->uploads()) uploads.push_back(&u);
    if (uploads.empty() && !w->last_fresh().frames.empty()) {
      uploads.push_back(&w->last_fresh());
    }
    const PaillierPrivateKey& key = w->key();
    const ppstats::PaillierPublicKey& pub = key.public_key();
    for (const Upload* upload : uploads) {
      for (size_t d = 0; d < upload->expect.size(); ++d) {
        uint64_t t0 = NowNs();
        for (const Bytes& frame : upload->frames) {
          ok &= ppstats::IndexBatchMessage::Decode(pub, frame).ok();
        }
        decode_ns += static_cast<double>(NowNs() - t0);
        ppstats::QuerySpec query;
        query.kind = spec.queries[d].kind;
        Result<ppstats::CompiledQuery> compiled =
            ppstats::CompileQuery(query, &w->Column(spec.queries[d].column));
        if (!compiled.ok()) return "REPLAYED {\"ok\": false}";
        ppstats::SumServer server(pub, *compiled, 1);
        std::optional<Bytes> response;
        t0 = NowNs();
        for (const Bytes& frame : upload->frames) {
          Result<std::optional<Bytes>> r = server.HandleRequest(frame);
          if (!r.ok()) return "REPLAYED {\"ok\": false}";
          if (r->has_value()) response = std::move(**r);
        }
        sum_server_ns += static_cast<double>(NowNs() - t0);
        ++replays;
        if (!response.has_value()) return "REPLAYED {\"ok\": false}";
        Result<ppstats::SumResponseMessage> message =
            ppstats::SumResponseMessage::Decode(pub, *response);
        Result<BigInt> got =
            message.ok() ? ppstats::Paillier::Decrypt(key, message->sum)
                         : Result<BigInt>(message.status());
        ok &= got.ok() && *got == BigInt(upload->expect[d]);
      }
    }
  }
  const double n = replays > 0 ? static_cast<double>(replays) : 1.0;
  char out[256];
  std::snprintf(out, sizeof(out),
                "REPLAYED {\"ok\": %s, \"replays\": %zu, "
                "\"decode_ms\": %.9f, \"sum_server_ms\": %.9f}",
                ok && replays > 0 ? "true" : "false", replays,
                decode_ns / n * 1e-6, sum_server_ns / n * 1e-6);
  return out;
}

/// Parses "<name>=<file>[+<file>...]": the files are concatenated
/// (the cluster's column is its shards' files in row order).
bool LoadColumn(const std::string& spec,
                std::vector<std::pair<std::string, Database>>* columns) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) return false;
  const std::string name = spec.substr(0, eq);
  std::vector<uint32_t> values;
  std::stringstream files(spec.substr(eq + 1));
  std::string path;
  while (std::getline(files, path, '+')) {
    Result<Database> db = ppstats::LoadDatabaseFromFile(path);
    if (!db.ok()) {
      std::fprintf(stderr, "loadgen: %s\n", db.status().ToString().c_str());
      return false;
    }
    values.insert(values.end(), db->values().begin(), db->values().end());
  }
  columns->emplace_back(name, Database(name, std::move(values)));
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ppstats_loadgen --workload paper|served|churn|cluster "
               "--seed <n> --uri <endpoint> --column <name>=<file>[+...] "
               "[--column ...] [--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, uri, spans_path;
  uint64_t seed = 0;
  std::vector<std::pair<std::string, Database>> columns;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--uri") {
      uri = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--column") {
      if (!LoadColumn(value, &columns)) return Usage();
    } else {
      return Usage();
    }
  }
  std::optional<WorkloadSpec> spec = LookupWorkload(workload);
  if (!spec.has_value() || uri.empty() || columns.empty()) return Usage();

  Workers workers;
  for (size_t i = 0; i < spec->connections; ++i) {
    workers.push_back(
        std::make_unique<Worker>(*spec, i, seed, uri, columns));
  }

  // Keys: one shared analyst key, or one per connection, each drawn
  // from its worker's seeded stream.
  std::vector<PaillierPrivateKey> keys(spec->shared_key ? 1 : workers.size());
  std::vector<double> keygen_ms(keys.size(), 0.0);
  for (size_t k = 0; k < keys.size(); ++k) {
    Worker& w = *workers[k];
    const uint64_t start = NowNs();
    Result<ppstats::PaillierKeyPair> pair =
        ppstats::Paillier::GenerateKeyPair(kKeyBits, w.rng());
    if (!pair.ok()) {
      std::printf("FAIL keygen: %s\n", pair.status().ToString().c_str());
      return 1;
    }
    keys[k] = std::move(pair->private_key);
    keygen_ms[k] = static_cast<double>(NowNs() - start) * 1e-6;
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    workers[i]->set_key(&keys[spec->shared_key ? 0 : i]);
  }

  const uint64_t preencrypt_start = NowNs();
  std::atomic<bool> setup_ok{PreEncrypt(workers, seed)};
  const double preencrypt_s =
      static_cast<double>(NowNs() - preencrypt_start) * 1e-9;
  ForEachWorker(workers, [&](Worker& w) {
    Status status = w.Warmup();
    if (!status.ok()) {
      setup_ok = false;
      std::fprintf(stderr, "loadgen: warm-up: %s\n", status.ToString().c_str());
    }
  });
  if (!setup_ok) {
    std::printf("FAIL setup\n");
    std::fflush(stdout);
    return 1;
  }
  double keygen_total_ms = 0;
  for (double ms : keygen_ms) keygen_total_ms += ms;
  std::printf("READY {\"keys\": %zu, \"keygen_ms\": %.6f, "
              "\"preencrypt_s\": %.6f}\n",
              keys.size(), keygen_total_ms / static_cast<double>(keys.size()),
              preencrypt_s);
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream command(line);
    std::string verb;
    command >> verb;
    if (verb == "RUN") {
      double seconds = 0;
      int traced = 0;
      int composed = 0;
      command >> seconds >> traced >> composed;
      std::printf("%s\n",
                  TimedPhase(workers, seconds, traced != 0, composed != 0)
                      .c_str());
    } else if (verb == "REPLAY") {
      std::printf("%s\n", Replay(workers, *spec).c_str());
    } else if (verb == "QUIT") {
      break;
    }
    std::fflush(stdout);
  }
  ForEachWorker(workers, [](Worker& w) { w.Close(); });

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (size_t t = 0; t < workers.size(); ++t) {
      for (const Span& s : workers[t]->tracer().spans()) {
        out << "{\"thread\":" << t << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"parent\":" << s.parent << ",\"query\":" << s.query
            << "}\n";
      }
    }
  }
  return 0;
}
