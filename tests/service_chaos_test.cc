// Chaos matrix for the robustness layer: every transport fault, in
// every protocol phase, in either direction of the wire, must end in a
// typed Status on both ends — never a hang, never a crash, never a
// host that stops accepting. The host injects nothing itself: each
// chaos client wraps its channel in a two-way FaultInjectingChannel, so
// faulting a frame it receives stands in for the server sending it
// damaged. Faults come from seeded ChaCha20 RNGs, so each scenario is
// reproducible bit for bit.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <thread>

#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "net/fault_injection.h"

namespace ppstats {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

// Sanitizer instrumentation slows the crypto between frames by an
// order of magnitude; scale every deadline accordingly so the timing
// assertions keep testing the eviction logic, not the sanitizer
// overhead.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PPSTATS_SANITIZER_SLOWDOWN 1
#endif
#endif
#if !defined(PPSTATS_SANITIZER_SLOWDOWN) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define PPSTATS_SANITIZER_SLOWDOWN 1
#endif
#if defined(PPSTATS_SANITIZER_SLOWDOWN)
constexpr uint32_t kTimeScale = 10;
#else
constexpr uint32_t kTimeScale = 1;
#endif

// Short server-side deadline so dropped/stalled frames evict quickly; a
// longer client-side one so the client outlives the eviction and reads
// the server's parting Error frame.
constexpr uint32_t kServerDeadlineMs = 150 * kTimeScale;
constexpr milliseconds kClientDeadline(2000 * kTimeScale);
constexpr size_t kRows = 12;
constexpr size_t kChunk = 4;  // 3 IndexBatch frames per query

// A chaos client's session in the order its decorator sees the frames:
// 0 ClientHello, 1 ServerHello, 2 QueryHeader, 3 QueryAccept, 4..6 the
// IndexBatch chunks, 7 SumResponse, 8 Goodbye.
constexpr uint64_t kSessionFrames = 9;
constexpr uint64_t kSentFrames[] = {0, 2, 4, 5, 6, 8};
constexpr uint64_t kReceivedFrames[] = {1, 3, 7};

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(8080);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

class ServiceChaosTest : public ::testing::Test {
 protected:
  std::string SocketPath(const std::string& name) const {
    return std::string(::testing::TempDir()) + "/" + name + ".sock";
  }
};

bool WaitFor(const std::function<bool()>& pred,
             milliseconds timeout = seconds(10 * kTimeScale)) {
  auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return pred();
}

size_t CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

// Every way a chaos session may legitimately end. A hang trips the
// channel deadlines, a crash fails the test outright; anything decoded
// here is a clean, typed outcome.
bool IsTypedOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
    case StatusCode::kCryptoError:
    case StatusCode::kProtocolError:
    case StatusCode::kSerializationError:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
  }
  return false;
}

Database TestColumn() {
  std::vector<uint32_t> values(kRows);
  for (size_t i = 0; i < kRows; ++i) values[i] = static_cast<uint32_t>(10 + i);
  return Database("col", values);
}

// One full client run (hello, one sum query, goodbye) with deadlines
// armed and optional fault injection on both directions of the client's
// channel. Returns the first non-OK status the protocol produced, or OK.
Status RunChaosClient(const std::string& path,
                      const std::optional<FaultInjectionOptions>& faults,
                      uint64_t seed,
                      FaultCounters* injected = nullptr) {
  Result<std::unique_ptr<Channel>> dialed = ConnectChannel("unix:" + path);
  if (!dialed.ok()) return dialed.status();
  (*dialed)->set_read_deadline(kClientDeadline);
  (*dialed)->set_write_deadline(kClientDeadline);

  ChaCha20Rng fault_rng(seed);
  std::optional<FaultInjectingChannel> faulty;
  Channel* channel = dialed->get();
  if (faults.has_value()) {
    faulty.emplace(std::move(*dialed), *faults, fault_rng);
    channel = &*faulty;
  }

  ChaCha20Rng rng(seed + 9000);
  ClientSessionOptions options;
  options.chunk_size = kChunk;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  Status status = session.Connect(*channel);
  if (status.ok()) {
    SelectionVector sel(kRows, false);
    for (size_t i = seed % 3; i < kRows; i += 2) sel[i] = true;
    status = session.RunQuery(QuerySpec{}, sel).status();
  }
  if (status.ok()) status = session.Finish();
  if (injected != nullptr && faulty.has_value()) {
    *injected = faulty->counters();
  }
  return status;
}

// A fault-free client that must succeed end to end — the proof that the
// host is still healthy after a chaos scenario.
void ExpectCleanClientServed(const std::string& path, uint64_t seed) {
  Status status = RunChaosClient(path, std::nullopt, seed);
  EXPECT_TRUE(status.ok()) << "clean client after chaos: "
                           << status.ToString();
}

// One-shot fault of `kind` at 0-indexed frame `index` of the client's
// session (both directions counted; see kSessionFrames).
FaultInjectionOptions FaultAtFrame(FaultKind kind, uint64_t index) {
  FaultInjectionOptions options;
  options.fault_rate = 1.0;
  options.max_faults = 1;
  options.skip_frames = index;
  // A delay longer than the server's deadline turns kDelay into a
  // deadline-expiry probe for that phase.
  options.delay_ms = 3 * kServerDeadlineMs;
  options.delay = kind == FaultKind::kDelay;
  options.truncate = kind == FaultKind::kTruncate;
  options.garble = kind == FaultKind::kGarble;
  options.drop = kind == FaultKind::kDrop;
  options.disconnect = kind == FaultKind::kDisconnect;
  return options;
}

constexpr FaultKind kAllKinds[] = {FaultKind::kDelay, FaultKind::kTruncate,
                                   FaultKind::kGarble, FaultKind::kDrop,
                                   FaultKind::kDisconnect};

// Faults each of `frames` with every fault kind, one client per case,
// against one host that must keep serving clean clients throughout.
void RunFaultMatrix(const std::string& path,
                    std::span<const uint64_t> frames, uint64_t seed) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = kServerDeadlineMs;
  ServiceHost host(&registry, options);
  ASSERT_TRUE(host.Start(path).ok());

  // The frame map the indices rely on: a fault-free session through the
  // decorator counts every frame of both directions.
  FaultInjectionOptions none;
  none.fault_rate = 0.0;
  FaultCounters counted;
  ASSERT_TRUE(RunChaosClient(path, none, seed, &counted).ok());
  ASSERT_EQ(counted.frames, kSessionFrames);

  uint64_t chaos_runs = 0;
  for (FaultKind kind : kAllKinds) {
    for (uint64_t index : frames) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " frame=" + std::to_string(index));
      FaultCounters injected;
      Status status =
          RunChaosClient(path, FaultAtFrame(kind, index), ++seed, &injected);
      EXPECT_TRUE(IsTypedOutcome(status)) << status.ToString();
      EXPECT_EQ(injected.faults(), 1u);
      ++chaos_runs;
      ASSERT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
      ExpectCleanClientServed(path, 10000 + seed);
    }
  }
  EXPECT_TRUE(host.running());
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  // Every chaos connect plus every clean verifier (and the frame-map
  // run) was accepted, and all the clean ones ended ok.
  EXPECT_EQ(stats.sessions_accepted, 2 * chaos_runs + 1);
  EXPECT_GE(stats.sessions_ok, chaos_runs + 1);
}

TEST_F(ServiceChaosTest, ClientSideFaultMatrix) {
  // Every frame the client sends: ClientHello, QueryHeader, each chunk,
  // Goodbye.
  RunFaultMatrix(SocketPath("chaos_client_matrix"), kSentFrames, 100);
}

TEST_F(ServiceChaosTest, ServerSideFaultMatrix) {
  // Every frame the server sends, faulted as the client receives it:
  // ServerHello, QueryAccept, SumResponse.
  RunFaultMatrix(SocketPath("chaos_server_matrix"), kReceivedFrames, 500);
}

TEST_F(ServiceChaosTest, SixteenSeedRandomSweep) {
  // Random faults (all kinds, 20% per frame) across a fixed sweep of 16
  // seeds: every run must terminate typed and leave the host serving.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = kServerDeadlineMs;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_sweep");
  ASSERT_TRUE(host.Start(path).ok());

  for (uint64_t s = 0; s < 16; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    FaultInjectionOptions faults;
    faults.fault_rate = 0.2;
    faults.delay_ms = 30;  // shorter than the deadline: delays alone pass
    Status status = RunChaosClient(path, faults, s);
    EXPECT_TRUE(IsTypedOutcome(status)) << status.ToString();
    ASSERT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  }
  ExpectCleanClientServed(path, 424242);
  EXPECT_TRUE(host.running());
  host.Stop();
  EXPECT_EQ(host.SnapshotStats().sessions_accepted, 17u);
}

TEST_F(ServiceChaosTest, TruncatedHeaderThenSilenceIsEvicted) {
  // A raw peer that sends a length header promising a frame it never
  // delivers must be evicted by the I/O deadline, with the typed Error
  // frame on the wire, and the host must keep accepting.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = kServerDeadlineMs;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_header");
  ASSERT_TRUE(host.Start(path).ok());

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const uint8_t header[4] = {0, 0, 3, 0xE8};  // "1000 bytes follow" — no
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 4);

  // The eviction Error frame arrives once the server's deadline fires.
  auto evicted = WrapSocket(fd);
  evicted->set_read_deadline(kClientDeadline);
  Result<Bytes> frame = evicted->Receive();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));

  ExpectCleanClientServed(path, 77);
  host.Stop();
  EXPECT_EQ(host.SnapshotStats().sessions_evicted, 1u);
}

TEST_F(ServiceChaosTest, ThirtyTwoConcurrentClientsUnderOnePercentFaults) {
  // The acceptance run: 32 concurrent clients, each faulting both
  // directions of its wire at ~1% per frame. Every client must terminate
  // with a typed status, no thread may leak, and the host must serve a
  // clean client afterwards.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = 500 * kTimeScale;
  options.worker_threads = 2;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_32");
  ASSERT_TRUE(host.Start(path).ok());

  // One warm-up session spins up the shared fold ThreadPool, whose
  // threads persist by design; only then is the thread count a valid
  // leak baseline for the storm.
  ExpectCleanClientServed(path, 1);
  ASSERT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  size_t baseline = CountProcessThreads();

  constexpr int kClients = 32;
  std::vector<Status> outcomes(kClients, Status::OK());
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FaultInjectionOptions client_faults;  // defaults: 1%, all kinds
      client_faults.delay_ms = 20;
      outcomes[static_cast<size_t>(c)] =
          RunChaosClient(path, client_faults, 2000 + c);
    });
  }
  for (std::thread& t : clients) t.join();

  size_t ok_count = 0;
  for (int c = 0; c < kClients; ++c) {
    const Status& status = outcomes[static_cast<size_t>(c)];
    EXPECT_TRUE(IsTypedOutcome(status))
        << "client " << c << ": " << status.ToString();
    if (status.ok()) ++ok_count;
  }
  // At 1% per frame most sessions sail through untouched.
  EXPECT_GT(ok_count, kClients / 2);

  // Zero leaked threads: the reaper returns the process to its
  // pre-storm thread count without a Stop().
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return CountProcessThreads() <= baseline; }));
  EXPECT_TRUE(host.running());

  // The host must still accept and serve: this session is fault-free
  // in both directions, so it succeeds outright.
  ExpectCleanClientServed(path, 999);
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kClients) + 2);
  // Every accepted session resolved one way or the other — none hang.
  EXPECT_EQ(stats.sessions_ok + stats.sessions_failed,
            stats.sessions_accepted);
}

}  // namespace
}  // namespace ppstats
