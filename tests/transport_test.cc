// Transport-layer coverage for the Endpoint/URI abstraction and the
// TCP + sharded-accept + writev-outbox stack: endpoint parsing, errno
// preservation in socket-layer errors, TCP ephemeral binds, the unix
// bind live-vs-stale probe (two-server race regression), URI dialing,
// and the reactor's partial-write backpressure paths (wire_off resume,
// gathered writev, flush deadlines on never-draining peers).

#include "net/socket_channel.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "core/selected_sum.h"
#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "db/workload.h"
#include "net/retry.h"

namespace ppstats {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

bool WaitFor(const std::function<bool()>& pred,
             milliseconds timeout = seconds(5)) {
  auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return pred();
}

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(9090);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

// ---------------------------------------------------------------------------
// Endpoint parsing

TEST(TransportEndpointTest, ParsesUnixUri) {
  Result<Endpoint> ep = ParseEndpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->kind, EndpointKind::kUnix);
  EXPECT_EQ(ep->path, "/tmp/x.sock");
  EXPECT_EQ(ep->ToUri(), "unix:/tmp/x.sock");
}

TEST(TransportEndpointTest, BarePathIsUnixShorthand) {
  Result<Endpoint> ep = ParseEndpoint("/tmp/bare.sock");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->kind, EndpointKind::kUnix);
  EXPECT_EQ(ep->path, "/tmp/bare.sock");
}

TEST(TransportEndpointTest, ParsesTcpHostPort) {
  Result<Endpoint> ep = ParseEndpoint("tcp:127.0.0.1:8080");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->kind, EndpointKind::kTcp);
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8080);
  EXPECT_EQ(ep->ToUri(), "tcp:127.0.0.1:8080");
}

TEST(TransportEndpointTest, ParsesBracketedIpv6) {
  Result<Endpoint> ep = ParseEndpoint("tcp:[::1]:9");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->kind, EndpointKind::kTcp);
  EXPECT_EQ(ep->host, "::1");
  EXPECT_EQ(ep->port, 9);
  // ToUri re-brackets the v6 literal so the URI stays parseable.
  EXPECT_EQ(ep->ToUri(), "tcp:[::1]:9");
}

TEST(TransportEndpointTest, PortZeroMeansEphemeral) {
  Result<Endpoint> ep = ParseEndpoint("tcp:localhost:0");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->port, 0);
}

TEST(TransportEndpointTest, RejectsMalformedEndpoints) {
  EXPECT_FALSE(ParseEndpoint("").ok());
  EXPECT_FALSE(ParseEndpoint("unix:").ok());
  EXPECT_FALSE(ParseEndpoint("tcp:127.0.0.1").ok());      // no port
  EXPECT_FALSE(ParseEndpoint("tcp::123").ok());           // no host
  EXPECT_FALSE(ParseEndpoint("tcp:host:http").ok());      // non-numeric
  EXPECT_FALSE(ParseEndpoint("tcp:host:70000").ok());     // out of range
  EXPECT_FALSE(ParseEndpoint("tcp:[::1]9").ok());         // missing ]:
}

// ---------------------------------------------------------------------------
// ErrnoStatus

TEST(TransportErrnoStatusTest, CarriesPrefixStrerrorAndNumber) {
  Status status = ErrnoStatus(StatusCode::kProtocolError, "send failed",
                              EPIPE);
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);
  const std::string text = status.ToString();
  EXPECT_NE(text.find("send failed"), std::string::npos) << text;
  EXPECT_NE(text.find(std::strerror(EPIPE)), std::string::npos) << text;
  EXPECT_NE(text.find("errno " + std::to_string(EPIPE)), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// TCP listener

TEST(TransportTcpTest, EphemeralBindResolvesPortAndRoundTrips) {
  Result<Endpoint> ep = ParseEndpoint("tcp:127.0.0.1:0");
  ASSERT_TRUE(ep.ok());
  Result<SocketListener> listener = SocketListener::Bind(*ep);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_NE(listener->endpoint().port, 0);  // kernel-assigned
  EXPECT_EQ(listener->endpoint().host, "127.0.0.1");

  std::thread client([&] {
    Result<std::unique_ptr<Channel>> channel =
        ConnectEndpoint(listener->endpoint());
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    ASSERT_TRUE((*channel)->Send(Bytes{1, 2, 3}).ok());
    Result<Bytes> echo = (*channel)->Receive();
    ASSERT_TRUE(echo.ok());
    EXPECT_EQ(*echo, (Bytes{4, 5}));
  });
  Result<std::optional<int>> fd = listener->AcceptFd();
  ASSERT_TRUE(fd.ok() && fd->has_value()) << fd.status().ToString();
  std::unique_ptr<Channel> server = WrapSocket(**fd);
  Result<Bytes> got = server->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (Bytes{1, 2, 3}));
  ASSERT_TRUE(server->Send(Bytes{4, 5}).ok());
  client.join();
}

TEST(TransportTcpTest, ConnectChannelRejectsUnresolvableHost) {
  EXPECT_FALSE(ConnectChannel("tcp:host.invalid:1").ok());
}

TEST(TransportTcpSessionTest, QueriesOverTcpLoopback) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("col", {10, 20, 30, 40})).ok());
  ServiceHostOptions options;
  options.default_column = "col";
  options.reactor_threads = 2;
  ServiceHost host(&registry, options);
  ASSERT_TRUE(host.Start("tcp:127.0.0.1:0").ok());
  EXPECT_EQ(host.bound_uri().rfind("tcp:127.0.0.1:", 0), 0u)
      << host.bound_uri();

  ChaCha20Rng rng(9191);
  QuerySession session(SharedKeyPair().private_key, rng, {});
  RetryOptions retry;
  ASSERT_TRUE(session.ConnectWithRetry(host.bound_uri(), retry).ok());
  SelectionVector sel = {true, false, true, false};
  Result<BigInt> value = session.RunQuery(QuerySpec{}, sel);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, BigInt(40));
  EXPECT_TRUE(session.Finish().ok());
  host.Stop();
}

// ---------------------------------------------------------------------------
// Unix bind: live-vs-stale probe (two-server race regression)

TEST(TransportUnixBindTest, StaleSocketFileIsReplaced) {
  std::string path = std::string(::testing::TempDir()) + "/stale_probe.sock";
  ::unlink(path.c_str());
  // Leave a bound-but-dead socket file behind, as a crashed server
  // would.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);

  Result<SocketListener> listener =
      SocketListener::Bind(ParseEndpoint("unix:" + path).ValueOrDie());
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
}

TEST(TransportUnixBindTest, LiveSocketRefusedAndLeftIntact) {
  // The regression under test: Bind used to unlink the path
  // unconditionally, so a second server would silently *steal* a live
  // server's socket. Now the second bind must fail AlreadyExists and
  // the first server must keep serving on the untouched path.
  std::string path = std::string(::testing::TempDir()) + "/live_probe.sock";
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("col", {7, 8})).ok());
  ServiceHostOptions options;
  options.default_column = "col";
  ServiceHost first(&registry, options);
  ASSERT_TRUE(first.Start("unix:" + path).ok());

  Result<SocketListener> second =
      SocketListener::Bind(ParseEndpoint("unix:" + path).ValueOrDie());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status().ToString();

  ServiceHost second_host(&registry, options);
  Status started = second_host.Start("unix:" + path);
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kAlreadyExists);

  // The loser must not have unlinked the winner's socket.
  ChaCha20Rng rng(9292);
  QuerySession session(SharedKeyPair().private_key, rng, {});
  RetryOptions retry;
  ASSERT_TRUE(session.ConnectWithRetry("unix:" + path, retry).ok());
  Result<BigInt> value = session.RunQuery(QuerySpec{}, {true, true});
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, BigInt(15));
  EXPECT_TRUE(session.Finish().ok());
  first.Stop();
}

// ---------------------------------------------------------------------------
// UriDialer

TEST(TransportUriDialerTest, DialsLiveServerAndFailsCleanlyOnDeadPath) {
  std::string path = std::string(::testing::TempDir()) + "/dialer.sock";
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("col", {1, 2, 3})).ok());
  ServiceHostOptions options;
  options.default_column = "col";
  ServiceHost host(&registry, options);
  ASSERT_TRUE(host.Start("unix:" + path).ok());

  DialFn dial = UriDialer("unix:" + path, /*io_deadline_ms=*/2000);
  Result<std::unique_ptr<Channel>> channel = dial();
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  host.Stop();

  DialFn dead = UriDialer("unix:" + path + ".nope");
  EXPECT_FALSE(dead().ok());
  DialFn malformed = UriDialer("tcp:nohost");
  EXPECT_FALSE(malformed().ok());
}

// ---------------------------------------------------------------------------
// Reactor backpressure: partial writes, wire_off resume, flush deadlines

/// Appends `frame` with the wire's 4-byte big-endian length prefix.
void AppendFrame(Bytes* out, const Bytes& frame) {
  const uint32_t len = static_cast<uint32_t>(frame.size());
  out->push_back(static_cast<uint8_t>(len >> 24));
  out->push_back(static_cast<uint8_t>(len >> 16));
  out->push_back(static_cast<uint8_t>(len >> 8));
  out->push_back(static_cast<uint8_t>(len));
  out->insert(out->end(), frame.begin(), frame.end());
}

struct PipelinedUpload {
  Bytes blob;                    ///< hello + queries (+ goodbye)
  std::vector<BigInt> expected;  ///< per-query plaintext answers
};

/// Pre-encodes `queries` pipelined sum queries over `db` (the raw byte
/// stream a QuerySession would produce, sent all at once).
PipelinedUpload BuildUpload(const Database& db, size_t queries,
                            bool goodbye, uint64_t seed) {
  PipelinedUpload upload;
  ChaCha20Rng rng(seed);
  WorkloadGenerator gen(rng);
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob =
      SerializePublicKey(SharedKeyPair().private_key.public_key());
  AppendFrame(&upload.blob, hello.Encode());
  for (size_t q = 0; q < queries; ++q) {
    SelectionVector sel = gen.RandomSelection(db.size(), db.size() / 2);
    upload.expected.push_back(BigInt(db.SelectedSum(sel).ValueOrDie()));
    QueryHeaderMessage header;
    header.kind = static_cast<uint8_t>(StatisticKind::kSum);
    AppendFrame(&upload.blob, header.Encode());
    SumClient client(SharedKeyPair().private_key, sel, {}, rng);
    while (!client.RequestsDone()) {
      AppendFrame(&upload.blob, client.NextRequest().ValueOrDie());
    }
  }
  if (goodbye) AppendFrame(&upload.blob, GoodbyeMessage{}.Encode());
  return upload;
}

int RawConnectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const Bytes& blob) {
  size_t sent = 0;
  while (sent < blob.size()) {
    ssize_t n =
        ::send(fd, blob.data() + sent, blob.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

TEST(TransportBackpressureTest, WritevOutboxResumesByteIdentical) {
  // A pipelined client against a tiny server SO_SNDBUF: the outbox
  // backs up mid-frame (EAGAIN at an arbitrary wire_off), and every
  // response must still arrive byte-identical once the client drains.
  const size_t kQueries = 120;
  ChaCha20Rng rng(9393);
  WorkloadGenerator gen(rng);
  Database db("col", gen.UniformDatabase(8, 100).values());
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.default_column = "col";
  options.so_sndbuf = 4096;  // force EAGAIN mid-stream
  ServiceHost host(&registry, options);
  std::string path = std::string(::testing::TempDir()) + "/bp_writev.sock";
  ASSERT_TRUE(host.Start("unix:" + path).ok());

  PipelinedUpload upload = BuildUpload(db, kQueries, /*goodbye=*/true, 42);
  int fd = RawConnectUnix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, upload.blob));
  // Let the server answer everything into the full send buffer; the
  // remainder parks in the outbox at some arbitrary wire_off.
  std::this_thread::sleep_for(milliseconds(150));

  std::unique_ptr<Channel> channel = WrapSocket(fd);
  channel->set_read_deadline(milliseconds(10000));
  Result<Bytes> hello = channel->Receive();
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  ASSERT_TRUE(ServerHelloMessage::Decode(*hello).ok());
  const PaillierPublicKey& pub = SharedKeyPair().private_key.public_key();
  for (size_t q = 0; q < kQueries; ++q) {
    Result<Bytes> accept_frame = channel->Receive();
    ASSERT_TRUE(accept_frame.ok()) << "query " << q << ": "
                                   << accept_frame.status().ToString();
    ASSERT_TRUE(QueryAcceptMessage::Decode(*accept_frame).ok());
    Result<Bytes> response_frame = channel->Receive();
    ASSERT_TRUE(response_frame.ok()) << "query " << q << ": "
                                     << response_frame.status().ToString();
    Result<SumResponseMessage> response =
        SumResponseMessage::Decode(pub, *response_frame);
    ASSERT_TRUE(response.ok()) << "query " << q;
    Result<BigInt> value =
        Paillier::Decrypt(SharedKeyPair().private_key, response->sum);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, upload.expected[q]) << "query " << q;
  }
  channel.reset();
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  host.Stop();
  obs::MetricsSnapshot snapshot = host.SnapshotMetrics();
  // The gathered flush batched at least as many frames as it made
  // syscalls.
  EXPECT_GT(snapshot.CounterValue("net.writev_calls"), 0u);
  EXPECT_GE(snapshot.CounterValue("net.writev_frames"),
            snapshot.CounterValue("net.writev_calls"));
}

TEST(TransportBackpressureTest, CloseMidFlushDeadlineBoundsTeardown) {
  // Satellite regression: ArmWriteTimer now no-ops on closing sessions
  // (guard parity with ArmReadTimer), so BeginClose must arm the flush
  // deadline itself. A peer that sends goodbye but never drains its
  // responses would otherwise park its closing session forever.
  ChaCha20Rng rng(9494);
  WorkloadGenerator gen(rng);
  Database db("col", gen.UniformDatabase(8, 100).values());
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.default_column = "col";
  options.so_sndbuf = 4096;
  options.io_deadline_ms = 300;
  ServiceHost host(&registry, options);
  std::string path = std::string(::testing::TempDir()) + "/close_flush.sock";
  ASSERT_TRUE(host.Start("unix:" + path).ok());

  PipelinedUpload upload = BuildUpload(db, 120, /*goodbye=*/true, 43);
  int fd = RawConnectUnix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, upload.blob));
  // SendAll can return before the reactor accepts; until then
  // active_sessions() is trivially 0.
  ASSERT_TRUE(
      WaitFor([&] { return host.SnapshotStats().sessions_accepted == 1; }));
  // Never read: the goodbye arrives, the session enters closing with a
  // backed-up outbox, and the flush deadline must evict it while the
  // socket stays open on our side.
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; },
                      seconds(10)))
      << "closing session was never evicted";
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, 1u);
  ::close(fd);
  host.Stop();
}

TEST(TransportBackpressureTest, WriteDeadlineEvictsNeverDrainingPeer) {
  // Mid-stream variant: no goodbye, the peer just stops cooperating.
  // The whole-frame write deadline (armed when the outbox hits EAGAIN)
  // must bound the stall.
  ChaCha20Rng rng(9595);
  WorkloadGenerator gen(rng);
  Database db("col", gen.UniformDatabase(8, 100).values());
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.default_column = "col";
  options.so_sndbuf = 4096;
  options.io_deadline_ms = 300;
  ServiceHost host(&registry, options);
  std::string path = std::string(::testing::TempDir()) + "/wdeadline.sock";
  ASSERT_TRUE(host.Start("unix:" + path).ok());

  PipelinedUpload upload = BuildUpload(db, 120, /*goodbye=*/false, 44);
  int fd = RawConnectUnix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, upload.blob));
  ASSERT_TRUE(
      WaitFor([&] { return host.SnapshotStats().sessions_accepted == 1; }));
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; },
                      seconds(10)))
      << "stalled session was never evicted";
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_GE(stats.sessions_failed, 1u);
  ::close(fd);
  host.Stop();
}

}  // namespace
}  // namespace ppstats
