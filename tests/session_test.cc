#include "core/session.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/messages.h"
#include "core/service_host.h"
#include "crypto/key_io.h"
#include "crypto/chacha20_rng.h"
#include "crypto/sha256.h"
#include "db/workload.h"
#include "net/socket_channel.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(1616);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

// A unix socket path unique to the running test (ctest runs test cases
// as concurrent processes).
std::string TestSocketPath() {
  return std::string(::testing::TempDir()) + "/sess_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".sock";
}

std::unique_ptr<Channel> Dial(const ServiceHost& host) {
  return UriDialer(host.bound_uri())().ValueOrDie();
}

// Stops `host` once its sessions have ended (the caller has closed or
// finished every client) and returns its counters.
ServiceHost::Stats Drain(ServiceHost& host) {
  host.Stop();
  return host.SnapshotStats();
}

// Connects on `channel`, runs one plain sum over the server's default
// column, and ends the session.
Result<BigInt> QueryOnce(Channel& channel, const SelectionVector& sel,
                         size_t chunk, uint64_t seed) {
  ChaCha20Rng rng(seed);
  ClientSessionOptions options;
  options.chunk_size = chunk;
  QuerySession client(SharedKeyPair().private_key, rng, options);
  PPSTATS_RETURN_IF_ERROR(client.Connect(channel));
  PPSTATS_ASSIGN_OR_RETURN(BigInt sum, client.RunQuery(QuerySpec{}, sel));
  PPSTATS_RETURN_IF_ERROR(client.Finish());
  return sum;
}

// Runs one full session against a host serving `db` on a unix socket. A
// client-side success still fails unless the host counted the session
// ok; `stats` receives the host's counters.
Result<BigInt> RunSession(const Database& db, const SelectionVector& sel,
                          size_t chunk, uint64_t seed,
                          ServiceHost::Stats* stats = nullptr) {
  ColumnRegistry registry;
  PPSTATS_RETURN_IF_ERROR(registry.Register(db));
  ServiceHost host(&registry);
  PPSTATS_RETURN_IF_ERROR(host.Start(TestSocketPath()));
  Result<BigInt> sum = QueryOnce(*Dial(host), sel, chunk, seed);
  ServiceHost::Stats served = Drain(host);
  if (stats != nullptr) *stats = served;
  if (sum.ok() && served.sessions_ok != 1) {
    return Status::Internal("host did not count the session ok");
  }
  return sum;
}

// A host serving the single column `db` on the test's unix socket.
class SingleColumnHost {
 public:
  explicit SingleColumnHost(const Database& db,
                            ServiceHostOptions options = {})
      : host_(&registry_, std::move(options)) {
    EXPECT_TRUE(registry_.Register(db).ok());
    EXPECT_TRUE(host_.Start(TestSocketPath()).ok());
  }

  ServiceHost& host() { return host_; }

 private:
  ColumnRegistry registry_;
  ServiceHost host_;
};

TEST(SessionTest, HandshakeAndQuerySucceed) {
  ChaCha20Rng rng(1);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(40, 10000);
  SelectionVector sel = gen.RandomSelection(40, 17);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();
  BigInt sum = RunSession(db, sel, 10, 42).ValueOrDie();
  EXPECT_EQ(sum, BigInt(truth));
}

TEST(SessionTest, WorksOverRealSockets) {
  // The same session over TCP loopback (RunSession uses unix sockets).
  ChaCha20Rng rng(2);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(30, 1000);
  SelectionVector sel = gen.RandomSelection(30, 12);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();

  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  ASSERT_TRUE(host.Start("tcp:127.0.0.1:0").ok());
  Result<BigInt> sum = QueryOnce(*Dial(host), sel, 7, 43);
  ServiceHost::Stats stats = Drain(host);
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, BigInt(truth));
  EXPECT_EQ(stats.sessions_ok, 1u);
  EXPECT_EQ(stats.queries_served, 1u);
}

TEST(SessionTest, SelectionSizeMismatchAbortsBothSides) {
  ChaCha20Rng rng(3);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(20, 100);
  SelectionVector wrong = gen.RandomSelection(25, 5);  // 25 != 20
  ServiceHost::Stats stats;
  Result<BigInt> sum = RunSession(db, wrong, 0, 44, &stats);
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.sessions_failed, 1u);  // the client's Error frame
  EXPECT_EQ(stats.sessions_ok, 0u);
}

TEST(SessionTest, ServerRejectsUnknownVersion) {
  // 1 is the retired single-query protocol: refused like any other.
  SingleColumnHost server(Database("d", {1, 2, 3}));
  for (uint32_t version : {99u, 1u}) {
    SCOPED_TRACE(version);
    std::unique_ptr<Channel> channel = Dial(server.host());
    ClientHelloMessage hello;
    hello.protocol_version = static_cast<uint16_t>(version);
    hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
    ASSERT_TRUE(channel->Send(hello.Encode()).ok());
    Bytes reply = channel->Receive().ValueOrDie();
    EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
    EXPECT_EQ(StatusFromErrorFrame(reply).code(), StatusCode::kProtocolError);
  }
  ServiceHost::Stats stats = Drain(server.host());
  EXPECT_EQ(stats.sessions_failed, 2u);
  EXPECT_EQ(stats.sessions_ok, 0u);
}

TEST(SessionTest, ServerRejectsGarbagePublicKey) {
  SingleColumnHost server(Database("d", {1, 2, 3}));
  std::unique_ptr<Channel> channel = Dial(server.host());
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = Bytes{1, 2, 3, 4};
  ASSERT_TRUE(channel->Send(hello.Encode()).ok());
  Bytes reply = channel->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  channel.reset();
  EXPECT_EQ(Drain(server.host()).sessions_failed, 1u);
}

TEST(SessionTest, ServerRejectsNonHelloOpening) {
  SingleColumnHost server(Database("d", {1, 2, 3}));
  std::unique_ptr<Channel> channel = Dial(server.host());
  RingPartialMessage wrong{BigInt(5)};
  ASSERT_TRUE(channel->Send(wrong.Encode()).ok());
  Bytes reply = channel->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  channel.reset();
  EXPECT_EQ(Drain(server.host()).sessions_failed, 1u);
}

TEST(SessionTest, SilentClientIsEvictedWithDeadlineErrorFrame) {
  // A peer that never sends its hello must not pin the server: the
  // read deadline evicts it, and it is told why.
  ServiceHostOptions options;
  options.io_deadline_ms = 50;
  SingleColumnHost server(Database("d", {1, 2, 3}), options);
  std::unique_ptr<Channel> channel = Dial(server.host());
  channel->set_read_deadline(std::chrono::milliseconds(5000));
  Result<Bytes> reply = channel->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(PeekMessageType(*reply).ValueOrDie(), MessageType::kError);
  EXPECT_EQ(StatusFromErrorFrame(*reply).code(),
            StatusCode::kDeadlineExceeded);
  channel.reset();
  ServiceHost::Stats stats = Drain(server.host());
  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.sessions_failed, 1u);
}

TEST(SessionTest, QuerySessionRunsManyQueriesOverOneConnection) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {30, 40, 50, 60})).ok());
  ASSERT_TRUE(registry.Register(Database("income", {10, 20, 30, 40})).ok());
  ServiceHostOptions options;
  options.default_column = "age";
  ServiceHost host(&registry, options);
  ASSERT_TRUE(host.Start(TestSocketPath()).ok());
  std::unique_ptr<Channel> channel = Dial(host);

  ChaCha20Rng rng(88);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*channel).ok());
  EXPECT_EQ(session.server_rows(), 4u);

  SelectionVector sel = {true, false, true, false};
  QuerySpec sum_spec;  // empty column name = the server's default
  EXPECT_EQ(session.RunQuery(sum_spec, sel).ValueOrDie(), BigInt(30 + 50));

  QuerySpec sq_spec;
  sq_spec.kind = StatisticKind::kSumOfSquares;
  sq_spec.column = "income";
  EXPECT_EQ(session.RunQuery(sq_spec, sel).ValueOrDie(), BigInt(100 + 900));

  QuerySpec prod_spec;
  prod_spec.kind = StatisticKind::kProduct;
  prod_spec.column = "age";
  prod_spec.column2 = "income";
  EXPECT_EQ(session.RunQuery(prod_spec, sel).ValueOrDie(),
            BigInt(30 * 10 + 50 * 30));

  ASSERT_TRUE(session.Finish().ok());
  channel.reset();
  ServiceHost::Stats stats = Drain(host);
  EXPECT_EQ(stats.sessions_ok, 1u);
  EXPECT_EQ(stats.queries_served, 3u);
}

TEST(SessionTest, UnknownColumnAbortsSession) {
  SingleColumnHost server(Database("age", {1, 2}));
  std::unique_ptr<Channel> channel = Dial(server.host());
  ChaCha20Rng rng(89);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*channel).ok());
  QuerySpec spec;
  spec.column = "nope";
  Result<BigInt> sum = session.RunQuery(spec, SelectionVector{true, false});
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kNotFound);
  channel.reset();
  EXPECT_EQ(Drain(server.host()).sessions_failed, 1u);
}

TEST(SessionTest, UnknownStatisticKindAbortsSession) {
  SingleColumnHost server(Database("d", {1, 2, 3}));
  std::unique_ptr<Channel> channel = Dial(server.host());
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  ASSERT_TRUE(channel->Send(hello.Encode()).ok());
  ASSERT_TRUE(channel->Receive().ok());  // ServerHello

  QueryHeaderMessage header;
  header.kind = 99;  // not a StatisticKind
  ASSERT_TRUE(channel->Send(header.Encode()).ok());
  Bytes reply = channel->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  channel.reset();
  EXPECT_EQ(Drain(server.host()).sessions_failed, 1u);
}

TEST(SessionTest, QuerySessionRejectsV1ServerHello) {
  // A server answering with the retired version 1 is refused: the
  // client tells it why and does not connect.
  auto [client_end, server_end] = DuplexPipe::Create();
  server_end->set_read_deadline(std::chrono::milliseconds(5000));
  Result<Bytes> client_error = Status::Internal("no reply read");
  std::thread server_thread([&server_end, &client_error] {
    ASSERT_TRUE(server_end->Receive().ok());  // ClientHello
    ServerHelloMessage reply;
    reply.protocol_version = 1;
    reply.database_size = 3;
    ASSERT_TRUE(server_end->Send(reply.Encode()).ok());
    client_error = server_end->Receive();
  });

  ChaCha20Rng rng(90);
  QuerySession session(SharedKeyPair().private_key, rng);
  Status status = session.Connect(*client_end);
  server_thread.join();
  EXPECT_EQ(status.code(), StatusCode::kProtocolError) << status;
  ASSERT_TRUE(client_error.ok()) << client_error.status();
  EXPECT_EQ(StatusFromErrorFrame(*client_error).code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(session.RunQuery(QuerySpec{}, SelectionVector{true, true, true})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, FailedQueryEndsTheSession) {
  // After a failed query the server has aborted and the stream is out
  // of step: a further query must fail locally without writing a frame.
  SingleColumnHost server(Database("age", {1, 2}));
  std::unique_ptr<Channel> channel = Dial(server.host());
  ChaCha20Rng rng(91);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*channel).ok());
  QuerySpec unknown;
  unknown.column = "nope";
  EXPECT_EQ(session.RunQuery(unknown, SelectionVector{true, false})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Drain(server.host()).sessions_failed, 1u);

  const uint64_t frames_before = channel->sent().messages;
  QuerySpec known;
  known.column = "age";
  EXPECT_EQ(session.RunQuery(known, SelectionVector{true, true})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(channel->sent().messages, frames_before);
}

// Forwards to `inner`, folding every frame sent through it into a
// SHA-256 digest.
class HashingChannel : public Channel {
 public:
  explicit HashingChannel(Channel& inner) : inner_(inner) {}
  Status Send(BytesView message) override {
    hasher_.Update(message);
    return inner_.Send(message);
  }
  Result<Bytes> Receive() override { return inner_.Receive(); }
  TrafficStats sent() const override { return inner_.sent(); }
  std::string Digest() { return ToHex(hasher_.Finish()); }

 private:
  Channel& inner_;
  Sha256 hasher_;
};

TEST(SessionTest, SeededSessionFramesMatchGoldenDigest) {
  // Every client->server frame of a seeded two-query session (hello,
  // query headers, index chunks, goodbye): the wire format is pinned.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {30, 40, 50, 60, 70})).ok());
  ASSERT_TRUE(registry.Register(Database("income", {1, 2, 3, 4, 5})).ok());
  ServiceHostOptions host_options;
  host_options.default_column = "age";
  ServiceHost host(&registry, host_options);
  ASSERT_TRUE(host.Start(TestSocketPath()).ok());
  std::unique_ptr<Channel> socket = Dial(host);

  HashingChannel channel(*socket);
  ChaCha20Rng rng(92);
  ClientSessionOptions options;
  options.chunk_size = 2;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  ASSERT_TRUE(session.Connect(channel).ok());
  SelectionVector sel = {true, false, true, true, false};
  EXPECT_EQ(session.RunQuery(QuerySpec{}, sel).ValueOrDie(), BigInt(140));
  QuerySpec squares;
  squares.kind = StatisticKind::kSumOfSquares;
  squares.column = "income";
  EXPECT_EQ(session.RunQuery(squares, sel).ValueOrDie(), BigInt(1 + 9 + 16));
  ASSERT_TRUE(session.Finish().ok());
  socket.reset();
  EXPECT_EQ(Drain(host).sessions_ok, 1u);
  // Captured before the client moved onto ClientProtocolFsm.
  EXPECT_EQ(channel.Digest(),
            "d4f9410c76ad78de658129a1215a99d7"
            "552b2450793c7fd009686a0620086c09");
}

TEST(SessionTest, SequentialSessionsOnFreshChannels) {
  ChaCha20Rng rng(4);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(15, 500);
  for (uint64_t q = 0; q < 3; ++q) {
    ChaCha20Rng sel_rng(50 + q);
    WorkloadGenerator sel_gen(sel_rng);
    SelectionVector sel = sel_gen.RandomSelection(15, 5);
    uint64_t truth = db.SelectedSum(sel).ValueOrDie();
    EXPECT_EQ(RunSession(db, sel, 4, 100 + q).ValueOrDie(), BigInt(truth));
  }
}

TEST(SocketChannelTest, LargeMessagesSurviveFraming) {
  auto pair = CreateSocketChannelPair().ValueOrDie();
  Bytes big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([&pair, &big] {
    ASSERT_TRUE(pair.first->Send(big).ok());
    ASSERT_TRUE(pair.first->Send(Bytes{1}).ok());
  });
  EXPECT_EQ(pair.second->Receive().ValueOrDie(), big);
  EXPECT_EQ(pair.second->Receive().ValueOrDie(), Bytes{1});
  sender.join();
}

TEST(SocketChannelTest, CloseSurfacesAsProtocolError) {
  auto pair = CreateSocketChannelPair().ValueOrDie();
  pair.first.reset();
  Result<Bytes> r = pair.second->Receive();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
}

TEST(SocketChannelTest, ListenerAcceptsAndServes) {
  // A bare socket path binds a unix listener, and a plain unix dial to
  // that path is accepted and served.
  std::string path = TestSocketPath();
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("d", {5, 6, 7, 8})).ok());
  ServiceHost host(&registry);
  ASSERT_TRUE(host.Start(path).ok());
  EXPECT_EQ(host.bound_uri(), "unix:" + path);

  auto channel = ConnectChannel("unix:" + path).ValueOrDie();
  SelectionVector sel = {true, false, true, false};
  Result<BigInt> sum = QueryOnce(*channel, sel, 0, 7);
  channel.reset();
  EXPECT_EQ(Drain(host).sessions_ok, 1u);
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, BigInt(12));
}

TEST(SocketChannelTest, ListenerRejectsOverlongPath) {
  std::string path(200, 'x');
  const std::string uri = "unix:/tmp/" + path;
  EXPECT_FALSE(SocketListener::Bind(ParseEndpoint(uri).ValueOrDie()).ok());
  EXPECT_FALSE(ConnectChannel(uri).ok());
}

TEST(SocketChannelTest, ConnectToMissingSocketFails) {
  Result<std::unique_ptr<Channel>> r =
      ConnectChannel("unix:/tmp/ppstats-no-such-socket-xyz.sock");
  EXPECT_FALSE(r.ok());
}

TEST(SocketChannelTest, OversizedFrameRejectedBySender) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto a = WrapSocket(fds[0], /*max_message_bytes=*/16);
  auto b = WrapSocket(fds[1], /*max_message_bytes=*/16);
  EXPECT_FALSE(a->Send(Bytes(17)).ok());
  EXPECT_TRUE(a->Send(Bytes(16)).ok());
  EXPECT_EQ(b->Receive().ValueOrDie().size(), 16u);
}

}  // namespace
}  // namespace ppstats
