#include "core/session.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <thread>

#include "core/messages.h"
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

// Runs one full session: server on a thread, client on this one.
Result<BigInt> RunSession(const Database& db, const SelectionVector& sel,
                          size_t chunk, uint64_t seed) {
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });
  Result<BigInt> sum = QueryOnce(*client_end, sel, chunk, seed);
  server_thread.join();
  if (sum.ok() && !server_status.ok()) return server_status;
  return sum;
}

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
  ChaCha20Rng rng(2);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(30, 1000);
  SelectionVector sel = gen.RandomSelection(30, 12);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();

  auto pair = CreateSocketChannelPair().ValueOrDie();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &pair, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*pair.second);
  });
  Result<BigInt> sum = QueryOnce(*pair.first, sel, 7, 43);
  server_thread.join();
  ASSERT_TRUE(server_status.ok()) << server_status;
  EXPECT_EQ(*sum, BigInt(truth));
}

TEST(SessionTest, SelectionSizeMismatchAbortsBothSides) {
  ChaCha20Rng rng(3);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(20, 100);
  SelectionVector wrong = gen.RandomSelection(25, 5);  // 25 != 20
  Result<BigInt> sum = RunSession(db, wrong, 0, 44);
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ServerRejectsUnknownVersion) {
  // 1 is the retired single-query protocol: refused like any other.
  for (uint32_t version : {99u, 1u}) {
    SCOPED_TRACE(version);
    Database db("d", {1, 2, 3});
    auto [client_end, server_end] = DuplexPipe::Create();
    Status server_status = Status::OK();
    std::thread server_thread([&db, &server_end, &server_status] {
      ServerSession session(&db);
      server_status = session.Serve(*server_end);
    });

    ClientHelloMessage hello;
    hello.protocol_version = static_cast<uint16_t>(version);
    hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
    ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
    Bytes reply = client_end->Receive().ValueOrDie();
    EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
    EXPECT_EQ(StatusFromErrorFrame(reply).code(), StatusCode::kProtocolError);
    server_thread.join();
    EXPECT_EQ(server_status.code(), StatusCode::kProtocolError);
  }
}

TEST(SessionTest, ServerRejectsGarbagePublicKey) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });

  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = Bytes{1, 2, 3, 4};
  ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
  Bytes reply = client_end->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, ServerRejectsNonHelloOpening) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });
  RingPartialMessage wrong{BigInt(5)};
  ASSERT_TRUE(client_end->Send(wrong.Encode()).ok());
  Bytes reply = client_end->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, SilentClientIsEvictedWithDeadlineErrorFrame) {
  // A peer that never sends its hello must not pin a blocking server:
  // the read deadline evicts it, and it is told why.
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  server_end->set_read_deadline(std::chrono::milliseconds(50));
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });
  server_thread.join();
  EXPECT_EQ(server_status.code(), StatusCode::kDeadlineExceeded)
      << server_status.ToString();
  client_end->set_read_deadline(std::chrono::milliseconds(1000));
  Result<Bytes> reply = client_end->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(PeekMessageType(*reply).ValueOrDie(), MessageType::kError);
  EXPECT_EQ(StatusFromErrorFrame(*reply).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(SessionTest, QuerySessionRunsManyQueriesOverOneConnection) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {30, 40, 50, 60})).ok());
  ASSERT_TRUE(registry.Register(Database("income", {10, 20, 30, 40})).ok());
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  SessionMetrics metrics;
  std::thread server_thread([&] {
    ServerSessionOptions options;
    options.default_column = registry.Find("age");
    ServerSession session(&registry, options);
    server_status = session.Serve(*server_end);
    metrics = session.metrics();
  });

  ChaCha20Rng rng(88);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
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
  server_thread.join();
  EXPECT_TRUE(server_status.ok()) << server_status;
  EXPECT_EQ(metrics.queries, 3u);
  EXPECT_EQ(metrics.negotiated_version, kSessionProtocolV2);
}

TEST(SessionTest, UnknownColumnAbortsSession) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {1, 2})).ok());
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&] {
    ServerSession session(&registry, {});
    server_status = session.Serve(*server_end);
  });

  ChaCha20Rng rng(89);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
  QuerySpec spec;
  spec.column = "nope";
  Result<BigInt> sum = session.RunQuery(spec, SelectionVector{true, false});
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kNotFound);
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, UnknownStatisticKindAbortsSession) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });

  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
  ASSERT_TRUE(client_end->Receive().ok());  // ServerHello

  QueryHeaderMessage header;
  header.kind = 99;  // not a StatisticKind
  ASSERT_TRUE(client_end->Send(header.Encode()).ok());
  Bytes reply = client_end->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
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
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {1, 2})).ok());
  auto [client_end, server_end] = DuplexPipe::Create();
  std::thread server_thread([&registry, &server_end] {
    ServerSession session(&registry, {});
    session.Serve(*server_end).IgnoreError();
  });

  ChaCha20Rng rng(91);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
  QuerySpec unknown;
  unknown.column = "nope";
  EXPECT_EQ(session.RunQuery(unknown, SelectionVector{true, false})
                .status()
                .code(),
            StatusCode::kNotFound);
  server_thread.join();
  server_end.reset();

  const uint64_t frames_before = client_end->sent().messages;
  QuerySpec known;
  known.column = "age";
  EXPECT_EQ(session.RunQuery(known, SelectionVector{true, true})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client_end->sent().messages, frames_before);
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
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&] {
    ServerSessionOptions options;
    options.default_column = registry.Find("age");
    ServerSession session(&registry, options);
    server_status = session.Serve(*server_end);
  });

  HashingChannel channel(*client_end);
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
  server_thread.join();
  EXPECT_TRUE(server_status.ok()) << server_status;
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
  std::string path = std::string(::testing::TempDir()) + "/ppstats_lt.sock";
  SocketListener listener = SocketListener::Bind(path).ValueOrDie();

  Database db("d", {5, 6, 7, 8});
  Status server_status = Status::OK();
  std::thread server_thread([&listener, &db, &server_status] {
    auto channel = listener.Accept();
    if (!channel.ok()) {
      server_status = channel.status();
      return;
    }
    ServerSession session(&db);
    server_status = session.Serve(**channel);
  });

  auto channel = ConnectUnixSocket(path).ValueOrDie();
  SelectionVector sel = {true, false, true, false};
  Result<BigInt> sum = QueryOnce(*channel, sel, 0, 7);
  server_thread.join();
  ASSERT_TRUE(server_status.ok()) << server_status;
  EXPECT_EQ(*sum, BigInt(12));
}

TEST(SocketChannelTest, ListenerRejectsOverlongPath) {
  std::string path(200, 'x');
  EXPECT_FALSE(SocketListener::Bind("/tmp/" + path).ok());
  EXPECT_FALSE(ConnectUnixSocket("/tmp/" + path).ok());
}

TEST(SocketChannelTest, ConnectToMissingSocketFails) {
  Result<std::unique_ptr<Channel>> r =
      ConnectUnixSocket("/tmp/ppstats-no-such-socket-xyz.sock");
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
