#include "net/channel.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/socket_channel.h"

using std::chrono::milliseconds;
using std::chrono::steady_clock;

namespace ppstats {
namespace {

TEST(ChannelTest, SendReceiveSameThread) {
  auto [a, b] = DuplexPipe::Create();
  ASSERT_TRUE(a->Send(Bytes{1, 2, 3}).ok());
  Bytes msg = b->Receive().ValueOrDie();
  EXPECT_EQ(msg, (Bytes{1, 2, 3}));
}

TEST(ChannelTest, MessagesStayOrdered) {
  auto [a, b] = DuplexPipe::Create();
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(a->Send(Bytes{i}).ok());
  }
  for (uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{i});
  }
}

TEST(ChannelTest, BidirectionalTraffic) {
  auto [a, b] = DuplexPipe::Create();
  ASSERT_TRUE(a->Send(Bytes{1}).ok());
  ASSERT_TRUE(b->Send(Bytes{2}).ok());
  EXPECT_EQ(a->Receive().ValueOrDie(), Bytes{2});
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{1});
}

TEST(ChannelTest, TrafficStatsCountSentOnly) {
  auto [a, b] = DuplexPipe::Create();
  ASSERT_TRUE(a->Send(Bytes(100)).ok());
  ASSERT_TRUE(a->Send(Bytes(50)).ok());
  EXPECT_EQ(a->sent().messages, 2u);
  // Each frame is charged its payload plus the 4-byte length prefix a
  // stream transport puts on the wire.
  EXPECT_EQ(a->sent().bytes, 150u + 2 * kFrameOverheadBytes);
  EXPECT_EQ(b->sent().messages, 0u);
}

TEST(ChannelTest, ReceiveBlocksUntilSend) {
  auto [a, b] = DuplexPipe::Create();
  std::thread producer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Status s = a->Send(Bytes{42});
    ASSERT_TRUE(s.ok());
  });
  Bytes msg = b->Receive().ValueOrDie();
  EXPECT_EQ(msg, Bytes{42});
  producer.join();
}

TEST(ChannelTest, PeerCloseUnblocksReceive) {
  auto [a, b] = DuplexPipe::Create();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a.reset();  // destroying the endpoint closes its outgoing queue
  });
  Result<Bytes> r = b->Receive();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  closer.join();
}

TEST(ChannelTest, QueuedMessagesSurviveClose) {
  auto [a, b] = DuplexPipe::Create();
  ASSERT_TRUE(a->Send(Bytes{7}).ok());
  a.reset();
  // The already-queued message is still delivered; the next receive fails.
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{7});
  EXPECT_FALSE(b->Receive().ok());
}

TEST(ChannelTest, PipeAndSocketChargeIdenticalBytes) {
  // The in-memory pipe and the kernel socket must account framing the
  // same way, so simulated and deployed runs report comparable traffic.
  auto [pipe_a, pipe_b] = DuplexPipe::Create();
  auto sockets = CreateSocketChannelPair().ValueOrDie();
  for (size_t len : {0u, 1u, 17u, 1024u}) {
    ASSERT_TRUE(pipe_a->Send(Bytes(len)).ok());
    ASSERT_TRUE(sockets.first->Send(Bytes(len)).ok());
    ASSERT_TRUE(pipe_b->Receive().ok());
    ASSERT_TRUE(sockets.second->Receive().ok());
  }
  EXPECT_EQ(pipe_a->sent().messages, sockets.first->sent().messages);
  EXPECT_EQ(pipe_a->sent().bytes, sockets.first->sent().bytes);
}

TEST(ChannelTest, PipeReadDeadlineExpires) {
  auto [a, b] = DuplexPipe::Create();
  b->set_read_deadline(milliseconds(50));
  auto start = steady_clock::now();
  Result<Bytes> r = b->Receive();
  auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, milliseconds(40));
  EXPECT_LT(elapsed, milliseconds(5000));
  // The channel survives a deadline miss: data that arrives later is
  // still delivered within the next deadline window.
  ASSERT_TRUE(a->Send(Bytes{9}).ok());
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{9});
}

TEST(ChannelTest, SocketReadDeadlineExpires) {
  auto sockets = CreateSocketChannelPair().ValueOrDie();
  sockets.second->set_read_deadline(milliseconds(50));
  auto start = steady_clock::now();
  Result<Bytes> r = sockets.second->Receive();
  auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, milliseconds(40));
  ASSERT_TRUE(sockets.first->Send(Bytes{7, 8}).ok());
  EXPECT_EQ(sockets.second->Receive().ValueOrDie(), (Bytes{7, 8}));
}

TEST(ChannelTest, SocketReadDeadlineCoversPartialFrames) {
  // A Slowloris peer that sends a complete length header, then dribbles
  // nothing, must not pin Receive: one deadline covers the whole frame.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto reader = WrapSocket(fds[0]);
  reader->set_read_deadline(milliseconds(50));
  const uint8_t header[4] = {0, 0, 0, 100};  // "a 100-byte frame follows"
  ASSERT_EQ(::send(fds[1], header, 4, 0), 4);  // ...but it never does
  Result<Bytes> r = reader->Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ::close(fds[1]);
}

TEST(ChannelTest, SocketWriteDeadlineExpiresWhenPeerStopsReading) {
  auto sockets = CreateSocketChannelPair().ValueOrDie();
  sockets.first->set_write_deadline(milliseconds(50));
  // Nobody reads the peer end, so the kernel buffer fills and Send
  // must fail with DeadlineExceeded instead of blocking forever.
  Status status = Status::OK();
  for (int i = 0; i < 64 && status.ok(); ++i) {
    status = sockets.first->Send(Bytes(1 << 20));
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ChannelTest, ZeroDeadlineBlocksAsBefore) {
  auto [a, b] = DuplexPipe::Create();
  b->set_read_deadline(milliseconds(50));
  b->set_read_deadline(milliseconds(0));  // back to blocking
  std::thread producer([&a] {
    std::this_thread::sleep_for(milliseconds(100));
    ASSERT_TRUE(a->Send(Bytes{1}).ok());
  });
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{1});
  producer.join();
}

TEST(ChannelTest, ListenerBacklogIsConfigurable) {
  const std::string uri =
      "unix:" + std::string(::testing::TempDir()) + "/backlog.sock";
  const Endpoint endpoint = ParseEndpoint(uri).ValueOrDie();
  ListenOptions options;
  for (int backlog : {0, -3}) {
    options.backlog = backlog;
    EXPECT_FALSE(SocketListener::Bind(endpoint, options).ok()) << backlog;
  }
  options.backlog = 1;
  SocketListener listener =
      SocketListener::Bind(endpoint, options).ValueOrDie();
  auto client = ConnectChannel(uri);
  ASSERT_TRUE(client.ok());
  Result<std::optional<int>> fd = listener.AcceptFd();
  ASSERT_TRUE(fd.ok() && fd->has_value());
  std::unique_ptr<Channel> served = WrapSocket(**fd);
  ASSERT_TRUE((*client)->Send(Bytes{1, 2}).ok());
  EXPECT_EQ(served->Receive().ValueOrDie(), (Bytes{1, 2}));
}

TEST(ChannelTest, TrafficStatsAccumulateOperator) {
  TrafficStats a{2, 100};
  TrafficStats b{3, 50};
  a += b;
  EXPECT_EQ(a.messages, 5u);
  EXPECT_EQ(a.bytes, 150u);
}

}  // namespace
}  // namespace ppstats
