#include "net/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "crypto/chacha20_rng.h"
#include "net/socket_channel.h"

namespace ppstats {
namespace {

using std::chrono::milliseconds;

// One fault kind enabled, rate 1.0: the first armed frame faults, and
// the fault is exactly the requested kind.
FaultInjectionOptions OnlyKind(FaultKind kind) {
  FaultInjectionOptions options;
  options.fault_rate = 1.0;
  options.max_faults = 1;
  options.delay = kind == FaultKind::kDelay;
  options.truncate = kind == FaultKind::kTruncate;
  options.garble = kind == FaultKind::kGarble;
  options.drop = kind == FaultKind::kDrop;
  options.disconnect = kind == FaultKind::kDisconnect;
  return options;
}

TEST(FaultInjectionTest, PassThroughBelowRate) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(1);
  FaultInjectionOptions options;
  options.fault_rate = 0.0;
  FaultInjectingChannel faulty(std::move(a), options, rng);
  ASSERT_TRUE(faulty.Send(Bytes{1, 2, 3}).ok());
  EXPECT_EQ(b->Receive().ValueOrDie(), (Bytes{1, 2, 3}));
  EXPECT_EQ(faulty.counters().frames, 1u);
  EXPECT_EQ(faulty.counters().faults(), 0u);
}

TEST(FaultInjectionTest, SkipFramesDelaysArming) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(2);
  FaultInjectionOptions options = OnlyKind(FaultKind::kDrop);
  options.skip_frames = 2;
  FaultInjectingChannel faulty(std::move(a), options, rng);
  // Frames 1 and 2 pass; frame 3 is the first armed one and drops.
  ASSERT_TRUE(faulty.Send(Bytes{1}).ok());
  ASSERT_TRUE(faulty.Send(Bytes{2}).ok());
  ASSERT_TRUE(faulty.Send(Bytes{3}).ok());
  EXPECT_EQ(faulty.counters().drops, 1u);
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{1});
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{2});
  b->set_read_deadline(milliseconds(30));
  EXPECT_EQ(b->Receive().status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FaultInjectionTest, TruncateDeliversStrictPrefix) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(3);
  FaultInjectingChannel faulty(std::move(a), OnlyKind(FaultKind::kTruncate),
                               rng);
  Bytes frame(64, 0xAB);
  ASSERT_TRUE(faulty.Send(frame).ok());
  Bytes got = b->Receive().ValueOrDie();
  EXPECT_LT(got.size(), frame.size());
  EXPECT_EQ(faulty.counters().truncations, 1u);
}

TEST(FaultInjectionTest, GarbleKeepsLengthChangesBytes) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(4);
  FaultInjectingChannel faulty(std::move(a), OnlyKind(FaultKind::kGarble),
                               rng);
  Bytes frame(64, 0xAB);
  ASSERT_TRUE(faulty.Send(frame).ok());
  Bytes got = b->Receive().ValueOrDie();
  EXPECT_EQ(got.size(), frame.size());
  EXPECT_NE(got, frame);
  EXPECT_EQ(faulty.counters().garbles, 1u);
}

TEST(FaultInjectionTest, DisconnectClosesBothWays) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(5);
  FaultInjectingChannel faulty(std::move(a),
                               OnlyKind(FaultKind::kDisconnect), rng);
  Status status = faulty.Send(Bytes{1});
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);
  EXPECT_EQ(faulty.counters().disconnects, 1u);
  // The peer sees a closed channel, like a crashed process.
  EXPECT_EQ(b->Receive().status().code(), StatusCode::kProtocolError);
  // Local calls after the disconnect fail too, and stats survive.
  EXPECT_EQ(faulty.Send(Bytes{2}).code(), StatusCode::kProtocolError);
  EXPECT_EQ(faulty.Receive().status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(faulty.sent().messages, 0u);
}

TEST(FaultInjectionTest, MaxFaultsCapsInjection) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(6);
  FaultInjectionOptions options = OnlyKind(FaultKind::kDrop);
  options.max_faults = 2;
  FaultInjectingChannel faulty(std::move(a), options, rng);
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(faulty.Send(Bytes{i}).ok());
  }
  EXPECT_EQ(faulty.counters().drops, 2u);
  // The remaining three frames were delivered in order.
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{2});
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{3});
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{4});
}

TEST(FaultInjectionTest, DeterministicAcrossRuns) {
  // Same seed, same traffic -> identical fault pattern, byte for byte.
  auto run = [](uint64_t seed) {
    auto [a, b] = DuplexPipe::Create();
    ChaCha20Rng rng(seed);
    FaultInjectionOptions options;
    options.fault_rate = 0.5;
    options.disconnect = false;  // keep the channel alive for all frames
    options.delay = false;       // keep the test fast
    FaultInjectingChannel faulty(std::move(a), options, rng);
    std::vector<Bytes> delivered;
    for (uint8_t i = 0; i < 20; ++i) {
      faulty.Send(Bytes(8, i)).IgnoreError();
    }
    b->set_read_deadline(milliseconds(10));
    for (;;) {
      Result<Bytes> got = b->Receive();
      if (!got.ok()) break;
      delivered.push_back(std::move(*got));
    }
    return delivered;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultInjectionTest, ReceiveDelayStallsThenDelivers) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(8);
  FaultInjectionOptions options = OnlyKind(FaultKind::kDelay);
  options.delay_ms = 40;
  FaultInjectingChannel faulty(std::move(a), options, rng);
  ASSERT_TRUE(b->Send(Bytes{1, 2, 3}).ok());
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(faulty.Receive().ValueOrDie(), (Bytes{1, 2, 3}));
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(40));
  EXPECT_EQ(faulty.counters().delays, 1u);
  EXPECT_EQ(faulty.counters().frames, 1u);
}

TEST(FaultInjectionTest, ReceiveTruncateReturnsStrictPrefix) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(9);
  FaultInjectingChannel faulty(std::move(a), OnlyKind(FaultKind::kTruncate),
                               rng);
  Bytes frame(64);
  for (size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(b->Send(frame).ok());
  Bytes got = faulty.Receive().ValueOrDie();
  EXPECT_LT(got.size(), frame.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), frame.begin()));
  EXPECT_EQ(faulty.counters().truncations, 1u);
}

TEST(FaultInjectionTest, ReceiveGarbleKeepsLengthChangesBytes) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(10);
  FaultInjectingChannel faulty(std::move(a), OnlyKind(FaultKind::kGarble),
                               rng);
  Bytes frame(64, 0xAB);
  ASSERT_TRUE(b->Send(frame).ok());
  Bytes got = faulty.Receive().ValueOrDie();
  EXPECT_EQ(got.size(), frame.size());
  EXPECT_NE(got, frame);
  EXPECT_EQ(faulty.counters().garbles, 1u);
}

TEST(FaultInjectionTest, ReceiveDropReturnsTheNextFrame) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(11);
  FaultInjectingChannel faulty(std::move(a), OnlyKind(FaultKind::kDrop), rng);
  ASSERT_TRUE(b->Send(Bytes{1}).ok());
  ASSERT_TRUE(b->Send(Bytes{2}).ok());
  EXPECT_EQ(faulty.Receive().ValueOrDie(), Bytes{2});
  EXPECT_EQ(faulty.counters().drops, 1u);
  EXPECT_EQ(faulty.counters().frames, 2u);
}

TEST(FaultInjectionTest, ReceiveDropKeepsTheCallsDeadline) {
  auto [a, b] = DuplexPipe::Create();
  Channel* peer = b.get();
  ChaCha20Rng rng(12);
  FaultInjectingChannel faulty(std::move(a), OnlyKind(FaultKind::kDrop), rng);
  faulty.set_read_deadline(milliseconds(300));
  // The dropped frame arrives 200 ms into the call; waiting for the next
  // one may only use the 100 ms left, not a fresh 300 ms.
  std::thread early([peer] {
    std::this_thread::sleep_for(milliseconds(200));
    ASSERT_TRUE(peer->Send(Bytes{1}).ok());
  });
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(faulty.Receive().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(450));
  early.join();
  EXPECT_EQ(faulty.counters().drops, 1u);
  // The next call gets the whole deadline back.
  std::thread late([peer] {
    std::this_thread::sleep_for(milliseconds(200));
    ASSERT_TRUE(peer->Send(Bytes{2}).ok());
  });
  EXPECT_EQ(faulty.Receive().ValueOrDie(), Bytes{2});
  late.join();
}

TEST(FaultInjectionTest, ReceiveDisconnectClosesBothWays) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(13);
  FaultInjectingChannel faulty(std::move(a),
                               OnlyKind(FaultKind::kDisconnect), rng);
  ASSERT_TRUE(b->Send(Bytes{1}).ok());
  EXPECT_EQ(faulty.Receive().status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(faulty.counters().disconnects, 1u);
  b->set_read_deadline(milliseconds(1000));  // closed, not merely quiet
  EXPECT_EQ(b->Receive().status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(faulty.Send(Bytes{2}).code(), StatusCode::kProtocolError);
  EXPECT_EQ(faulty.Receive().status().code(), StatusCode::kProtocolError);
}

TEST(FaultInjectionTest, SkipFramesCountsBothDirections) {
  auto [a, b] = DuplexPipe::Create();
  ChaCha20Rng rng(14);
  FaultInjectionOptions options = OnlyKind(FaultKind::kDrop);
  options.skip_frames = 2;
  FaultInjectingChannel faulty(std::move(a), options, rng);
  // Sent frame, received frame, then the third frame of the session —
  // a send — is the first armed one and drops.
  ASSERT_TRUE(faulty.Send(Bytes{1}).ok());
  ASSERT_TRUE(b->Send(Bytes{2}).ok());
  EXPECT_EQ(faulty.Receive().ValueOrDie(), Bytes{2});
  ASSERT_TRUE(faulty.Send(Bytes{3}).ok());
  EXPECT_EQ(faulty.counters().frames, 3u);
  EXPECT_EQ(faulty.counters().drops, 1u);
  EXPECT_EQ(b->Receive().ValueOrDie(), Bytes{1});
  b->set_read_deadline(milliseconds(30));
  EXPECT_EQ(b->Receive().status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FaultInjectionTest, ForwardsDeadlinesAndStats) {
  auto sockets = CreateSocketChannelPair().ValueOrDie();
  ChaCha20Rng rng(7);
  FaultInjectionOptions options;
  options.fault_rate = 0.0;
  FaultInjectingChannel faulty(std::move(sockets.first), options, rng);
  faulty.set_read_deadline(milliseconds(40));
  EXPECT_EQ(faulty.Receive().status().code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(faulty.Send(Bytes(10)).ok());
  EXPECT_EQ(faulty.sent().messages, 1u);
  EXPECT_EQ(faulty.sent().bytes, 10u + kFrameOverheadBytes);
}

}  // namespace
}  // namespace ppstats
