#include "core/messages.h"

#include <gtest/gtest.h>

#include "crypto/chacha20_rng.h"

namespace ppstats {
namespace {

class MessagesTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& KeyPair() {
    static const PaillierKeyPair* kp = [] {
      ChaCha20Rng rng(333);
      return new PaillierKeyPair(
          Paillier::GenerateKeyPair(256, rng).ValueOrDie());
    }();
    return *kp;
  }

  ChaCha20Rng rng_{5};
};

TEST_F(MessagesTest, IndexBatchRoundTrip) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  IndexBatchMessage msg;
  msg.start_index = 1234;
  for (uint64_t m : {0ULL, 1ULL, 1ULL, 0ULL}) {
    msg.ciphertexts.push_back(
        Paillier::Encrypt(pub, BigInt(m), rng_).ValueOrDie());
  }
  Bytes frame = msg.Encode(pub);
  EXPECT_EQ(PeekMessageType(frame).ValueOrDie(), MessageType::kIndexBatch);

  IndexBatchMessage decoded = IndexBatchMessage::Decode(pub, frame)
                                  .ValueOrDie();
  EXPECT_EQ(decoded.start_index, 1234u);
  ASSERT_EQ(decoded.ciphertexts.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded.ciphertexts[i], msg.ciphertexts[i]);
  }
}

TEST_F(MessagesTest, IndexBatchFrameSizeIsFixedWidth) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  IndexBatchMessage msg;
  msg.start_index = 0;
  msg.ciphertexts.push_back(
      Paillier::Encrypt(pub, BigInt(1), rng_).ValueOrDie());
  msg.ciphertexts.push_back(
      Paillier::Encrypt(pub, BigInt(0), rng_).ValueOrDie());
  Bytes frame = msg.Encode(pub);
  // tag + start + count + 2 fixed-width ciphertexts
  EXPECT_EQ(frame.size(), 1 + 8 + 4 + 2 * pub.CiphertextBytes());
}

TEST_F(MessagesTest, SumResponseRoundTrip) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  SumResponseMessage msg;
  msg.sum = Paillier::Encrypt(pub, BigInt(999), rng_).ValueOrDie();
  Bytes frame = msg.Encode(pub);
  EXPECT_EQ(PeekMessageType(frame).ValueOrDie(), MessageType::kSumResponse);
  SumResponseMessage decoded =
      SumResponseMessage::Decode(pub, frame).ValueOrDie();
  EXPECT_EQ(decoded.sum, msg.sum);
}

TEST_F(MessagesTest, DecodeRejectsWrongType) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  SumResponseMessage msg;
  msg.sum = Paillier::Encrypt(pub, BigInt(1), rng_).ValueOrDie();
  Bytes frame = msg.Encode(pub);
  EXPECT_FALSE(IndexBatchMessage::Decode(pub, frame).ok());
}

TEST_F(MessagesTest, DecodeRejectsTruncatedFrame) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  IndexBatchMessage msg;
  msg.start_index = 0;
  msg.ciphertexts.push_back(
      Paillier::Encrypt(pub, BigInt(1), rng_).ValueOrDie());
  Bytes frame = msg.Encode(pub);
  frame.resize(frame.size() - 10);
  EXPECT_FALSE(IndexBatchMessage::Decode(pub, frame).ok());
}

TEST_F(MessagesTest, DecodeRejectsTrailingGarbage) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  SumResponseMessage msg;
  msg.sum = Paillier::Encrypt(pub, BigInt(1), rng_).ValueOrDie();
  Bytes frame = msg.Encode(pub);
  frame.push_back(0);
  EXPECT_FALSE(SumResponseMessage::Decode(pub, frame).ok());
}

TEST_F(MessagesTest, DecodeRejectsCiphertextAboveNSquared) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  SumResponseMessage msg;
  msg.sum.value = pub.n_squared();  // out of range by one
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kSumResponse));
  ASSERT_TRUE(w.WriteFixedBigInt(msg.sum.value, pub.CiphertextBytes()).ok());
  EXPECT_FALSE(SumResponseMessage::Decode(pub, w.bytes()).ok());
}

TEST_F(MessagesTest, ParseViewsThePayloadDecodeReads) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  IndexBatchMessage msg;
  msg.start_index = 77;
  for (uint64_t m : {1ULL, 0ULL, 1ULL}) {
    msg.ciphertexts.push_back(
        Paillier::Encrypt(pub, BigInt(m), rng_).ValueOrDie());
  }
  const Bytes frame = msg.Encode(pub);
  Result<IndexBatchView> view = IndexBatchMessage::Parse(pub, frame);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->start_index, 77u);
  EXPECT_EQ(view->count, 3u);
  // The payload is the frame after its 13-byte header, uncopied.
  EXPECT_EQ(view->payload.data(), frame.data() + 13);
  ASSERT_EQ(view->payload.size(), 3 * pub.CiphertextBytes());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(BigInt::FromBytes(view->payload.subspan(
                  i * pub.CiphertextBytes(), pub.CiphertextBytes())),
              msg.ciphertexts[i].value);
  }
  // Re-framing the payload at another start row rewrites only the
  // header.
  const Bytes reframed = IndexBatchMessage::EncodeRaw(5, 3, view->payload);
  msg.start_index = 5;
  EXPECT_EQ(reframed, msg.Encode(pub));
}

TEST_F(MessagesTest, IndexCiphertextBoundIsNSquared) {
  const PaillierPublicKey& pub = KeyPair().public_key;
  const size_t width = pub.CiphertextBytes();
  auto frame_of = [&](const Bytes& ciphertext) {
    return IndexBatchMessage::EncodeRaw(0, 1, ciphertext);
  };
  const Bytes below = frame_of((pub.n_squared() - BigInt(1)).ToBytes(width));
  ASSERT_TRUE(IndexBatchMessage::Parse(pub, below).ok());
  Result<IndexBatchMessage> decoded = IndexBatchMessage::Decode(pub, below);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ciphertexts[0].value, pub.n_squared() - BigInt(1));

  for (const Bytes& hostile :
       {pub.n_squared().ToBytes(width), Bytes(width, 0xFF)}) {
    const Bytes frame = frame_of(hostile);
    for (const Status& status :
         {IndexBatchMessage::Parse(pub, frame).status(),
          IndexBatchMessage::Decode(pub, frame).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kProtocolError);
      EXPECT_EQ(status.message(), "index ciphertext >= n^2");
    }
  }
}

TEST_F(MessagesTest, PeekRejectsEmptyAndUnknown) {
  EXPECT_FALSE(PeekMessageType(Bytes{}).ok());
  EXPECT_FALSE(PeekMessageType(Bytes{0}).ok());
  EXPECT_FALSE(PeekMessageType(Bytes{99}).ok());
}

TEST_F(MessagesTest, RingPartialRoundTrip) {
  RingPartialMessage msg{BigInt::FromDecimal("123456789123456789123")
                             .ValueOrDie()};
  Bytes frame = msg.Encode();
  EXPECT_EQ(PeekMessageType(frame).ValueOrDie(), MessageType::kRingPartial);
  EXPECT_EQ(RingPartialMessage::Decode(frame).ValueOrDie().running_sum,
            msg.running_sum);
}

TEST_F(MessagesTest, RingBroadcastRoundTrip) {
  RingBroadcastMessage msg{BigInt(424242)};
  Bytes frame = msg.Encode();
  EXPECT_EQ(PeekMessageType(frame).ValueOrDie(),
            MessageType::kRingBroadcast);
  EXPECT_EQ(RingBroadcastMessage::Decode(frame).ValueOrDie().total,
            msg.total);
}

}  // namespace
}  // namespace ppstats
