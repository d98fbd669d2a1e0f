// Decoder robustness: every wire-facing parser must reject arbitrary
// and mutated input with a clean Status — never crash, hang, or accept
// structurally invalid frames. This is the cheap, deterministic cousin
// of a fuzzing campaign, run on every test invocation.

#include <gtest/gtest.h>

#include "core/messages.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "net/wire.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(1717);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

// The view parser and the decoder accept the same frames, reject the
// rest with the same status, and agree on the header.
void ExpectParseMatchesDecode(BytesView buffer) {
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  Result<IndexBatchView> view = IndexBatchMessage::Parse(pub, buffer);
  Result<IndexBatchMessage> msg = IndexBatchMessage::Decode(pub, buffer);
  ASSERT_EQ(view.ok(), msg.ok());
  if (!view.ok()) {
    EXPECT_EQ(view.status().ToString(), msg.status().ToString());
    return;
  }
  EXPECT_EQ(view->start_index, msg->start_index);
  EXPECT_EQ(view->count, msg->ciphertexts.size());
}

// Feeds a buffer to every frame decoder; none may crash.
void PokeAllDecoders(BytesView buffer) {
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  PeekMessageType(buffer).IgnoreError();
  ExpectParseMatchesDecode(buffer);
  SumResponseMessage::Decode(pub, buffer).IgnoreError();
  RingPartialMessage::Decode(buffer).IgnoreError();
  RingBroadcastMessage::Decode(buffer).IgnoreError();
  ClientHelloMessage::Decode(buffer).IgnoreError();
  ServerHelloMessage::Decode(buffer).IgnoreError();
  ErrorMessage::Decode(buffer).IgnoreError();
  DeserializePublicKey(buffer).IgnoreError();
  DeserializePrivateKey(buffer).IgnoreError();
  Paillier::DeserializeCiphertext(pub, buffer).IgnoreError();
}

TEST(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  ChaCha20Rng rng(1);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes garbage(iter % 97);
    rng.Fill(garbage);
    PokeAllDecoders(garbage);
  }
  SUCCEED();
}

TEST(FuzzDecodeTest, RandomBytesWithValidTagsNeverCrash) {
  // Same, but force a plausible type tag so parsing goes deeper.
  ChaCha20Rng rng(2);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes garbage(1 + iter % 200);
    rng.Fill(garbage);
    garbage[0] = static_cast<uint8_t>(1 + iter % 7);
    PokeAllDecoders(garbage);
  }
  SUCCEED();
}

TEST(FuzzDecodeTest, TruncationsOfValidFramesAreRejected) {
  ChaCha20Rng rng(3);
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  IndexBatchMessage msg;
  msg.start_index = 7;
  for (int i = 0; i < 3; ++i) {
    msg.ciphertexts.push_back(
        Paillier::Encrypt(pub, BigInt(i % 2), rng).ValueOrDie());
  }
  Bytes frame = msg.Encode(pub);
  for (size_t len = 0; len < frame.size(); len += 7) {
    Bytes truncated(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(IndexBatchMessage::Decode(pub, truncated).ok())
        << "len=" << len;
    PokeAllDecoders(truncated);
  }
}

TEST(FuzzDecodeTest, SingleByteMutationsNeverCrash) {
  ChaCha20Rng rng(4);
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  SumResponseMessage msg;
  msg.sum = Paillier::Encrypt(pub, BigInt(5), rng).ValueOrDie();
  Bytes frame = msg.Encode(pub);
  for (size_t pos = 0; pos < frame.size(); pos += 3) {
    Bytes mutated = frame;
    mutated[pos] ^= 0xFF;
    PokeAllDecoders(mutated);
    // A mutated ciphertext body may still parse (any residue < n^2 is a
    // formally valid ciphertext); a mutated header must not.
    if (pos == 0) {
      EXPECT_FALSE(SumResponseMessage::Decode(pub, mutated).ok());
    }
  }
  SUCCEED();
}

TEST(FuzzDecodeTest, IndexBatchMutationsParseAsTheyDecode) {
  // Header, count and ciphertext bytes flipped in turn: some mutations
  // still parse, others fail on the count or on the n^2 bound; Parse
  // and Decode must agree on every one.
  ChaCha20Rng rng(6);
  const PaillierPublicKey& pub = SharedKeyPair().public_key;
  IndexBatchMessage msg;
  msg.start_index = 3;
  for (int i = 0; i < 2; ++i) {
    msg.ciphertexts.push_back(
        Paillier::Encrypt(pub, BigInt(i), rng).ValueOrDie());
  }
  const Bytes frame = msg.Encode(pub);
  size_t accepted = 0;
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (uint8_t flip : {0x01, 0x80, 0xFF}) {
      Bytes mutated = frame;
      mutated[pos] ^= flip;
      PokeAllDecoders(mutated);
      if (IndexBatchMessage::Parse(pub, mutated).ok()) ++accepted;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(FuzzDecodeTest, LengthPrefixLiesAreRejected) {
  // Claimed lengths far beyond the buffer must fail cleanly, not
  // allocate absurd amounts or read out of bounds.
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kClientHello));
  w.WriteU32(1);  // protocol version
  w.WriteU32(0xFFFFFFFF);  // public key "length"
  w.WriteU8(1);
  Result<ClientHelloMessage> r = ClientHelloMessage::Decode(w.bytes());
  EXPECT_FALSE(r.ok());
}

TEST(FuzzDecodeTest, WireReaderSurvivesAdversarialSequences) {
  ChaCha20Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes buffer(iter % 64);
    rng.Fill(buffer);
    WireReader r(buffer);
    // Interleave reads of every kind until exhaustion; must terminate.
    for (int op = 0; op < 32 && !r.AtEnd(); ++op) {
      switch (op % 5) {
        case 0: r.ReadU8().IgnoreError(); break;
        case 1: r.ReadU32().IgnoreError(); break;
        case 2: r.ReadU64().IgnoreError(); break;
        case 3: r.ReadBytes().IgnoreError(); break;
        case 4: r.ReadBigInt().IgnoreError(); break;
      }
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ppstats
