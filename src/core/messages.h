// Protocol messages for the selected-sum protocol (paper Figure 1) and
// its multi-client extension (Figure 8).
//
// Every frame starts with a one-byte type tag. Ciphertexts travel at the
// fixed wire width implied by the public key, exactly as a real
// implementation would, so the recorded traffic is byte-accurate.

#ifndef PPSTATS_CORE_MESSAGES_H_
#define PPSTATS_CORE_MESSAGES_H_

#include <vector>

#include "crypto/paillier.h"
#include "net/wire.h"

namespace ppstats {

/// Frame type tags.
enum class MessageType : uint8_t {
  kIndexBatch = 1,      ///< client -> server: chunk of encrypted indices
  kSumResponse = 2,     ///< server -> client: encrypted (blinded) sum
  kRingPartial = 3,     ///< client -> client: running blinded partial sum
  kRingBroadcast = 4,   ///< final client -> all: unblinded total
  kClientHello = 5,     ///< session handshake: version + public key
  kServerHello = 6,     ///< session handshake: version + database size
  kError = 7,           ///< either direction: abort with a reason
  kQueryHeader = 8,     ///< statistic kind + named column(s) for one query
  kQueryAccept = 9,     ///< server accepts a query, announces its rows
  kGoodbye = 10,        ///< client ends the session cleanly
  kPartialResult = 11,  ///< coordinator -> client: sum over responsive shards only
};

/// A validated IndexBatch frame whose ciphertexts stay wire bytes: the
/// coordinator forwards them, and the server fold (FoldEngine::FoldChunk)
/// decodes each row straight into its limb buffer. Only
/// IndexBatchMessage::Parse builds one, so holding a view is the proof
/// that the payload is `count` ciphertexts at the key's fixed wire
/// width, each < n^2; no consumer checks again.
class IndexBatchView {
 public:
  const uint64_t start_index;
  const uint32_t count;
  /// Aliases the parsed frame.
  const BytesView payload;

 private:
  friend struct IndexBatchMessage;
  IndexBatchView(uint64_t start, uint32_t rows, BytesView bytes)
      : start_index(start), count(rows), payload(bytes) {}
};

/// A chunk of the encrypted index vector covering rows
/// [start_index, start_index + ciphertexts.size()).
struct IndexBatchMessage {
  uint64_t start_index = 0;
  std::vector<PaillierCiphertext> ciphertexts;

  Bytes Encode(const PaillierPublicKey& pub) const;
  /// Frames `count` ciphertexts that are already wire bytes (`payload`,
  /// count * CiphertextBytes() bytes, each < n^2) as covering rows from
  /// `start_index`: the same bytes Encode writes for those ciphertexts.
  static Bytes EncodeRaw(uint64_t start_index, uint32_t count,
                         BytesView payload);
  /// Runs every check Decode runs, with the same statuses, but leaves
  /// the ciphertexts as bytes.
  [[nodiscard]] static Result<IndexBatchView> Parse(const PaillierPublicKey& pub,
                                                    BytesView frame);
  [[nodiscard]] static Result<IndexBatchMessage> Decode(const PaillierPublicKey& pub,
                                                        BytesView frame);
};

/// The upload rule of one query, the one implementation behind every
/// serving side (the server fold and the cluster coordinator), so a
/// client gets the same Error frame from either: each IndexBatch frame
/// must parse, and the frames must cover rows [begin, end) in order with
/// no gap, overlap, or overrun.
class IndexUploadSequencer {
 public:
  IndexUploadSequencer(uint64_t begin, uint64_t end)
      : next_(begin), end_(end) {}

  /// Accepts `frame` as the next chunk of the upload, or refuses it:
  /// FailedPrecondition once every row has arrived (the response is
  /// already produced), then Parse's errors, then ProtocolError for a
  /// chunk that does not start where the last one ended or runs past
  /// the end.
  [[nodiscard]] Result<IndexBatchView> Next(const PaillierPublicKey& pub,
                                            BytesView frame);

  /// True once chunks have covered every row in [begin, end).
  bool complete() const { return next_ >= end_; }

 private:
  uint64_t next_;
  uint64_t end_;
};

/// The server's single response: the encrypted selected sum.
struct SumResponseMessage {
  PaillierCiphertext sum;

  Bytes Encode(const PaillierPublicKey& pub) const;
  [[nodiscard]] static Result<SumResponseMessage> Decode(const PaillierPublicKey& pub,
                                                         BytesView frame);
};

/// Multi-client phase 2: running sum of blinded partials around the ring.
struct RingPartialMessage {
  BigInt running_sum;

  Bytes Encode() const;
  [[nodiscard]] static Result<RingPartialMessage> Decode(BytesView frame);
};

/// Multi-client phase 2: the final unblinded total, broadcast to all.
struct RingBroadcastMessage {
  BigInt total;

  Bytes Encode() const;
  [[nodiscard]] static Result<RingBroadcastMessage> Decode(BytesView frame);
};

/// Session handshake: the client announces its protocol version and the
/// public key the server must encrypt against.
struct ClientHelloMessage {
  uint16_t protocol_version = 0;
  Bytes public_key_blob;  ///< see crypto/key_io.h

  Bytes Encode() const;
  [[nodiscard]] static Result<ClientHelloMessage> Decode(BytesView frame);
};

/// Session handshake reply: the server's version and table size (the
/// client needs the size to shape its index vector).
struct ServerHelloMessage {
  uint16_t protocol_version = 0;
  uint64_t database_size = 0;

  Bytes Encode() const;
  [[nodiscard]] static Result<ServerHelloMessage> Decode(BytesView frame);
};

/// Abort frame: carries a status code and a human-readable reason.
struct ErrorMessage {
  uint8_t code = 0;  ///< a StatusCode value
  std::string reason;

  Bytes Encode() const;
  [[nodiscard]] static Result<ErrorMessage> Decode(BytesView frame);
};

/// Encodes `status` as an Error frame (the abort both session drivers
/// send before giving up on a peer).
Bytes EncodeErrorFrame(const Status& status);

/// Translates a received Error frame into a local Status ("peer
/// aborted: <reason>"); an undecodable frame becomes a ProtocolError.
[[nodiscard]] Status StatusFromErrorFrame(BytesView frame);

/// Sessions: opens one query on an established connection. The kind
/// is a StatisticKind wire value (validated by the server, not the
/// decoder, so an unknown kind travels and is answered with an Error
/// frame); column names resolve against the server's ColumnRegistry. An
/// empty primary name means the server's default column; column2 is
/// only meaningful for two-column statistics.
///
/// The header carries an optional extension block (absent on old
/// encoders, so the wire stays backward compatible): a coordinator
/// fanning a query out sets blind_partial so each shard adds its
/// zero-share of the per-query nonce to the partial fold (see
/// crypto/zero_share.h). Ordinary clients never set it; a server
/// without shard-blinding configuration rejects it with an Error frame.
struct QueryHeaderMessage {
  uint8_t kind = 0;  ///< StatisticKind wire value
  std::string column;
  std::string column2;
  bool blind_partial = false;
  uint64_t blind_nonce = 0;  ///< unique per query under one blinding seed

  Bytes Encode() const;
  [[nodiscard]] static Result<QueryHeaderMessage> Decode(BytesView frame);
};

/// Sessions: the server's acceptance of a QueryHeader, carrying the
/// resolved column's row count (the client shapes its index vector
/// accordingly).
struct QueryAcceptMessage {
  uint64_t rows = 0;

  Bytes Encode() const;
  [[nodiscard]] static Result<QueryAcceptMessage> Decode(BytesView frame);
};

/// Sessions: clean end-of-session marker, so the server can tell a
/// finished client from a vanished one.
struct GoodbyeMessage {
  Bytes Encode() const;
  [[nodiscard]] static Result<GoodbyeMessage> Decode(BytesView frame);
};

/// Cluster sessions: a coordinator answers with this instead of
/// SumResponse when some shards failed but the per-query policy allows
/// serving the merged fold over the responsive ones. The flag fields
/// tell the client exactly how much of the row space the sum covers, so
/// a partial answer can never masquerade as a complete one.
struct PartialResultMessage {
  PaillierCiphertext sum;         ///< merged fold over responsive shards
  uint64_t shards_total = 0;      ///< shards in the column's shard map
  uint64_t shards_responded = 0;  ///< shards whose partial is included
  uint64_t rows_covered = 0;      ///< global rows the sum covers

  Bytes Encode(const PaillierPublicKey& pub) const;
  [[nodiscard]] static Result<PartialResultMessage> Decode(
      const PaillierPublicKey& pub, BytesView frame);
};

/// Reads the type tag without consuming the frame.
[[nodiscard]] Result<MessageType> PeekMessageType(BytesView frame);

}  // namespace ppstats

#endif  // PPSTATS_CORE_MESSAGES_H_
