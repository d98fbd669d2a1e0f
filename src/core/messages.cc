#include "core/messages.h"

namespace ppstats {

namespace {

Status ExpectType(WireReader& reader, MessageType expected) {
  PPSTATS_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
  if (tag != static_cast<uint8_t>(expected)) {
    return Status::ProtocolError("unexpected message type");
  }
  return Status::OK();
}

// Tag, start index and count: the 13 bytes ahead of an IndexBatch's
// ciphertexts, in a writer sized for the whole frame.
WireWriter IndexBatchHeader(uint64_t start_index, uint32_t count,
                            size_t payload_bytes) {
  WireWriter w;
  w.Reserve(1 + 8 + 4 + payload_bytes);
  w.WriteU8(static_cast<uint8_t>(MessageType::kIndexBatch));
  w.WriteU64(start_index);
  w.WriteU32(count);
  return w;
}

// The [0, n^2) check on fixed-width wire ciphertexts. At equal width,
// big-endian byte order is numeric order, so each row is compared with
// n^2 byte by byte from the top, read straight from n^2's limbs (no
// encoding per frame); an n^2 wider than the wire width is above every
// row.
bool RowsBelowNSquared(const PaillierPublicKey& pub, BytesView rows) {
  const size_t width = pub.CiphertextBytes();
  const BigInt& bound = pub.n_squared();
  if (bound.BitLength() > 8 * width) return true;
  auto bound_byte = [&bound, width](size_t i) -> uint8_t {
    const size_t k = width - 1 - i;  // little-endian byte index
    return k / 8 < bound.LimbCount()
               ? static_cast<uint8_t>(bound.limbs()[k / 8] >> (8 * (k % 8)))
               : 0;
  };
  for (size_t offset = 0; offset < rows.size(); offset += width) {
    const uint8_t* row = rows.data() + offset;
    size_t i = 0;
    while (i < width && row[i] == bound_byte(i)) ++i;
    if (i == width || row[i] > bound_byte(i)) return false;
  }
  return true;
}

}  // namespace

Result<MessageType> PeekMessageType(BytesView frame) {
  if (frame.empty()) {
    return Status::SerializationError("empty frame");
  }
  uint8_t tag = frame[0];
  if (tag < static_cast<uint8_t>(MessageType::kIndexBatch) ||
      tag > static_cast<uint8_t>(MessageType::kPartialResult)) {
    return Status::ProtocolError("unknown message type tag");
  }
  return static_cast<MessageType>(tag);
}

Bytes IndexBatchMessage::Encode(const PaillierPublicKey& pub) const {
  const size_t width = pub.CiphertextBytes();
  WireWriter w = IndexBatchHeader(start_index,
                                  static_cast<uint32_t>(ciphertexts.size()),
                                  ciphertexts.size() * width);
  for (const PaillierCiphertext& ct : ciphertexts) {
    // Ciphertexts are < n^2 by construction; fixed width cannot fail.
    w.WriteFixedBigInt(ct.value, width).IgnoreError();
  }
  return w.Take();
}

Bytes IndexBatchMessage::EncodeRaw(uint64_t start_index, uint32_t count,
                                   BytesView payload) {
  WireWriter w = IndexBatchHeader(start_index, count, payload.size());
  w.WriteRaw(payload);
  return w.Take();
}

Result<IndexBatchView> IndexBatchMessage::Parse(const PaillierPublicKey& pub,
                                                BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kIndexBatch));
  PPSTATS_ASSIGN_OR_RETURN(uint64_t start_index, r.ReadU64());
  PPSTATS_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  // Validate the claimed count against the actual payload before
  // touching it: a hostile count must not drive allocation.
  const size_t width = pub.CiphertextBytes();
  if (static_cast<uint64_t>(count) * width != r.remaining()) {
    return Status::SerializationError("ciphertext count/payload mismatch");
  }
  PPSTATS_ASSIGN_OR_RETURN(BytesView payload, r.ReadRaw(r.remaining()));
  if (!RowsBelowNSquared(pub, payload)) {
    return Status::ProtocolError("index ciphertext >= n^2");
  }
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return IndexBatchView(start_index, count, payload);
}

Result<IndexBatchMessage> IndexBatchMessage::Decode(
    const PaillierPublicKey& pub, BytesView frame) {
  PPSTATS_ASSIGN_OR_RETURN(IndexBatchView view, Parse(pub, frame));
  const size_t width = pub.CiphertextBytes();
  IndexBatchMessage msg;
  msg.start_index = view.start_index;
  msg.ciphertexts.reserve(view.count);
  for (size_t i = 0; i < view.count; ++i) {
    msg.ciphertexts.push_back(PaillierCiphertext{
        BigInt::FromBytes(view.payload.subspan(i * width, width))});
  }
  return msg;
}

Result<IndexBatchView> IndexUploadSequencer::Next(
    const PaillierPublicKey& pub, BytesView frame) {
  if (complete()) {
    return Status::FailedPrecondition("response already produced");
  }
  PPSTATS_ASSIGN_OR_RETURN(IndexBatchView batch,
                           IndexBatchMessage::Parse(pub, frame));
  if (batch.start_index != next_) {
    return Status::ProtocolError("out-of-order index chunk");
  }
  if (batch.count > end_ - next_) {
    return Status::ProtocolError("index chunk overruns the database");
  }
  next_ += batch.count;
  return batch;
}

Bytes SumResponseMessage::Encode(const PaillierPublicKey& pub) const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kSumResponse));
  // Ciphertexts are < n^2 by construction; fixed width cannot fail.
  w.WriteFixedBigInt(sum.value, pub.CiphertextBytes()).IgnoreError();
  return w.Take();
}

Result<SumResponseMessage> SumResponseMessage::Decode(
    const PaillierPublicKey& pub, BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kSumResponse));
  SumResponseMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.sum.value,
                           r.ReadFixedBigInt(pub.CiphertextBytes()));
  if (msg.sum.value >= pub.n_squared()) {
    return Status::ProtocolError("sum ciphertext >= n^2");
  }
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes RingPartialMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kRingPartial));
  w.WriteBigInt(running_sum);
  return w.Take();
}

Result<RingPartialMessage> RingPartialMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kRingPartial));
  RingPartialMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.running_sum, r.ReadBigInt());
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes ClientHelloMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kClientHello));
  w.WriteU32(protocol_version);
  w.WriteBytes(public_key_blob);
  return w.Take();
}

Result<ClientHelloMessage> ClientHelloMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kClientHello));
  ClientHelloMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version > 0xFFFF) {
    return Status::ProtocolError("implausible protocol version");
  }
  msg.protocol_version = static_cast<uint16_t>(version);
  PPSTATS_ASSIGN_OR_RETURN(msg.public_key_blob, r.ReadBytes());
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes ServerHelloMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kServerHello));
  w.WriteU32(protocol_version);
  w.WriteU64(database_size);
  return w.Take();
}

Result<ServerHelloMessage> ServerHelloMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kServerHello));
  ServerHelloMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version > 0xFFFF) {
    return Status::ProtocolError("implausible protocol version");
  }
  msg.protocol_version = static_cast<uint16_t>(version);
  PPSTATS_ASSIGN_OR_RETURN(msg.database_size, r.ReadU64());
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes ErrorMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kError));
  w.WriteU8(code);
  w.WriteBytes(BytesView(reinterpret_cast<const uint8_t*>(reason.data()),
                         reason.size()));
  return w.Take();
}

Result<ErrorMessage> ErrorMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kError));
  ErrorMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.code, r.ReadU8());
  PPSTATS_ASSIGN_OR_RETURN(Bytes reason_bytes, r.ReadBytes());
  msg.reason.assign(reason_bytes.begin(), reason_bytes.end());
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes EncodeErrorFrame(const Status& status) {
  ErrorMessage msg;
  msg.code = static_cast<uint8_t>(status.code());
  msg.reason = status.message();
  return msg.Encode();
}

Status StatusFromErrorFrame(BytesView frame) {
  Result<ErrorMessage> msg = ErrorMessage::Decode(frame);
  if (!msg.ok()) return Status::ProtocolError("undecodable error frame");
  return Status(static_cast<StatusCode>(msg->code),
                "peer aborted: " + msg->reason);
}

namespace {

// QueryHeader extension flag bits. The extension block is only encoded
// when a flag is set, so frames from old encoders (no block) and new
// encoders (no blinding requested) stay byte-identical.
constexpr uint8_t kQueryHeaderBlindPartial = 0x01;

}  // namespace

Bytes QueryHeaderMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kQueryHeader));
  w.WriteU8(kind);
  w.WriteBytes(BytesView(reinterpret_cast<const uint8_t*>(column.data()),
                         column.size()));
  w.WriteBytes(BytesView(reinterpret_cast<const uint8_t*>(column2.data()),
                         column2.size()));
  if (blind_partial) {
    w.WriteU8(kQueryHeaderBlindPartial);
    w.WriteU64(blind_nonce);
  }
  return w.Take();
}

Result<QueryHeaderMessage> QueryHeaderMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kQueryHeader));
  QueryHeaderMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.kind, r.ReadU8());
  PPSTATS_ASSIGN_OR_RETURN(Bytes column, r.ReadBytes());
  msg.column.assign(column.begin(), column.end());
  PPSTATS_ASSIGN_OR_RETURN(Bytes column2, r.ReadBytes());
  msg.column2.assign(column2.begin(), column2.end());
  if (r.remaining() > 0) {
    PPSTATS_ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
    if (flags != kQueryHeaderBlindPartial) {
      return Status::ProtocolError("unknown query header extension flags");
    }
    msg.blind_partial = true;
    PPSTATS_ASSIGN_OR_RETURN(msg.blind_nonce, r.ReadU64());
  }
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes QueryAcceptMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kQueryAccept));
  w.WriteU64(rows);
  return w.Take();
}

Result<QueryAcceptMessage> QueryAcceptMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kQueryAccept));
  QueryAcceptMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.rows, r.ReadU64());
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes GoodbyeMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kGoodbye));
  return w.Take();
}

Result<GoodbyeMessage> GoodbyeMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kGoodbye));
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return GoodbyeMessage{};
}

Bytes PartialResultMessage::Encode(const PaillierPublicKey& pub) const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kPartialResult));
  // Ciphertexts are < n^2 by construction; fixed width cannot fail.
  w.WriteFixedBigInt(sum.value, pub.CiphertextBytes()).IgnoreError();
  w.WriteU64(shards_total);
  w.WriteU64(shards_responded);
  w.WriteU64(rows_covered);
  return w.Take();
}

Result<PartialResultMessage> PartialResultMessage::Decode(
    const PaillierPublicKey& pub, BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kPartialResult));
  PartialResultMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.sum.value,
                           r.ReadFixedBigInt(pub.CiphertextBytes()));
  if (msg.sum.value >= pub.n_squared()) {
    return Status::ProtocolError("sum ciphertext >= n^2");
  }
  PPSTATS_ASSIGN_OR_RETURN(msg.shards_total, r.ReadU64());
  PPSTATS_ASSIGN_OR_RETURN(msg.shards_responded, r.ReadU64());
  PPSTATS_ASSIGN_OR_RETURN(msg.rows_covered, r.ReadU64());
  if (msg.shards_responded == 0 || msg.shards_responded > msg.shards_total) {
    return Status::ProtocolError("implausible partial-result shard counts");
  }
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

Bytes RingBroadcastMessage::Encode() const {
  WireWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kRingBroadcast));
  w.WriteBigInt(total);
  return w.Take();
}

Result<RingBroadcastMessage> RingBroadcastMessage::Decode(BytesView frame) {
  WireReader r(frame);
  PPSTATS_RETURN_IF_ERROR(ExpectType(r, MessageType::kRingBroadcast));
  RingBroadcastMessage msg;
  PPSTATS_ASSIGN_OR_RETURN(msg.total, r.ReadBigInt());
  PPSTATS_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

}  // namespace ppstats
