// Wire format: length- and type-safe serialization for protocol messages.
//
// All multi-byte integers are big-endian. Variable-size fields are
// length-prefixed with a u32. Every protocol message starts with a one-
// byte message type tag so a peer can reject unexpected messages with a
// ProtocolError instead of misparsing them.

#ifndef PPSTATS_NET_WIRE_H_
#define PPSTATS_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/result.h"

namespace ppstats {

/// Appends typed values to a byte buffer.
class WireWriter {
 public:
  WireWriter() = default;

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);

  /// Writes a u32 length prefix followed by the raw bytes.
  void WriteBytes(BytesView bytes);

  /// Appends the bytes as they are, with no length prefix.
  void WriteRaw(BytesView bytes);

  /// Writes a non-negative BigInt as length-prefixed big-endian bytes.
  void WriteBigInt(const BigInt& v);

  /// Writes a non-negative BigInt as exactly `width` big-endian bytes
  /// with no length prefix (for fixed-width ciphertexts).
  [[nodiscard]] Status WriteFixedBigInt(const BigInt& v, size_t width);

  /// Sizes the buffer for a frame of `bytes` bytes in total.
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  const Bytes& bytes() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Reads typed values from a byte buffer, with bounds checking.
class WireReader {
 public:
  explicit WireReader(BytesView data) : data_(data) {}

  [[nodiscard]] Result<uint8_t> ReadU8();
  [[nodiscard]] Result<uint32_t> ReadU32();
  [[nodiscard]] Result<uint64_t> ReadU64();
  [[nodiscard]] Result<Bytes> ReadBytes();
  [[nodiscard]] Result<BigInt> ReadBigInt();
  [[nodiscard]] Result<BigInt> ReadFixedBigInt(size_t width);
  /// The next `count` bytes, uncopied: the view aliases the reader's
  /// buffer.
  [[nodiscard]] Result<BytesView> ReadRaw(size_t count) { return Take(count); }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// Fails unless the whole buffer has been consumed.
  [[nodiscard]] Status ExpectEnd() const;

 private:
  [[nodiscard]] Result<BytesView> Take(size_t count);

  BytesView data_;
  size_t pos_ = 0;
};

}  // namespace ppstats

#endif  // PPSTATS_NET_WIRE_H_
