#include "net/wire.h"

namespace ppstats {

void WireWriter::WriteU8(uint8_t v) { buffer_.push_back(v); }

void WireWriter::WriteU32(uint32_t v) {
  const size_t at = buffer_.size();
  buffer_.resize(at + 4);
  StoreBigEndian32(buffer_.data() + at, v);
}

void WireWriter::WriteU64(uint64_t v) {
  const size_t at = buffer_.size();
  buffer_.resize(at + 8);
  StoreBigEndian64(buffer_.data() + at, v);
}

void WireWriter::WriteBytes(BytesView bytes) {
  WriteU32(static_cast<uint32_t>(bytes.size()));
  WriteRaw(bytes);
}

void WireWriter::WriteRaw(BytesView bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void WireWriter::WriteBigInt(const BigInt& v) {
  WriteBytes(v.ToBytes());
}

Status WireWriter::WriteFixedBigInt(const BigInt& v, size_t width) {
  if (v.IsNegative()) {
    return Status::InvalidArgument("cannot serialize negative BigInt");
  }
  if ((v.BitLength() + 7) / 8 > width) {
    return Status::OutOfRange("BigInt does not fit fixed width");
  }
  const size_t at = buffer_.size();
  buffer_.resize(at + width);
  v.ToBytesInto(std::span<uint8_t>(buffer_).subspan(at, width));
  return Status::OK();
}

Result<BytesView> WireReader::Take(size_t count) {
  if (data_.size() - pos_ < count) {
    return Status::SerializationError("unexpected end of message");
  }
  BytesView out = data_.subspan(pos_, count);
  pos_ += count;
  return out;
}

Result<uint8_t> WireReader::ReadU8() {
  PPSTATS_ASSIGN_OR_RETURN(BytesView b, Take(1));
  return b[0];
}

Result<uint32_t> WireReader::ReadU32() {
  PPSTATS_ASSIGN_OR_RETURN(BytesView b, Take(4));
  return LoadBigEndian32(b.data());
}

Result<uint64_t> WireReader::ReadU64() {
  PPSTATS_ASSIGN_OR_RETURN(BytesView b, Take(8));
  return LoadBigEndian64(b.data());
}

Result<Bytes> WireReader::ReadBytes() {
  PPSTATS_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  PPSTATS_ASSIGN_OR_RETURN(BytesView b, Take(len));
  return Bytes(b.begin(), b.end());
}

Result<BigInt> WireReader::ReadBigInt() {
  PPSTATS_ASSIGN_OR_RETURN(Bytes b, ReadBytes());
  return BigInt::FromBytes(b);
}

Result<BigInt> WireReader::ReadFixedBigInt(size_t width) {
  PPSTATS_ASSIGN_OR_RETURN(BytesView b, Take(width));
  return BigInt::FromBytes(b);
}

Status WireReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::SerializationError("trailing bytes after message");
  }
  return Status::OK();
}

}  // namespace ppstats
