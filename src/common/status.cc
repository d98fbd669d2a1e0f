#include "common/status.h"

namespace ppstats {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kCryptoError:
      return "CryptoError";
    case StatusCode::kProtocolError:
      return "ProtocolError";
    case StatusCode::kSerializationError:
      return "SerializationError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace ppstats
