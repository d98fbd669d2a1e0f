// Status: lightweight error propagation for library code.
//
// Following the RocksDB / Arrow convention used across database systems,
// public library entry points return Status (or Result<T>, see result.h)
// instead of throwing exceptions. Exceptions remain disabled by policy in
// all core code paths.
//
// Status is class-level [[nodiscard]]: any call that returns a Status by
// value and ignores it is a compile warning (-Werror in CI). Where
// dropping a status is intentional — best-effort teardown, shutdown
// paths — say so explicitly with IgnoreError():
//
//   channel->Send(goodbye).IgnoreError();  // peer may already be gone

#ifndef PPSTATS_COMMON_STATUS_H_
#define PPSTATS_COMMON_STATUS_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace ppstats {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< caller passed a malformed or out-of-range value
  kFailedPrecondition,///< object not in a state where the call is legal
  kOutOfRange,        ///< value outside representable / plaintext space
  kCryptoError,       ///< a cryptographic operation failed (e.g. no inverse)
  kProtocolError,     ///< peer sent an unexpected or malformed message
  kSerializationError,///< wire bytes could not be decoded
  kNotFound,          ///< requested entity does not exist
  kResourceExhausted, ///< a pool or buffer ran out
  kInternal,          ///< invariant violation inside the library
  kDeadlineExceeded,  ///< a blocking operation ran past its deadline
  kAlreadyExists,     ///< the entity (socket path, name) is already taken
  kUnavailable,       ///< the service is shutting down; try again elsewhere or later
};

/// Number of StatusCode values. Keep in sync when adding a code: the
/// status test walks [0, kStatusCodeCount) and fails if StatusCodeName
/// does not know every code (switch-exhaustiveness tripwire).
inline constexpr size_t kStatusCodeCount = 13;

/// Human-readable name of a StatusCode ("OK", "InvalidArgument", ...).
[[nodiscard]] std::string_view StatusCodeName(StatusCode code);

/// Result of an operation: either OK or a code plus a message.
///
/// Statuses are cheap to copy in the OK case (no allocation) and carry a
/// message string only on error. Use the PPSTATS_RETURN_IF_ERROR macro to
/// propagate.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status CryptoError(std::string msg) {
    return Status(StatusCode::kCryptoError, std::move(msg));
  }
  static Status ProtocolError(std::string msg) {
    return Status(StatusCode::kProtocolError, std::move(msg));
  }
  static Status SerializationError(std::string msg) {
    return Status(StatusCode::kSerializationError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Explicitly discards this status. Use only where ignoring a failure
  /// is a deliberate decision (best-effort teardown, already-failing
  /// paths), so the intent survives code review and grep.
  void IgnoreError() const {}

  /// "OK" or "<CodeName>: <message>".
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status to the caller. Evaluates `expr` once.
#define PPSTATS_RETURN_IF_ERROR(expr)                \
  do {                                               \
    ::ppstats::Status _ppstats_status = (expr);      \
    if (!_ppstats_status.ok()) return _ppstats_status; \
  } while (0)

}  // namespace ppstats

#endif  // PPSTATS_COMMON_STATUS_H_
