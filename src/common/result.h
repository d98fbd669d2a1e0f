// Result<T>: a value or a Status, in the style of arrow::Result.
//
// Library functions that produce a value return Result<T>; callers check
// ok() before dereferencing, or use PPSTATS_ASSIGN_OR_RETURN.

#ifndef PPSTATS_COMMON_RESULT_H_
#define PPSTATS_COMMON_RESULT_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/status.h"

namespace ppstats {

/// Holds either a value of type T or an error Status.
///
/// Like Status, Result is class-level [[nodiscard]]: discarding a
/// Result-returning call is a compile warning (-Werror in CI). Use
/// IgnoreError() where draining a value best-effort is intentional.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs an OK result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs an errored result. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }

  /// The error status; OK when a value is present.
  [[nodiscard]] const Status& status() const { return status_; }

  /// Explicitly discards this result (value and error alike). Use only
  /// where ignoring the outcome is deliberate, e.g. draining a peer's
  /// final frame on a teardown path.
  void IgnoreError() const {}

  /// The held value. Requires ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  /// Moves the value out. On an error result it prints the status to
  /// stderr and aborts, in every build type.
  T ValueOrDie() && {
    if (!ok()) {
      std::fprintf(stderr, "ValueOrDie on an error Result: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ has a value
};

/// Assigns the value of a Result expression to `lhs`, or propagates the
/// error to the caller. `lhs` may include a declaration:
///   PPSTATS_ASSIGN_OR_RETURN(auto key, Keygen(512));
#define PPSTATS_ASSIGN_OR_RETURN(lhs, expr)                     \
  PPSTATS_ASSIGN_OR_RETURN_IMPL_(                               \
      PPSTATS_RESULT_CONCAT_(_ppstats_result_, __LINE__), lhs, expr)

#define PPSTATS_RESULT_CONCAT_INNER_(a, b) a##b
#define PPSTATS_RESULT_CONCAT_(a, b) PPSTATS_RESULT_CONCAT_INNER_(a, b)
#define PPSTATS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).ValueOrDie()

}  // namespace ppstats

#endif  // PPSTATS_COMMON_RESULT_H_
