#include "common/status.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace ppstats {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
  };
  const Case cases[] = {
      {Status::InvalidArgument("a"), StatusCode::kInvalidArgument},
      {Status::FailedPrecondition("b"), StatusCode::kFailedPrecondition},
      {Status::OutOfRange("c"), StatusCode::kOutOfRange},
      {Status::CryptoError("d"), StatusCode::kCryptoError},
      {Status::ProtocolError("e"), StatusCode::kProtocolError},
      {Status::SerializationError("f"), StatusCode::kSerializationError},
      {Status::NotFound("g"), StatusCode::kNotFound},
      {Status::ResourceExhausted("h"), StatusCode::kResourceExhausted},
      {Status::Internal("i"), StatusCode::kInternal},
      {Status::DeadlineExceeded("j"), StatusCode::kDeadlineExceeded},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_FALSE(c.status.message().empty());
  }
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status s = Status::CryptoError("no inverse");
  EXPECT_EQ(s.ToString(), "CryptoError: no inverse");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

// Switch-exhaustiveness tripwire: StatusCodeName must know every code in
// [0, kStatusCodeCount). Adding an enumerator without extending the
// switch (or without bumping kStatusCodeCount) fails here, not in some
// log line that silently prints "Unknown".
TEST(StatusTest, CodeNamesAreExhaustiveAndUnique) {
  std::set<std::string_view> names;
  for (size_t i = 0; i < kStatusCodeCount; ++i) {
    const auto code = static_cast<StatusCode>(i);
    const std::string_view name = StatusCodeName(code);
    EXPECT_FALSE(name.empty()) << "code " << i;
    EXPECT_NE(name, "Unknown") << "code " << i << " missing from the "
                               << "StatusCodeName switch";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate name '" << name << "' for code " << i;
  }
  // A code past the declared count is the sentinel, so the tripwire
  // itself is testable.
  EXPECT_EQ(StatusCodeName(static_cast<StatusCode>(kStatusCodeCount)),
            "Unknown");
}

TEST(StatusTest, CodeNamesAreDistinct) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kProtocolError), "ProtocolError");
  EXPECT_NE(StatusCodeName(StatusCode::kInternal),
            StatusCodeName(StatusCode::kNotFound));
}

Status Fails() { return Status::OutOfRange("nope"); }
Status Succeeds() { return Status::OK(); }

Status UsesReturnIfError(bool fail) {
  PPSTATS_RETURN_IF_ERROR(Succeeds());
  if (fail) {
    PPSTATS_RETURN_IF_ERROR(Fails());
  }
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(false).ok());
  Status s = UsesReturnIfError(true);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

Status CountingOk(int* calls) {
  ++*calls;
  return Status::OK();
}

Status CountingFail(int* calls) {
  ++*calls;
  return Status::Internal("counted");
}

Status UsesReturnIfErrorWithSideEffects(int* calls) {
  PPSTATS_RETURN_IF_ERROR(CountingOk(calls));
  PPSTATS_RETURN_IF_ERROR(CountingFail(calls));
  PPSTATS_RETURN_IF_ERROR(CountingOk(calls));  // must not run
  return Status::OK();
}

// The macro documents "Evaluates `expr` once" — a side-effecting
// expression must run exactly once on both the OK and the error path,
// and nothing after the failing line may execute.
TEST(StatusTest, ReturnIfErrorEvaluatesExpressionExactlyOnce) {
  int calls = 0;
  Status s = UsesReturnIfErrorWithSideEffects(&calls);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 2);  // one OK + one failure; the third line never ran
}

TEST(StatusTest, IgnoreErrorConsumesNodiscardValue) {
  // Compiles without a [[nodiscard]] warning under -Werror: this is the
  // sanctioned way to drop a status on a best-effort path.
  Fails().IgnoreError();
  Succeeds().IgnoreError();
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ValueOrDieOnErrorPrintsStatusAndAborts) {
  EXPECT_DEATH(
      (void)Result<int>(Status::NotFound("no such column")).ValueOrDie(),
      "NotFound: no such column");
}

Result<int> ProducesValue() { return 7; }
Result<int> ProducesError() { return Status::Internal("boom"); }

Result<int> UsesAssignOrReturn(bool fail) {
  PPSTATS_ASSIGN_OR_RETURN(int a, ProducesValue());
  if (fail) {
    PPSTATS_ASSIGN_OR_RETURN(int b, ProducesError());
    return a + b;
  }
  return a + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = UsesAssignOrReturn(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  Result<int> err = UsesAssignOrReturn(true);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

Result<int> CountingProduce(int* calls) {
  ++*calls;
  return 3;
}

Result<int> UsesAssignOrReturnWithSideEffects(int* calls) {
  PPSTATS_ASSIGN_OR_RETURN(int a, CountingProduce(calls));
  PPSTATS_ASSIGN_OR_RETURN(int b, CountingProduce(calls));
  return a + b;
}

TEST(ResultTest, AssignOrReturnEvaluatesExpressionExactlyOnce) {
  int calls = 0;
  Result<int> r = UsesAssignOrReturnWithSideEffects(&calls);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 6);
  EXPECT_EQ(calls, 2);
}

Result<std::unique_ptr<int>> MakeBoxed(bool fail) {
  if (fail) return Status::NotFound("no box");
  return std::make_unique<int>(11);
}

Result<int> UnboxesViaAssignOrReturn(bool fail) {
  // ASSIGN_OR_RETURN must move, not copy: unique_ptr has no copy ctor,
  // so this function compiling at all is the assertion.
  PPSTATS_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBoxed(fail));
  return *box;
}

TEST(ResultTest, AssignOrReturnMovesMoveOnlyPayloads) {
  Result<int> ok = UnboxesViaAssignOrReturn(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 11);
  Result<int> err = UnboxesViaAssignOrReturn(true);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ErroredMoveOnlyResultReportsStatus) {
  Result<std::unique_ptr<int>> r = MakeBoxed(true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, IgnoreErrorConsumesNodiscardValue) {
  MakeBoxed(true).IgnoreError();
  MakeBoxed(false).IgnoreError();
  ProducesError().IgnoreError();
}

}  // namespace
}  // namespace ppstats
