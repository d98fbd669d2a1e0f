#include "core/query.h"

#include <gtest/gtest.h>

namespace ppstats {
namespace {

TEST(StatisticKindTest, WireRoundTrip) {
  for (StatisticKind kind : {StatisticKind::kSum, StatisticKind::kSumOfSquares,
                             StatisticKind::kProduct}) {
    EXPECT_EQ(StatisticKindFromWire(static_cast<uint8_t>(kind)).ValueOrDie(),
              kind);
  }
}

TEST(StatisticKindTest, UnknownWireValuesRejected) {
  for (uint8_t wire : {uint8_t{0}, uint8_t{4}, uint8_t{99}, uint8_t{255}}) {
    Result<StatisticKind> decoded = StatisticKindFromWire(wire);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ExponentTransformTest, RowExponentsMatchTheStatistic) {
  Database other("o", {7, 11});
  EXPECT_EQ(ExponentTransform::Identity().RowExponent(0, 6), 6u);
  EXPECT_EQ(ExponentTransform::Square().RowExponent(1, 6), 36u);
  EXPECT_EQ(ExponentTransform::ProductWith(&other).RowExponent(1, 6), 66u);
}

TEST(ExponentTransformTest, SquareDoesNotWrapNearUint32Max) {
  // (2^32 - 1)^2 = 2^64 - 2^33 + 1: the widest exponent any column
  // yields, exact in u64.
  const uint64_t e = ExponentTransform::Square().RowExponent(0, 0xFFFFFFFFu);
  EXPECT_EQ(e, 0xFFFFFFFE00000001ull);
  EXPECT_EQ(BigInt(e), BigInt(0xFFFFFFFFull) * BigInt(0xFFFFFFFFull));
  Database other("o", {0xFFFFFFFFu});
  EXPECT_EQ(ExponentTransform::ProductWith(&other).RowExponent(0, 0xFFFFFFFFu),
            0xFFFFFFFE00000001ull);
}

TEST(CompileQueryTest, DefaultSpecCoversWholeColumn) {
  Database db("d", {1, 2, 3});
  CompiledQuery query = CompileQuery(QuerySpec{}, &db).ValueOrDie();
  EXPECT_EQ(query.column, &db);
  EXPECT_EQ(query.begin, 0u);
  EXPECT_EQ(query.end, 3u);
  EXPECT_EQ(query.rows(), 3u);
  EXPECT_FALSE(query.blinding.has_value());
  EXPECT_EQ(query.transform.kind(), StatisticKind::kSum);
}

TEST(CompileQueryTest, PartitionAndBlindingCarryThrough) {
  Database db("d", {1, 2, 3, 4, 5});
  QuerySpec spec;
  spec.partition = std::make_pair<size_t, size_t>(1, 4);
  spec.blinding = BigInt(42);
  CompiledQuery query = CompileQuery(spec, &db).ValueOrDie();
  EXPECT_EQ(query.begin, 1u);
  EXPECT_EQ(query.end, 4u);
  EXPECT_EQ(*query.blinding, BigInt(42));
}

TEST(CompileQueryTest, PartitionOutsideColumnRejected) {
  Database db("d", {1, 2, 3});
  QuerySpec spec;
  spec.partition = std::make_pair<size_t, size_t>(1, 4);
  EXPECT_FALSE(CompileQuery(spec, &db).ok());
  spec.partition = std::make_pair<size_t, size_t>(2, 1);
  EXPECT_FALSE(CompileQuery(spec, &db).ok());
}

TEST(CompileQueryTest, ProductRequiresMatchingSecondColumn) {
  Database db("d", {1, 2, 3});
  Database short_col("s", {1, 2});
  Database ok_col("o", {4, 5, 6});
  QuerySpec spec;
  spec.kind = StatisticKind::kProduct;
  EXPECT_FALSE(CompileQuery(spec, &db).ok());  // no second column
  EXPECT_FALSE(CompileQuery(spec, &db, &short_col).ok());  // size mismatch
  CompiledQuery query = CompileQuery(spec, &db, &ok_col).ValueOrDie();
  EXPECT_EQ(query.transform.second_column(), &ok_col);
}

TEST(CompileQueryTest, SecondColumnWithSingleColumnStatisticRejected) {
  Database db("d", {1, 2, 3});
  Database other("o", {4, 5, 6});
  QuerySpec spec;  // kSum
  EXPECT_FALSE(CompileQuery(spec, &db, &other).ok());
}

TEST(CompileQueryTest, RegistryResolvesNamedColumns) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("x", {1, 2})).ok());
  ASSERT_TRUE(registry.Register(Database("y", {3, 4})).ok());
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kProduct);
  header.column = "x";
  header.column2 = "y";
  CompiledQuery query = CompileQuery(header, registry).ValueOrDie();
  EXPECT_EQ(query.column, registry.Find("x"));
  EXPECT_EQ(query.transform.second_column(), registry.Find("y"));
}

TEST(CompileQueryTest, EmptyNameFallsBackToDefaultColumn) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("x", {1, 2})).ok());
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kSum);
  CompiledQuery query = CompileQuery(header, registry, "x").ValueOrDie();
  EXPECT_EQ(query.column, registry.Find("x"));

  Result<CompiledQuery> no_default = CompileQuery(header, registry);
  EXPECT_FALSE(no_default.ok());
  EXPECT_EQ(no_default.status().code(), StatusCode::kNotFound);
}

TEST(CompileQueryTest, UnknownColumnNameIsNotFound) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("x", {1, 2})).ok());
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kSum);
  header.column = "nope";
  Result<CompiledQuery> query = CompileQuery(header, registry);
  EXPECT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(query.status().message(), "unknown column: nope");
}

TEST(CompileQueryTest, DefaultColumnIsTheConfiguredElseTheSoleName) {
  const std::vector<std::string> one = {"a"};
  const std::vector<std::string> two = {"a", "b"};
  EXPECT_EQ(ResolveDefaultColumn("", one).ValueOrDie(), "a");
  EXPECT_EQ(ResolveDefaultColumn("", two).ValueOrDie(), "");
  EXPECT_EQ(ResolveDefaultColumn("b", two).ValueOrDie(), "b");
  Result<std::string> unknown = ResolveDefaultColumn("c", two);
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(ColumnRegistryTest, RegisterFindAndNames) {
  ColumnRegistry registry;
  EXPECT_TRUE(registry.empty());
  ASSERT_TRUE(registry.Register(Database("b", {1})).ok());
  ASSERT_TRUE(registry.Register(Database("a", {2})).ok());
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.Find("a"), nullptr);
  EXPECT_EQ(registry.Find("a")->value(0), 2u);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  EXPECT_EQ(registry.ColumnNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(ColumnRegistryTest, RejectsDuplicatesAndEmptyNames) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("a", {1})).ok());
  EXPECT_FALSE(registry.Register(Database("a", {2})).ok());
  EXPECT_FALSE(registry.Register(Database("", {3})).ok());
}

TEST(ColumnRegistryTest, PointersStayStableAcrossInsertions) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("m", {5})).ok());
  const Database* m = registry.Find("m");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        registry.Register(Database("col" + std::to_string(i), {1})).ok());
  }
  EXPECT_EQ(registry.Find("m"), m);
}

}  // namespace
}  // namespace ppstats
