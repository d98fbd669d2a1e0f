// Query layer: what a client asks for, separated from how the server
// computes it.
//
// Every protocol variant in this repo — selected sum, weighted sum,
// sum-of-squares for variance, x*y for covariance, partitioned
// multi-client shares, blinded shard partials — is the same server
// fold prod_i E(I_i)^{e_i} mod n^2 with a different per-row exponent
// e_i. A QuerySpec names the statistic and the column(s); compiling it
// lowers the statistic kind to an ExponentTransform (the e_i rule) plus
// the partition/blinding the serving side applies. The fold engine and
// SumServer only ever see compiled queries, so variance and covariance
// are no longer special cases inside the server.

#ifndef PPSTATS_CORE_QUERY_H_
#define PPSTATS_CORE_QUERY_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "core/messages.h"
#include "db/column_registry.h"
#include "db/database.h"

namespace ppstats {

/// The statistic a query computes over the selected rows. Values are
/// wire tags (QueryHeader frames carry them as a u8).
enum class StatisticKind : uint8_t {
  kSum = 1,           ///< sum_i w_i x_i
  kSumOfSquares = 2,  ///< sum_i w_i x_i^2 (variance building block)
  kProduct = 3,       ///< sum_i w_i x_i y_i (covariance building block)
};

/// Validates a wire-decoded statistic kind.
[[nodiscard]] Result<StatisticKind> StatisticKindFromWire(uint8_t wire);

/// Human-readable kind name, for diagnostics.
const char* StatisticKindName(StatisticKind kind);

/// The per-row exponent rule a statistic kind lowers to: the server
/// exponentiates E(w_i) with RowExponent(i, x_i). Every column holds u32
/// values, so exponents are u64: x_i^2 and x_i*y_i are at most
/// (2^32 - 1)^2 < 2^64 and never wrap.
class ExponentTransform {
 public:
  ExponentTransform() = default;

  static ExponentTransform Identity();
  static ExponentTransform Square();
  /// `second` must outlive the transform and match the primary column's
  /// size (checked at compile time by CompileQuery).
  static ExponentTransform ProductWith(const Database* second);

  uint64_t RowExponent(size_t row, uint32_t value) const {
    switch (kind_) {
      case StatisticKind::kSumOfSquares:
        return uint64_t{value} * value;
      case StatisticKind::kProduct:
        return uint64_t{value} * second_->value(row);
      case StatisticKind::kSum:
        break;
    }
    return value;
  }

  StatisticKind kind() const { return kind_; }
  const Database* second_column() const { return second_; }

 private:
  StatisticKind kind_ = StatisticKind::kSum;
  const Database* second_ = nullptr;
};

/// One query as the client states it: a statistic over named column(s),
/// plus the serving-side options (blinding, partition) the multi-client
/// protocol and blinded shards attach. Column names are resolved against a
/// ColumnRegistry; an empty name means the server's default column.
struct QuerySpec {
  StatisticKind kind = StatisticKind::kSum;
  std::string column;   ///< primary column ("" = server default)
  std::string column2;  ///< second column, kProduct only

  /// Additive blinding folded into the response (Section 3.5 partials).
  std::optional<BigInt> blinding;

  /// Rows [first, second) this server covers; whole column by default.
  std::optional<std::pair<size_t, size_t>> partition;
};

/// A spec lowered against concrete columns: everything SumServer needs.
struct CompiledQuery {
  const Database* column = nullptr;  ///< resolved primary column
  ExponentTransform transform;       ///< lowered from QuerySpec::kind
  size_t begin = 0;                  ///< first covered row
  size_t end = 0;                    ///< one past the last covered row
  std::optional<BigInt> blinding;

  size_t rows() const { return end - begin; }
};

/// Compiles `spec` against explicitly supplied columns (the embedding
/// path used by statistics.cc and the test harnesses; names in the spec
/// are ignored). `second` is required exactly when kind == kProduct and
/// must match the primary column's size.
[[nodiscard]] Result<CompiledQuery> CompileQuery(const QuerySpec& spec,
                                                 const Database* primary,
                                                 const Database* second = nullptr);

/// The header rule of every serving side, so a client gets the same
/// Error frame from a server (names of local columns) and a coordinator
/// (names of shard maps): turns `header` into the spec of its statistic
/// over resolved column names (column never empty). In order:
///  * the kind must be a StatisticKind (InvalidArgument);
///  * an empty primary name means `default_column`; with no default the
///    query is NotFound;
///  * a kProduct needs column2 (InvalidArgument), any other kind must
///    leave it empty (InvalidArgument);
///  * a name for which `known` is false is NotFound, naming the column.
[[nodiscard]] Result<QuerySpec> ResolveQueryHeader(
    const QueryHeaderMessage& header, const std::string& default_column,
    const std::function<bool(const std::string&)>& known);

/// The default-column rule of every serving side: the configured name
/// when given (it must be one of `names`, else NotFound), else the sole
/// entry of `names`, else "" (no default).
[[nodiscard]] Result<std::string> ResolveDefaultColumn(
    const std::string& configured, const std::vector<std::string>& names);

/// Compiles a QueryHeader against the columns of `registry` under the
/// header rule (the session path). Blinding is the router's business.
[[nodiscard]] Result<CompiledQuery> CompileQuery(
    const QueryHeaderMessage& header, const ColumnRegistry& registry,
    const std::string& default_column = "");

}  // namespace ppstats

#endif  // PPSTATS_CORE_QUERY_H_
