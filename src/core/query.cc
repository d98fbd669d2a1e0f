#include "core/query.h"

#include <algorithm>

namespace ppstats {

Result<StatisticKind> StatisticKindFromWire(uint8_t wire) {
  switch (wire) {
    case static_cast<uint8_t>(StatisticKind::kSum):
      return StatisticKind::kSum;
    case static_cast<uint8_t>(StatisticKind::kSumOfSquares):
      return StatisticKind::kSumOfSquares;
    case static_cast<uint8_t>(StatisticKind::kProduct):
      return StatisticKind::kProduct;
    default:
      return Status::InvalidArgument("unknown statistic kind " +
                                     std::to_string(wire));
  }
}

const char* StatisticKindName(StatisticKind kind) {
  switch (kind) {
    case StatisticKind::kSum:
      return "sum";
    case StatisticKind::kSumOfSquares:
      return "sum-of-squares";
    case StatisticKind::kProduct:
      return "product";
  }
  return "?";
}

ExponentTransform ExponentTransform::Identity() {
  ExponentTransform t;
  t.kind_ = StatisticKind::kSum;
  return t;
}

ExponentTransform ExponentTransform::Square() {
  ExponentTransform t;
  t.kind_ = StatisticKind::kSumOfSquares;
  return t;
}

ExponentTransform ExponentTransform::ProductWith(const Database* second) {
  ExponentTransform t;
  t.kind_ = StatisticKind::kProduct;
  t.second_ = second;
  return t;
}

namespace {

// The "column2 only for product" rule, shared by the header rule and
// both compile paths.
Status CheckSecondColumn(StatisticKind kind, bool has_second) {
  if (kind == StatisticKind::kProduct && !has_second) {
    return Status::InvalidArgument("product query needs a second column");
  }
  if (kind != StatisticKind::kProduct && has_second) {
    return Status::InvalidArgument(
        "second column given for a single-column statistic");
  }
  return Status::OK();
}

}  // namespace

Result<CompiledQuery> CompileQuery(const QuerySpec& spec,
                                   const Database* primary,
                                   const Database* second) {
  if (primary == nullptr) {
    return Status::InvalidArgument("query has no primary column");
  }
  PPSTATS_RETURN_IF_ERROR(
      StatisticKindFromWire(static_cast<uint8_t>(spec.kind)).status());
  PPSTATS_RETURN_IF_ERROR(CheckSecondColumn(spec.kind, second != nullptr));
  CompiledQuery query;
  query.column = primary;
  switch (spec.kind) {
    case StatisticKind::kSum:
      query.transform = ExponentTransform::Identity();
      break;
    case StatisticKind::kSumOfSquares:
      query.transform = ExponentTransform::Square();
      break;
    case StatisticKind::kProduct:
      if (second->size() != primary->size()) {
        return Status::InvalidArgument(
            "product column size != primary database size");
      }
      query.transform = ExponentTransform::ProductWith(second);
      break;
  }
  query.begin = 0;
  query.end = primary->size();
  if (spec.partition.has_value()) {
    if (spec.partition->first > spec.partition->second ||
        spec.partition->second > primary->size()) {
      return Status::InvalidArgument("partition outside the column");
    }
    query.begin = spec.partition->first;
    query.end = spec.partition->second;
  }
  query.blinding = spec.blinding;
  return query;
}

Result<QuerySpec> ResolveQueryHeader(
    const QueryHeaderMessage& header, const std::string& default_column,
    const std::function<bool(const std::string&)>& known) {
  QuerySpec out;
  PPSTATS_ASSIGN_OR_RETURN(out.kind, StatisticKindFromWire(header.kind));
  out.column = header.column.empty() ? default_column : header.column;
  if (out.column.empty()) {
    return Status::NotFound("server has no default column");
  }
  PPSTATS_RETURN_IF_ERROR(
      CheckSecondColumn(out.kind, !header.column2.empty()));
  out.column2 = header.column2;
  for (const std::string* name : {&out.column, &out.column2}) {
    if (!name->empty() && !known(*name)) {
      return Status::NotFound("unknown column: " + *name);
    }
  }
  return out;
}

Result<std::string> ResolveDefaultColumn(
    const std::string& configured, const std::vector<std::string>& names) {
  if (!configured.empty()) {
    if (std::find(names.begin(), names.end(), configured) == names.end()) {
      return Status::NotFound("unknown default column: " + configured);
    }
    return configured;
  }
  return names.size() == 1 ? names.front() : std::string();
}

Result<CompiledQuery> CompileQuery(const QueryHeaderMessage& header,
                                   const ColumnRegistry& registry,
                                   const std::string& default_column) {
  PPSTATS_ASSIGN_OR_RETURN(
      QuerySpec spec,
      ResolveQueryHeader(header, default_column,
                         [&registry](const std::string& name) {
                           return registry.Find(name) != nullptr;
                         }));
  return CompileQuery(
      spec, registry.Find(spec.column),
      spec.column2.empty() ? nullptr : registry.Find(spec.column2));
}

}  // namespace ppstats
