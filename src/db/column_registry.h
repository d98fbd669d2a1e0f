// ColumnRegistry: the server's catalog of named columns.
//
// The v2 session protocol lets one connection query several columns by
// name (QueryHeader frames); the registry is the server-side name ->
// Database mapping those names resolve against. Databases are stored by
// value and keyed by Database::name(); node-based storage keeps the
// addresses stable, so compiled queries may hold plain pointers for the
// lifetime of the registry.
//
// A column may also (or instead) carry a *shard map*: an ordered list of
// ShardDescriptor entries partitioning the row space [0, rows) across
// remote shard servers. The cluster coordinator resolves queries against
// the shard map rather than local row storage; a registry that only
// holds shard maps has no local columns at all.

#ifndef PPSTATS_DB_COLUMN_REGISTRY_H_
#define PPSTATS_DB_COLUMN_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"

namespace ppstats {

/// One shard of a partitioned column: the server at `uri` owns rows
/// [begin, end) of the logical column. Row indices are global; the shard
/// server itself stores its slice as rows [0, end - begin).
struct ShardDescriptor {
  uint32_t id = 0;
  std::string uri;     ///< dialable endpoint ("unix:/path" | "tcp:host:port")
  uint64_t begin = 0;  ///< first global row owned by the shard (inclusive)
  uint64_t end = 0;    ///< one past the last global row (exclusive)

  bool operator==(const ShardDescriptor&) const = default;
};

/// Name -> column catalog served by one ServiceHost.
class ColumnRegistry {
 public:
  /// Adds a column under its own name. Fails on an empty name or a
  /// duplicate registration.
  [[nodiscard]] Status Register(Database db);

  /// Looks a column up by name; nullptr when absent. The pointer stays
  /// valid until the registry is destroyed.
  const Database* Find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> ColumnNames() const;

  /// Attaches a shard map to `name`. The map must tile [0, rows)
  /// contiguously (sorted here; no gaps, no overlap, first range starts
  /// at row 0), with unique shard ids and unique non-empty endpoint
  /// URIs. When a local column of the same name exists its size must
  /// match the map's total rows. Fails on a duplicate map.
  [[nodiscard]] Status SetShards(const std::string& name,
                                 std::vector<ShardDescriptor> shards);

  /// Shard map for `name`; nullptr when the column is not sharded. The
  /// pointer stays valid until the registry is destroyed.
  const std::vector<ShardDescriptor>* FindShards(const std::string& name) const;

  /// Total rows covered by `name`'s shard map, 0 when not sharded.
  uint64_t ShardedRows(const std::string& name) const;

  /// Names with shard maps, sorted.
  std::vector<std::string> ShardedColumnNames() const;

  size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }

 private:
  std::map<std::string, Database> columns_;
  std::map<std::string, std::vector<ShardDescriptor>> shards_;
};

}  // namespace ppstats

#endif  // PPSTATS_DB_COLUMN_REGISTRY_H_
