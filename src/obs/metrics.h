// obs/metrics: process-wide telemetry primitives — counters, gauges, and
// log-bucketed histograms — collected in a named MetricRegistry.
//
// Hot-path cost is the design constraint: the fold loop and the channel
// send/receive path run these on every call. A Counter::Add is one
// relaxed fetch_add on a cache-line-padded, thread-local shard; a
// Histogram::Record is two. All aggregation (summing shards, merging
// buckets, percentile math) happens on the cold Snapshot() path.
//
// This library sits below everything else in the repo: it depends only
// on the standard library, so common/, crypto/, net/, and core/ can all
// link it without cycles.

#ifndef PPSTATS_OBS_METRICS_H_
#define PPSTATS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ppstats {
namespace obs {

/// Shard counts. Counters are the hottest (per-frame, per-row), so they
/// get more shards than histograms (per-span, per-chunk).
inline constexpr size_t kCounterShards = 16;
inline constexpr size_t kHistogramShards = 8;

/// Log-base-2 buckets: bucket 0 holds the value 0, bucket b in [1,64]
/// holds values in [2^(b-1), 2^b - 1]. 65 buckets cover all of uint64.
inline constexpr size_t kHistogramBuckets = 65;

/// Stable per-thread shard index (assigned once per thread, round-robin
/// across the process). Callers take it modulo their shard count.
size_t ThreadShardIndex();

/// Bucket index for a recorded value.
inline constexpr size_t BucketOf(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

/// Largest value a bucket can hold (its reported representative).
inline constexpr uint64_t BucketUpperBound(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return UINT64_MAX;
  return (uint64_t{1} << bucket) - 1;
}

/// Monotonically increasing event count. Writers touch only their own
/// cache line; readers sum all shards.
class Counter {
 public:
  void Add(uint64_t delta) {
    cells_[ThreadShardIndex() % kCounterShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kCounterShards> cells_;
};

/// Point-in-time level (queue depth, live sessions). A single atomic is
/// enough: gauges are updated at queue/dequeue granularity, not per-row.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Merged, immutable view of a histogram (and the unit of cross-shard /
/// cross-registry aggregation).
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;

  void Merge(const HistogramSnapshot& other);

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bucket containing the p-th percentile
  /// (p in [0, 100]). Resolution is the bucket width: a factor of 2.
  uint64_t ApproxPercentile(double p) const;
};

/// Log-bucketed histogram of uint64 samples (typically nanoseconds or
/// bytes). Record() is two relaxed adds on a thread-local shard.
class Histogram {
 public:
  void Record(uint64_t value) {
    Shard& shard = shards_[ThreadShardIndex() % kHistogramShards];
    shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kHistogramShards> shards_;
};

/// Everything a registry knew at one instant, by name. Also the merge
/// unit: ServiceHost combines its private registry with the process
/// Global() registry before exporting.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Merges `other` in: counters/histograms with the same name add,
  /// gauges with the same name take `other`'s value (it is newer).
  void Append(const MetricsSnapshot& other);

  uint64_t CounterValue(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// Named metric instruments with stable addresses: Get* returns a
/// pointer that lives as long as the registry, so callers look a metric
/// up once and cache the pointer next to their hot loop. Reset() zeroes
/// values but never invalidates pointers.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument in place (pointers stay valid).
  void Reset();

  /// Process-wide registry used by layers with no obvious owner
  /// (ThreadPool, channels, crypto pools, client-side spans). Leaked so
  /// instrumented statics can use it during shutdown.
  static MetricRegistry& Global();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PPSTATS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      PPSTATS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PPSTATS_GUARDED_BY(mu_);
};

/// Master switch for *span* instrumentation (clock reads, histogram
/// records, trace events). Counters and gauges stay live regardless —
/// ServiceHost::Stats is built on them. Defaults to enabled.
void SetEnabled(bool enabled);
bool Enabled();

}  // namespace obs
}  // namespace ppstats

#endif  // PPSTATS_OBS_METRICS_H_
