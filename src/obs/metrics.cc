#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace ppstats {
namespace obs {

namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t b = 0; b < kHistogramBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum += other.sum;
}

uint64_t HistogramSnapshot::ApproxPercentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample, 1-based; p=0 maps to the first
  // sample, p=100 to the last.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  rank = std::clamp<uint64_t>(rank, 1, count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(kHistogramBuckets - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      out.buckets[b] += n;
      out.count += n;
    }
    out.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

void MetricsSnapshot::Append(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    auto it = std::find_if(counters.begin(), counters.end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == counters.end()) {
      counters.emplace_back(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, value] : other.gauges) {
    auto it = std::find_if(gauges.begin(), gauges.end(),
                           [&](const auto& g) { return g.first == name; });
    if (it == gauges.end()) {
      gauges.emplace_back(name, value);
    } else {
      it->second = value;  // gauges are levels; the newer reading wins
    }
  }
  for (const auto& [name, snapshot] : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const auto& h) { return h.first == name; });
    if (it == histograms.end()) {
      histograms.emplace_back(name, snapshot);
    } else {
      it->second.Merge(snapshot);
    }
  }
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& [histogram_name, snapshot] : histograms) {
    if (histogram_name == name) return &snapshot;
  }
  return nullptr;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->Value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->Value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->Snapshot());
  }
  return out;
}

void MetricRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* global = new MetricRegistry();  // leaked on purpose
  return *global;
}

}  // namespace obs
}  // namespace ppstats
