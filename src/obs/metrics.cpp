#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace simcov::obs {

namespace {

std::uint64_t seconds_to_ns(double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double ns = seconds * 1e9;
  if (ns >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(ns);
}

std::uint64_t quantile_upper_bound(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets,
    std::uint64_t count, double q) {
  if (count == 0) return 0;
  // Rank of the q-quantile, 1-based: the smallest bucket whose cumulative
  // count reaches it. ceil(q * count) clamped to [1, count].
  const auto rank = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(
             count, static_cast<std::uint64_t>(
                        std::ceil(q * static_cast<double>(count)))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return histogram_bucket_upper_bound(i);
  }
  return histogram_bucket_upper_bound(kHistogramBuckets - 1);
}

}  // namespace

std::size_t histogram_bucket_index(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min<std::size_t>(std::bit_width(value), kHistogramBuckets - 1);
}

std::uint64_t histogram_bucket_upper_bound(std::size_t index) {
  if (index == 0) return 0;
  if (index >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return (std::uint64_t{1} << index) - 1;
}

// ---------------------------------------------------------------------------
// EventSink mapping
// ---------------------------------------------------------------------------

void MetricsRegistry::counter(Stage stage, std::string_view name,
                              std::uint64_t value) {
  std::lock_guard lock(mutex_);
  counters_[{stage, std::string(name)}] += value;
}

void MetricsRegistry::gauge(Stage stage, std::string_view name,
                            std::uint64_t value) {
  std::lock_guard lock(mutex_);
  std::uint64_t& g = gauges_[{stage, std::string(name)}];
  g = std::max(g, value);
}

void MetricsRegistry::item(Stage stage, std::string_view kind,
                           std::uint64_t id, std::uint64_t value) {
  (void)id;
  fold(stage, std::string(kind), value);
}

void MetricsRegistry::latency(Stage stage, std::string_view kind,
                              std::uint64_t id, double seconds) {
  (void)id;
  // One histogram per latency kind; the name carries the unit so the
  // Prometheus export stays self-describing.
  std::string name;
  name.reserve(kind.size() + 11);
  name.append(kind);
  name.append(".latency_ns");
  fold(stage, std::move(name), seconds_to_ns(seconds));
}

void MetricsRegistry::fold(Stage stage, std::string name,
                           std::uint64_t value) {
  std::lock_guard lock(mutex_);
  HistogramSummary& h = histograms_[{stage, std::move(name)}];
  ++h.buckets[histogram_bucket_index(value)];
  ++h.count;
  h.sum += value;
  h.max = std::max(h.max, value);
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

MetricsSummary MetricsRegistry::summary() const {
  MetricsSummary out;
  std::lock_guard lock(mutex_);
  for (const auto& [key, value] : counters_) {
    out.counters.push_back({key.first, key.second, value});
  }
  for (const auto& [key, value] : gauges_) {
    out.gauges.push_back({key.first, key.second, value});
  }
  for (const auto& [key, h] : histograms_) {
    HistogramSummary s = h;
    s.p50 = quantile_upper_bound(s.buckets, s.count, 0.50);
    s.p90 = quantile_upper_bound(s.buckets, s.count, 0.90);
    s.p99 = quantile_upper_bound(s.buckets, s.count, 0.99);
    out.histograms.push_back({key.first, key.second, s});
  }
  return out;
}

}  // namespace simcov::obs
