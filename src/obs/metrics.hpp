// MetricsRegistry: the aggregation backend of the obs event flow.
//
// The registry is an EventSink that folds the raw event stream into three
// kinds of metric, all keyed by (Stage, name):
//
//   * counters   — summed `counter` events (checkpoint.write, bdd.gc, …)
//   * gauges     — max'ed `gauge` events (sequences_in_flight_peak, …)
//   * histograms — fixed-bucket log2 distributions fed by `item` events
//     (name = the item kind, value = the item's value field, e.g. steps per
//     sequence) and `latency` events (name = kind + ".latency_ns", value in
//     nanoseconds)
//
// Spans are not folded: stage time lives in the pipeline's StageReports,
// and a PerfettoTraceSink shows every span as a slice.
//
// Histograms use 64 power-of-two buckets over uint64 ticks: value v lands in
// bucket bit_width(v), whose upper bound is 2^i - 1. Quantiles (p50/p90/p99)
// are reported as the upper bound of the bucket where the cumulative count
// crosses the rank — ≤2x relative error by construction, which is plenty for
// latency triage — while max is exact. The bucket scheme is fixed (no
// rebalancing), so merging and golden-testing summaries is trivial.
//
// Concurrency: one mutex guards all three maps, so every summary() is an
// exact snapshot. The traffic is small: bench_parallel_campaign --metrics
// folds 4,200 histogram observations over 5 campaigns and 4 mutant-coverage
// runs, so an uncontended lock per event stays far inside the
// observability overhead gate.
//
// Wall-clock derived values (latency histograms) differ run to run. The
// campaign report carries no metrics, so they never reach a semantic golden;
// only their bucket placement varies, never their counts.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_sink.hpp"

namespace simcov::obs {

inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index a raw value lands in: 0 for 0, otherwise bit_width(value)
/// clamped to the last bucket. Exposed for tests and exporters.
[[nodiscard]] std::size_t histogram_bucket_index(std::uint64_t value);

/// Inclusive upper bound of a bucket: 0 for bucket 0, 2^i - 1 for bucket i,
/// UINT64_MAX for the last bucket.
[[nodiscard]] std::uint64_t histogram_bucket_upper_bound(std::size_t index);

/// Point-in-time snapshot of one histogram.
struct HistogramSummary {
  std::uint64_t count = 0;  ///< total observations
  std::uint64_t sum = 0;    ///< sum of raw observed values
  std::uint64_t max = 0;    ///< exact maximum observed value
  std::uint64_t p50 = 0;    ///< bucket-upper-bound quantiles
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// One named metric in a summary, ordered by (stage, name).
template <typename Value>
struct MetricEntry {
  Stage stage{};
  std::string name;
  Value value{};
};

/// Everything the registry has aggregated, in deterministic (stage, name)
/// order — the input to write_prometheus_text.
struct MetricsSummary {
  std::vector<MetricEntry<std::uint64_t>> counters;
  std::vector<MetricEntry<std::uint64_t>> gauges;
  std::vector<MetricEntry<HistogramSummary>> histograms;
};

/// Thread-safe metrics aggregation: attach it to a campaign (alone or via
/// MultiSink) and read summary() when the campaign returns.
class MetricsRegistry final : public EventSink {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // EventSink: the event → metric mapping described in the file header.
  void counter(Stage stage, std::string_view name,
               std::uint64_t value) override;
  void gauge(Stage stage, std::string_view name, std::uint64_t value) override;
  void item(Stage stage, std::string_view kind, std::uint64_t id,
            std::uint64_t value) override;
  void latency(Stage stage, std::string_view kind, std::uint64_t id,
               double seconds) override;

  [[nodiscard]] MetricsSummary summary() const;

 private:
  template <typename Value>
  using MetricMap = std::map<std::pair<Stage, std::string>, Value>;

  void fold(Stage stage, std::string name, std::uint64_t value);

  mutable std::mutex mutex_;
  MetricMap<std::uint64_t> counters_;
  MetricMap<std::uint64_t> gauges_;
  MetricMap<HistogramSummary> histograms_;  ///< quantiles filled by summary()
};

}  // namespace simcov::obs
