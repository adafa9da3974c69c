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
// Hot-path cost: one sharded mutex acquire to resolve (Stage, name) → entry,
// then lock-free atomic updates. Shards are selected by key hash, so
// concurrent workers observing different metrics rarely contend.
//
// Wall-clock derived values (latency histograms) are inherently
// nondeterministic run to run; consumers that need bit-identical reports
// erase the "metrics" JSON section (core::semantic_json), the same way
// they erase "timings".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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
/// order — the input to write_prometheus_text and the report JSON section.
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

  // Direct API for code that aggregates without the event vocabulary.
  void add_counter(Stage stage, std::string_view name, std::uint64_t value);
  void max_gauge(Stage stage, std::string_view name, std::uint64_t value);
  void observe(Stage stage, std::string_view name, std::uint64_t value);

  [[nodiscard]] MetricsSummary summary() const;

 private:
  struct CounterCell {
    std::atomic<std::uint64_t> value{0};
  };
  struct GaugeCell {
    std::atomic<std::uint64_t> value{0};
  };
  struct HistogramCell {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  struct KeyLess {
    using is_transparent = void;
    bool operator()(const std::pair<Stage, std::string>& a,
                    const std::pair<Stage, std::string_view>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return std::string_view(a.second) < b.second;
    }
    bool operator()(const std::pair<Stage, std::string_view>& a,
                    const std::pair<Stage, std::string>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second < std::string_view(b.second);
    }
    bool operator()(const std::pair<Stage, std::string>& a,
                    const std::pair<Stage, std::string>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    }
  };

  template <typename Cell>
  using CellMap =
      std::map<std::pair<Stage, std::string>, std::unique_ptr<Cell>, KeyLess>;

  /// Keys hash to a shard; each shard owns its maps under one mutex.
  /// Cells are heap-allocated so their atomics stay valid after the shard
  /// lock is released — the hot path holds the lock only for the lookup.
  struct Shard {
    mutable std::mutex mutex;
    CellMap<CounterCell> counters;
    CellMap<GaugeCell> gauges;
    CellMap<HistogramCell> histograms;
  };

  static constexpr std::size_t kShardCount = 16;

  [[nodiscard]] Shard& shard_for(Stage stage, std::string_view name);

  template <typename Cell>
  [[nodiscard]] static Cell& cell(Shard& shard, CellMap<Cell> Shard::*map,
                                  Stage stage, std::string_view name);

  std::array<Shard, kShardCount> shards_;
};

}  // namespace simcov::obs
