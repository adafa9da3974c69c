// Tests for the observability subsystem: the log2 histogram bucket scheme,
// MetricsRegistry's event -> metric folding, name-level counter and gauge
// totals, the JSONL sink's flush boundaries, the coverage-telemetry
// curve builder and collector, and the Perfetto / Prometheus exporters'
// output formats.
#include "obs/coverage_telemetry.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <regex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fsm/mealy.hpp"
#include "metric_totals.hpp"
#include "model/encode.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "one_lane.hpp"

namespace simcov {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string("simcov_obs_test_") + name);
}

// ---------------------------------------------------------------------------
// Histogram bucket scheme
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, IndexIsBitWidthClampedToLastBucket) {
  EXPECT_EQ(obs::histogram_bucket_index(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_index(1), 1u);
  EXPECT_EQ(obs::histogram_bucket_index(2), 2u);
  EXPECT_EQ(obs::histogram_bucket_index(3), 2u);
  EXPECT_EQ(obs::histogram_bucket_index(4), 3u);
  EXPECT_EQ(obs::histogram_bucket_index(255), 8u);
  EXPECT_EQ(obs::histogram_bucket_index(256), 9u);
  EXPECT_EQ(obs::histogram_bucket_index(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(obs::histogram_bucket_index(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(
      obs::histogram_bucket_index(std::numeric_limits<std::uint64_t>::max()),
      63u);
}

TEST(HistogramBuckets, UpperBoundsArePowerOfTwoMinusOne) {
  EXPECT_EQ(obs::histogram_bucket_upper_bound(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_upper_bound(1), 1u);
  EXPECT_EQ(obs::histogram_bucket_upper_bound(2), 3u);
  EXPECT_EQ(obs::histogram_bucket_upper_bound(8), 255u);
  EXPECT_EQ(obs::histogram_bucket_upper_bound(obs::kHistogramBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HistogramBuckets, EveryValueFallsWithinItsBucketBound) {
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{7}, std::uint64_t{8},
                                std::uint64_t{1000}, std::uint64_t{1} << 40}) {
    const std::size_t i = obs::histogram_bucket_index(v);
    EXPECT_LE(v, obs::histogram_bucket_upper_bound(i)) << "v=" << v;
    if (i > 0) {
      EXPECT_GT(v, obs::histogram_bucket_upper_bound(i - 1)) << "v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersSumAndGaugesMax) {
  obs::MetricsRegistry reg;
  reg.counter(obs::Stage::kTour, "store.hit", 2);
  reg.counter(obs::Stage::kTour, "store.hit", 3);
  reg.gauge(obs::Stage::kTour, "in_flight", 4);
  reg.gauge(obs::Stage::kTour, "in_flight", 2);  // lower: must not win

  const auto s = reg.summary();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].stage, obs::Stage::kTour);
  EXPECT_EQ(s.counters[0].name, "store.hit");
  EXPECT_EQ(s.counters[0].value, 5u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].value, 4u);
}

TEST(MetricsRegistry, EventVocabularyMapsToNamedHistograms) {
  obs::MetricsRegistry reg;
  reg.span(obs::Stage::kSimulate, 1e-6);                     // not folded
  reg.item(obs::Stage::kTour, "sequence", 0, 5);             // -> sequence=5
  reg.latency(obs::Stage::kConcretize, "program", 7, 2e-9);  // -> ..._ns=2

  const auto s = reg.summary();
  ASSERT_EQ(s.histograms.size(), 2u);
  // Deterministic (stage, name) order: kTour < kConcretize.
  EXPECT_EQ(s.histograms[0].stage, obs::Stage::kTour);
  EXPECT_EQ(s.histograms[0].name, "sequence");
  EXPECT_EQ(s.histograms[0].value.sum, 5u);
  EXPECT_EQ(s.histograms[1].stage, obs::Stage::kConcretize);
  EXPECT_EQ(s.histograms[1].name, "program.latency_ns");
  EXPECT_EQ(s.histograms[1].value.sum, 2u);
}

TEST(MetricsRegistry, QuantilesAreBucketUpperBoundsAndMaxIsExact) {
  obs::MetricsRegistry reg;
  // 90 small values in bucket 1 (ub 1), 10 larger in bucket 4 (ub 15).
  for (int i = 0; i < 90; ++i) reg.item(obs::Stage::kTour, "h", 0, 1);
  for (int i = 0; i < 10; ++i) reg.item(obs::Stage::kTour, "h", 0, 12);

  const auto s = reg.summary();
  ASSERT_EQ(s.histograms.size(), 1u);
  const auto& h = s.histograms[0].value;
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, 90u + 120u);
  EXPECT_EQ(h.max, 12u);  // exact, not a bucket bound
  EXPECT_EQ(h.p50, 1u);
  EXPECT_EQ(h.p90, 1u);   // rank 90 still lands in the first bucket
  EXPECT_EQ(h.p99, 15u);  // rank 99 crosses into the bucket of 12
  EXPECT_EQ(h.buckets[obs::histogram_bucket_index(1)], 90u);
  EXPECT_EQ(h.buckets[obs::histogram_bucket_index(12)], 10u);
}

TEST(MetricsRegistry, ConcurrentObservationsAreAllCounted) {
  obs::MetricsRegistry reg;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        reg.counter(obs::Stage::kSimulate, "n", 1);
        reg.item(obs::Stage::kSimulate, "v", 0, i);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto s = reg.summary();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].value, kThreads * kPerThread);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].value.count, kThreads * kPerThread);
  EXPECT_EQ(s.histograms[0].value.max, kPerThread - 1);
}

TEST(MetricsRegistry, SnapshotWhileFoldingIsSafeAndMonotonic) {
  // summary() may be read from another thread while the campaign folds
  // events concurrently (the registry locks for it). Any intermediate
  // snapshot must be exact (the bucket sum equals count) and the per-name
  // counts must only grow; the final snapshot after joining must be exact.
  // Run under TSan in CI.
  obs::MetricsRegistry reg;
  static constexpr std::size_t kWriters = 4;
  static constexpr std::size_t kPerThread = 5000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        reg.counter(obs::Stage::kSimulate, "commits", 1);
        reg.item(obs::Stage::kSimulate, "cycles", 0, t * kPerThread + i);
        reg.gauge(obs::Stage::kTour, "peak", i);
      }
    });
  }
  std::thread scraper([&reg, &done] {
    std::uint64_t last_counter = 0;
    std::uint64_t last_histo = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto s = reg.summary();
      for (const auto& c : s.counters) {
        EXPECT_GE(c.value, last_counter) << "counters must be monotonic";
        last_counter = c.value;
      }
      for (const auto& h : s.histograms) {
        EXPECT_GE(h.value.count, last_histo);
        last_histo = h.value.count;
        // One lock covers every fold, so a snapshot is exact: each
        // counted observation sits in exactly one bucket.
        std::uint64_t bucketed = 0;
        for (const auto b : h.value.buckets) bucketed += b;
        EXPECT_EQ(bucketed, h.value.count) << "torn snapshot";
      }
    }
  });
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  const auto s = reg.summary();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].value, kWriters * kPerThread);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].value.count, kWriters * kPerThread);
  EXPECT_EQ(s.histograms[0].value.max, kWriters * kPerThread - 1);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].value, kPerThread - 1);
}

// ---------------------------------------------------------------------------
// Name-level gauge totals
// ---------------------------------------------------------------------------

TEST(MetricTotals, GaugeKeepsTheMaxAcrossEmissions) {
  obs::MetricsRegistry rec;
  rec.gauge(obs::Stage::kTour, "peak", 3);
  rec.gauge(obs::Stage::kTour, "peak", 9);
  rec.gauge(obs::Stage::kSimulate, "peak", 5);
  EXPECT_EQ(gauge_max(rec, "peak"), 9u);
  EXPECT_EQ(counter_total(rec, "peak"), 0u)
      << "gauges must not leak into counters";
  EXPECT_EQ(gauge_max(rec, "missing"), 0u);
}

// ---------------------------------------------------------------------------
// Coverage curve builder
// ---------------------------------------------------------------------------

obs::CoveragePoint point(std::uint64_t i) {
  return obs::CoveragePoint{i, i, 2 * i};
}

TEST(CoverageCurveBuilder, KeepsEverythingUnderBudget) {
  obs::CoverageCurveBuilder b(16);
  for (std::uint64_t i = 1; i <= 10; ++i) b.add(point(i));
  const auto pts = b.points();
  ASSERT_EQ(pts.size(), 10u);
  for (std::uint64_t i = 1; i <= 10; ++i) EXPECT_EQ(pts[i - 1], point(i));
}

TEST(CoverageCurveBuilder, DownsamplesToBudgetAndKeepsTheLastPoint) {
  constexpr std::size_t kBudget = 8;
  obs::CoverageCurveBuilder b(kBudget);
  for (std::uint64_t i = 1; i <= 1000; ++i) b.add(point(i));
  const auto pts = b.points();
  ASSERT_GE(pts.size(), 2u);
  EXPECT_LE(pts.size(), kBudget + 1);  // +1 for the always-kept endpoint
  EXPECT_EQ(pts.back(), point(1000));
  for (std::size_t j = 1; j < pts.size(); ++j) {
    EXPECT_LT(pts[j - 1].sequence, pts[j].sequence)
        << "curve must stay strictly increasing in sequence index";
  }
}

TEST(CoverageCurveBuilder, CurveBudgetBoundsThePointCountButNotTheEndpoint) {
  // The tightest budget still keeps the last point; a campaign's collector
  // always runs at the default 512.
  obs::CoverageCurveBuilder tight(2);
  for (std::uint64_t i = 1; i <= 19; ++i) tight.add(point(i));
  const auto pts = tight.points();
  EXPECT_LE(pts.size(), 3u);
  EXPECT_EQ(pts.back(), point(19))
      << "downsampling must keep the campaign's final coverage point";
  EXPECT_EQ(obs::CoverageTelemetryCollector().snapshot().curve_budget, 512u);
}

TEST(CoverageCurveBuilder, IsDeterministicInTheAppendSequenceAlone) {
  obs::CoverageCurveBuilder a(32);
  obs::CoverageCurveBuilder b(32);
  for (std::uint64_t i = 1; i <= 777; ++i) {
    a.add(point(i));
    b.add(point(i));
  }
  EXPECT_EQ(a.points(), b.points());
}

// ---------------------------------------------------------------------------
// Coverage telemetry collector
// ---------------------------------------------------------------------------

/// The state paths of `batch` replayed from reset through `model` in
/// lockstep — what the campaign hands the collector for each batch.
std::vector<std::vector<std::uint64_t>> state_paths(
    model::TestModel& model, std::span<const model::Sequence> batch) {
  std::vector<std::vector<std::uint64_t>> paths(batch.size(),
                                                {model.reset_state()});
  model::replay_lockstep(model, batch, [&](const model::ReplayStep& s) {
    paths[s.lane].push_back(s.next);
  });
  return paths;
}

TEST(CoverageTelemetryCollector, ReplayMatchesTheModelsOwnTourAccounting) {
  const auto m = fsm::random_connected_machine(24, 3, 4, 17);
  model::ExplicitModel tour_model(m, 0);
  auto stream = tour_model.tour_source();

  model::ExplicitModel replay_model(m, 0);
  obs::CoverageTelemetryCollector collector(64);
  while (auto seq = stream->next_sequence()) {
    const std::span batch(&*seq, 1);
    collector.commit_batch(batch, state_paths(replay_model, batch));
  }
  const auto summary = stream->summary();

  const auto telemetry = collector.snapshot();
  EXPECT_EQ(telemetry.curve_budget, 64u);
  ASSERT_FALSE(telemetry.convergence.empty());
  const auto& last = telemetry.convergence.back();
  EXPECT_EQ(last.sequence, collector.committed());
  EXPECT_EQ(last.transitions_covered, telemetry.distinct_transitions);
  EXPECT_EQ(static_cast<double>(telemetry.distinct_transitions),
            summary.coverage.transitions_covered);
  EXPECT_EQ(static_cast<double>(last.states_visited),
            summary.coverage.states_visited);
  EXPECT_GE(telemetry.max_transition_hits, 1u);

  // Every distinct transition appears in exactly one hit bucket.
  std::uint64_t bucketed = 0;
  for (const auto n : telemetry.transition_hits) bucketed += n;
  EXPECT_EQ(bucketed, telemetry.distinct_transitions);
}

/// The per-sequence commit the collector ran before it replayed batches,
/// kept as commit_batch's oracle: one one-lane transition_batch per input,
/// folded straight into a CoverageTracker, one curve point per sequence.
class SequentialTelemetry {
 public:
  SequentialTelemetry(model::TestModel& model, std::size_t curve_budget)
      : model_(model), curve_(curve_budget) {}

  void commit_sequence(const model::Sequence& steps) {
    std::uint64_t at = model_.reset_state();
    tracker_.visit_state(at);
    for (const std::uint64_t input : steps) {
      const auto next = one_lane(model_, at, input).next;
      if (!next.has_value()) {
        throw std::domain_error("invalid input in committed sequence");
      }
      tracker_.cover_transition(at, input);
      at = *next;
      tracker_.visit_state(at);
    }
    ++committed_;
    curve_.add(obs::CoveragePoint{committed_, tracker_.states_visited(),
                                  tracker_.transitions_covered()});
  }

  [[nodiscard]] std::uint64_t committed() const { return committed_; }

  [[nodiscard]] obs::CoverageTelemetry snapshot() const {
    obs::CoverageTelemetry out;
    out.curve_budget = curve_.budget();
    out.convergence = curve_.points();
    out.distinct_transitions = tracker_.transitions_covered();
    tracker_.for_each_transition_hit([&](std::uint64_t hits) {
      ++out.transition_hits[obs::histogram_bucket_index(hits)];
      out.max_transition_hits = std::max(out.max_transition_hits, hits);
    });
    return out;
  }

 private:
  model::TestModel& model_;
  model::CoverageTracker tracker_;
  obs::CoverageCurveBuilder curve_;
  std::uint64_t committed_ = 0;
};

TEST(CoverageTelemetryCollector, BatchCommitIsByteIdenticalToSequential) {
  const auto m = fsm::random_connected_machine(24, 3, 4, 17);
  model::ExplicitModel tour_model(m, 0);
  auto stream = tour_model.tour_source();
  std::vector<model::Sequence> sequences;
  while (auto seq = stream->next_sequence()) sequences.push_back(*seq);
  ASSERT_FALSE(sequences.empty());

  // Both backends answer transition_batch differently: a table lookup per
  // lane on the explicit side, the 64-lane kernel on the symbolic side.
  // Through encode_circuit the two share their state and input keys.
  const auto circuit = model::encode_circuit(m, 0);
  model::ExplicitModel explicit_model(m, 0), explicit_oracle_model(m, 0);
  model::SymbolicModel symbolic_model(circuit),
      symbolic_oracle_model(circuit);
  const std::pair<model::TestModel*, model::TestModel*> backends[] = {
      {&explicit_model, &explicit_oracle_model},
      {&symbolic_model, &symbolic_oracle_model},
  };
  for (const auto& [model, oracle_model] : backends) {
    SCOPED_TRACE(model::backend_name(model->backend()));
    SequentialTelemetry oracle(*oracle_model, 64);
    for (const auto& seq : sequences) oracle.commit_sequence(seq);

    // The batch path replays lane-parallel but folds in batch order; the
    // telemetry — convergence points included — must not move. Mixed batch
    // sizes cover single-sequence, partial and (past 64) multi-block
    // batches.
    obs::CoverageTelemetryCollector batch(64);
    const auto commit = [&](std::span<const model::Sequence> part) {
      batch.commit_batch(part, state_paths(*model, part));
    };
    std::size_t at = 0;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{128}}) {
      if (at >= sequences.size()) break;
      const std::size_t len = std::min(chunk, sequences.size() - at);
      commit(std::span(sequences).subspan(at, len));
      at += len;
    }
    if (at < sequences.size()) commit(std::span(sequences).subspan(at));

    EXPECT_EQ(batch.committed(), oracle.committed());
    const auto a = oracle.snapshot();
    const auto b = batch.snapshot();
    EXPECT_EQ(b.convergence, a.convergence);
    EXPECT_EQ(b.distinct_transitions, a.distinct_transitions);
    EXPECT_EQ(b.max_transition_hits, a.max_transition_hits);
    EXPECT_EQ(b.transition_hits, a.transition_hits);
  }
}

TEST(CoverageTelemetryCollector, BatchCommitRejectsMisshapenPaths) {
  obs::CoverageTelemetryCollector collector;
  const std::vector<model::Sequence> batch{{0, 1}};
  // One path per sequence, one state longer than it; nothing is folded
  // from a rejected batch.
  const std::vector<std::vector<std::uint64_t>> missing;
  const std::vector<std::vector<std::uint64_t>> too_short{{0, 1}};
  EXPECT_THROW(collector.commit_batch(batch, missing), std::invalid_argument);
  EXPECT_THROW(collector.commit_batch(batch, too_short),
               std::invalid_argument);
  EXPECT_EQ(collector.committed(), 0u);
  const std::vector<std::vector<std::uint64_t>> path{{0, 1, 2}};
  collector.commit_batch(batch, path);
  EXPECT_EQ(collector.committed(), 1u);
}

// ---------------------------------------------------------------------------
// Prometheus exporter
// ---------------------------------------------------------------------------

TEST(PrometheusText, RendersCountersGaugesAndCumulativeHistograms) {
  obs::MetricsRegistry reg;
  reg.counter(obs::Stage::kTour, "store.hit", 5);
  reg.gauge(obs::Stage::kTour, "sequences_in_flight_peak", 3);
  for (int i = 0; i < 4; ++i) reg.item(obs::Stage::kSimulate, "steps", 0, 6);
  reg.item(obs::Stage::kSimulate, "steps", 0, 100);

  const std::string text = obs::write_prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE simcov_store_hit_total counter"),
            std::string::npos)
      << "dots must sanitize to underscores and counters get _total";
  EXPECT_NE(text.find("simcov_store_hit_total{stage=\"tour\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE simcov_sequences_in_flight_peak gauge"),
            std::string::npos);
  EXPECT_NE(text.find("simcov_sequences_in_flight_peak{stage=\"tour\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE simcov_steps histogram"), std::string::npos);
  // Cumulative buckets: the bucket holding 6 (ub 7) counts 4, +Inf counts 5.
  EXPECT_NE(text.find("simcov_steps_bucket{stage=\"simulate\",le=\"7\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("simcov_steps_bucket{stage=\"simulate\",le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("simcov_steps_sum{stage=\"simulate\"} 124"),
            std::string::npos);
  EXPECT_NE(text.find("simcov_steps_count{stage=\"simulate\"} 5"),
            std::string::npos);
}

TEST(PrometheusText, EmptyRegistryRendersEmpty) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(obs::write_prometheus_text(reg).empty());
}

TEST(PrometheusText, HelpLinesPrecedeEveryTypeLine) {
  obs::MetricsRegistry reg;
  reg.counter(obs::Stage::kSimulate, "checkpoint.write", 1);
  reg.gauge(obs::Stage::kSymbolic, "bdd_live_nodes", 7);
  reg.item(obs::Stage::kSimulate, "clean_run", 0, 3);

  const std::string text = obs::write_prometheus_text(reg);
  // Golden HELP lines for the known vocabulary, counter name with _total.
  EXPECT_NE(text.find("# HELP simcov_checkpoint_write_total "
                      "Campaign checkpoints written.\n"
                      "# TYPE simcov_checkpoint_write_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP simcov_bdd_live_nodes "
                      "Live BDD nodes of the symbolic backend.\n"
                      "# TYPE simcov_bdd_live_nodes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP simcov_clean_run "
                      "Implementation cycles per committed clean run.\n"
                      "# TYPE simcov_clean_run histogram\n"),
            std::string::npos);
  // Every TYPE line is immediately preceded by its HELP line.
  std::istringstream lines(text);
  std::string prev;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_EQ(prev.rfind("# HELP ", 0), 0u) << "TYPE without HELP: " << line;
    }
    prev = line;
  }
}

TEST(PrometheusText, UnknownMetricNamesGetAGenericHelpLine) {
  obs::MetricsRegistry reg;
  reg.counter(obs::Stage::kTour, "weird.new.metric", 1);
  const std::string text = obs::write_prometheus_text(reg);
  EXPECT_NE(text.find("# HELP simcov_weird_new_metric_total simcov metric "
                      "'weird.new.metric', aggregated per pipeline stage.\n"),
            std::string::npos);
}

TEST(PrometheusText, LabelValuesEscapePerExpositionFormat) {
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_escape_label("a\nb"), "a\\nb");
  EXPECT_EQ(obs::prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusText, LargeValuesKeepFullPrecision) {
  // The exporter stream runs at max_digits10 precision, so values with more
  // than ostream's default 6 significant digits survive a parse back into
  // float64 unchanged. 2^53 + 1 is the sentinel: one digit lost anywhere in
  // the pipeline and the text below cannot appear.
  obs::MetricsRegistry reg;
  reg.counter(obs::Stage::kSimulate, "cycles", 9007199254740993ull);
  reg.gauge(obs::Stage::kSimulate, "peak", 123456789ull);
  reg.item(obs::Stage::kSimulate, "lat", 0, 987654321ull);

  const std::string text = obs::write_prometheus_text(reg);
  EXPECT_NE(
      text.find("simcov_cycles_total{stage=\"simulate\"} 9007199254740993"),
      std::string::npos);
  EXPECT_NE(text.find("simcov_peak{stage=\"simulate\"} 123456789"),
            std::string::npos);
  EXPECT_NE(text.find("simcov_lat_sum{stage=\"simulate\"} 987654321"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Perfetto exporter
// ---------------------------------------------------------------------------

TEST(PerfettoTraceSink, StatusBoundaryMakesEventsVisible) {
  const auto path = temp_file("perfetto_flush.json");
  std::filesystem::remove(path);
  {
    obs::PerfettoTraceSink sink(path.string());
    sink.gauge(obs::Stage::kTour, "peak", 7);
    sink.latency(obs::Stage::kSimulate, "clean_run", 3, 0.25);
    sink.status(obs::Stage::kTour, obs::StageStatus::kOk);
    // Read while the sink is still open: a killed campaign's trace holds
    // everything up to its last stage boundary.
    const std::string text = slurp(path);
    for (const char* name : {"tour.peak", "clean_run", "status:ok"}) {
      EXPECT_NE(text.find("\"name\":\"" + std::string(name) + "\""),
                std::string::npos)
          << name << ": status events must flush the stream";
    }
  }
  std::filesystem::remove(path);
}

TEST(PerfettoTraceSink, EmitsAParseableTraceEventArray) {
  const auto path = temp_file("perfetto.json");
  std::filesystem::remove(path);
  {
    obs::PerfettoTraceSink sink(path.string());
    sink.span(obs::Stage::kTour, 0.001);
    sink.counter(obs::Stage::kTour, "store.hit", 1);
    sink.counter(obs::Stage::kTour, "store.hit", 2);  // running total 3
    sink.gauge(obs::Stage::kTour, "peak", 4);
    sink.item(obs::Stage::kSimulate, "clean_run", 0, 6);
    sink.latency(obs::Stage::kSimulate, "clean_run", 0, 0.002);
    sink.status(obs::Stage::kTour, obs::StageStatus::kOk);
  }  // destructor closes the JSON array

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.find('['), text.rfind('[')) << "exactly one array opener";
  EXPECT_NE(text.find_last_of(']'), std::string::npos);
  // Metadata names the per-stage tracks.
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  // One of each phase type made it out.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  // The span is a slice named after its stage on the stage's own track
  // (latency slices sit on tid 100 + stage); the item is a thread-scoped
  // instant, the status a global-scoped one.
  for (const char* event :
       {R"("ph":"X","pid":1,"tid":2,"ts":\d+,"dur":\d+,"name":"tour"\})",
        R"("ph":"X","pid":1,"tid":104,"ts":\d+,"dur":\d+,"name":"clean_run")",
        R"("ph":"i","s":"t","pid":1,"tid":4,"ts":\d+,"name":"clean_run",)"
        R"("args":\{"id":0,"value":6\})",
        R"("ph":"i","s":"g","pid":1,"tid":2,"ts":\d+,"name":"status:ok"\})"}) {
    EXPECT_TRUE(std::regex_search(text, std::regex(event))) << event;
  }
  // Counter tracks plot running totals, not increments.
  EXPECT_NE(text.find("\"name\":\"tour.store.hit\",\"args\":{\"value\":3}"),
            std::string::npos);
  EXPECT_EQ(text.find("\"name\":\"tour.store.hit\",\"args\":{\"value\":2}"),
            std::string::npos)
      << "the second increment must plot the total, not the raw value";
  // Every event object is properly closed: rough balance check.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace simcov
