// Tests for the live campaign monitor plane: the embedded HTTP server and
// its /metrics, /progress and /healthz routes, the ProgressEstimator's
// convergence-based ETA (driven by a synthetic clock), the stall watchdog's
// exactly-once latching and stage attribution (driven by manual ticks),
// and the monitor's read-only-observer guarantee (campaign reports
// identical with it on or off).
#include "obs/monitor_server.hpp"
#include "obs/progress.hpp"
#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "metric_totals.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"

namespace simcov {
namespace {

testmodel::TestModelOptions tiny_model_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

core::CampaignOptions tour_campaign_options() {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.threads = 1;
  return options;
}

const std::vector<dlx::PipelineBug> kTwoBugs{
    dlx::PipelineBug::kNoLoadUseStall,
    dlx::PipelineBug::kNoForwardExMemA,
};

/// The campaign outcome with every wall-clock artifact erased — what must
/// not move a byte when a monitor observes the run.
std::string semantic_fingerprint(core::CampaignResult result) {
  result.timings = {};
  result.bdd_stats.reset();
  result.symbolic_stats.reset();
  result.store_stats.reset();
  result.metrics.reset();
  return core::to_json(result);
}

// ---------------------------------------------------------------------------
// MonitorServer + http_get
// ---------------------------------------------------------------------------

TEST(MonitorServer, ServesHandlerResponsesOnAnEphemeralPort) {
  obs::MonitorServer server(0, [](const std::string& path)
                                   -> std::optional<obs::HttpResponse> {
    if (path == "/hello") {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "world\n"};
    }
    return std::nullopt;
  });
  ASSERT_NE(server.port(), 0u) << "port 0 must resolve to a real port";

  const auto ok = obs::http_get(server.port(), "/hello");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, "world\n");

  // The query string is stripped before routing.
  const auto with_query = obs::http_get(server.port(), "/hello?x=1");
  ASSERT_TRUE(with_query.has_value());
  EXPECT_EQ(with_query->status, 200);

  const auto missing = obs::http_get(server.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
}

TEST(MonitorServer, ServesManySequentialScrapes) {
  std::atomic<int> served{0};
  obs::MonitorServer server(0, [&served](const std::string&)
                                   -> std::optional<obs::HttpResponse> {
    served.fetch_add(1);
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok"};
  });
  for (int i = 0; i < 16; ++i) {
    const auto r = obs::http_get(server.port(), "/");
    ASSERT_TRUE(r.has_value()) << "scrape " << i;
    EXPECT_EQ(r->status, 200);
  }
  EXPECT_EQ(served.load(), 16);
}

// ---------------------------------------------------------------------------
// ProgressEstimator (synthetic clock)
// ---------------------------------------------------------------------------

/// Estimator wired to a test-owned clock variable.
struct ClockedEstimator {
  double now = 0.0;
  obs::ProgressEstimator estimator;
  ClockedEstimator()
      : estimator([this] { return now; }) {}
};

TEST(ProgressEstimator, SnapshotReflectsCommitsAndCoverage) {
  ClockedEstimator c;
  c.now = 10.0;
  c.estimator.begin(200);
  c.now = 12.0;
  c.estimator.on_commit(4, 40, 30, 50);

  const auto s = c.estimator.snapshot();
  EXPECT_TRUE(s.active);
  EXPECT_EQ(s.committed_sequences, 4u);
  EXPECT_EQ(s.committed_steps, 40u);
  EXPECT_EQ(s.states_visited, 30u);
  EXPECT_EQ(s.transitions_covered, 50u);
  EXPECT_EQ(s.transitions_total, 200u);
  EXPECT_DOUBLE_EQ(s.transition_coverage, 0.25);
  EXPECT_DOUBLE_EQ(s.elapsed_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.sequences_per_second, 2.0);

  c.estimator.end();
  EXPECT_FALSE(c.estimator.snapshot().active);
}

TEST(ProgressEstimator, FlatDiscoveryRateExtrapolatesLinearly) {
  ClockedEstimator c;
  c.now = 0.0;
  c.estimator.begin(100);
  // Constant discovery: 10 transitions per second.
  for (int i = 1; i <= 3; ++i) {
    c.now = i;
    c.estimator.on_commit(i, 10 * i, 5, 10 * static_cast<std::uint64_t>(i));
  }
  const auto s = c.estimator.snapshot();
  ASSERT_TRUE(s.eta_seconds.has_value());
  // 70 transitions remain at 10/s.
  EXPECT_NEAR(*s.eta_seconds, 7.0, 1e-9);
}

TEST(ProgressEstimator, DecayingDiscoverySumsTheGeometricTail) {
  ClockedEstimator c;
  c.now = 0.0;
  c.estimator.begin(120);
  // Halving gains: +64 @t=1, +32 @t=2, +16 @t=3 → r = 1/2, tail = 16.
  c.now = 1.0;
  c.estimator.on_commit(1, 10, 5, 64);
  c.now = 2.0;
  c.estimator.on_commit(2, 20, 5, 96);
  c.now = 3.0;
  c.estimator.on_commit(3, 30, 5, 112);

  const auto s = c.estimator.snapshot();
  ASSERT_TRUE(s.eta_seconds.has_value());
  // remaining = 8 = exactly the next half-window's gain → one more dt2.
  EXPECT_NEAR(*s.eta_seconds, 1.0, 1e-9);
}

TEST(ProgressEstimator, UnreachableGeometricTailReportsUnknown) {
  ClockedEstimator c;
  c.now = 0.0;
  c.estimator.begin(500);  // tail tops out at 112 + 16 = 128 < 500
  c.now = 1.0;
  c.estimator.on_commit(1, 10, 5, 64);
  c.now = 2.0;
  c.estimator.on_commit(2, 20, 5, 96);
  c.now = 3.0;
  c.estimator.on_commit(3, 30, 5, 112);

  EXPECT_FALSE(c.estimator.snapshot().eta_seconds.has_value())
      << "a decaying curve that cannot reach the total must not invent an "
         "ETA";
}

TEST(ProgressEstimator, FullCoverageMeansZeroEta) {
  ClockedEstimator c;
  c.now = 0.0;
  c.estimator.begin(50);
  c.now = 1.0;
  c.estimator.on_commit(1, 10, 5, 50);
  const auto s = c.estimator.snapshot();
  ASSERT_TRUE(s.eta_seconds.has_value());
  EXPECT_DOUBLE_EQ(*s.eta_seconds, 0.0);
}

TEST(ProgressEstimator, NoCommitsMeansUnknownEta) {
  ClockedEstimator c;
  c.now = 0.0;
  c.estimator.begin(50);
  EXPECT_FALSE(c.estimator.snapshot().eta_seconds.has_value());
}

// ---------------------------------------------------------------------------
// Watchdog (manual ticks)
// ---------------------------------------------------------------------------

TEST(Watchdog, InjectedStallFiresExactlyOnceWithStageAttribution) {
  obs::MetricsRegistry registry;
  obs::WatchdogOptions opt;
  opt.interval_seconds = 1.0;
  opt.stall_intervals = 3;
  obs::Watchdog dog(registry, opt);
  obs::MetricsRegistry stall_events;
  dog.set_stall_sink(&stall_events);
  dog.set_queue_depth_fn([] { return std::uint64_t{7}; });
  std::atomic<int> cancelled{0};
  dog.set_on_stall([&cancelled] { cancelled.fetch_add(1); });

  // Healthy phase: commits advance every tick.
  std::uint64_t commit = 0;
  for (double t = 1.0; t <= 2.0; t += 1.0) {
    registry.item(obs::Stage::kSimulate, "clean_run", commit, 5);
    ++commit;
    dog.tick(t);
  }
  EXPECT_FALSE(dog.stalled());

  // Wedged phase: the tour stage keeps emitting events but nothing
  // commits — the stall must attribute to kTour, the stage last alive.
  for (double t = 3.0; t <= 8.0; t += 1.0) {
    registry.item(obs::Stage::kTour, "sequence", commit + 100, 3);
    dog.tick(t);
  }
  EXPECT_TRUE(dog.stalled());
  const auto stalls = dog.stalls();
  ASSERT_EQ(stalls.size(), 1u) << "the alarm must latch: one stall episode, "
                                  "one event, however long it persists";
  EXPECT_EQ(stalls[0].stage, obs::Stage::kTour);
  EXPECT_EQ(stalls[0].committed, 2u);
  EXPECT_EQ(stalls[0].queue_depth, 7u);
  EXPECT_EQ(stalls[0].idle_intervals, 3u);
  EXPECT_EQ(counter_total(stall_events, "campaign.stall"), 1u);
  EXPECT_EQ(cancelled.load(), 1);

  // Commits resume: the alarm re-arms ...
  registry.item(obs::Stage::kSimulate, "clean_run", commit, 5);
  dog.tick(9.0);
  EXPECT_FALSE(dog.stalled());
  // ... and a second wedge fires a second (distinct) stall.
  for (double t = 10.0; t <= 13.0; t += 1.0) dog.tick(t);
  EXPECT_TRUE(dog.stalled());
  EXPECT_EQ(dog.stalls().size(), 2u);
  EXPECT_EQ(counter_total(stall_events, "campaign.stall"), 2u);
  EXPECT_EQ(cancelled.load(), 2);
}

TEST(Watchdog, SeriesIsABoundedRingBuffer) {
  obs::MetricsRegistry registry;
  obs::WatchdogOptions opt;
  opt.stall_intervals = 1000;  // never stall here
  opt.series_capacity = 4;
  obs::Watchdog dog(registry, opt);
  for (double t = 1.0; t <= 10.0; t += 1.0) dog.tick(t);
  EXPECT_EQ(dog.ticks(), 10u);
  const auto series = dog.series();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series.front().at_seconds, 7.0);
  EXPECT_DOUBLE_EQ(series.back().at_seconds, 10.0);
}

// ---------------------------------------------------------------------------
// CampaignMonitor + pipeline integration
// ---------------------------------------------------------------------------

TEST(CampaignMonitor, ServesLiveEndpointsForACampaign) {
  obs::MonitorOptions mopt;
  mopt.port = 0;  // ephemeral
  obs::CampaignMonitor monitor(mopt);
  ASSERT_NE(monitor.port(), 0u);

  core::CampaignOptions options = tour_campaign_options();
  options.monitor = &monitor;
  const auto result = core::run_campaign(options, kTwoBugs);
  ASSERT_GT(result.sequences, 0u);

  // /progress: the committed totals the pipeline reported live.
  const auto progress = obs::http_get(monitor.port(), "/progress");
  ASSERT_TRUE(progress.has_value());
  EXPECT_EQ(progress->status, 200);
  EXPECT_NE(progress->body.find("\"report\":\"progress\""),
            std::string::npos);
  EXPECT_NE(progress->body.find("\"committed_sequences\":" +
                                std::to_string(result.sequences)),
            std::string::npos);
  EXPECT_NE(progress->body.find("\"transitions_total\":" +
                                std::to_string(result.model_transitions)),
            std::string::npos);
  // The campaign ended, so the snapshot reports inactive.
  EXPECT_NE(progress->body.find("\"active\":false"), std::string::npos);
  // Per-stage items and the watchdog section are present.
  EXPECT_NE(progress->body.find("\"stage\":\"simulate\""), std::string::npos);
  EXPECT_NE(progress->body.find("\"kind\":\"clean_run\""), std::string::npos);
  EXPECT_NE(progress->body.find("\"watchdog\""), std::string::npos);

  // /metrics: Prometheus exposition of the monitor's private registry.
  const auto metrics = obs::http_get(monitor.port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("# TYPE simcov_clean_run histogram"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simcov_clean_run_count{stage=\"simulate\"} " +
                               std::to_string(result.sequences)),
            std::string::npos);

  // /healthz: no watchdog ran, so never stalled.
  const auto health = obs::http_get(monitor.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  const auto missing = obs::http_get(monitor.port(), "/not-a-route");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
}

TEST(CampaignMonitor, IsAReadOnlyObserver) {
  core::CampaignOptions plain = tour_campaign_options();
  plain.collect_coverage_telemetry = true;
  const std::string reference =
      semantic_fingerprint(core::run_campaign(plain, kTwoBugs));

  obs::CampaignMonitor monitor;  // server on, watchdog off
  core::CampaignOptions observed = plain;
  observed.monitor = &monitor;
  EXPECT_EQ(semantic_fingerprint(core::run_campaign(observed, kTwoBugs)),
            reference)
      << "attaching a monitor must not move a byte of the semantic report";
}

TEST(CampaignMonitor, MonitorWithoutTelemetryFlagAddsNoReportSection) {
  core::CampaignOptions options = tour_campaign_options();
  ASSERT_FALSE(options.collect_coverage_telemetry);
  obs::CampaignMonitor monitor;
  options.monitor = &monitor;
  const auto result = core::run_campaign(options, kTwoBugs);
  EXPECT_FALSE(result.coverage_telemetry.has_value())
      << "the monitor forces the collector on for its live feed, but the "
         "report section stays gated on collect_coverage_telemetry";
}

TEST(CampaignMonitor, OutlivesCampaignsAndServesBetweenThem) {
  obs::CampaignMonitor monitor;
  core::CampaignOptions options = tour_campaign_options();
  options.monitor = &monitor;
  (void)core::run_campaign(options, {});
  const auto first = monitor.progress().snapshot();
  EXPECT_FALSE(first.active);
  EXPECT_GT(first.committed_sequences, 0u);

  // A second campaign re-arms the estimator through begin_campaign.
  (void)core::run_campaign(options, {});
  const auto second = monitor.progress().snapshot();
  EXPECT_FALSE(second.active);
  EXPECT_GT(second.committed_sequences, 0u);
}

}  // namespace
}  // namespace simcov
