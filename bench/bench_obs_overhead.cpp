// Observability overhead gate: the metrics registry and the Perfetto trace
// sink must stay cheap enough to leave on in every campaign.
//
// The same smoke campaign (DLX control model, four injected bugs, one
// worker thread for stable timing) runs in two configurations:
//   * baseline     — obs::null_sink(), i.e. the virtual-dispatch cost only;
//   * instrumented — a MetricsRegistry and a PerfettoTraceSink behind one
//     obs::MultiSink as CampaignOptions::sink, the full per-item
//     latency / span / counter firehose.
//
// They run in alternating pairs inside one process (the order flips every
// pair), and the gate is the median of the per-pair ratios
// instrumented / baseline: host drift that lasts longer than one pair hits
// both sides of it, so the median measures the sinks, not the host. The
// bench fails if that median exceeds 1.05 (5% overhead). It prints the
// ratios' interquartile range next to it.
//
// As a cross-check that does not time the campaign, one campaign's events
// are recorded and replayed into a fresh registry + Perfetto pair many
// times: sink calls per campaign times the measured cost per call, as a
// share of the baseline campaign.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "testmodel/testmodel.hpp"

namespace {

using namespace simcov;

constexpr std::size_t kPairs = 31;
constexpr std::size_t kReplays = 50;
constexpr double kMaxOverheadPct = 5.0;

testmodel::TestModelOptions tour_model_options() {
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

double timed_run(const core::CampaignOptions& opt,
                 const std::vector<dlx::PipelineBug>& bugs) {
  bench::Timer timer;
  (void)core::run_campaign(opt, bugs);
  return timer.seconds();
}

/// Linear-interpolated quantile of sorted values, q in [0, 1].
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Records every event it receives, so one campaign's event stream can be
/// replayed into other sinks without running the campaign again.
class RecordingSink final : public obs::EventSink {
 public:
  void span(obs::Stage stage, double seconds) override {
    add({Kind::kSpan, stage, {}, 0, 0, seconds, {}});
  }
  void counter(obs::Stage stage, std::string_view name,
               std::uint64_t value) override {
    add({Kind::kCounter, stage, std::string(name), 0, value, 0.0, {}});
  }
  void gauge(obs::Stage stage, std::string_view name,
             std::uint64_t value) override {
    add({Kind::kGauge, stage, std::string(name), 0, value, 0.0, {}});
  }
  void item(obs::Stage stage, std::string_view kind, std::uint64_t id,
            std::uint64_t value) override {
    add({Kind::kItem, stage, std::string(kind), id, value, 0.0, {}});
  }
  void latency(obs::Stage stage, std::string_view kind, std::uint64_t id,
               double seconds) override {
    add({Kind::kLatency, stage, std::string(kind), id, 0, seconds, {}});
  }
  void status(obs::Stage stage, obs::StageStatus status) override {
    add({Kind::kStatus, stage, {}, 0, 0, 0.0, status});
  }

  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Sends every recorded event to `sink`, in arrival order.
  void replay(obs::EventSink& sink) const {
    for (const Event& e : events_) {
      switch (e.kind) {
        case Kind::kSpan: sink.span(e.stage, e.seconds); break;
        case Kind::kCounter: sink.counter(e.stage, e.name, e.value); break;
        case Kind::kGauge: sink.gauge(e.stage, e.name, e.value); break;
        case Kind::kItem: sink.item(e.stage, e.name, e.id, e.value); break;
        case Kind::kLatency:
          sink.latency(e.stage, e.name, e.id, e.seconds);
          break;
        case Kind::kStatus: sink.status(e.stage, e.status); break;
      }
    }
  }

 private:
  enum class Kind : std::uint8_t {
    kSpan, kCounter, kGauge, kItem, kLatency, kStatus
  };
  struct Event {
    Kind kind;
    obs::Stage stage;
    std::string name;
    std::uint64_t id;
    std::uint64_t value;
    double seconds;
    obs::StageStatus status;
  };

  void add(Event e) {
    std::lock_guard lock(mutex_);
    events_.push_back(std::move(e));
  }

  std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);

  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoForwardExMemA,
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
      dlx::PipelineBug::kForwardFromR0,
  };

  core::CampaignOptions base;
  base.model_options = tour_model_options();
  base.method = core::TestMethod::kTransitionTourSet;
  base.threads = 1;

  core::CampaignOptions baseline = base;
  baseline.sink = &obs::null_sink();

  const std::string perfetto_path = "bench_obs_overhead.perfetto.json";
  obs::MetricsRegistry registry;
  obs::PerfettoTraceSink perfetto(perfetto_path);
  obs::MultiSink both;
  both.add(&perfetto);
  both.add(&registry);
  core::CampaignOptions instrumented = base;
  instrumented.sink = &both;

  bench::header("Observability overhead: registry + Perfetto vs null sink");
  bench::row("alternating pairs", kPairs);
  bench::row("worker threads", std::size_t{base.threads});

  // Warm all paths once (model build caches, allocator state) before
  // timing.
  (void)timed_run(baseline, bugs);
  (void)timed_run(instrumented, bugs);
  std::vector<double> ratios, base_seconds;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double b = 0.0;
    double i = 0.0;
    if (pair % 2 == 0) {
      b = timed_run(baseline, bugs);
      i = timed_run(instrumented, bugs);
    } else {
      i = timed_run(instrumented, bugs);
      b = timed_run(baseline, bugs);
    }
    ratios.push_back(i / b);
    base_seconds.push_back(b);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(base_seconds.begin(), base_seconds.end());
  const double median_ratio = quantile(ratios, 0.5);
  const double base_median = quantile(base_seconds, 0.5);
  const double overhead_pct = 100.0 * (median_ratio - 1.0);
  const bool overhead_ok = overhead_pct <= kMaxOverheadPct;

  const auto summary = registry.summary();
  std::uint64_t observations = 0;
  for (const auto& h : summary.histograms) observations += h.value.count;

  // Cross-check: the sinks' own cost per campaign, from one recorded
  // campaign's events replayed into a fresh registry + Perfetto pair.
  RecordingSink recorded;
  core::CampaignOptions recording = base;
  recording.sink = &recorded;
  (void)core::run_campaign(recording, bugs);
  const std::string replay_path = "bench_obs_overhead.replay.json";
  double replay_seconds = 0.0;
  {
    obs::MetricsRegistry replay_registry;
    obs::PerfettoTraceSink replay_perfetto(replay_path);
    obs::MultiSink replay_both;
    replay_both.add(&replay_perfetto);
    replay_both.add(&replay_registry);
    bench::Timer timer;
    for (std::size_t r = 0; r < kReplays; ++r) recorded.replay(replay_both);
    replay_seconds = timer.seconds();
  }
  std::remove(replay_path.c_str());
  const double calls = static_cast<double>(recorded.size());
  const double per_call_s =
      replay_seconds / (static_cast<double>(kReplays) * calls);
  const double estimated_pct = 100.0 * calls * per_call_s / base_median;

  bench::row("baseline median seconds", base_median);
  bench::row("instrumented / baseline, median", median_ratio);
  bench::row("instrumented / baseline, first quartile",
             quantile(ratios, 0.25));
  bench::row("instrumented / baseline, third quartile",
             quantile(ratios, 0.75));
  bench::row("histogram observations recorded", std::size_t{observations});
  bench::row("counter series", summary.counters.size());
  bench::row("histogram series", summary.histograms.size());
  bench::row("sink calls per campaign", recorded.size());
  bench::row("sink cost per call (ns)", 1e9 * per_call_s);
  bench::row("calls x cost percent (cross-check)", estimated_pct);
  bench::row("overhead percent (median pair)", overhead_pct);
  bench::row("within 5% budget", overhead_ok ? "yes" : "NO");

  std::printf("\n  perfetto trace written to %s\n", perfetto_path.c_str());
  return bench::finish(overhead_ok ? 0 : 1);
}
