// Observability overhead gate: the metrics registry and the Perfetto trace
// sink must stay cheap enough to leave on in every campaign.
//
// The same smoke campaign (DLX control model, four injected bugs, one
// worker thread for stable timing) runs in two configurations:
//   * baseline     — obs::null_sink(), i.e. the virtual-dispatch cost only;
//   * instrumented — a MetricsRegistry as CampaignOptions::metrics plus a
//     PerfettoTraceSink as CampaignOptions::sink, the full per-item
//     latency / span / counter firehose.
//
// Both are timed best-of-N after a warmup (min absorbs scheduler noise the
// way a mean cannot). The bench fails if the instrumented minimum exceeds
// the baseline minimum by more than 5%.
//
// A third configuration — a live obs::CampaignMonitor with its HTTP server
// bound and the stall watchdog sampling — is held to the same 5% budget,
// and the monitor must be a pure observer: the semantic campaign report
// (timings and other wall-clock artifacts erased) must be byte-identical
// with the monitor attached or absent, at 1, 2 and 8 worker threads.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor_server.hpp"
#include "testmodel/testmodel.hpp"

namespace {

constexpr std::size_t kReps = 5;
constexpr double kMaxOverheadPct = 5.0;

simcov::testmodel::TestModelOptions tour_model_options() {
  simcov::testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

double timed_run(const simcov::core::CampaignOptions& opt,
                 const std::vector<simcov::dlx::PipelineBug>& bugs) {
  simcov::bench::Timer timer;
  (void)simcov::core::run_campaign(opt, bugs);
  return timer.seconds();
}

/// The campaign report with every wall-clock artifact erased — what must
/// be byte-identical with the monitor on or off.
std::string semantic_fingerprint(simcov::core::CampaignResult result) {
  result.timings = {};
  result.store_stats.reset();
  result.metrics.reset();
  return simcov::core::to_json(result);
}

}  // namespace

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  using namespace simcov;

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
  core::CampaignOptions instrumented = base;
  instrumented.sink = &perfetto;
  instrumented.metrics = &registry;

  // Live monitor: HTTP server on an ephemeral port, watchdog sampling at
  // 50ms — the full always-on configuration, held to the same budget.
  obs::MonitorOptions monitor_options;
  monitor_options.port = 0;
  monitor_options.watchdog_seconds = 0.05;
  obs::CampaignMonitor monitor(monitor_options);
  core::CampaignOptions monitored = base;
  monitored.sink = &obs::null_sink();
  monitored.monitor = &monitor;

  bench::header("Observability overhead: registry + Perfetto vs null sink");
  bench::row("repetitions (best-of)", kReps);
  bench::row("worker threads", std::size_t{base.threads});
  bench::row("monitor port", std::size_t{monitor.port()});

  // Warm all paths once (model build caches, allocator state) before
  // timing, then alternate configurations so drift hits them equally.
  (void)timed_run(baseline, bugs);
  (void)timed_run(instrumented, bugs);
  (void)timed_run(monitored, bugs);
  double base_min = 0.0;
  double instr_min = 0.0;
  double monitor_min = 0.0;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const double b = timed_run(baseline, bugs);
    const double i = timed_run(instrumented, bugs);
    const double m = timed_run(monitored, bugs);
    base_min = rep == 0 ? b : std::min(base_min, b);
    instr_min = rep == 0 ? i : std::min(instr_min, i);
    monitor_min = rep == 0 ? m : std::min(monitor_min, m);
  }

  const auto summary = registry.summary();
  std::uint64_t observations = 0;
  for (const auto& h : summary.histograms) observations += h.value.count;

  const double overhead_pct =
      base_min > 0.0 ? 100.0 * (instr_min - base_min) / base_min : 0.0;
  const double monitor_pct =
      base_min > 0.0 ? 100.0 * (monitor_min - base_min) / base_min : 0.0;
  const bool overhead_ok =
      overhead_pct <= kMaxOverheadPct && monitor_pct <= kMaxOverheadPct;

  bench::row("baseline min seconds", base_min);
  bench::row("instrumented min seconds", instr_min);
  bench::row("monitored min seconds", monitor_min);
  bench::row("histogram observations recorded", std::size_t{observations});
  bench::row("counter series", summary.counters.size());
  bench::row("histogram series", summary.histograms.size());
  bench::row("overhead percent", overhead_pct);
  bench::row("monitor overhead percent", monitor_pct);
  bench::row("within 5% budget", overhead_ok ? "yes" : "NO");

  // Read-only observer gate: with the monitor attached the semantic report
  // must not move a byte, at any thread count.
  bench::header("Monitor on/off: semantic report identity");
  core::CampaignOptions identity = base;
  identity.sink = &obs::null_sink();
  identity.collect_coverage_telemetry = true;
  bool identical_all = true;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    core::CampaignOptions off = identity;
    off.threads = threads;
    core::CampaignOptions on = off;
    on.monitor = &monitor;
    const bool identical =
        semantic_fingerprint(core::run_campaign(off, bugs)) ==
        semantic_fingerprint(core::run_campaign(on, bugs));
    identical_all = identical_all && identical;
    char label[64];
    std::snprintf(label, sizeof label, "identical at %zu thread(s)",
                  threads);
    bench::row(label, identical ? "yes" : "NO");
  }

  const bool ok = overhead_ok && identical_all;
  std::printf("\n  perfetto trace written to %s\n", perfetto_path.c_str());
  return bench::finish(ok ? 0 : 1);
}
