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
// Both are timed best-of-N after a warmup (min absorbs scheduler noise the
// way a mean cannot). The bench fails if the instrumented minimum exceeds
// the baseline minimum by more than 5%.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
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
  obs::MultiSink both;
  both.add(&perfetto);
  both.add(&registry);
  core::CampaignOptions instrumented = base;
  instrumented.sink = &both;

  bench::header("Observability overhead: registry + Perfetto vs null sink");
  bench::row("repetitions (best-of)", kReps);
  bench::row("worker threads", std::size_t{base.threads});

  // Warm all paths once (model build caches, allocator state) before
  // timing, then alternate configurations so drift hits them equally.
  (void)timed_run(baseline, bugs);
  (void)timed_run(instrumented, bugs);
  double base_min = 0.0;
  double instr_min = 0.0;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const double b = timed_run(baseline, bugs);
    const double i = timed_run(instrumented, bugs);
    base_min = rep == 0 ? b : std::min(base_min, b);
    instr_min = rep == 0 ? i : std::min(instr_min, i);
  }

  const auto summary = registry.summary();
  std::uint64_t observations = 0;
  for (const auto& h : summary.histograms) observations += h.value.count;

  const double overhead_pct =
      base_min > 0.0 ? 100.0 * (instr_min - base_min) / base_min : 0.0;
  const bool overhead_ok = overhead_pct <= kMaxOverheadPct;

  bench::row("baseline min seconds", base_min);
  bench::row("instrumented min seconds", instr_min);
  bench::row("histogram observations recorded", std::size_t{observations});
  bench::row("counter series", summary.counters.size());
  bench::row("histogram series", summary.histograms.size());
  bench::row("overhead percent", overhead_pct);
  bench::row("within 5% budget", overhead_ok ? "yes" : "NO");

  std::printf("\n  perfetto trace written to %s\n", perfetto_path.c_str());
  return bench::finish(overhead_ok ? 0 : 1);
}
