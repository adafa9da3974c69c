// Cold-vs-warm campaign timing through the artifact store, plus the
// checkpoint/resume equivalence check.
//
// Three claims are checked (any failure exits nonzero):
//   1. Warm skip — a second campaign against the same --store directory
//      reuses the published tour (store hits > 0, misses == 0): tour
//      generation is skipped entirely.
//   2. Warm identity — the warm run's report is byte-identical to the cold
//      run's after erasing timings and store counters (the two things that
//      legitimately differ between a cold and a warm run).
//   3. Resume identity — a campaign killed mid-stream via its
//      CancellationToken and then resumed from the store's checkpoint
//      produces exactly the uninterrupted run's report, at 1, 2 and 8
//      worker threads.
//
// `--store <dir>` overrides the store location (the default directory is
// wiped first so the cold run is genuinely cold; a caller-provided one is
// used as-is).
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "obs/event_sink.hpp"
#include "testmodel/testmodel.hpp"

namespace {

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

/// Cancels the campaign after `after` committed clean runs — a
/// deterministic stand-in for killing the process mid-stream.
class KillAfterRuns final : public simcov::obs::EventSink {
 public:
  KillAfterRuns(simcov::core::CancellationToken token, std::size_t after)
      : token_(std::move(token)), after_(after) {}

  void item(simcov::obs::Stage stage, std::string_view kind, std::uint64_t,
            std::uint64_t) override {
    if (stage == simcov::obs::Stage::kSimulate && kind == "clean_run" &&
        seen_.fetch_add(1) + 1 >= after_) {
      token_.cancel();
    }
  }

 private:
  simcov::core::CancellationToken token_;
  std::size_t after_;
  std::atomic<std::size_t> seen_{0};
};

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

  std::string store_root = bench::store_dir();
  if (store_root.empty()) {
    store_root = "bench_store_warm.store";
    std::error_code ec;
    std::filesystem::remove_all(store_root, ec);  // guarantee a cold start
  }

  core::CampaignOptions base;
  base.model_options = tour_model_options();
  base.method = core::TestMethod::kTransitionTourSet;
  base.checkpoint_every = 4;
  base.collect_coverage_telemetry = true;

  bool ok = true;

  bench::header("Artifact store: cold vs warm campaign");
  core::CampaignOptions cold = base;
  cold.store_dir = store_root + "/warm";
  cold.sink = bench::sink();
  bench::Timer cold_timer;
  const auto cold_result = core::run_campaign(cold, bugs);
  const double cold_seconds = cold_timer.seconds();

  bench::Timer warm_timer;
  const auto warm_result = core::run_campaign(cold, bugs);
  const double warm_seconds = warm_timer.seconds();

  const auto& warm_stats = warm_result.store_stats;
  const bool tour_skipped = warm_stats.has_value() && warm_stats->hits > 0 &&
                            warm_stats->misses == 0;
  const bool warm_identical =
      core::semantic_json(warm_result) == core::semantic_json(cold_result);
  ok = ok && tour_skipped && warm_identical;

  bench::row("test-set programs", cold_result.sequences);
  bench::row("cold seconds", cold_seconds);
  bench::row("warm seconds", warm_seconds);
  bench::row("warm speedup",
             warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0);
  bench::row("warm run skipped tour generation",
             tour_skipped ? "yes" : "NO");
  bench::row("warm report identical to cold", warm_identical ? "yes" : "NO");

  bench::header("Checkpoint/resume: killed campaign equals uninterrupted");
  std::printf("\n  %-10s %10s %10s %12s %10s\n", "threads", "killed at",
              "restored", "identical", "cancelled");
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // Copied CampaignOptions share one cancellation flag; every run below
    // needs its own token so the kill only hits the run it targets.
    core::CampaignOptions uopt = base;
    uopt.cancel = core::CancellationToken{};
    uopt.threads = threads;
    uopt.store_dir = store_root + "/uninterrupted";
    const auto uninterrupted = core::run_campaign(uopt, bugs);
    const std::string reference = core::semantic_json(uninterrupted);

    const std::string dir =
        store_root + "/resume-t" + std::to_string(threads);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    core::CampaignOptions kopt = base;
    kopt.cancel = core::CancellationToken{};
    kopt.threads = threads;
    kopt.store_dir = dir;
    KillAfterRuns killer(kopt.cancel, 3);
    kopt.sink = &killer;
    const auto killed = core::run_campaign(kopt, bugs);

    core::CampaignOptions ropt = base;
    ropt.cancel = core::CancellationToken{};
    ropt.threads = threads;
    ropt.store_dir = dir;
    ropt.resume = true;
    ropt.sink = bench::sink();
    const auto resumed = core::run_campaign(ropt, bugs);

    const bool identical = core::semantic_json(resumed) == reference;
    const std::uint64_t restored = resumed.store_stats.has_value()
                                       ? resumed.store_stats->resumed_sequences
                                       : 0;
    ok = ok && identical;
    std::printf("  %-10zu %10zu %10llu %12s %10s\n", threads,
                killed.clean_runs.size(),
                static_cast<unsigned long long>(restored),
                identical ? "yes" : "NO",
                killed.cancelled() ? "yes" : "no");
    bench::row("resume identical (threads=" + std::to_string(threads) + ")",
               identical ? "yes" : "NO");
  }

  bench::row("all store invariants hold", ok ? "yes" : "NO");
  return simcov::bench::finish(ok ? 0 : 1);
}
