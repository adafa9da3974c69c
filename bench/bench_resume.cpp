// Checkpoint/resume equivalence: a campaign killed mid-stream via its
// CancellationToken and then resumed from the store's checkpoint produces
// exactly the uninterrupted run's report, at 1, 2 and 8 worker threads.
// Any mismatch exits nonzero.
//
// The checkpoints live under `bench_resume.store/` in the working
// directory, wiped first so every kill starts from an empty store.
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
  simcov::bench::init(argc, argv, simcov::bench::kSinks);
  using namespace simcov;

  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoForwardExMemA,
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
      dlx::PipelineBug::kForwardFromR0,
  };

  const std::string store_root = "bench_resume.store";
  std::error_code ec;
  std::filesystem::remove_all(store_root, ec);

  core::CampaignOptions base;
  base.model_options = tour_model_options();
  base.method = core::TestMethod::kTransitionTourSet;
  base.checkpoint_every = 4;
  base.collect_coverage_telemetry = true;

  bool ok = true;
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
    const std::string reference =
        core::semantic_json(core::run_campaign(uopt, bugs));

    const std::string dir =
        store_root + "/resume-t" + std::to_string(threads);

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

  bench::row("all resume invariants hold", ok ? "yes" : "NO");
  return simcov::bench::finish(ok ? 0 : 1);
}
