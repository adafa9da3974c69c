// Serial-vs-parallel throughput of the campaign engine on the DLX
// bug-exposure campaign (the paper's Figure 1 experiment run once per
// injected control bug) and on the Theorem 3 mutant-replay experiment.
//
// Two claims are checked:
//   1. Correctness — the sharded engine is bit-identical to the serial one
//      for the same seed (per-run RNG streams derive from (seed, index),
//      results land in per-index slots). Any mismatch fails the bench.
//   2. Throughput — wall-clock speedup at 2/4/hardware threads. The
//      speedup a given host shows is bounded by its core count; the table
//      reports whatever the hardware allows.
//
// Finishes with the structured JSON report of the parallel run, the
// machine-readable form downstream tooling consumes.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "model/explicit_model.hpp"
#include "sym/symbolic_fsm.hpp"
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

}  // namespace

int main(int argc, char** argv) try {
  using namespace simcov;
  bench::init(argc, argv, bench::kSinks | bench::kCircuit | bench::kVcd |
              bench::kGenerator);

  // Bug injection is DLX-specific; with --circuit the campaign validates
  // an external BLIF netlist and runs clean-only.
  const bool external = !bench::circuit().empty();
  const std::vector<dlx::PipelineBug> bugs = external
      ? std::vector<dlx::PipelineBug>{}
      : std::vector<dlx::PipelineBug>{
      dlx::PipelineBug::kNoForwardExMemA,
      dlx::PipelineBug::kNoForwardExMemB,
      dlx::PipelineBug::kNoForwardMemWbA,
      dlx::PipelineBug::kNoForwardMemWbB,
      dlx::PipelineBug::kNoIdBypass,
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kInterlockChecksRs1Only,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
      dlx::PipelineBug::kSquashOnlyFetch,
      dlx::PipelineBug::kBranchTargetOffByFour,
      dlx::PipelineBug::kWritebackSelectsAluForLoad,
      dlx::PipelineBug::kStoreDataStale,
      dlx::PipelineBug::kBranchUsesStaleCondition,
      dlx::PipelineBug::kForwardPriorityWrong,
      dlx::PipelineBug::kInterlockMissesDoubleHazard,
      dlx::PipelineBug::kForwardFromR0,
  };

  core::CampaignOptions base;
  base.model_options = tour_model_options();
  base.circuit_path = bench::circuit();
  base.vcd_path = bench::vcd();
  base.method = core::TestMethod::kTransitionTourSet;
  base.sink = bench::sink();
  base.collect_coverage_telemetry = true;
  base.generator = bench::generator();
  if (base.generator.kind != core::GeneratorKind::kTransitionTour) {
    // Smoke-scale walk budget: the identity claims below hold at any
    // budget, and CI runs this bench once per generator.
    base.generator.max_walk_steps = 16384;
  }

  bench::header(external
                    ? "Parallel campaign engine: external-circuit campaign"
                    : "Parallel campaign engine: DLX bug-exposure campaign");
  bench::row("circuit", external ? bench::circuit() : "DLX control model");
  bench::row("hardware threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  bench::row("injected bugs", bugs.size());
  bench::row("generator", core::generator_kind_name(base.generator.kind));

  // Serial reference.
  core::CampaignOptions serial = base;
  serial.threads = 1;
  bench::Timer serial_timer;
  const auto serial_result = core::run_campaign(serial, bugs);
  const double serial_seconds = serial_timer.seconds();
  const std::string reference = core::semantic_json(serial_result);
  bench::row("test-set programs", serial_result.sequences);
  bench::row("bugs exposed", serial_result.bugs_exposed());
  bench::row("total impl cycles", serial_result.total_impl_cycles());

  std::printf("\n  %-10s %12s %10s %12s\n", "threads", "seconds", "speedup",
              "identical");
  std::printf("  %-10zu %12.3f %10s %12s\n", std::size_t{1}, serial_seconds,
              "1.00x", "reference");
  bool all_identical = true;
  double speedup_at_4 = 0.0;
  core::CampaignResult parallel_result;
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{std::thread::hardware_concurrency()}}) {
    core::CampaignOptions opt = base;
    opt.threads = threads;
    bench::Timer timer;
    parallel_result = core::run_campaign(opt, bugs);
    const double seconds = timer.seconds();
    const bool identical = core::semantic_json(parallel_result) == reference;
    all_identical = all_identical && identical;
    const double speedup = serial_seconds / seconds;
    if (threads == 4) speedup_at_4 = speedup;
    std::printf("  %-10zu %12.3f %9.2fx %12s\n", threads, seconds, speedup,
                identical ? "yes" : "NO");
  }

  // Mutant replay (Theorem 3 apparatus), the other hot loop.
  bench::header("Parallel mutant replay: Theorem 3 experiment");
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto em =
      model::ExplicitModel(sym::extract_explicit(model.circuit, 100000));
  core::MutantCoverageOptions mc;
  mc.mutant_sample = 400;
  mc.k_extension = 5;
  mc.exclude_equivalent = true;
  mc.threads = 1;
  mc.sink = bench::sink();
  bench::Timer mc_serial_timer;
  const auto mc_serial = core::evaluate_mutant_coverage(em, mc);
  const double mc_serial_seconds = mc_serial_timer.seconds();
  std::printf("\n  %-10s %12s %10s %12s\n", "threads", "seconds", "speedup",
              "identical");
  std::printf("  %-10zu %12.3f %10s %12s\n", std::size_t{1},
              mc_serial_seconds, "1.00x", "reference");
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4},
        std::size_t{std::thread::hardware_concurrency()}}) {
    core::MutantCoverageOptions opt = mc;
    opt.threads = threads;
    bench::Timer timer;
    const auto r = core::evaluate_mutant_coverage(em, opt);
    const double seconds = timer.seconds();
    const bool identical = r.mutants == mc_serial.mutants &&
                           r.exposed == mc_serial.exposed &&
                           r.equivalent == mc_serial.equivalent &&
                           r.test_length == mc_serial.test_length &&
                           r.exposure_latency == mc_serial.exposure_latency;
    all_identical = all_identical && identical;
    std::printf("  %-10zu %12.3f %9.2fx %12s\n", threads, seconds,
                mc_serial_seconds / seconds, identical ? "yes" : "NO");
  }

  bench::header("Structured JSON report (parallel campaign run)");
  std::printf("%s\n", core::to_json(parallel_result).c_str());
  bench::attach_json("campaign", core::to_json(parallel_result));

  bench::row("parallel results identical to serial",
             all_identical ? "yes" : "NO");
  bench::row("campaign report hash",
             bench::report_hash(core::semantic_json(parallel_result)));
  if (speedup_at_4 > 0.0) {
    std::printf("  %-52s %.2fx\n", "speedup at 4 threads", speedup_at_4);
  }
  return simcov::bench::finish(all_identical ? 0 : 1);
} catch (const std::invalid_argument& e) {
  // A --circuit netlist the reader or the backends reject: report its
  // (line-numbered) message and fail instead of aborting.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
