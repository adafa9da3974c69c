// Theorem 3 reproduction (headline claim): a transition tour of the test
// model is a complete test set under Requirements 1-5, and dominates the
// weaker coverage criteria.
//
// Two levels:
//  1. Test-model level (the theorem's own terms): sampled output/transfer
//     mutants of the control model's state graph, exposed or not by a
//     transition tour set vs a state tour vs an equal-length random walk.
//     Every unexposed real mutant is put in one bucket of
//     errmodel::MutantReplay::Miss: never excited, masked (Def. 4), or cut
//     off by the end of a sequence while still diverged (Theorem 1's k
//     horizon).
//  2. Implementation level (the Figure 1 flow): the concretized tour
//     programs run on the pipelined DLX against the paper's class of
//     control errors (interlock, bypassing, squashing, linking, ...).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/requirements.hpp"
#include "distinguish/distinguish.hpp"
#include "errmodel/errmodel.hpp"
#include "model/explicit_model.hpp"
#include "pipeline/stages.hpp"
#include "runtime/rng.hpp"
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

/// The unexposed real mutants of one evaluate_mutant_coverage run, by why
/// they went unexposed. Rebuilds the run's test set and mutant sample the
/// way pipeline::MutantReplayStage does.
struct MissSplit {
  std::size_t not_excited = 0;
  std::size_t masked = 0;
  std::size_t cut_off = 0;

  [[nodiscard]] std::size_t total() const {
    return not_excited + masked + cut_off;
  }
};

MissSplit miss_split(const simcov::fsm::MealyMachine& m,
                     simcov::fsm::StateId start,
                     const simcov::core::MutantCoverageOptions& opt) {
  using namespace simcov;
  auto set = pipeline::generate_test_set(m, start, opt.method,
                                         opt.random_length, opt.seed,
                                         opt.generator);
  for (auto& seq : set.sequences) {
    pipeline::extend_sequence(m, start, seq, opt.k_extension);
  }
  const auto mutants = errmodel::sample_mutations(
      m, start, m.output_alphabet_size(), opt.mutant_sample,
      runtime::derive_stream(opt.seed, runtime::Stream::kMutantStream));
  const errmodel::MutantReplay replay(m, start, set.sequences);
  MissSplit split;
  for (const auto& mut : mutants) {
    const auto v = replay.first_exposing_sequence(mut);
    if (v.sequence.has_value() || replay.equivalent(mut)) continue;
    switch (v.miss) {
      case errmodel::MutantReplay::Miss::kNotExcited:
        ++split.not_excited;
        break;
      case errmodel::MutantReplay::Miss::kMasked:
        ++split.masked;
        break;
      case errmodel::MutantReplay::Miss::kCutOff:
        ++split.cut_off;
        break;
      case errmodel::MutantReplay::Miss::kNone:  // exposed: skipped above
        break;
    }
  }
  return split;
}

}  // namespace

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  using namespace simcov;
  using core::TestMethod;

  // ---- Level 1: mutant coverage on the test model -------------------------
  bench::header("Theorem 3 (model level): mutant exposure by coverage method");
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto em = sym::extract_explicit(model.circuit, 100000);
  const model::ExplicitModel test_model(em.machine, 0);
  bench::row("test model states", static_cast<std::size_t>(em.machine.num_states()));
  bench::row("test model transitions", em.machine.num_defined_transitions());

  const auto req = core::assess_requirements(em.machine, 0, model.options,
                                             /*max_k=*/4, 30, 100);
  bench::row("interaction state observable (Req. 5)",
             req.r5_interaction_state_observable ? "yes" : "no");
  bench::row("masked transfer-error fraction (Req. 4 estimate)",
             req.r4_masked_fraction);

  std::printf("\n  %-18s %10s %10s %12s %10s %6s   %s\n", "method",
              "sequences", "length", "exposed", "rate", "equiv",
              "misses: unexcited / masked / cut off");
  core::MutantCoverageOptions base;
  base.mutant_sample = 300;
  base.k_extension = 5;
  base.exclude_equivalent = true;  // fair denominator: real errors only
  base.sink = bench::sink();
  std::size_t tour_len = 0;
  bool misses_explained = true;
  for (const TestMethod method :
       {TestMethod::kTransitionTourSet, TestMethod::kStateTour,
        TestMethod::kRandomWalk}) {
    core::MutantCoverageOptions opt = base;
    opt.method = method;
    if (method == TestMethod::kRandomWalk) {
      opt.random_length = tour_len;  // equal budget to the transition tour
    }
    const auto r = core::evaluate_mutant_coverage(test_model, opt);
    if (method == TestMethod::kTransitionTourSet) tour_len = r.test_length;
    const MissSplit split = miss_split(em.machine, 0, opt);
    misses_explained =
        misses_explained && split.total() == r.mutants - r.exposed;
    std::printf("  %-18s %10zu %10zu %6zu/%-5zu %9.1f%% %6zu   "
                "%zu / %zu / %zu\n",
                core::method_name(method), r.sequences, r.test_length,
                r.exposed, r.mutants, 100.0 * r.exposure_rate().value_or(0.0),
                r.equivalent, split.not_excited, split.masked, split.cut_off);
  }
  bench::row("every miss in one bucket", misses_explained ? "yes" : "NO");

  // ---- Level 1b: tour vs W-method on the minimized model --------------------
  // The W-method (P·W conformance suite) guarantees exposure of every
  // single fault of a *minimal* machine with no side conditions; transition
  // tours need the paper's Requirements. Comparing both on the minimized
  // control model shows the price of that guarantee (test length).
  bench::header(
      "Minimized model: transition tour vs W-method (both exact settings)");
  const auto minimized = distinguish::minimize(em.machine, 0);
  const model::ExplicitModel minimized_model(minimized.machine,
                                             minimized.machine.initial_state());
  bench::row("minimized states",
             static_cast<std::size_t>(minimized.machine.num_states()));
  bench::row("minimized transitions",
             minimized.machine.num_defined_transitions());
  std::printf("\n  %-18s %10s %10s %12s %10s\n", "method", "sequences",
              "length", "exposed", "rate");
  for (const TestMethod method :
       {TestMethod::kTransitionTourSet, TestMethod::kWMethod}) {
    core::MutantCoverageOptions opt = base;
    opt.method = method;
    const auto r = core::evaluate_mutant_coverage(minimized_model, opt);
    std::printf("  %-18s %10zu %10zu %6zu/%-5zu %9.1f%%\n",
                core::method_name(method), r.sequences, r.test_length,
                r.exposed, r.mutants, 100.0 * r.exposure_rate().value_or(0.0));
  }

  // ---- Level 2: implementation-level campaigns ------------------------------
  bench::header(
      "Theorem 3 (implementation level): pipeline control bugs exposed");
  const std::vector<dlx::PipelineBug> bugs{
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
  const char* bug_names[] = {
      "no EX/MEM bypass (A)",      "no EX/MEM bypass (B)",
      "no MEM/WB bypass (A)",      "no MEM/WB bypass (B)",
      "no WB->ID bypass",          "missing load-use interlock",
      "interlock checks rs1 only", "no squash on taken branch",
      "squash only in fetch",      "branch target off by 4",
      "WB selects address for load", "store data not bypassed",
      "stale branch condition",    "bypass priority inverted",
      "interlock misses double hazard", "bypass matches r0 producers",
  };

  std::printf("\n  %-34s %16s %16s %16s\n", "injected control bug",
              "transition-tour", "state-tour", "random-walk");
  std::vector<core::CampaignResult> results;
  for (const TestMethod method :
       {TestMethod::kTransitionTourSet, TestMethod::kStateTour,
        TestMethod::kRandomWalk}) {
    core::CampaignOptions opt;
    opt.model_options = tour_model_options();
    opt.method = method;
    opt.random_length = 200;  // a typical short random-simulation budget
    opt.sink = bench::sink();
    results.push_back(core::run_campaign(opt, bugs));
  }
  for (std::size_t b = 0; b < bugs.size(); ++b) {
    std::printf("  %-34s %16s %16s %16s\n", bug_names[b],
                results[0].exposures[b].exposed ? "EXPOSED" : "missed",
                results[1].exposures[b].exposed ? "EXPOSED" : "missed",
                results[2].exposures[b].exposed ? "EXPOSED" : "missed");
  }
  std::printf("\n  %-34s %13zu/%zu %13zu/%zu %13zu/%zu\n", "total exposed",
              results[0].bugs_exposed(), bugs.size(),
              results[1].bugs_exposed(), bugs.size(),
              results[2].bugs_exposed(), bugs.size());
  std::printf("  %-34s %16zu %16zu %16zu\n", "test-set instructions",
              results[0].total_instructions, results[1].total_instructions,
              results[2].total_instructions);
  std::printf("  %-34s %15.0f%% %15.0f%% %15.0f%%\n", "transition coverage",
              100 * results[0].transition_coverage,
              100 * results[1].transition_coverage,
              100 * results[2].transition_coverage);
  const bool clean =
      results[0].clean_pass && results[1].clean_pass && results[2].clean_pass;
  bench::row("clean implementation passes every test set",
             clean ? "yes" : "NO");

  // Random-simulation budget sweep: how much random simulation buys the
  // exposure that the transition tour guarantees by construction.
  bench::header("Random-simulation budget sweep (bugs exposed, 3 seeds)");
  std::printf("\n  %-16s %8s %8s %8s\n", "walk length", "seed 1", "seed 2",
              "seed 3");
  for (const std::size_t len : {50u, 100u, 200u, 400u, 800u}) {
    std::size_t exposed[3];
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      core::CampaignOptions opt;
      opt.model_options = tour_model_options();
      opt.method = TestMethod::kRandomWalk;
      opt.random_length = len;
      opt.seed = seed;
      exposed[seed - 1] = core::run_campaign(opt, bugs).bugs_exposed();
    }
    std::printf("  %-16zu %5zu/%-2zu %5zu/%-2zu %5zu/%-2zu\n", len,
                exposed[0], bugs.size(), exposed[1], bugs.size(), exposed[2],
                bugs.size());
  }
  std::printf("  %-16s %5zu/%-2zu  (guaranteed, single test set)\n",
              "transition tour", results[0].bugs_exposed(), bugs.size());

  std::printf(
      "\nShape check vs paper: the transition tour exposes the most errors\n"
      "(complete under Req. 1-5 at the model level); state coverage and\n"
      "random simulation leave specific control errors unexercised.\n");
  return simcov::bench::finish(clean && misses_explained ? 0 : 1);
}
