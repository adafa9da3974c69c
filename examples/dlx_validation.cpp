// End-to-end processor validation, exactly the paper's Figure 1 flow:
//
//   implementation (pipelined DLX) --abstract--> control test model
//      --transition tour--> test set --concretize--> DLX programs
//      --simulate spec & impl, compare checkpoints--> verdict
//
// The example injects a classic interlock bug into the pipeline and shows
// the tour-derived test set catching it, then prints the first divergence.
// The same flow then runs through the parallel campaign engine, which
// shards the simulations across worker threads and emits a structured
// JSON report of the run.
//
//   $ ./dlx_validation
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "dlx/pipeline.hpp"
#include "model/explicit_model.hpp"
#include "pipeline/stages.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"
#include "validate/concretize.hpp"
#include "validate/harness.hpp"

using namespace simcov;

int main() {
  // 1. Derive the control test model (reduced: 2 registers, core ISA).
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  const auto model = testmodel::build_dlx_control_model(opt);
  std::printf("test model: %u latches, %u inputs, %u outputs\n",
              model.num_latches, model.num_inputs, model.num_outputs);

  // 2. Wrap the enumerated state space in the backend-neutral TestModel
  //    API and open a transition-tour *stream*: sequences are generated
  //    lazily, one reset-started sequence per pull (the reset state of an
  //    empty pipeline is transient, so the tour is a set of sequences).
  model::ExplicitModel test_model(sym::extract_explicit(model.circuit,
                                                        100000));
  std::printf("state space: %.0f states, %.0f transitions\n",
              test_model.count_reachable_states(),
              test_model.count_reachable_transitions());
  auto stream = test_model.tour_source();

  // 3/4. Stream the flow: concretize each sequence into a DLX program the
  //    moment the generator yields it (its stall/squash flags are the test
  //    model's own outputs), and validate it immediately — the
  //    full test set never sits in memory at once. The clean run takes the
  //    spec model to its end once; the buggy run of the same program
  //    reuses that outcome and steps the spec only as far as its verdict
  //    needs.
  const dlx::PipelineConfig buggy{
      {dlx::PipelineBug::kInterlockMissesDoubleHazard}};
  constexpr std::size_t kMaxCycles = 1u << 20;
  bool clean_ok = true;
  bool caught = false;
  std::size_t sequences = 0;
  std::size_t steps_total = 0;
  const validate::OutputFlags read_flags(model);
  const pipeline::CancellationToken never_cancelled;
  while (const auto seq = stream->next_sequence()) {
    const std::size_t p = sequences++;
    steps_total += seq->size();
    const auto replay =
        pipeline::replay_batch(test_model, {&*seq, 1}, never_cancelled);
    std::vector<validate::StepFlags> flags;
    flags.reserve(seq->size());
    for (const std::uint64_t out : replay->outputs[0]) {
      flags.push_back(read_flags(out));
    }
    const auto program = validate::concretize_sequence(model, *seq, flags);
    std::optional<validate::ReferenceRun> reference;
    clean_ok = validate::run_validation(program, {}, kMaxCycles, reference)
                   .passed &&
               clean_ok;
    if (!caught) {
      const auto result =
          validate::run_validation(program, buggy, kMaxCycles, reference);
      if (result.error_detected()) {
        std::printf(
            "buggy implementation (interlock misses double hazards):\n"
            "  caught by test program %zu: %s\n",
            p, validate::describe(result).c_str());
        caught = true;
      }
    }
  }
  const auto tour = stream->summary();
  std::printf("transition tour set: %zu sequences, %zu steps total, "
              "coverage %.0f%%\n",
              sequences, steps_total,
              100.0 * tour.coverage.transition_coverage());
  std::printf("\ncorrect implementation: %s\n",
              clean_ok ? "all checkpoints match" : "UNEXPECTED divergence");
  if (!caught) {
    std::puts("bug NOT caught (unexpected for a transition tour)");
    return 1;
  }

  // 5. The same flow as one call: the campaign engine shards the
  //    concretization and simulation loops across worker threads
  //    (threads = 0 means one per hardware thread; results are identical
  //    at any setting) and reports structured per-phase metrics.
  core::CampaignOptions campaign;
  campaign.model_options = opt;
  campaign.threads = 0;
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoForwardExMemA,
      dlx::PipelineBug::kInterlockMissesDoubleHazard,
  };
  const auto campaign_result = core::run_campaign(campaign, bugs);
  std::printf("\n%s", core::format_report(campaign_result).c_str());
  std::printf("\nJSON report:\n%s\n",
              core::to_json(campaign_result).c_str());
  return clean_ok && campaign_result.clean_pass &&
                 campaign_result.bugs_exposed() == bugs.size()
             ? 0
             : 1;
}
