// Integration tests: tour concretization and the spec-vs-implementation
// validation harness (Figure 1 end to end).
#include "validate/concretize.hpp"
#include "validate/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "tour/tour.hpp"

namespace simcov::validate {
namespace {

using dlx::OpClass;
using dlx::PipelineBug;
using dlx::PipelineConfig;
using testmodel::ControlInput;

testmodel::TestModelOptions tour_model_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 2;
  opt.reduced_isa = true;
  return opt;
}

ControlInput ci(OpClass cls, unsigned rs1 = 0, unsigned rs2 = 0,
                unsigned rd = 0, bool outcome = false) {
  return ControlInput{cls, rs1, rs2, rd, outcome, true};
}

// ---------------------------------------------------------------------------
// Concretization mechanics
// ---------------------------------------------------------------------------

TEST(Concretize, EmptyTourYieldsHaltOnly) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {});
  ASSERT_EQ(prog.instructions.size(), 1u);
  EXPECT_EQ(prog.instructions[0].op, dlx::Opcode::kHalt);
}

TEST(Concretize, StraightLineInstructionsEmittedInOrder) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {
      ci(OpClass::kNop),
      ci(OpClass::kAlu, 1, 2, 1),
      ci(OpClass::kLoad, 0, 0, 2),
  });
  ASSERT_EQ(prog.instructions.size(), 4u);  // 3 + final halt
  EXPECT_EQ(prog.instructions[0].op, dlx::Opcode::kNop);
  EXPECT_EQ(dlx::op_class(prog.instructions[1].op), OpClass::kAlu);
  EXPECT_EQ(dlx::op_class(prog.instructions[2].op), OpClass::kLoad);
  EXPECT_EQ(prog.steps_emitted, 3u);
  EXPECT_EQ(prog.steps_dropped, 0u);
}

TEST(Concretize, StallCycleInputIsDropped) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  // Load r2, consumer presented during the stall cycle, then re-presented.
  const auto prog = concretize_tour(model, {
      ci(OpClass::kLoad, 0, 0, 2),
      ci(OpClass::kAlu, 2, 0, 1),  // stall cycle: dropped
      ci(OpClass::kAlu, 2, 0, 1),  // accepted: emitted
  });
  EXPECT_EQ(prog.steps_dropped, 1u);
  EXPECT_EQ(prog.steps_emitted, 2u);
  ASSERT_EQ(prog.instructions.size(), 3u);
  EXPECT_EQ(dlx::op_class(prog.instructions[1].op), OpClass::kAlu);
}

TEST(Concretize, LoadsGetUniquePreloadedData) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {
      ci(OpClass::kLoad, 0, 0, 1),
      ci(OpClass::kNop),
      ci(OpClass::kLoad, 0, 0, 2),
      ci(OpClass::kNop),
  });
  ASSERT_EQ(prog.memory_init.size(), 2u);
  EXPECT_NE(prog.memory_init[0].first, prog.memory_init[1].first);
  EXPECT_NE(prog.memory_init[0].second, prog.memory_init[1].second);
}

TEST(Concretize, BranchDirectionMatchesTourOutcome) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  // Taken branch: outcome bit on the following step; r1 is 0 initially, so
  // the concretizer must pick BEQZ.
  const auto prog = concretize_tour(model, {
      ci(OpClass::kBranch, 1),
      ci(OpClass::kNop, 0, 0, 0, /*outcome=*/true),  // wrong path
      ci(OpClass::kNop),                             // wrong path
      ci(OpClass::kAlu, 0, 0, 1),                    // target path
  });
  EXPECT_EQ(prog.instructions[0].op, dlx::Opcode::kBeqz);
  // Its run must follow the taken path in both models.
  const auto result = run_validation(prog);
  EXPECT_TRUE(result.passed) << describe(result);
}

TEST(Concretize, UntakenBranchPicksOppositeOpcode) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {
      ci(OpClass::kBranch, 1),
      ci(OpClass::kNop),  // outcome stays false: untaken
      ci(OpClass::kNop),
  });
  EXPECT_EQ(prog.instructions[0].op, dlx::Opcode::kBnez);
}

TEST(Concretize, CommittedJumpRegisterRejected) {
  testmodel::TestModelOptions opt = tour_model_options();
  opt.reduced_isa = false;  // allow JR in the model
  const auto model = testmodel::build_dlx_control_model(opt);
  EXPECT_THROW((void)concretize_tour(model, {ci(OpClass::kJumpReg, 1)}),
               std::invalid_argument);
}

TEST(Concretize, FetchControllerModelRejected) {
  testmodel::TestModelOptions opt = tour_model_options();
  opt.fetch_controller = true;
  const auto model = testmodel::build_dlx_control_model(opt);
  EXPECT_THROW((void)concretize_tour(model, {ci(OpClass::kNop)}),
               std::invalid_argument);
}

TEST(Concretize, InvalidTourInputThrows) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  EXPECT_THROW((void)concretize_tour(model, {ci(OpClass::kNop, 3, 3, 3)}),
               std::domain_error);
}

// ---------------------------------------------------------------------------
// Validation harness
// ---------------------------------------------------------------------------

TEST(Harness, CorrectImplementationPasses) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {
      ci(OpClass::kAlu, 1, 2, 3),
      ci(OpClass::kLoad, 0, 0, 2),
      ci(OpClass::kStore, 0, 2, 0),
      ci(OpClass::kStore, 0, 2, 0),  // store waits out the load-use window
      ci(OpClass::kBranch, 1),
      ci(OpClass::kNop, 0, 0, 0, true),
      ci(OpClass::kNop),
      ci(OpClass::kAlu, 0, 0, 1),
  });
  const auto result = run_validation(prog);
  EXPECT_TRUE(result.passed) << describe(result);
  EXPECT_GT(result.checkpoints_compared, 0u);
}

TEST(Harness, DirectedTourExposesMissingInterlock) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {
      ci(OpClass::kLoad, 0, 0, 2),
      ci(OpClass::kAlu, 2, 0, 1),  // stall cycle
      ci(OpClass::kAlu, 2, 0, 1),  // the hazardous consumer
      ci(OpClass::kStore, 0, 1, 0),
  });
  PipelineConfig buggy{{PipelineBug::kNoLoadUseStall}};
  const auto result = run_validation(prog, buggy);
  EXPECT_FALSE(result.passed);
  ASSERT_TRUE(result.divergence.has_value());
  // Sanity: the same program passes on the correct implementation.
  EXPECT_TRUE(run_validation(prog).passed);
}

TEST(Harness, DirectedTourExposesSquashBug) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {
      ci(OpClass::kBranch, 1),
      ci(OpClass::kAlu, 0, 0, 1, /*outcome=*/true),  // wrong path, squashed
      ci(OpClass::kAlu, 0, 0, 2),                    // wrong path, squashed
      ci(OpClass::kStore, 0, 1, 0),                  // target path
  });
  PipelineConfig buggy{{PipelineBug::kNoSquashOnTakenBranch}};
  const auto result = run_validation(prog, buggy);
  EXPECT_FALSE(result.passed);
  EXPECT_TRUE(run_validation(prog).passed);
}

TEST(Harness, DescribeFormatsOutcomes) {
  const auto model = testmodel::build_dlx_control_model(tour_model_options());
  const auto prog = concretize_tour(model, {ci(OpClass::kAlu, 1, 2, 3)});
  const auto pass = run_validation(prog);
  EXPECT_NE(describe(pass).find("PASS"), std::string::npos);
  PipelineConfig buggy{{PipelineBug::kJalLinksR30}};
  ConcretizedProgram jal;
  jal.instructions = {dlx::make_jump(dlx::Opcode::kJal, 0), dlx::make_halt()};
  const auto fail = run_validation(jal, buggy);
  EXPECT_FALSE(fail.passed);
  EXPECT_NE(describe(fail).find("FAIL"), std::string::npos);
}

TEST(Harness, CycleBudgetExhaustionIsNotADivergence) {
  // An infinite loop (J to itself) exhausts any cycle budget in both
  // models. The spec retires one instruction per step while the pipeline
  // needs several cycles, so the truncated streams have different lengths —
  // which used to be misreported as a divergence (an "exposed bug").
  ConcretizedProgram loop;
  loop.instructions = {dlx::make_jump(dlx::Opcode::kJ, -4)};
  const auto result = run_validation(loop, {}, /*max_cycles=*/256);
  EXPECT_TRUE(result.cycle_budget_exhausted);
  EXPECT_FALSE(result.divergence.has_value());
  EXPECT_FALSE(result.error_detected());
  EXPECT_FALSE(result.passed);  // inconclusive, not a pass
  EXPECT_NE(describe(result).find("INCONCLUSIVE"), std::string::npos);
  // The matching prefix was still compared.
  EXPECT_GT(result.checkpoints_compared, 0u);
}

TEST(Harness, HaltingProgramDoesNotReportBudgetExhaustion) {
  ConcretizedProgram prog;
  prog.instructions = {dlx::make_nop(), dlx::make_halt()};
  const auto result = run_validation(prog);
  EXPECT_TRUE(result.passed);
  EXPECT_FALSE(result.cycle_budget_exhausted);
  EXPECT_FALSE(result.error_detected());
}

TEST(Harness, RunOffProgramEndStillComparesByLength) {
  // Ending without a halt (PC past the program) is a genuine end of both
  // streams, not budget exhaustion: length-mismatch semantics stay intact.
  ConcretizedProgram prog;
  prog.instructions = {dlx::make_nop(), dlx::make_nop()};
  const auto result = run_validation(prog);
  EXPECT_FALSE(result.cycle_budget_exhausted);
  EXPECT_TRUE(result.passed) << describe(result);
}

// ---------------------------------------------------------------------------
// Primary-input decoding
// ---------------------------------------------------------------------------

TEST(Decode, UnmappedPrimaryInputThrowsLikeTheSimulator) {
  // Decoding and simulation classify primary inputs through one table, so
  // a name neither understands is an error in both, even with its bit 0.
  auto model = testmodel::build_dlx_control_model(tour_model_options());
  model.circuit.primary_inputs.push_back(
      model.circuit.net.add_input("bogus"));
  const std::vector<bool> bits(model.circuit.primary_inputs.size(), false);
  EXPECT_THROW((void)testmodel::classify_network_inputs(model),
               std::logic_error);
  EXPECT_THROW((void)decode_control_input(model, bits), std::logic_error);
  EXPECT_THROW((void)concretize_sequence(model, {bits}), std::logic_error);
}

TEST(Decode, RoundTripsEveryAlphabetSymbolThroughTheModel) {
  // decode(bits) re-encodes, input by input, to exactly `bits`.
  testmodel::TestModelOptions opt = tour_model_options();
  opt.reg_addr_bits = 1;
  const auto model = testmodel::build_dlx_control_model(opt);
  const auto explicit_model = sym::extract_explicit(model.circuit, 100000);
  const auto roles = testmodel::classify_network_inputs(model);
  const auto net_inputs = model.circuit.net.inputs();
  ASSERT_FALSE(explicit_model.input_bits.empty());
  for (const auto& bits : explicit_model.input_bits) {
    const ControlInput in = decode_control_input(model, bits);
    for (std::size_t p = 0; p < bits.size(); ++p) {
      const auto k = static_cast<std::size_t>(
          std::find(net_inputs.begin(), net_inputs.end(),
                    model.circuit.primary_inputs[p]) -
          net_inputs.begin());
      ASSERT_LT(k, roles.size());
      EXPECT_EQ(testmodel::role_pi_value(roles[k], in,
                                         opt.onehot_opclass),
                bits[p]);
    }
  }
}

// ---------------------------------------------------------------------------
// Pin: the concretized programs of the reduced DLX tour set
// ---------------------------------------------------------------------------

/// splitmix64 over every program's words, data preload and registers.
std::uint64_t hash_programs(const std::vector<ConcretizedProgram>& programs) {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { h = runtime::splitmix64(h ^ v); };
  for (const auto& p : programs) {
    const auto words = p.words();
    mix(words.size());
    for (const std::uint32_t w : words) mix(w);
    mix(p.memory_init.size());
    for (const auto& [addr, value] : p.memory_init) {
      mix(addr);
      mix(value);
    }
    for (const std::uint32_t r : p.initial_regs) mix(r);
  }
  return h;
}

TEST(ConcretizePin, ReducedDlxTourSetPrograms) {
  testmodel::TestModelOptions opt = tour_model_options();
  opt.reg_addr_bits = 1;
  const auto model = testmodel::build_dlx_control_model(opt);
  const auto explicit_model = sym::extract_explicit(model.circuit, 100000);
  const auto set =
      tour::greedy_transition_tour_set(explicit_model.machine, 0);
  ASSERT_TRUE(set.has_value());
  ASSERT_EQ(set->sequences.size(), 19u);
  ASSERT_EQ(set->total_length(), 40678u);

  std::vector<ConcretizedProgram> programs;
  std::size_t emitted = 0;
  std::size_t dropped = 0;
  for (const auto& seq : set->sequences) {
    std::vector<std::vector<bool>> pi_steps;
    pi_steps.reserve(seq.size());
    for (const fsm::InputId sym_id : seq) {
      pi_steps.push_back(explicit_model.input_bits[sym_id]);
    }
    programs.push_back(concretize_sequence(model, pi_steps));
    emitted += programs.back().steps_emitted;
    dropped += programs.back().steps_dropped;
  }
  EXPECT_EQ(emitted, 39382u);
  EXPECT_EQ(dropped, 1296u);
  EXPECT_EQ(hash_programs(programs), 1524021872874592167ull);
}

// ---------------------------------------------------------------------------
// End-to-end: a transition tour of the reduced explicit test model,
// concretized and simulated — the full Figure 1 flow.
// ---------------------------------------------------------------------------

TEST(EndToEnd, ExplicitModelTourConcretizesAndValidates) {
  testmodel::TestModelOptions opt = tour_model_options();
  opt.reg_addr_bits = 1;  // keep the explicit machine small
  const auto model = testmodel::build_dlx_control_model(opt);
  const auto explicit_model = sym::extract_explicit(model.circuit, 20000);
  ASSERT_FALSE(explicit_model.truncated);

  // Transition tour SET over the explicit machine: the empty-pipeline reset
  // state is transient, so the tour is a set of reset-started sequences
  // (exactly the paper's "test set consisting of test vector sequences").
  const auto set =
      tour::greedy_transition_tour_set(explicit_model.machine, 0);
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE(tour::is_transition_tour_set(explicit_model.machine, *set));

  // Concretize and validate every sequence of the test set.
  std::size_t total_instructions = 0;
  std::vector<ConcretizedProgram> programs;
  for (const auto& seq : set->sequences) {
    std::vector<ControlInput> steps;
    steps.reserve(seq.size());
    for (fsm::InputId sym_id : seq) {
      steps.push_back(
          decode_control_input(model, explicit_model.input_bits[sym_id]));
    }
    programs.push_back(concretize_tour(model, steps));
    total_instructions += programs.back().instructions.size();
    // The correct implementation validates cleanly against the spec.
    const auto result = run_validation(programs.back());
    EXPECT_TRUE(result.passed) << describe(result);
  }
  EXPECT_GT(total_instructions, 100u);

  // And the tour-derived test set exposes representative control bugs.
  for (const PipelineBug bug : {PipelineBug::kNoLoadUseStall,
                                PipelineBug::kNoSquashOnTakenBranch,
                                PipelineBug::kNoForwardExMemA}) {
    PipelineConfig buggy{{bug}};
    bool exposed = false;
    for (const auto& prog : programs) {
      if (!run_validation(prog, buggy).passed) {
        exposed = true;
        break;
      }
    }
    EXPECT_TRUE(exposed) << "bug " << static_cast<int>(bug)
                         << " not exposed by the transition tour set";
  }
}

}  // namespace
}  // namespace simcov::validate
