// Integration tests: tour concretization and the spec-vs-implementation
// validation harness (Figure 1 end to end).
#include "validate/concretize.hpp"
#include "validate/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>

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
  EXPECT_THROW((void)testmodel::classify_network_inputs(model),
               std::logic_error);
  EXPECT_THROW((void)decode_control_input(model, 0), std::logic_error);
  EXPECT_THROW((void)concretize_sequence(model, model::Sequence{0}),
               std::logic_error);
}

TEST(Decode, RoundTripsEveryAlphabetSymbolThroughTheModel) {
  // decode(key) re-encodes, input by input, to exactly the key's bits.
  testmodel::TestModelOptions opt = tour_model_options();
  opt.reg_addr_bits = 1;
  const auto model = testmodel::build_dlx_control_model(opt);
  const auto explicit_model = sym::extract_explicit(model.circuit, 100000);
  const auto roles = testmodel::classify_network_inputs(model);
  const auto net_inputs = model.circuit.net.inputs();
  ASSERT_FALSE(explicit_model.input_bits.empty());
  for (const auto& bits : explicit_model.input_bits) {
    const ControlInput in =
        decode_control_input(model, model::TestModel::pack_bits(bits));
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
  // A key with a bit beyond the model's primary inputs names no symbol.
  EXPECT_THROW((void)decode_control_input(
                   model, std::uint64_t{1}
                              << model.circuit.primary_inputs.size()),
               std::invalid_argument);
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

/// The programs of the reduced DLX transition-tour set (reg_addr_bits 1),
/// the test set a default DLX campaign concretizes; empty without a tour.
std::vector<ConcretizedProgram> reduced_tour_programs() {
  testmodel::TestModelOptions opt = tour_model_options();
  opt.reg_addr_bits = 1;
  const auto model = testmodel::build_dlx_control_model(opt);
  const auto explicit_model = sym::extract_explicit(model.circuit, 100000);
  const auto set =
      tour::greedy_transition_tour_set(explicit_model.machine, 0);
  std::vector<ConcretizedProgram> programs;
  if (!set.has_value()) return programs;
  for (const auto& seq : set->sequences) {
    model::Sequence steps;
    steps.reserve(seq.size());
    for (const fsm::InputId sym_id : seq) {
      steps.push_back(
          model::TestModel::pack_bits(explicit_model.input_bits[sym_id]));
    }
    programs.push_back(concretize_sequence(model, steps));
  }
  return programs;
}

TEST(ConcretizePin, ReducedDlxTourSetPrograms) {
  const auto programs = reduced_tour_programs();
  ASSERT_EQ(programs.size(), 19u);
  std::size_t emitted = 0;
  std::size_t dropped = 0;
  for (const auto& p : programs) {
    emitted += p.steps_emitted;
    dropped += p.steps_dropped;
  }
  // Every tour step is either emitted or dropped: the set's total length.
  ASSERT_EQ(emitted + dropped, 40678u);
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
      steps.push_back(decode_control_input(
          model,
          model::TestModel::pack_bits(explicit_model.input_bits[sym_id])));
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

// ---------------------------------------------------------------------------
// Differential: the lockstep harness vs the trace-comparing harness
// ---------------------------------------------------------------------------

/// The harness before lockstep stepping, kept as the oracle: the reference
/// runs to its end first (so its faults win), then the implementation, and
/// the two stored traces are compared.
ValidationResult oracle_compare_traces(const std::vector<dlx::RetireInfo>& spec,
                                       const std::vector<dlx::RetireInfo>& impl,
                                       std::uint64_t impl_cycles,
                                       bool budget_exhausted) {
  ValidationResult result;
  result.impl_cycles = impl_cycles;
  result.cycle_budget_exhausted = budget_exhausted;
  const std::size_t n = std::min(spec.size(), impl.size());
  for (std::size_t k = 0; k < n; ++k) {
    if (!(spec[k] == impl[k])) {
      result.checkpoints_compared = k + 1;
      result.divergence = Divergence{k, spec[k], impl[k]};
      return result;
    }
  }
  result.checkpoints_compared = n;
  if (spec.size() != impl.size()) {
    if (budget_exhausted) return result;
    Divergence d;
    d.index = n;
    if (n < spec.size()) d.spec = spec[n];
    if (n < impl.size()) d.impl = impl[n];
    result.divergence = d;
    return result;
  }
  result.passed = !budget_exhausted;
  return result;
}

ValidationResult oracle_run_validation(const ConcretizedProgram& program,
                                       const PipelineConfig& config,
                                       std::size_t max_cycles) {
  constexpr std::size_t kDataSize = 1u << 16;
  const auto words = program.words();
  dlx::IsaModel spec(words, kDataSize);
  dlx::Pipeline impl(words, config, kDataSize);
  for (unsigned r = 1; r < dlx::kNumRegisters; ++r) {
    spec.set_reg(r, program.initial_regs[r]);
    impl.set_reg(r, program.initial_regs[r]);
  }
  for (const auto& [addr, value] : program.memory_init) {
    spec.poke_word(addr, value);
    impl.poke_word(addr, value);
  }
  const auto spec_trace = spec.run(max_cycles);
  std::vector<dlx::RetireInfo> impl_trace;
  try {
    impl_trace = impl.run(max_cycles);
  } catch (const std::exception& e) {
    ValidationResult result;
    result.impl_cycles = impl.cycles();
    result.impl_exception = e.what();
    result.divergence = Divergence{};
    return result;
  }
  const bool spec_budget = !spec.halted() && spec_trace.size() >= max_cycles;
  const bool impl_budget = !impl.halted() && impl.cycles() >= max_cycles;
  return oracle_compare_traces(spec_trace, impl_trace, impl.cycles(),
                               spec_budget || impl_budget);
}

/// What one harness call did: its result, or the dynamic type and message
/// of the exception it threw.
struct CallOutcome {
  std::optional<ValidationResult> result;
  std::string thrown_type;
  std::string thrown_what;

  friend bool operator==(const CallOutcome&, const CallOutcome&) = default;
};

template <typename Call>
CallOutcome outcome_of(Call&& call) {
  try {
    return CallOutcome{call(), "", ""};
  } catch (const std::exception& e) {
    return CallOutcome{std::nullopt, typeid(e).name(), e.what()};
  }
}

std::string describe(const CallOutcome& outcome) {
  if (outcome.result.has_value()) return validate::describe(*outcome.result);
  return "threw " + outcome.thrown_type + ": " + outcome.thrown_what;
}

/// The clean implementation first, then every injected bug.
std::vector<PipelineConfig> every_config() {
  std::vector<PipelineConfig> configs{PipelineConfig{}};
  for (unsigned b = 0; b <= static_cast<unsigned>(PipelineBug::kForwardFromR0);
       ++b) {
    configs.push_back(PipelineConfig{{static_cast<PipelineBug>(b)}});
  }
  return configs;
}

/// Checks every config on `program` under `max_cycles` against the oracle,
/// through the outcome-less call and through one ReferenceRun shared by all
/// configs (computed by the first call, reused by the rest). Returns the
/// oracle's outcomes in config order.
std::vector<CallOutcome> expect_matches_oracle(
    const ConcretizedProgram& program, std::size_t max_cycles,
    const std::string& label) {
  std::vector<CallOutcome> expected_all;
  std::optional<ReferenceRun> shared;
  const auto configs = every_config();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto& config = configs[c];
    const auto expected = outcome_of(
        [&] { return oracle_run_validation(program, config, max_cycles); });
    const auto alone = outcome_of(
        [&] { return run_validation(program, config, max_cycles); });
    const auto with_shared = outcome_of([&] {
      return run_validation(program, config, max_cycles, shared);
    });
    EXPECT_EQ(alone, expected) << label << " config=" << c << " max_cycles="
                               << max_cycles << "\n  oracle: "
                               << describe(expected)
                               << "\n  lockstep: " << describe(alone);
    EXPECT_EQ(with_shared, expected)
        << label << " config=" << c << " max_cycles=" << max_cycles
        << " (shared reference)\n  oracle: " << describe(expected)
        << "\n  lockstep: " << describe(with_shared);
    EXPECT_TRUE(shared.has_value()) << label << " config=" << c;
    expected_all.push_back(expected);
  }
  return expected_all;
}

TEST(HarnessDifferential, CampaignProgramsMatchTraceOracle) {
  const auto programs = reduced_tour_programs();
  ASSERT_EQ(programs.size(), 19u);
  std::size_t exposed = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const auto outcomes = expect_matches_oracle(
        programs[i], 1u << 20, "program " + std::to_string(i));
    ASSERT_TRUE(outcomes.front().result.has_value());
    EXPECT_TRUE(outcomes.front().result->passed) << "program " << i;
    for (std::size_t c = 1; c < outcomes.size(); ++c) {
      if (outcomes[c].result.has_value() &&
          outcomes[c].result->error_detected()) {
        ++exposed;
      }
    }
  }
  EXPECT_GT(exposed, 0u);
}

/// Some instruction whose encoding does not decode.
dlx::Instruction undecodable_instruction() {
  dlx::Instruction ins = dlx::make_rtype(dlx::Opcode::kAdd, 1, 0, 0);
  for (unsigned rs1 = dlx::kNumRegisters; rs1 < 256; ++rs1) {
    ins.rs1 = static_cast<std::uint8_t>(rs1);
    if (!dlx::decode(dlx::encode(ins)).has_value()) return ins;
  }
  ADD_FAILURE() << "every rs1 overflow still decodes";
  return ins;
}

/// A short random program over every instruction class. Registers r1..r7
/// start near (and sometimes off) aligned, in-range data addresses, so
/// loads, stores, branches and register jumps reach both models' faults.
ConcretizedProgram random_program(std::mt19937_64& rng) {
  using dlx::Opcode;
  static constexpr std::uint32_t kRegValues[] = {
      0, 1, 2, 3, 4, 8, 12, 64, 0xfffc, 0x10000, 0xfffffff0};
  static constexpr Opcode kAlu[] = {
      Opcode::kAdd, Opcode::kSub, Opcode::kAnd, Opcode::kOr,
      Opcode::kXor, Opcode::kSll, Opcode::kSrl, Opcode::kSra,
      Opcode::kSlt, Opcode::kSltu, Opcode::kSeq, Opcode::kSne};
  static constexpr Opcode kAluImm[] = {
      Opcode::kAddi, Opcode::kAndi, Opcode::kOri, Opcode::kXori,
      Opcode::kSlli, Opcode::kSrli, Opcode::kSrai, Opcode::kSlti};
  static constexpr Opcode kLoads[] = {Opcode::kLw, Opcode::kLh, Opcode::kLhu,
                                      Opcode::kLb, Opcode::kLbu};
  static constexpr Opcode kStores[] = {Opcode::kSw, Opcode::kSh,
                                       Opcode::kSb};
  static constexpr std::int32_t kOffsets[] = {0, 0, 1, 2, 4, -4, 8};
  static constexpr std::int32_t kJumps[] = {-8, -4, 0, 4, 4, 8, 12, 2};
  const auto pick = [&rng](const auto& table) {
    return table[rng() % std::size(table)];
  };
  const auto reg = [&rng] { return static_cast<unsigned>(rng() % 8); };

  ConcretizedProgram p;
  for (unsigned r = 1; r < 8; ++r) p.initial_regs[r] = pick(kRegValues);
  for (unsigned k = 0; k < 2; ++k) {
    p.memory_init.emplace_back(4 * static_cast<std::uint32_t>(rng() % 16),
                               pick(kRegValues));
  }
  const std::size_t length = 1 + rng() % 16;
  for (std::size_t i = 0; i < length; ++i) {
    switch (rng() % 12) {
      case 0: p.instructions.push_back(dlx::make_nop()); break;
      case 1: p.instructions.push_back(dlx::make_halt()); break;
      case 2:
        p.instructions.push_back(
            dlx::make_rtype(pick(kAlu), reg(), reg(), reg()));
        break;
      case 3:
        p.instructions.push_back(dlx::make_itype(
            pick(kAluImm), reg(), reg(), static_cast<std::int32_t>(rng() % 9) - 4));
        break;
      case 4:
      case 5:
        p.instructions.push_back(
            dlx::make_load(pick(kLoads), reg(), reg(), pick(kOffsets)));
        break;
      case 6:
      case 7:
        p.instructions.push_back(
            dlx::make_store(pick(kStores), reg(), reg(), pick(kOffsets)));
        break;
      case 8:
        p.instructions.push_back(dlx::make_branch(
            rng() % 2 == 0 ? Opcode::kBeqz : Opcode::kBnez, reg(),
            pick(kJumps)));
        break;
      case 9:
        p.instructions.push_back(dlx::make_jump(
            rng() % 2 == 0 ? Opcode::kJ : Opcode::kJal, pick(kJumps)));
        break;
      case 10:
        p.instructions.push_back(dlx::make_jump_reg(
            rng() % 2 == 0 ? Opcode::kJr : Opcode::kJalr, reg()));
        break;
      default:
        p.instructions.push_back(rng() % 3 == 0 ? undecodable_instruction()
                                                : dlx::make_halt());
        break;
    }
  }
  return p;
}

/// How a model run on its own ended: the checkpoints it delivered, whether
/// it halted and, if it threw, after how many delivered checkpoints.
struct SoloRun {
  std::size_t retires = 0;
  bool halted = false;
  std::uint64_t cycles = 0;
  std::optional<std::size_t> threw_after;
};

template <typename Model>
void apply_presets(Model& model, const ConcretizedProgram& program) {
  for (unsigned r = 1; r < dlx::kNumRegisters; ++r) {
    model.set_reg(r, program.initial_regs[r]);
  }
  for (const auto& [addr, value] : program.memory_init) {
    model.poke_word(addr, value);
  }
}

SoloRun solo_spec(const ConcretizedProgram& program, std::size_t max_cycles) {
  dlx::IsaModel spec(program.words());
  apply_presets(spec, program);
  SoloRun run;
  try {
    while (run.retires < max_cycles) {
      const auto info = spec.step();
      if (!info.has_value()) break;
      ++run.retires;
      if (info->halted) break;
    }
  } catch (const std::exception&) {
    run.threw_after = run.retires;
  }
  run.halted = spec.halted();
  return run;
}

SoloRun solo_impl(const ConcretizedProgram& program,
                  const PipelineConfig& config, std::size_t max_cycles) {
  dlx::Pipeline impl(program.words(), config);
  apply_presets(impl, program);
  SoloRun run;
  try {
    for (std::size_t k = 0; k < max_cycles && !impl.halted(); ++k) {
      if (impl.step_cycle().has_value()) ++run.retires;
      if (impl.drained()) break;
    }
  } catch (const std::exception&) {
    run.threw_after = run.retires;
  }
  run.halted = impl.halted();
  run.cycles = impl.cycles();
  return run;
}

/// Which branches of the harness an oracle outcome took.
std::vector<std::string> harness_branches(const CallOutcome& expected,
                           const ConcretizedProgram& program,
                           const PipelineConfig& config,
                           std::size_t max_cycles) {
  std::vector<std::string> branches;
  const auto spec = solo_spec(program, max_cycles);
  const auto impl = solo_impl(program, config, max_cycles);
  if (!expected.result.has_value()) {
    branches.push_back("reference fault: " + expected.thrown_what);
    // In lockstep the reference is stepped once per delivered
    // implementation checkpoint, so an implementation crash either comes
    // first or after the reference has already thrown.
    if (impl.threw_after.has_value() && spec.threw_after.has_value()) {
      branches.push_back(*impl.threw_after <= *spec.threw_after
                             ? "impl crash before the reference fault"
                             : "impl crash after the reference fault");
    }
    return branches;
  }
  const auto& r = *expected.result;
  if (r.impl_exception.has_value()) {
    branches.push_back("impl crash");
  } else if (r.divergence.has_value()) {
    branches.push_back(!r.divergence->impl.has_value()   ? "spec stream longer"
                       : !r.divergence->spec.has_value() ? "impl stream longer"
                                                         : "divergence");
  } else if (r.passed) {
    branches.push_back("pass");
  }
  if (r.cycle_budget_exhausted) {
    const bool spec_budget = !spec.halted && spec.retires >= max_cycles;
    const bool impl_budget = !impl.halted && impl.cycles >= max_cycles;
    branches.push_back(!impl_budget  ? "reference budget only"
                       : !spec_budget ? "impl budget only"
                                      : "both budgets");
    if (!r.error_detected()) {
      branches.push_back(spec.retires > impl.retires   ? "budget, spec longer"
                         : spec.retires < impl.retires ? "budget, impl longer"
                                                       : "budget, equal length");
    }
  }
  if (branches.empty()) branches.push_back("unclassified");
  return branches;
}

TEST(HarnessDifferential, RandomProgramsMatchTraceOracleOnEveryBranch) {
  std::mt19937_64 rng(20);
  std::map<std::string, std::size_t> branches;
  const auto configs = every_config();
  for (std::size_t n = 0; n < 400; ++n) {
    const auto program = random_program(rng);
    for (const std::size_t max_cycles :
         {std::size_t{0}, static_cast<std::size_t>(1 + rng() % 12),
          std::size_t{256}}) {
      const auto outcomes = expect_matches_oracle(
          program, max_cycles, "random program " + std::to_string(n));
      for (std::size_t c = 0; c < configs.size(); ++c) {
        for (const auto& branch : harness_branches(outcomes[c], program,
                                                   configs[c], max_cycles)) {
          ++branches[branch];
        }
      }
    }
    if (HasFailure()) break;
  }
  for (const char* branch : {
           "reference fault: IsaModel: invalid instruction word",
           "reference fault: IsaModel: misaligned load",
           "reference fault: IsaModel: misaligned store",
           "reference fault: IsaModel: store out of data memory",
           "impl crash before the reference fault",
           "impl crash after the reference fault",
           "impl crash",
           "divergence",
           // "spec stream longer" is missing on purpose: this pipeline never
           // ends its stream early on a matching prefix (none in a 20,000-
           // program search), so without a budget only the impl side can
           // run long. Both directions are covered under a budget.
           "impl stream longer",
           "budget, spec longer",
           "budget, impl longer",
           "budget, equal length",
           "reference budget only",
           "impl budget only",
           "both budgets",
           "pass",
       }) {
    EXPECT_GT(branches[branch], 0u) << "no case reached: " << branch;
  }
  EXPECT_EQ(branches["unclassified"], 0u);
}

}  // namespace
}  // namespace simcov::validate
