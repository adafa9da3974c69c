// Tour concretization: abstract test-model inputs -> a real DLX program.
//
// A transition tour of the control test model is a sequence of abstract
// inputs (instruction class + register fields + branch outcome). To simulate
// it on the implementation, those inputs must be converted into concrete
// instruction words and data values (Section 6.5: "appropriate input values
// must be filled in before the generated test set can be used for
// simulation"). The paper leaves the general conversion open (end of
// Section 4.3); this module implements a principled concretization for the
// concretizable class subset:
//
//  * kAlu is realized with compare ops (SEQ/SNE/SLT/SLTU) so register
//    values stay small and bounded;
//  * loads are given fresh addresses preloaded with unique data values —
//    the data-selection side of Requirement 3;
//  * branch direction is controlled by choosing BEQZ vs BNEZ against the
//    architecturally known register value, matching the tour's
//    branch-outcome status bit;
//  * taken control transfers target PC+12, so the two wrong-path (squashed)
//    slots are exactly the next two tour steps, laid out sequentially;
//  * tour steps arriving during a stall cycle are dropped from the program:
//    the pipeline holds the stalled instruction, so those inputs have no
//    program-order counterpart.
//
// Committed register-indirect jumps (JR/JALR) are not concretizable without
// violating the data discipline and raise an error; build tour models with
// TestModelOptions::reduced_isa for end-to-end experiments.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dlx/isa.hpp"
#include "model/test_model.hpp"
#include "testmodel/control_sim.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::validate {

struct ConcretizedProgram {
  std::vector<dlx::Instruction> instructions;
  /// Words to preload into data memory of both models.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> memory_init;
  /// Initial register values for both models.
  std::array<std::uint32_t, dlx::kNumRegisters> initial_regs{};
  /// Tour steps that became program instructions.
  std::size_t steps_emitted = 0;
  /// Tour steps dropped on stall cycles.
  std::size_t steps_dropped = 0;

  [[nodiscard]] std::vector<std::uint32_t> words() const;
};

/// Converts a tour over the test model into a runnable program. Appends a
/// final HALT. Throws std::domain_error on inputs that violate the model's
/// constraint and std::invalid_argument on non-concretizable steps.
ConcretizedProgram concretize_tour(
    const testmodel::BuiltTestModel& model,
    const std::vector<testmodel::ControlInput>& tour);

/// Decodes one test-model input symbol (its packed input key: bit k is the
/// model's primary input k) back into a ControlInput. Throws
/// std::invalid_argument on a key with a bit beyond the model's inputs.
testmodel::ControlInput decode_control_input(
    const testmodel::BuiltTestModel& model, std::uint64_t key);

/// Concretizes one backend-neutral tour sequence of input keys, as produced
/// by the TestModel tours of either backend.
ConcretizedProgram concretize_sequence(const testmodel::BuiltTestModel& model,
                                       const model::Sequence& steps);

}  // namespace simcov::validate
