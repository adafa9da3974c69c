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
//
// The stall and squash flags that drive the dropping and the wrong-path
// slots come from the test model's own Mealy outputs: the tour was
// generated on that model, so it already knows them. The campaign replays
// each batch through the model once (pipeline::replay_batch), reads the
// flags off the output keys (OutputFlags) and builds each program with no
// simulator. The ControlInput entry points re-simulate the control netlist
// with testmodel::ControlModelSim instead (concretize_reference.cpp); they
// serve hand-built tours and act as the differential reference for the
// model-output path.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dlx/isa.hpp"
#include "model/test_model.hpp"
#include "testmodel/control_sim.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::validate {

struct ConcretizedProgram {
  /// Words to preload into data memory of both models.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> memory_init;
  /// Initial register values for both models.
  std::array<std::uint32_t, dlx::kNumRegisters> initial_regs{};
  /// Tour steps that became program instructions.
  std::size_t steps_emitted = 0;
  /// Tour steps dropped on stall cycles.
  std::size_t steps_dropped = 0;

  [[nodiscard]] const std::vector<dlx::Instruction>& instructions() const {
    return instructions_;
  }
  /// instructions(), encoded. The two change only together, so every run
  /// of the program reuses the words instead of encoding it again.
  [[nodiscard]] const std::vector<std::uint32_t>& words() const {
    return words_;
  }
  /// Appends one instruction, with its word.
  void append(const dlx::Instruction& instruction);
  /// Replaces the program, encoding every instruction.
  void set_instructions(std::vector<dlx::Instruction> instructions);

 private:
  std::vector<dlx::Instruction> instructions_;
  std::vector<std::uint32_t> words_;
};

/// The control flags of one tour step, as the test model outputs them.
struct StepFlags {
  bool stall = false;
  bool squash = false;
};

/// Reads a step's flags off the test model's packed output key: the bits
/// of `model.circuit`'s `stall` and `squash` outputs, resolved once.
class OutputFlags {
 public:
  /// Throws std::out_of_range when the circuit lacks either output.
  explicit OutputFlags(const testmodel::BuiltTestModel& model);
  [[nodiscard]] StepFlags operator()(std::uint64_t output) const {
    return {((output >> stall_bit_) & 1u) != 0,
            ((output >> squash_bit_) & 1u) != 0};
  }

 private:
  unsigned stall_bit_;
  unsigned squash_bit_;
};

/// The program-building core: `tour[t]` is a decoded tour step and
/// `flags[t]` the model's (stall, squash) output on it. Appends a final
/// HALT. Runs no simulator, so workers may call it concurrently. Throws
/// std::invalid_argument on non-concretizable steps and on a flag count
/// that differs from the step count.
ConcretizedProgram concretize_inputs(
    const testmodel::BuiltTestModel& model,
    std::span<const testmodel::ControlInput> tour,
    std::span<const StepFlags> flags);

/// Converts a tour over the test model into a runnable program, re-simulating
/// the control netlist (ControlModelSim) for each step's flags. Appends a
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
/// by the TestModel tours of either backend, through concretize_tour (so
/// with a ControlModelSim re-simulation).
ConcretizedProgram concretize_sequence(const testmodel::BuiltTestModel& model,
                                       const model::Sequence& steps);

/// Concretizes one tour sequence from its steps' model outputs (`flags`,
/// one per step): decodes the keys and runs concretize_inputs. Yields the
/// program the re-simulating overload yields.
ConcretizedProgram concretize_sequence(const testmodel::BuiltTestModel& model,
                                       const model::Sequence& steps,
                                       std::span<const StepFlags> flags);

}  // namespace simcov::validate
