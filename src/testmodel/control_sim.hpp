// Concrete cycle-level simulator for a built control test model.
//
// Drives the SequentialCircuit of a BuiltTestModel with decoded instruction
// inputs and reads back the named control outputs. Used by tests to check
// the model's stall/squash/forwarding behaviour against the real pipeline,
// and by concretize when replaying tours (hot path: all name resolution
// happens once, in the constructor, and each cycle is one pass of lane 0 of
// the word-level kernel, sym::PackedLogicSim).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dlx/isa.hpp"
#include "sym/packed_logic_sim.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::testmodel {

/// One cycle's worth of test-model primary inputs: the (reduced-format)
/// instruction entering decode plus the datapath status signals.
struct ControlInput {
  dlx::OpClass cls = dlx::OpClass::kNop;
  unsigned rs1 = 0;
  unsigned rs2 = 0;
  unsigned rd = 0;
  bool branch_outcome = false;
  bool instr_valid = true;  ///< only meaningful with a fetch controller
};

/// How one network input of a built control model is driven: either from a
/// latch (by latch index) or from a field of the decoded ControlInput.
/// Shared by ControlModelSim, the 64-lane PackedControlModelSim and the
/// tour decoder (validate::decode_control_input), so all three read the
/// primary inputs the same way.
struct InputRole {
  enum class Pi : std::uint8_t {
    kOpBit, kRs1Bit, kRs2Bit, kRdBit, kBranchOutcome, kInstrValid,
  };
  bool is_latch = false;
  std::size_t latch_index = 0;  ///< when is_latch
  Pi pi_kind = Pi::kOpBit;
  unsigned pi_bit = 0;
};

/// Classifies every network input of the model's circuit, in network input
/// order, by latch signal id or primary-input name. Throws std::logic_error
/// on an unmapped primary-input name.
std::vector<InputRole> classify_network_inputs(const BuiltTestModel& model);

/// Value a non-latch role takes for the decoded input `in`. `onehot`
/// follows TestModelOptions::onehot_opclass.
[[nodiscard]] bool role_pi_value(const InputRole& role, const ControlInput& in,
                                 bool onehot);

class ControlModelSim {
 public:
  explicit ControlModelSim(const BuiltTestModel& model);

  /// Evaluates the input constraint for `in` against the *current* state.
  [[nodiscard]] bool input_valid(const ControlInput& in) const;

  /// Applies one clock cycle; returns the named output values sampled
  /// before the edge (also retrievable via out()). Throws std::domain_error
  /// when the input violates the model's validity constraint.
  std::map<std::string, bool> step(const ControlInput& in);

  /// Like step(), but without materializing the name->value map. Output
  /// values are read back with out() / out_index().
  void step_fast(const ControlInput& in);

  /// Value of a named output after the last step. Throws std::out_of_range
  /// for unknown names.
  [[nodiscard]] bool out(const std::string& name) const;
  /// Index-based access for hot loops (resolve once with output_index).
  [[nodiscard]] std::size_t output_index(const std::string& name) const;
  [[nodiscard]] bool out_at(std::size_t index) const {
    return last_outputs_[index];
  }

  void reset();
  [[nodiscard]] const std::vector<bool>& latch_values() const {
    return latches_;
  }

 private:
  const BuiltTestModel& model_;
  std::vector<InputRole> roles_;
  sym::PackedLogicSim sim_;
  std::vector<bool> latches_;
  std::vector<bool> last_outputs_;           // by output index
  std::map<std::string, std::size_t> output_index_;
  mutable std::vector<std::uint64_t> values_;  // prepared kernel buffer
};

}  // namespace simcov::testmodel
