// 64-lane bit-parallel counterpart of ControlModelSim.
//
// Each lane is one independent replay of the control test model: lane L's
// latch values live in bit L of one std::uint64_t per latch, and one
// word-level pass of the circuit (sym::PackedLogicSim) advances all lanes
// a clock at once. Input decoding shares ControlModelSim's InputRole
// classification, so lane L computes bit-for-bit what ControlModelSim (one
// lane of the same kernel) computes for lane L's ControlInput sequence;
// tests/bitparallel_test.cpp pins both against a scalar reference.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sym/packed_logic_sim.hpp"
#include "testmodel/control_sim.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::testmodel {

class PackedControlModelSim {
 public:
  static constexpr std::size_t kLanes = sym::PackedLogicSim::kLanes;

  explicit PackedControlModelSim(const BuiltTestModel& model);

  /// Resets every lane to the latch init values.
  void reset();

  /// Applies one clock cycle to lanes [0, inputs.size()); lanes beyond the
  /// span hold their state. Throws std::domain_error when any stepped
  /// lane's input violates the model's validity constraint (the scalar
  /// simulator's per-lane behaviour).
  void step(std::span<const ControlInput> inputs);

  /// Lane word of one named-output index after the last step (bit L =
  /// lane L's value).
  [[nodiscard]] std::uint64_t out_lanes(std::size_t output_index) const {
    return out_words_[output_index];
  }
  [[nodiscard]] bool out_at(std::size_t lane, std::size_t output_index) const {
    return ((out_words_[output_index] >> lane) & 1u) != 0;
  }
  /// Resolves an output name once for hot loops (same indices as
  /// ControlModelSim::output_index). Throws std::out_of_range.
  [[nodiscard]] std::size_t output_index(const std::string& name) const;

  [[nodiscard]] bool latch(std::size_t lane, std::size_t latch_index) const {
    return ((latch_words_[latch_index] >> lane) & 1u) != 0;
  }

 private:
  const BuiltTestModel& model_;
  std::vector<InputRole> roles_;
  sym::PackedLogicSim sim_;
  std::vector<std::uint64_t> latch_words_;  // one word per latch
  std::vector<std::uint64_t> out_words_;    // one word per output
  std::map<std::string, std::size_t> output_index_;
  std::vector<std::uint64_t> values_;  // prepared kernel buffer
};

}  // namespace simcov::testmodel
