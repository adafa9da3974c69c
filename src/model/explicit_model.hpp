// TestModel adapter over an explicitly enumerated fsm::MealyMachine.
//
// Two constructions:
//  * from a sym::extract_explicit result — state/input keys are the
//    extraction's packed latch / primary-input keys, so keys agree
//    bit-for-bit with a SymbolicModel of the same circuit;
//  * from a bare Mealy machine — keys are the dense state/input ids (whose
//    little-endian binary encodings serve as the bit vectors), agreeing
//    with a SymbolicModel of model::encode_circuit(machine).
//
// Tour generation delegates to the src/tour generators. The streamed
// transition tour reports the coverage its own walk table keeps (a visited
// bit per state, a coverage cursor per state); every materialized test set
// (to_result, random_walk) is counted by TestModel::evaluate. Both count
// distinct visited states and exercised (state, input) transitions over
// the reachable totals.
#pragma once

#include <unordered_map>
#include <vector>

#include "fsm/mealy.hpp"
#include "model/test_model.hpp"
#include "sym/symbolic_fsm.hpp"
#include "tour/tour.hpp"

namespace simcov::model {

class ExplicitModel final : public TestModel {
 public:
  /// Wraps an explicit extraction (must not be truncated — a truncated
  /// enumeration is exactly the case the symbolic backend exists for).
  /// Throws std::invalid_argument on a truncated extraction.
  explicit ExplicitModel(sym::ExplicitModel extraction);

  /// Wraps a bare machine with `start` as the reset state.
  ExplicitModel(fsm::MealyMachine machine, fsm::StateId start);

  [[nodiscard]] const fsm::MealyMachine& machine() const { return machine_; }
  [[nodiscard]] fsm::StateId start() const { return start_; }

  // ---- TestModel ----------------------------------------------------------
  [[nodiscard]] Backend backend() const override {
    return Backend::kExplicit;
  }
  [[nodiscard]] unsigned input_bits() const override { return input_width_; }
  [[nodiscard]] unsigned state_bits() const override { return state_width_; }
  [[nodiscard]] std::uint64_t reset_state() const override {
    return state_keys_[start_];
  }
  std::vector<Edge> edges(std::uint64_t state) override;
  /// Resolves each lane's keys once and walks the dense transition table
  /// directly.
  void transition_batch(std::span<const std::uint64_t> states,
                        std::span<const std::uint64_t> inputs,
                        std::span<std::optional<std::uint64_t>> next,
                        std::span<std::optional<std::uint64_t>> out) override;
  [[nodiscard]] double count_reachable_states() override;
  [[nodiscard]] double count_reachable_transitions() override;
  std::unique_ptr<SequenceSource> tour_source() override;
  TourResult random_walk(std::size_t length, std::uint64_t seed) override;

  // ---- Explicit-only helpers ----------------------------------------------
  /// The input keys of a src/tour sequence of dense input ids.
  [[nodiscard]] Sequence to_keys(std::span<const fsm::InputId> inputs) const;

  /// A src/tour test set as keys, plus its evaluate() coverage, in one
  /// TourResult. Throws std::invalid_argument when the set does not start
  /// at start(), and std::domain_error on a step undefined in the machine.
  TourResult to_result(const tour::TourSet& set);

 private:
  void index_keys();

  fsm::MealyMachine machine_;
  fsm::StateId start_ = 0;
  unsigned state_width_ = 0;
  unsigned input_width_ = 0;
  std::vector<std::uint64_t> state_keys_;  // state id -> packed key
  std::vector<std::uint64_t> input_keys_;  // input id -> packed key
  std::unordered_map<std::uint64_t, fsm::StateId> key_to_state_;
  std::unordered_map<std::uint64_t, fsm::InputId> key_to_input_;
};

}  // namespace simcov::model
