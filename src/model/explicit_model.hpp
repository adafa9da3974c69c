// TestModel adapter over an explicitly enumerated fsm::MealyMachine.
//
// Two constructions:
//  * from a sym::extract_explicit result — state/input keys are the packed
//    latch / primary-input bit vectors of the circuit, so keys agree
//    bit-for-bit with a SymbolicModel of the same circuit;
//  * from a bare Mealy machine — keys are the dense state/input ids (whose
//    little-endian binary encodings serve as the bit vectors), agreeing
//    with a SymbolicModel of model::encode_circuit(machine).
//
// Tour generation delegates to the src/tour generators; coverage is
// replayed through the shared model::CoverageTracker so the reported
// statistics are identically defined across backends.
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
  std::optional<std::uint64_t> step(std::uint64_t state,
                                    std::uint64_t input) override;
  std::optional<std::uint64_t> output(std::uint64_t state,
                                      std::uint64_t input) override;
  /// Batch forms resolve each lane's keys once and walk the dense
  /// transition table directly — no per-lane virtual dispatch.
  void step_batch(std::span<const std::uint64_t> states,
                  std::span<const std::uint64_t> inputs,
                  std::span<std::optional<std::uint64_t>> next) override;
  void output_batch(std::span<const std::uint64_t> states,
                    std::span<const std::uint64_t> inputs,
                    std::span<std::optional<std::uint64_t>> out) override;
  [[nodiscard]] double count_reachable_states() override;
  [[nodiscard]] double count_reachable_transitions() override;
  TourResult transition_tour(const TourOptions& options = {}) override;
  std::unique_ptr<SequenceSource> tour_source(
      const TourOptions& options = {}) override;
  TourResult random_walk(std::size_t length, std::uint64_t seed) override;

  // ---- Explicit-only helpers ----------------------------------------------
  /// The input keys of a src/tour sequence of dense input ids.
  [[nodiscard]] Sequence to_keys(std::span<const fsm::InputId> inputs) const;

  /// A src/tour test set (from this machine's start state) as keys, plus
  /// its tracker-replayed coverage, in one TourResult.
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
