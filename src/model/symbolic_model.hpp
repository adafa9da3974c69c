// TestModel adapter over the implicit (BDD) representation.
//
// Wraps a sym::SymbolicFsm built from a SequentialCircuit. State keys pack
// the latch bits, input keys pack the primary-input bits (little-endian,
// declaration order) — the same packing sym's tour driver and
// ExplicitModel-over-extraction use, so the two backends agree key-for-key
// on the same circuit.
//
// Reachable counts are BDD satisfying-assignment counts; transition tours
// stream from sym::SymbolicTourStream (a memoized concrete walk that
// navigates by breadth-first distances over its own successor table), whose
// coverage statistic is the shared model::CoverageTracker definition.
#pragma once

#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "model/test_model.hpp"
#include "sym/packed_logic_sim.hpp"
#include "sym/symbolic_fsm.hpp"
#include "sym/symbolic_tour.hpp"

namespace simcov::model {

class SymbolicModel final : public TestModel {
 public:
  /// The model keeps its own copy of `circuit` (in its SymbolicFsm). Throws
  /// std::invalid_argument beyond 63 latches or PIs (the packed-key limit,
  /// far beyond anything the walk could visit anyway).
  /// `reorder` is the dynamic-reordering policy of the model's BDD manager,
  /// applied before the symbolic FSM is built so automatic sifting already
  /// covers transition-relation construction and the reachability fixpoint.
  /// Reordering is semantically invisible: every TestModel answer is
  /// identical under either policy.
  explicit SymbolicModel(
      const sym::SequentialCircuit& circuit,
      bdd::ReorderPolicy reorder = bdd::ReorderPolicy::kNone);

  SymbolicModel(const SymbolicModel&) = delete;
  SymbolicModel& operator=(const SymbolicModel&) = delete;

  [[nodiscard]] sym::SymbolicFsm& fsm() { return fsm_; }
  [[nodiscard]] bdd::BddManager& manager() { return mgr_; }

  // ---- TestModel ----------------------------------------------------------
  [[nodiscard]] Backend backend() const override {
    return Backend::kSymbolic;
  }
  [[nodiscard]] unsigned input_bits() const override {
    return fsm_.num_inputs();
  }
  [[nodiscard]] unsigned state_bits() const override {
    return fsm_.num_latches();
  }
  [[nodiscard]] std::uint64_t reset_state() const override { return reset_; }
  std::vector<Edge> edges(std::uint64_t state) override;
  /// Every concrete answer — edges' successors and transition_batch, 64
  /// lanes per pass — comes from the word-level kernel over the underlying
  /// circuit (sym::PackedCircuitSim). The BDDs only list edges' valid
  /// inputs and count the reachable part.
  void transition_batch(std::span<const std::uint64_t> states,
                        std::span<const std::uint64_t> inputs,
                        std::span<std::optional<std::uint64_t>> next,
                        std::span<std::optional<std::uint64_t>> out) override;
  [[nodiscard]] double count_reachable_states() override;
  [[nodiscard]] double count_reachable_transitions() override;
  std::unique_ptr<SequenceSource> tour_source() override;
  TourResult random_walk(std::size_t length, std::uint64_t seed) override;

 private:
  bdd::BddManager mgr_;
  sym::SymbolicFsm fsm_;
  sym::PackedCircuitSim packed_;  ///< steps fsm_.circuit()
  std::uint64_t reset_ = 0;
  sym::InputClasses classes_;  ///< valid inputs, one listing per class
  /// Per-state (input, successor) enumeration, memoized — the walk revisits
  /// states far more often than it discovers them.
  std::unordered_map<std::uint64_t, std::vector<Edge>> edge_cache_;
};

}  // namespace simcov::model
