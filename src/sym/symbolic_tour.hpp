// Symbolic transition-tour generation.
//
// The paper's 22-latch test model has 123 million transitions — no explicit
// enumeration fits, so its 1069M-step tour was generated on the implicit
// (BDD) representation (Section 7.2). This module does the same: the BDDs
// give the reachable totals and list the valid inputs once per constraint
// class — the states that agree on the latches the input constraint reads
// share one list; the successors of a visited state's inputs come from the
// word-level kernel (PackedCircuitSim), 64 inputs per pass, once, when the
// walk first stands on the state. The walk itself then runs on that
// memoized successor table, whose edges hold only a successor id: edge k of
// a state takes input k of its class's list.
//
// Algorithm sketch:
//   repeat:
//     if the current state has an untaken valid input: take the next one
//     else: step to a successor one closer to the nearest state that had an
//           untaken input when the distances were last refreshed — exact
//           breadth-first distances over the memoized successors, refreshed
//           when the current state's own distance is missing or 0
//     when no such state is reachable: restart from reset
//   until every reachable transition is covered (or the step cap is hit).
//
// The step taken is the first edge, in enumeration order, whose successor is
// one closer. A ladder of three forward-only pointers per state answers the
// common cases: rung j is the first edge into a state at distance j or less
// — live, or with an edge of its own on rung j - 1. The live set only
// shrinks and distances only grow, so no pointer ever moves back, and each
// query costs amortized O(1). Distances 1 to 3 come straight from the
// ladder. Farther away, each edge's successor is probed with a bounded
// breadth-first search that checks every state of a level for an edge on
// the top rung before expanding any of it, so it stops three levels short
// of the live set.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "model/coverage.hpp"
#include "model/test_model.hpp"
#include "sym/packed_logic_sim.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::sym {

/// The valid inputs of every state, listed once per constraint class.
///
/// valid_inputs reads only some latches — the class mask is the latches in
/// its support — so two states with the same `key & mask` have the same
/// valid inputs. A class's list is constrain(valid_inputs, minterm of the
/// masked latches) enumerated over pi_vars in minterm order. For a cube,
/// constrain is the plain cofactor, and latches outside the support do not
/// change it, so the list equals the per-state listing, in order; the
/// minterm order does not depend on the variable order, so sifting cannot
/// change it either. Class ids are handed out in order of first sight.
/// Precondition: fsm has at most 63 latches (packed state keys).
class InputClasses {
 public:
  explicit InputClasses(SymbolicFsm& fsm);

  /// The class of `state`, listing its inputs on first sight.
  std::uint32_t class_of(std::uint64_t state);
  /// The valid inputs (packed keys) of every state of class `cls`.
  [[nodiscard]] std::span<const std::uint64_t> inputs(
      std::uint32_t cls) const {
    return lists_[cls];
  }
  /// The masked state key shared by the states of class `cls`.
  [[nodiscard]] std::uint64_t key(std::uint32_t cls) const {
    return keys_[cls];
  }
  [[nodiscard]] std::uint64_t mask() const { return mask_; }
  /// Classes seen so far — one input listing each.
  [[nodiscard]] std::size_t size() const { return lists_.size(); }

 private:
  SymbolicFsm& fsm_;
  std::uint64_t mask_ = 0;
  std::vector<unsigned> mask_vars_;  ///< ps vars of the masked latches
  std::unordered_map<std::uint64_t, std::uint32_t> ids_;  ///< by masked key
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<std::uint64_t>> lists_;
};

/// Steps `state` on every one of `inputs` (packed keys) into `next` (same
/// index) on `sim`, built from fsm.circuit(), 64 inputs per pass. Throws
/// std::logic_error when the kernel rejects an input — the inputs came from
/// InputClasses, so the circuit and its BDD view disagree.
void step_successors(const PackedCircuitSim& sim, std::uint64_t state,
                     std::span<const std::uint64_t> inputs,
                     std::vector<std::uint64_t>& next);

struct SymbolicTourOptions {
  /// Hard cap on total walk length.
  std::size_t max_steps = 10'000'000;
  /// Record the input keys (per reset-separated sequence). Disable for
  /// very long tours to save memory; statistics still work.
  bool record_inputs = true;
};

struct SymbolicTourResult {
  /// Reset-separated input sequences of packed input keys; empty when
  /// record_inputs was false.
  std::vector<model::Sequence> sequences;
  std::size_t steps = 0;
  std::size_t restarts = 0;
  /// Steps taken to approach an uncovered transition (the rest cover one);
  /// a complete tour has steps == transitions_total + navigate_steps.
  std::size_t navigate_steps = 0;
  /// Navigation generations started: how often the walk had to recompute
  /// distances because the ones it held were stale or missing.
  std::size_t layer_recomputes = 0;
  /// Valid-input listings on the BDD: one per constraint class met.
  std::size_t input_listings = 0;
  /// Bounded distance searches started (each may end at once on a stored
  /// or re-checked distance).
  std::size_t distance_within_calls = 0;
  /// Edges scanned while expanding those searches, which run only for
  /// distances past the ladder of edge pointers.
  std::size_t search_edges = 0;
  double transitions_total = 0.0;    ///< reachable (state, input) pairs
  double transitions_covered = 0.0;
  bool complete = false;             ///< every reachable transition covered

  /// The walk's distinct visited states and distinct exercised transitions
  /// — the definition model::CoverageTracker gives the explicit evaluators
  /// (src/tour), which is what makes backends comparable.
  /// `transitions_covered` above mirrors `stats.transitions_covered`.
  model::CoverageStats stats;

  [[nodiscard]] double coverage() const {
    return transitions_total == 0.0 ? 1.0
                                    : transitions_covered / transitions_total;
  }
};

/// Generates a transition tour of `fsm` on the implicit representation.
/// Convenience wrapper: drains a SymbolicTourStream to completion.
SymbolicTourResult symbolic_transition_tour(
    SymbolicFsm& fsm, const SymbolicTourOptions& options = {});

/// Incremental form of symbolic_transition_tour: the walk is suspended at
/// every reset, yielding one reset-separated input sequence at a time so
/// downstream stages can consume a sequence while the walk continues. The
/// concatenation of all yielded sequences is exactly what
/// symbolic_transition_tour would have recorded for the same fsm/options
/// (including a possibly empty trailing sequence after a final reset).
///
/// With record_inputs off the yielded sequences are empty vectors — the
/// segmentation and the summary statistics are still exact.
///
/// The fsm must outlive the stream.
class SymbolicTourStream {
 public:
  explicit SymbolicTourStream(SymbolicFsm& fsm,
                              const SymbolicTourOptions& options = {});
  ~SymbolicTourStream();
  SymbolicTourStream(SymbolicTourStream&&) noexcept;
  SymbolicTourStream& operator=(SymbolicTourStream&&) noexcept;

  /// Walks until the next reset (yielding the finished sequence) or until
  /// the tour completes / hits the step cap (yielding the final sequence).
  /// nullopt once the walk has ended.
  std::optional<model::Sequence> next_sequence();

  /// True once next_sequence() has returned its last sequence.
  [[nodiscard]] bool finished() const;

  /// Statistics of the walk so far (final once finished()). The returned
  /// result's `sequences` is always empty — the caller already holds the
  /// yielded sequences.
  [[nodiscard]] SymbolicTourResult summary() const;

  /// Recounts the walk's state table: it holds no more states than the
  /// reachable total and no more edges than the reachable transitions (the
  /// bounds its tables are reserved on), every id round-trips through its
  /// key, every state's class is its masked key and its edge count its
  /// class's list length, no two classes share a masked key, every edge
  /// and cursor is in range, the taken bits (one per edge) and the visited
  /// bits match summary(), the edge pointers skip only what they may, and
  /// every stored distance bound holds against a reference breadth-first
  /// search (exactly, where it is marked exact). Throws std::logic_error on
  /// the first violation. O(states + edges); meant for tests.
  void check_invariants() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace simcov::sym
