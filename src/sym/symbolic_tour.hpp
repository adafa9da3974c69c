// Symbolic transition-tour generation.
//
// The paper's 22-latch test model has 123 million transitions — no explicit
// enumeration fits, so its 1069M-step tour was generated on the implicit
// (BDD) representation (Section 7.2). This module does the same: the BDDs
// give the reachable totals and list each visited state's valid inputs,
// once, when the walk first stands on the state; the successors of those
// inputs come from the word-level kernel (PackedCircuitSim), 64 inputs per
// pass. The walk itself then runs on that memoized successor table.
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
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "model/coverage.hpp"
#include "model/test_model.hpp"
#include "sym/packed_logic_sim.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::sym {

/// The valid inputs of `state` (packed keys) and their successors: the BDD
/// lists the inputs, in the minterm order of constrain(valid_inputs, state)
/// over pi_vars, into `inputs`; `sim`, built from fsm.circuit(), steps them
/// 64 per pass into `next` (same index). Throws std::logic_error when the
/// kernel rejects a listed input — the circuit and its BDD view disagree.
void enumerate_successors(SymbolicFsm& fsm, const PackedCircuitSim& sim,
                          std::uint64_t state,
                          std::vector<std::uint64_t>& inputs,
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

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace simcov::sym
