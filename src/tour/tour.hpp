// Test-sequence generation over explicit test models.
//
// A *transition tour* is an input sequence that exercises every (reachable)
// transition of the test model at least once; a *state tour* covers every
// state. The paper's central result (Theorem 3) is that under Requirements
// 1-5 a transition tour is a *complete* test set. Section 6.5 reduces
// minimum-cost tour generation to the Directed Chinese Postman Problem.
//
// Three generators are provided:
//  * minimum_transition_tour — CPP-optimal closed tour (needs the reachable
//    state graph to be strongly connected);
//  * greedy_transition_tour — nearest-uncovered-transition heuristic, an
//    open walk that also works on some non-strongly-connected machines;
//  * state_tour / random_walk — the weaker coverage baselines the paper
//    contrasts against (state coverage [Iwashita+94], plain simulation).
//
// This library generates tours and does not score them: a test set's
// coverage is counted by model::TestModel::evaluate (ExplicitModel over the
// same machine). TransitionTourSetGenerator is the exception that needs no
// replay: its walk table already records what the yielded sequences cover.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fsm/mealy.hpp"

namespace simcov::tour {

struct Tour {
  fsm::StateId start = 0;
  std::vector<fsm::InputId> inputs;

  [[nodiscard]] std::size_t length() const { return inputs.size(); }
};

/// Minimum-length transition tour (closed walk) from `start` covering every
/// reachable defined transition, via the Directed Chinese Postman reduction.
/// Empty optional when the reachable state graph is not strongly connected.
std::optional<Tour> minimum_transition_tour(const fsm::MealyMachine& m,
                                            fsm::StateId start);

/// Greedy transition tour: repeatedly walk (via BFS) to the nearest state
/// with an uncovered outgoing transition and take its smallest uncovered
/// input. Not length-optimal and not necessarily closed, but succeeds on any
/// machine where coverage is possible in some order. Empty optional if it
/// gets stuck (uncovered transitions no longer reachable). It is the first
/// sequence of TransitionTourSetGenerator, kept only when that sequence
/// covers everything.
std::optional<Tour> greedy_transition_tour(const fsm::MealyMachine& m,
                                           fsm::StateId start);

/// Greedy state tour: repeatedly walks (via BFS) to the nearest unvisited
/// state, until every reachable state has been visited. Empty optional if
/// some reachable state can no longer be reached.
std::optional<Tour> state_tour(const fsm::MealyMachine& m, fsm::StateId start);

/// Random walk of `length` steps over defined transitions (uniform among the
/// defined inputs of the current state). Throws std::domain_error if the walk
/// reaches a state with no defined outgoing transition.
Tour random_walk(const fsm::MealyMachine& m, fsm::StateId start,
                 std::size_t length, std::uint64_t seed);

/// A test set in the paper's sense: several input sequences, each applied
/// from the (reset) start state. Needed when the start state is transient —
/// e.g. the empty-pipeline reset state of a processor control model, which
/// no closed tour can revisit.
struct TourSet {
  fsm::StateId start = 0;
  std::vector<std::vector<fsm::InputId>> sequences;
  /// Work count of the generator that built the set: edges of every state
  /// its breadth-first searches expanded (greedy_transition_tour_set; 0
  /// from other sources).
  std::size_t search_edges = 0;

  [[nodiscard]] std::size_t total_length() const;
};

/// Greedy transition tour set: walks from `start` covering uncovered
/// transitions; when no uncovered transition is reachable any more, ends the
/// sequence and restarts from `start` (a reset). Covers every reachable
/// defined transition. Empty optional only if some transition is uncoverable
/// even after a reset (cannot happen for transitions reachable from start).
std::optional<TourSet> greedy_transition_tour_set(const fsm::MealyMachine& m,
                                                  fsm::StateId start);

namespace detail {
/// The dense walk table every explicit tour generator runs on (tour.cpp).
class WalkTable;
}  // namespace detail

/// Incremental form of greedy_transition_tour_set: yields the tour set one
/// reset-separated sequence at a time, so a campaign can concretize and
/// simulate each sequence while the next one is still being generated,
/// never holding the whole test set in memory. Produces exactly the
/// sequences (and order) of greedy_transition_tour_set — that function is
/// a thin loop over this generator.
///
/// The generator owns a copy of the reachable part of the machine's state
/// graph (a dense walk table with per-state coverage cursors), so the
/// machine may be destroyed once the constructor returns. Construction costs
/// O(states × inputs), plus an O(E) predecessor array over the E reachable
/// transitions. With it each state keeps the count of its edges into states
/// that still have an uncovered transition, at O(E) over the whole set, so
/// each greedy step's breadth-first search (over reused arrays, with no
/// allocation) stops one edge before its target: at the first state with
/// such an edge.
class TransitionTourSetGenerator {
 public:
  TransitionTourSetGenerator(const fsm::MealyMachine& m, fsm::StateId start);
  ~TransitionTourSetGenerator();
  TransitionTourSetGenerator(TransitionTourSetGenerator&&) noexcept;
  TransitionTourSetGenerator& operator=(TransitionTourSetGenerator&&) noexcept;

  /// The next sequence of the set; nullopt when every reachable transition
  /// is covered (done()) or when the generator is stuck().
  std::optional<std::vector<fsm::InputId>> next();

  /// Every reachable transition has been covered.
  [[nodiscard]] bool done() const { return remaining() == 0; }
  /// A reset no longer reaches any uncovered transition (the failure case
  /// greedy_transition_tour_set reports as an empty optional).
  [[nodiscard]] bool stuck() const { return stuck_; }
  /// Transitions still to cover.
  [[nodiscard]] std::size_t remaining() const;
  [[nodiscard]] fsm::StateId start() const { return start_; }
  /// Edges of every state the searches have expanded so far.
  [[nodiscard]] std::size_t search_edges() const;

  // The coverage of the sequences yielded so far, read off the walk table:
  // a visited bit per state and the coverage cursors. Navigation crosses
  // only covered transitions, so these are exactly the distinct states and
  // transitions that replaying the yielded sequences from start() would
  // exercise.
  /// States reachable from start().
  [[nodiscard]] std::size_t reachable_states() const;
  /// Defined transitions out of reachable states.
  [[nodiscard]] std::size_t reachable_transitions() const;
  /// Distinct states visited, start() included.
  [[nodiscard]] std::size_t states_visited() const;
  /// Distinct transitions covered: reachable_transitions() - remaining().
  [[nodiscard]] std::size_t transitions_covered() const {
    return reachable_transitions() - remaining();
  }

  /// Recounts the walk table's bookkeeping from scratch and throws
  /// std::logic_error on any mismatch: a coverage cursor outside its
  /// state's edge range, remaining() against the cursors, a state's count
  /// of edges into uncovered states, or a visited bit or states_visited()
  /// against the start and the targets of the covered transitions.
  /// O(states + E); for tests.
  void check_invariants() const;

 private:
  std::unique_ptr<detail::WalkTable> walk_;
  fsm::StateId start_;
  bool stuck_ = false;
};

}  // namespace simcov::tour
