#include "tour/tour.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "graph/postman.hpp"

namespace simcov::tour {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;

namespace detail {

/// The reachable part of a machine's state graph in dense form, with the
/// greedy tours' coverage state and one reusable breadth-first search.
///
/// Reachable states are renumbered densely in ascending state id, and the
/// defined transitions of each are stored contiguously (CSR) in ascending
/// input order. The greedy walk always takes a state's smallest uncovered
/// transition, and it navigates only through states with nothing left
/// uncovered (a search stops at the first state with an uncovered
/// transition). So a state's covered transitions are always a prefix of its
/// edges, and one forward-only cursor per state records coverage exactly:
/// edge e of state s is covered iff e < cursor[s].
class WalkTable {
 public:
  using Dense = std::uint32_t;
  static constexpr Dense kNone = 0xffffffffu;

  struct Edge {
    InputId input;
    Dense next;
  };

  /// O(states × inputs). A `start` out of range leaves the table empty.
  WalkTable(const MealyMachine& m, StateId start) {
    const auto reachable = m.reachable_states(start);
    std::vector<Dense> dense(m.num_states(), kNone);
    Dense count = 0;
    for (StateId s = 0; s < m.num_states(); ++s) {
      if (reachable[s]) dense[s] = count++;
    }
    first_.reserve(count + 1);
    first_.push_back(0);
    for (StateId s = 0; s < m.num_states(); ++s) {
      if (!reachable[s]) continue;
      for (InputId i = 0; i < m.num_inputs(); ++i) {
        if (const auto t = m.transition(s, i)) {
          edges_.push_back({i, dense[t->next]});
        }
      }
      first_.push_back(static_cast<std::uint32_t>(edges_.size()));
    }
    cursor_.assign(first_.begin(), first_.end() - 1);
    uncovered_ = edges_.size();
    if (count > 0) start_ = dense[start];
    seen_.assign(count, 0);
    parent_.resize(count);
    via_.resize(count);
    queue_.reserve(count);
  }

  [[nodiscard]] Dense num_states() const {
    return static_cast<Dense>(first_.size() - 1);
  }
  /// Dense id of the start state; kNone when the table is empty.
  [[nodiscard]] Dense start() const { return start_; }
  [[nodiscard]] std::span<const Edge> edges(Dense s) const {
    return {edges_.data() + first_[s], edges_.data() + first_[s + 1]};
  }

  /// Transitions not yet covered, over all states.
  [[nodiscard]] std::size_t uncovered() const { return uncovered_; }
  [[nodiscard]] bool has_uncovered(Dense s) const {
    return cursor_[s] != first_[s + 1];
  }
  /// Covers the smallest uncovered transition of `s` (which must have one),
  /// appends its input to `seq` and returns its target.
  Dense take(Dense s, std::vector<InputId>& seq) {
    const Edge& e = edges_[cursor_[s]++];
    --uncovered_;
    seq.push_back(e.input);
    return e.next;
  }

  /// Nearest state from `from` satisfying `is_goal`, or kNone. `from` is
  /// tested first; then states are tested as they are discovered, in FIFO
  /// order, scanning each state's edges in input order.
  template <class Goal>
  Dense search(Dense from, Goal is_goal) {
    if (is_goal(from)) return from;
    if (++epoch_ == 0) {  // wrapped: forget every stamp
      std::fill(seen_.begin(), seen_.end(), 0);
      epoch_ = 1;
    }
    seen_[from] = epoch_;
    queue_.assign(1, from);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const Dense s = queue_[head];
      for (const Edge& e : edges(s)) {
        if (seen_[e.next] == epoch_) continue;
        seen_[e.next] = epoch_;
        parent_[e.next] = s;
        via_[e.next] = e.input;
        if (is_goal(e.next)) return e.next;
        queue_.push_back(e.next);
      }
    }
    return kNone;
  }

  /// Appends the inputs of the path the last search() found from `from`
  /// to `goal`.
  void append_path(Dense from, Dense goal, std::vector<InputId>& seq) const {
    const std::size_t mark = seq.size();
    for (Dense at = goal; at != from; at = parent_[at]) {
      seq.push_back(via_[at]);
    }
    std::reverse(seq.begin() + static_cast<std::ptrdiff_t>(mark), seq.end());
  }

 private:
  std::vector<std::uint32_t> first_;  // CSR offsets, num_states() + 1
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> cursor_;  // per state: smallest uncovered edge
  std::size_t uncovered_ = 0;
  Dense start_ = kNone;

  // Search buffers, reused by every search(): a state is discovered in the
  // current search iff its stamp equals epoch_.
  std::vector<std::uint32_t> seen_;
  std::vector<Dense> parent_;
  std::vector<InputId> via_;
  std::vector<Dense> queue_;
  std::uint32_t epoch_ = 0;
};

}  // namespace detail

using detail::WalkTable;
using Dense = WalkTable::Dense;

std::optional<Tour> minimum_transition_tour(const MealyMachine& m,
                                            StateId start) {
  const WalkTable w(m, start);
  graph::Digraph g(w.num_states());
  for (Dense s = 0; s < w.num_states(); ++s) {
    for (const auto& e : w.edges(s)) {
      g.add_edge(s, e.next, /*cost=*/1, /*label=*/e.input);
    }
  }
  const auto cpp = graph::directed_chinese_postman(g, w.start());
  if (!cpp.has_value()) return std::nullopt;
  Tour tour;
  tour.start = start;
  tour.inputs.reserve(cpp->tour.size());
  for (graph::EdgeId e : cpp->tour) {
    tour.inputs.push_back(static_cast<InputId>(g.edge(e).label));
  }
  return tour;
}

std::optional<Tour> greedy_transition_tour(const MealyMachine& m,
                                           StateId start) {
  TransitionTourSetGenerator gen(m, start);
  Tour tour;
  tour.start = start;
  if (auto seq = gen.next()) tour.inputs = std::move(*seq);
  if (!gen.done()) return std::nullopt;  // stuck
  return tour;
}

std::optional<Tour> state_tour(const MealyMachine& m, StateId start) {
  WalkTable w(m, start);
  Tour tour;
  tour.start = start;
  if (w.num_states() == 0) return tour;
  std::vector<bool> visited(w.num_states(), false);
  Dense at = w.start();
  visited[at] = true;
  for (Dense remaining = w.num_states() - 1; remaining > 0; --remaining) {
    const Dense goal =
        w.search(at, [&visited](Dense s) { return !visited[s]; });
    if (goal == WalkTable::kNone) return std::nullopt;
    // The path's other states were visited already: a search stops at the
    // first unvisited state it discovers.
    w.append_path(at, goal, tour.inputs);
    visited[goal] = true;
    at = goal;
  }
  return tour;
}

Tour random_walk(const MealyMachine& m, StateId start, std::size_t length,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Tour tour;
  tour.start = start;
  tour.inputs.reserve(length);
  StateId at = start;
  for (std::size_t step = 0; step < length; ++step) {
    std::vector<InputId> defined;
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      if (m.transition(at, i).has_value()) defined.push_back(i);
    }
    if (defined.empty()) {
      throw std::domain_error("random_walk: dead-end state reached");
    }
    const InputId i = defined[rng() % defined.size()];
    tour.inputs.push_back(i);
    at = m.transition(at, i)->next;
  }
  return tour;
}

std::size_t TourSet::total_length() const {
  std::size_t n = 0;
  for (const auto& seq : sequences) n += seq.size();
  return n;
}

TransitionTourSetGenerator::TransitionTourSetGenerator(const MealyMachine& m,
                                                       StateId start)
    : walk_(std::make_unique<WalkTable>(m, start)), start_(start) {}

TransitionTourSetGenerator::~TransitionTourSetGenerator() = default;
TransitionTourSetGenerator::TransitionTourSetGenerator(
    TransitionTourSetGenerator&&) noexcept = default;
TransitionTourSetGenerator& TransitionTourSetGenerator::operator=(
    TransitionTourSetGenerator&&) noexcept = default;

std::size_t TransitionTourSetGenerator::remaining() const {
  return walk_->uncovered();
}

std::optional<std::vector<InputId>> TransitionTourSetGenerator::next() {
  WalkTable& w = *walk_;
  if (w.uncovered() == 0 || stuck_) return std::nullopt;
  const auto has_uncovered = [&w](Dense s) { return w.has_uncovered(s); };
  std::vector<InputId> seq;
  Dense at = w.start();
  // Once everything is covered no search could find a goal, so none runs.
  while (w.uncovered() > 0) {
    const Dense goal = w.search(at, has_uncovered);
    if (goal == WalkTable::kNone) break;  // stuck: end this sequence
    w.append_path(at, goal, seq);
    at = w.take(goal, seq);
  }
  if (seq.empty()) {  // even a fresh reset can't reach
    stuck_ = true;
    return std::nullopt;
  }
  return seq;
}

std::optional<TourSet> greedy_transition_tour_set(const MealyMachine& m,
                                                  StateId start) {
  TransitionTourSetGenerator gen(m, start);
  TourSet set;
  set.start = start;
  while (auto seq = gen.next()) set.sequences.push_back(std::move(*seq));
  if (gen.stuck()) return std::nullopt;
  return set;
}

namespace {

/// Reachable state/transition totals for the tracker, shared by both
/// evaluators.
model::CoverageTracker make_tracker(const MealyMachine& m, StateId start) {
  const auto reachable = m.reachable_states(start);
  std::size_t states_total = 0;
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (reachable[s]) ++states_total;
  }
  return model::CoverageTracker(
      static_cast<double>(states_total),
      static_cast<double>(m.reachable_transitions(start).size()));
}

}  // namespace

CoverageStats evaluate_coverage(const MealyMachine& m, StateId start,
                                std::span<const InputId> inputs) {
  model::CoverageTracker tracker = make_tracker(m, start);
  StateId at = start;
  tracker.visit_state(at);
  for (InputId i : inputs) {
    const auto t = m.transition(at, i);
    if (!t.has_value()) {
      throw std::domain_error("evaluate_coverage: undefined transition");
    }
    tracker.cover_transition(at, i);
    at = t->next;
    tracker.visit_state(at);
  }
  return tracker.stats();
}

bool is_transition_tour(const MealyMachine& m, StateId start,
                        std::span<const InputId> inputs) {
  const auto stats = evaluate_coverage(m, start, inputs);
  return stats.transitions_covered == stats.transitions_total;
}

CoverageStats evaluate_coverage_set(const MealyMachine& m,
                                    const TourSet& set) {
  model::CoverageTracker tracker = make_tracker(m, set.start);
  tracker.visit_state(set.start);
  for (const auto& seq : set.sequences) {
    StateId at = set.start;
    for (InputId i : seq) {
      const auto t = m.transition(at, i);
      if (!t.has_value()) {
        throw std::domain_error(
            "evaluate_coverage_set: undefined transition");
      }
      tracker.cover_transition(at, i);
      at = t->next;
      tracker.visit_state(at);
    }
  }
  return tracker.stats();
}

bool is_transition_tour_set(const MealyMachine& m, const TourSet& set) {
  const auto stats = evaluate_coverage_set(m, set);
  return stats.transitions_covered == stats.transitions_total;
}

}  // namespace simcov::tour
