#include "tour/tour.hpp"

#include <algorithm>
#include <random>
#include <span>
#include <stdexcept>

#include "graph/postman.hpp"

namespace simcov::tour {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;

namespace detail {

/// The reachable part of a machine's state graph in dense form, with the
/// greedy tours' coverage state, their goal set and one reusable
/// breadth-first search.
///
/// Reachable states are renumbered densely in ascending state id, and the
/// defined transitions of each are stored contiguously (CSR) in ascending
/// input order. The greedy walk always takes a state's smallest uncovered
/// transition, and it navigates only through states with nothing left
/// uncovered (a search stops at the first state with an uncovered
/// transition). So a state's covered transitions are always a prefix of its
/// edges, and one forward-only cursor per state records coverage exactly:
/// edge e of state s is covered iff e < cursor[s].
///
/// A visited bit per state records the states the covering walk has
/// reached: the start and the target of every covered edge. Navigation
/// crosses only covered edges, so no other step reaches a new state. (The
/// state tour takes no edge; its goal set records where it has been.)
///
/// The goal set is what a search() heads for: the states with an uncovered
/// transition, or the unvisited states. It only shrinks, so each state
/// leaves it at most once; a predecessor CSR (one entry per edge) lets
/// every state keep, in O(E) over the whole walk, the count of its edges
/// that lead into a goal.
class WalkTable {
 public:
  using Dense = std::uint32_t;
  static constexpr Dense kNone = 0xffffffffu;

  struct Edge {
    InputId input;
    Dense next;
  };

  /// Which states a search() heads for.
  enum class Goals {
    kUncovered,  // states with an uncovered transition; take() retires them
    kUnvisited,  // every state but the start; visit() retires them
  };

  /// O(states × inputs). A `start` out of range leaves the table empty.
  WalkTable(const MealyMachine& m, StateId start, Goals goals)
      : goals_(goals) {
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
    visited_.assign(count, 0);
    if (count > 0) {
      start_ = dense[start];
      mark_visited(start_);
    }

    // Predecessors by counting sort over the edges' targets.
    pred_first_.assign(count + 1, 0);
    for (const Edge& e : edges_) ++pred_first_[e.next + 1];
    for (Dense s = 0; s < count; ++s) pred_first_[s + 1] += pred_first_[s];
    preds_.resize(edges_.size());
    std::vector<std::uint32_t> fill(pred_first_.begin(), pred_first_.end() - 1);
    for (Dense s = 0; s < count; ++s) {
      for (const Edge& e : edges(s)) preds_[fill[e.next]++] = s;
    }

    goal_.resize(count);
    for (Dense s = 0; s < count; ++s) {
      goal_[s] = goals == Goals::kUnvisited ? s != start_ : has_uncovered(s);
    }
    goal_edges_.assign(count, 0);
    for (Dense s = 0; s < count; ++s) {
      for (const Edge& e : edges(s)) goal_edges_[s] += goal_[e.next];
    }

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

  /// Edges over all states.
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  /// Transitions not yet covered, over all states.
  [[nodiscard]] std::size_t uncovered() const { return uncovered_; }
  /// States whose visited bit is set.
  [[nodiscard]] std::size_t visited() const { return visited_count_; }
  /// Edges of every state a search has expanded so far.
  [[nodiscard]] std::size_t search_edges() const { return search_edges_; }
  /// Covers the smallest uncovered transition of `s` (which must have one),
  /// appends its input to `seq`, marks its target visited and returns it.
  /// Under Goals::kUncovered, `s` leaves the goal set with its last
  /// transition.
  Dense take(Dense s, std::vector<InputId>& seq) {
    const Edge& e = edges_[cursor_[s]++];
    --uncovered_;
    mark_visited(e.next);
    if (goals_ == Goals::kUncovered && !has_uncovered(s)) retire(s);
    seq.push_back(e.input);
    return e.next;
  }
  /// Marks `s` visited: under Goals::kUnvisited, it leaves the goal set.
  void visit(Dense s) {
    if (goals_ == Goals::kUnvisited && goal_[s]) retire(s);
  }

  /// The goal nearest to `from`, or kNone: the state the breadth-first
  /// search below would find, which tests `from` first, then tests states
  /// as they are discovered, in FIFO order, scanning each state's edges in
  /// input order.
  ///
  /// It stops one level early. Every state it enqueues has no edge into a
  /// goal, so when it expands a level no goal lies on the next one. The
  /// first state z it discovers with goal_edges_[z] > 0 is therefore the
  /// first state of the next level whose expansion would discover a goal,
  /// and z's first goal edge in input order leads to the goal that
  /// expansion discovers first: no earlier discovery can have reached it,
  /// since only z's edges lead into goals so far. z's parent chain was
  /// set by the same discoveries in the same order, so the target, the
  /// parent chain and the `via` inputs all match the plain search. When
  /// no state with a goal edge is reachable, both explore the same
  /// reachable set and fail.
  Dense search(Dense from) {
    if (goal_[from]) return from;
    const Dense z = goal_edges_[from] > 0 ? from : search_goal_edge(from);
    if (z == kNone) return kNone;
    for (const Edge& e : edges(z)) {
      if (!goal_[e.next]) continue;
      parent_[e.next] = z;
      via_[e.next] = e.input;
      return e.next;
    }
    throw std::logic_error("WalkTable: goal edge count without a goal edge");
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

  /// Throws std::logic_error unless every cursor lies in its state's edge
  /// range, uncovered() equals the recount over the cursors, the goal set
  /// matches the cursors (Goals::kUncovered), every goal-edge count equals
  /// a recount, and the visited bits and visited() match the start and the
  /// targets of the covered edges.
  void check_invariants() const {
    std::size_t uncovered = 0;
    std::vector<std::uint8_t> reached(num_states(), 0);
    if (start_ != kNone) reached[start_] = 1;
    for (Dense s = 0; s < num_states(); ++s) {
      if (cursor_[s] < first_[s] || cursor_[s] > first_[s + 1]) {
        throw std::logic_error("WalkTable: cursor outside its edge range");
      }
      uncovered += first_[s + 1] - cursor_[s];
      for (std::uint32_t e = first_[s]; e < cursor_[s]; ++e) {
        reached[edges_[e].next] = 1;
      }
      if (goals_ == Goals::kUncovered && goal_[s] != has_uncovered(s)) {
        throw std::logic_error("WalkTable: goal set disagrees with cursors");
      }
      std::uint32_t goal_edges = 0;
      for (const Edge& e : edges(s)) goal_edges += goal_[e.next];
      if (goal_edges != goal_edges_[s]) {
        throw std::logic_error("WalkTable: goal edge count is stale");
      }
    }
    if (uncovered != uncovered_) {
      throw std::logic_error("WalkTable: uncovered count is stale");
    }
    if (reached != visited_) {
      throw std::logic_error("WalkTable: visited bits disagree with cursors");
    }
    if (static_cast<std::size_t>(std::count(reached.begin(), reached.end(),
                                            1)) != visited_count_) {
      throw std::logic_error("WalkTable: visited count is stale");
    }
  }

 private:
  [[nodiscard]] bool has_uncovered(Dense s) const {
    return cursor_[s] != first_[s + 1];
  }

  void mark_visited(Dense s) {
    visited_count_ += visited_[s] ^ 1u;
    visited_[s] = 1;
  }

  /// Removes goal `s` from the goal set: each edge into it stops counting.
  void retire(Dense s) {
    goal_[s] = 0;
    for (std::uint32_t p = pred_first_[s]; p < pred_first_[s + 1]; ++p) {
      --goal_edges_[preds_[p]];
    }
  }

  /// Breadth-first from `from` (which has no goal edge) to the first
  /// discovered state with one, recording first-discovery parents; kNone
  /// when none is reachable.
  Dense search_goal_edge(Dense from) {
    if (++epoch_ == 0) {  // wrapped: forget every stamp
      std::fill(seen_.begin(), seen_.end(), 0);
      epoch_ = 1;
    }
    seen_[from] = epoch_;
    queue_.assign(1, from);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const Dense s = queue_[head];
      search_edges_ += edges(s).size();
      for (const Edge& e : edges(s)) {
        if (seen_[e.next] == epoch_) continue;
        seen_[e.next] = epoch_;
        parent_[e.next] = s;
        via_[e.next] = e.input;
        if (goal_edges_[e.next] > 0) return e.next;
        queue_.push_back(e.next);
      }
    }
    return kNone;
  }

  Goals goals_;
  std::vector<std::uint32_t> first_;  // CSR offsets, num_states() + 1
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> cursor_;  // per state: smallest uncovered edge
  std::size_t uncovered_ = 0;
  Dense start_ = kNone;
  std::vector<std::uint8_t> visited_;  // per state: reached by the walk
  std::size_t visited_count_ = 0;

  // The goal set and, per state, its edges into it (with multiplicity).
  std::vector<std::uint32_t> pred_first_;  // predecessor CSR offsets
  std::vector<Dense> preds_;               // one source per edge
  std::vector<std::uint8_t> goal_;
  std::vector<std::uint32_t> goal_edges_;

  // Search buffers, reused by every search(): a state is discovered in the
  // current search iff its stamp equals epoch_.
  std::vector<std::uint32_t> seen_;
  std::vector<Dense> parent_;
  std::vector<InputId> via_;
  std::vector<Dense> queue_;
  std::uint32_t epoch_ = 0;
  std::size_t search_edges_ = 0;
};

}  // namespace detail

using detail::WalkTable;
using Dense = WalkTable::Dense;

std::optional<Tour> minimum_transition_tour(const MealyMachine& m,
                                            StateId start) {
  const WalkTable w(m, start, WalkTable::Goals::kUncovered);
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
  WalkTable w(m, start, WalkTable::Goals::kUnvisited);
  Tour tour;
  tour.start = start;
  if (w.num_states() == 0) return tour;
  Dense at = w.start();
  for (Dense remaining = w.num_states() - 1; remaining > 0; --remaining) {
    const Dense goal = w.search(at);
    if (goal == WalkTable::kNone) return std::nullopt;
    // The path's other states were visited already: a search stops at the
    // first unvisited state it discovers.
    w.append_path(at, goal, tour.inputs);
    w.visit(goal);
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
    : walk_(std::make_unique<WalkTable>(m, start,
                                        WalkTable::Goals::kUncovered)),
      start_(start) {}

TransitionTourSetGenerator::~TransitionTourSetGenerator() = default;
TransitionTourSetGenerator::TransitionTourSetGenerator(
    TransitionTourSetGenerator&&) noexcept = default;
TransitionTourSetGenerator& TransitionTourSetGenerator::operator=(
    TransitionTourSetGenerator&&) noexcept = default;

std::size_t TransitionTourSetGenerator::remaining() const {
  return walk_->uncovered();
}

std::size_t TransitionTourSetGenerator::search_edges() const {
  return walk_->search_edges();
}

std::size_t TransitionTourSetGenerator::reachable_states() const {
  return walk_->num_states();
}

std::size_t TransitionTourSetGenerator::reachable_transitions() const {
  return walk_->num_edges();
}

std::size_t TransitionTourSetGenerator::states_visited() const {
  return walk_->visited();
}

void TransitionTourSetGenerator::check_invariants() const {
  walk_->check_invariants();
}

std::optional<std::vector<InputId>> TransitionTourSetGenerator::next() {
  WalkTable& w = *walk_;
  if (w.uncovered() == 0 || stuck_) return std::nullopt;
  std::vector<InputId> seq;
  Dense at = w.start();
  // Once everything is covered no search could find a goal, so none runs.
  while (w.uncovered() > 0) {
    const Dense goal = w.search(at);
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
  set.search_edges = gen.search_edges();
  return set;
}

}  // namespace simcov::tour
