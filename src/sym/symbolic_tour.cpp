#include "sym/symbolic_tour.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace simcov::sym {

void enumerate_successors(SymbolicFsm& fsm, const PackedCircuitSim& sim,
                          std::uint64_t state,
                          std::vector<std::uint64_t>& inputs,
                          std::vector<std::uint64_t>& next) {
  bdd::BddManager& mgr = fsm.manager();
  std::vector<bool> bits(fsm.num_latches());
  for (std::size_t j = 0; j < bits.size(); ++j) bits[j] = (state >> j) & 1u;
  const bdd::Bdd at_state =
      mgr.constrain(fsm.valid_inputs(), mgr.minterm(fsm.ps_vars(), bits));
  inputs.clear();
  mgr.for_each_minterm(at_state, fsm.pi_vars(),
                       [&](const std::vector<bool>& in) {
                         std::uint64_t input = 0;
                         for (std::size_t k = 0; k < in.size(); ++k) {
                           input |= std::uint64_t{in[k]} << k;
                         }
                         inputs.push_back(input);
                         return true;
                       });

  constexpr std::size_t kLanes = PackedCircuitSim::kLanes;
  std::array<std::uint64_t, kLanes> states;
  states.fill(state);
  next.resize(inputs.size());
  for (std::size_t base = 0; base < inputs.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, inputs.size() - base);
    const std::uint64_t valid =
        sim.step(std::span(states.data(), lanes),
                 std::span(inputs).subspan(base, lanes),
                 std::span(next).subspan(base, lanes));
    if (static_cast<std::size_t>(std::popcount(valid)) != lanes) {
      throw std::logic_error(
          "enumerate_successors: the circuit rejects an input its BDD lists "
          "as valid");
    }
  }
}

/// Drives the tour: concrete walking over the implicit model, suspended at
/// every reset so SymbolicTourStream can yield sequence-by-sequence.
///
/// States live in a dense table, one uint32 id per packed latch key. Per
/// visited state, the valid inputs (listed by the BDD, via generalized
/// cofactor of the input constraint) and their successor ids (stepped on
/// the word-level kernel, 64 inputs per pass) are enumerated once into one
/// shared edge array; covering steps then cost O(1). A per-state cursor is
/// exact coverage bookkeeping: transition (s, i) can only be covered by
/// taking i at s, so inputs before the cursor are covered, inputs after are
/// not.
/// Per-edge "taken" and per-state "visited" bits count what the walk
/// exercised, navigation steps included.
///
/// Navigation heads for the nearest "live" state — one with a valid input
/// whose cursor had not run out when the current generation began. A
/// generation begins whenever the walk finds no usable distance for its
/// state; within it the live set is frozen, so distances are fixed and are
/// answered by bounded breadth-first searches over the memoized edges. A
/// search only expands states that are not live, and those are either
/// exhausted (hence enumerated) or have no valid input (hence no edges), so
/// it never needs a state enumerated. The live set only shrinks, so
/// distances never fall: lower bounds learned in one generation hold in
/// every later one, while exact distances hold for their generation only.
struct SymbolicTourStream::Impl {
 public:
  Impl(SymbolicFsm& fsm, const SymbolicTourOptions& options)
      : fsm_(fsm),
        mgr_(fsm.manager()),
        options_(options),
        num_latches_(fsm.ps_vars().size()),
        sim_(packable(fsm).circuit()) {
    assignment_.assign(mgr_.var_count(), false);

    const bdd::Bdd reached = fsm_.reachable_states();
    transitions_total_ = fsm_.count_transitions(reached);
    total_count_ = static_cast<std::size_t>(transitions_total_);
    states_total_ = fsm_.count_states(reached);

    const std::vector<unsigned> pi_vec(fsm_.pi_vars().begin(),
                                       fsm_.pi_vars().end());
    has_valid_input_ =
        reached & mgr_.exists(fsm_.valid_inputs(), mgr_.cube(pi_vec));

    initial_ = intern(model::TestModel::pack_bits(fsm_.initial_state_bits()));
    state_ = initial_;
    visit(state_);
  }

  /// Resumes the walk until the next reset or until it ends. See the
  /// header for the yielded-sequence contract.
  std::optional<model::Sequence> next_sequence() {
    if (finished_) return std::nullopt;
    model::Sequence seq;
    while (steps_ < options_.max_steps) {
      if (covered_count_ >= total_count_) {
        complete_ = true;
        break;
      }
      enumerate(state_);
      State& at = states_[state_];
      std::uint32_t edge = 0;
      if (at.cursor < at.end_edge) {
        // Cover the next fresh transition out of this state.
        edge = at.cursor++;
        ++covered_count_;
        if (at.cursor == at.end_edge) at.exhausted_in = generation_;
      } else if (const auto nav = navigate()) {
        edge = *nav;
        ++navigate_steps_;
      } else {
        // No path to an uncovered transition from here: reset and yield the
        // sequence that just ended.
        ++restarts_;
        state_ = initial_;
        return seq;
      }
      Edge& e = edges_[edge];
      if (options_.record_inputs) seq.push_back(e.input);
      if (!e.taken) {
        e.taken = true;
        ++transitions_taken_;
      }
      state_ = e.next;
      visit(state_);
      ++steps_;
    }
    finished_ = true;
    return seq;
  }

  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] SymbolicTourResult summary() const {
    SymbolicTourResult result;
    result.steps = steps_;
    result.restarts = restarts_;
    result.navigate_steps = navigate_steps_;
    result.layer_recomputes = generation_;
    result.transitions_total = transitions_total_;
    result.complete = complete_;
    result.stats = {static_cast<double>(states_visited_), states_total_,
                    static_cast<double>(transitions_taken_),
                    transitions_total_};
    // The taken-edge count dominates the per-state cursors: navigation may
    // take an edge its cursor has not reached yet, which still covers it —
    // a step-capped walk can therefore be complete before the cursors are.
    result.transitions_covered = result.stats.transitions_covered;
    if (result.stats.complete()) result.complete = true;
    return result;
  }

 private:
  /// "No generation yet", "never exhausted", "no distance bound".
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  struct Edge {
    std::uint64_t input;
    std::uint32_t next;  ///< successor state id
    bool taken = false;  ///< exercised by the walk
  };
  struct State {
    std::uint64_t key;
    /// Edges are edges_[first_edge, end_edge); cursor is the first one the
    /// covering walk has not taken yet.
    std::uint32_t first_edge = 0;
    std::uint32_t end_edge = 0;
    std::uint32_t cursor = 0;
    /// Generation during which the cursor ran out; kNone while it has not.
    std::uint32_t exhausted_in = kNone;
    /// Lower bound on the distance to the live set, valid from now on; the
    /// exact distance while exact_in is the current generation. kNone when
    /// no live state is reachable at all.
    std::uint32_t lower = 0;
    std::uint32_t exact_in = kNone;
    std::uint32_t search_mark = 0;    ///< search epoch that last reached it
    std::uint32_t search_parent = 0;  ///< its predecessor in that search
    /// Successor on the last shortest path found from here (kNone: none).
    std::uint32_t via = kNone;
    /// Edges before this one lead to states that are no longer live.
    std::uint32_t live_edge = 0;
    bool has_valid_input = false;
    bool enumerated = false;
    bool visited = false;
  };

  // ---- packing -------------------------------------------------------------
  /// `fsm`, once its latches and inputs are known to fit packed keys.
  static SymbolicFsm& packable(SymbolicFsm& fsm) {
    if (fsm.num_latches() > 63 || fsm.num_inputs() > 63) {
      throw std::invalid_argument(
          "symbolic_transition_tour: too many variables for packed keys");
    }
    return fsm;
  }

  // ---- state table ---------------------------------------------------------
  /// The id of a packed state, added on first sight with one evaluation of
  /// "reachable and has a valid input".
  std::uint32_t intern(std::uint64_t key) {
    const auto [it, added] =
        ids_.try_emplace(key, static_cast<std::uint32_t>(states_.size()));
    if (added) {
      if (states_.size() == kNone) {
        throw std::length_error("symbolic_transition_tour: too many states");
      }
      State s;
      s.key = key;
      // has_valid_input_ depends on the latches only.
      for (std::size_t j = 0; j < num_latches_; ++j) {
        assignment_[fsm_.ps_var(j)] = (key >> j) & 1u;
      }
      s.has_valid_input = mgr_.eval(has_valid_input_, assignment_);
      states_.push_back(s);
    }
    return it->second;
  }

  void visit(std::uint32_t id) {
    if (!states_[id].visited) {
      states_[id].visited = true;
      ++states_visited_;
    }
  }

  /// Enumerates (valid input, successor) pairs of a state, once.
  void enumerate(std::uint32_t id) {
    if (states_[id].enumerated) return;
    enumerate_successors(fsm_, sim_, states_[id].key, inputs_, next_);
    if (edges_.size() + inputs_.size() >= kNone) {
      throw std::length_error("symbolic_transition_tour: too many edges");
    }
    const auto first = static_cast<std::uint32_t>(edges_.size());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      edges_.push_back(Edge{inputs_[i], intern(next_[i])});
    }
    State& s = states_[id];
    s.first_edge = first;
    s.cursor = first;
    s.live_edge = first;
    s.end_edge = static_cast<std::uint32_t>(edges_.size());
    s.enumerated = true;
  }

  // ---- navigation ----------------------------------------------------------
  /// Member of the current generation's live set (distance 0).
  [[nodiscard]] bool live(const State& s) const {
    return s.has_valid_input &&
           (s.exhausted_in == kNone || s.exhausted_in >= generation_);
  }

  /// The first edge of a state whose successor is live. Successors it
  /// skips are dead for good (the live set only shrinks), so the position
  /// only moves forward.
  std::optional<std::uint32_t> live_edge(std::uint32_t id) {
    State& s = states_[id];
    while (s.live_edge < s.end_edge &&
           !live(states_[edges_[s.live_edge].next])) {
      ++s.live_edge;
    }
    if (s.live_edge == s.end_edge) return std::nullopt;
    return s.live_edge;
  }

  /// The current state's distance, if it is within the generation's cap.
  std::optional<std::uint32_t> distance_here() {
    if (generation_ == 0) return std::nullopt;
    return distance_within(state_, cap_);
  }

  /// Starts a generation: freezes the live set and caps distances at the
  /// current state's own (no cap when no live state is reachable from it).
  void start_generation() {
    ++generation_;
    cap_ = distance_within(state_, kNone).value_or(kNone);
  }

  /// Picks the edge stepping one closer to the live set, or nullopt when the
  /// walk must reset.
  std::optional<std::uint32_t> navigate() {
    const State& at = states_[state_];
    if (at.first_edge == at.end_edge) return std::nullopt;  // dead end
    auto k = distance_here();
    if (!k.has_value() || *k == 0) {
      // No generation yet, or a stale one: start a new one and retry.
      start_generation();
      k = distance_here();
      if (!k.has_value() || *k == 0) return std::nullopt;
    }
    // The first edge (in enumeration order) whose successor is at *k - 1;
    // one exists, since the current state is at *k.
    if (*k == 1) {
      if (const auto e = live_edge(state_)) return e;
    } else {
      const std::uint32_t end = states_[state_].end_edge;
      for (std::uint32_t e = states_[state_].first_edge; e < end; ++e) {
        if (distance_within(edges_[e].next, *k - 1).has_value()) return e;
      }
    }
    throw std::logic_error("symbolic_transition_tour: no descending edge");
  }

  /// Re-checks the shortest path last recorded from `from` (neither live nor
  /// exact now): if it still ends at the live set after `from`'s lower bound
  /// in steps, it is shortest again. Returns the distance, marking the path
  /// exact, or nullopt.
  std::optional<std::uint32_t> follow_witness(std::uint32_t from) {
    if (states_[from].lower == kNone) return std::nullopt;  // unreachable
    const std::uint64_t want = std::max<std::uint32_t>(states_[from].lower, 1);
    std::uint64_t hops = 0;  // edges followed
    std::uint64_t tail = 0;  // distance of the state the path ends at
    for (std::uint32_t y = from;;) {
      y = states_[y].via;
      if (y == kNone || ++hops > want) return std::nullopt;
      const State& s = states_[y];
      if (live(s)) break;
      if (s.exact_in == generation_) {
        tail = s.lower;
        break;
      }
    }
    if (hops + tail != want) return std::nullopt;
    std::uint32_t y = from;
    for (std::uint64_t i = 0; i < hops; ++i, y = states_[y].via) {
      states_[y].lower = static_cast<std::uint32_t>(want - i);
      states_[y].exact_in = generation_;
    }
    return static_cast<std::uint32_t>(want);
  }

  /// The exact distance from `from` to the live set when it is at most
  /// `bound` (kNone: unbounded), else nullopt. Level-by-level breadth-first
  /// search over memoized edges, pruned by the stored bounds and cut short
  /// by still-valid witness paths; it records the exact distances along the
  /// path it finds and the lower bounds it proves for every state it
  /// expanded.
  std::optional<std::uint32_t> distance_within(std::uint32_t from,
                                               std::uint32_t bound) {
    {
      const State& s = states_[from];
      if (live(s)) return 0;
      if (s.exact_in == generation_) {
        if (s.lower <= bound) return s.lower;
        return std::nullopt;
      }
      if (s.lower > bound || s.lower == kNone) return std::nullopt;
    }
    if (const auto d = follow_witness(from)) {
      if (*d <= bound) return d;
      return std::nullopt;
    }
    // Distances are compared as 64-bit sums so kNone never wraps.
    const std::uint64_t limit = bound;
    std::uint64_t best = std::uint64_t{kNone} + 1;  // shortest path seen
    std::uint32_t best_end = 0;   // where that path leaves the search tree
    std::uint32_t best_tail = 0;  // best_end's own distance
    if (++epoch_ == 0) {  // wrapped: forget every old mark
      for (State& s : states_) s.search_mark = 0;
      epoch_ = 1;
    }
    queue_.clear();
    level_ends_.clear();
    queue_.push_back(from);
    states_[from].search_mark = epoch_;
    std::size_t head = 0;
    for (std::uint64_t depth = 0;
         head < queue_.size() && depth + 1 < best && depth + 1 <= limit;
         ++depth) {
      const std::size_t level_end = queue_.size();
      level_ends_.push_back(level_end);
      if (depth + 2 > limit || depth + 2 >= best) {
        // Only a live child can still help.
        for (; head < level_end; ++head) {
          const std::uint32_t y = queue_[head];
          if (const auto e = live_edge(y)) {
            best = depth + 1;
            best_end = edges_[*e].next;
            best_tail = 0;
            states_[best_end].search_parent = y;
            break;
          }
        }
        continue;
      }
      for (; head < level_end && depth + 1 < best; ++head) {
        const std::uint32_t y = queue_[head];
        const std::uint32_t end = states_[y].end_edge;
        for (std::uint32_t e = states_[y].first_edge; e < end; ++e) {
          const std::uint32_t z = edges_[e].next;
          State& s = states_[z];
          if (s.search_mark == epoch_) continue;
          s.search_mark = epoch_;
          s.search_parent = y;
          if (live(s)) {  // nothing found later can be shorter
            best = depth + 1;
            best_end = z;
            best_tail = 0;
            break;
          }
          if (s.exact_in != generation_) (void)follow_witness(z);
          const std::uint64_t through = depth + 1 + s.lower;
          if (s.exact_in == generation_) {
            if (through < best) {
              best = through;
              best_end = z;
              best_tail = s.lower;
            }
          } else if (through < best && through <= limit) {
            queue_.push_back(z);
          }
        }
      }
    }
    level_ends_.push_back(queue_.size());

    const bool found = best <= limit;
    // d(from) >= reach, and every state reached at depth j < reach has
    // d(from) <= j + d(state); reach past kNone means "unreachable".
    const std::uint64_t reach = found ? best : limit + 1;
    std::size_t level = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      while (i >= level_ends_[level]) ++level;
      const auto lb =
          static_cast<std::uint32_t>(reach > kNone ? kNone : reach - level);
      State& s = states_[queue_[i]];
      s.lower = std::max(s.lower, lb);
    }
    if (!found) return std::nullopt;
    // The path back from best_end is a shortest one: exact along it, and
    // the witness the next generation re-checks first.
    std::uint32_t d = best_tail;
    for (std::uint32_t y = best_end; y != from;) {
      const std::uint32_t next = y;
      y = states_[y].search_parent;
      State& s = states_[y];
      s.lower = ++d;
      s.exact_in = generation_;
      s.via = next;
    }
    return d;
  }

  SymbolicFsm& fsm_;
  bdd::BddManager& mgr_;
  SymbolicTourOptions options_;
  const std::size_t num_latches_;
  PackedCircuitSim sim_;  ///< steps fsm_.circuit()
  std::vector<bool> assignment_;
  bdd::Bdd has_valid_input_;  ///< reachable states with a valid input
  std::vector<std::uint64_t> inputs_;  ///< enumerate_successors buffers
  std::vector<std::uint64_t> next_;

  std::unordered_map<std::uint64_t, std::uint32_t> ids_;
  std::vector<State> states_;
  std::vector<Edge> edges_;
  std::uint32_t initial_ = 0;
  std::uint32_t state_ = 0;

  std::uint32_t generation_ = 0;  ///< generations started so far
  std::uint32_t cap_ = kNone;     ///< distance cap of the current generation
  std::uint32_t epoch_ = 0;       ///< search counter for search_mark
  std::vector<std::uint32_t> queue_;
  std::vector<std::size_t> level_ends_;

  std::size_t covered_count_ = 0;
  std::size_t total_count_ = 0;
  double transitions_total_ = 0.0;
  double states_total_ = 0.0;
  std::size_t states_visited_ = 0;
  std::size_t transitions_taken_ = 0;
  std::size_t steps_ = 0;
  std::size_t restarts_ = 0;
  std::size_t navigate_steps_ = 0;
  bool complete_ = false;
  bool finished_ = false;
};

SymbolicTourStream::SymbolicTourStream(SymbolicFsm& fsm,
                                       const SymbolicTourOptions& options)
    : impl_(std::make_unique<Impl>(fsm, options)) {}

SymbolicTourStream::~SymbolicTourStream() = default;
SymbolicTourStream::SymbolicTourStream(SymbolicTourStream&&) noexcept = default;
SymbolicTourStream& SymbolicTourStream::operator=(SymbolicTourStream&&) noexcept =
    default;

std::optional<model::Sequence> SymbolicTourStream::next_sequence() {
  return impl_->next_sequence();
}

bool SymbolicTourStream::finished() const { return impl_->finished(); }

SymbolicTourResult SymbolicTourStream::summary() const {
  return impl_->summary();
}

SymbolicTourResult symbolic_transition_tour(
    SymbolicFsm& fsm, const SymbolicTourOptions& options) {
  SymbolicTourStream stream(fsm, options);
  std::vector<model::Sequence> sequences;
  while (auto seq = stream.next_sequence()) {
    if (options.record_inputs) sequences.push_back(std::move(*seq));
  }
  SymbolicTourResult result = stream.summary();
  result.sequences = std::move(sequences);
  return result;
}

}  // namespace simcov::sym
