#include "sym/symbolic_tour.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace simcov::sym {

InputClasses::InputClasses(SymbolicFsm& fsm) : fsm_(fsm) {
  const std::vector<unsigned> support =
      fsm_.manager().support(fsm_.valid_inputs());
  for (std::size_t j = 0; j < fsm_.num_latches(); ++j) {
    if (std::binary_search(support.begin(), support.end(), fsm_.ps_var(j))) {
      mask_ |= std::uint64_t{1} << j;
      mask_vars_.push_back(fsm_.ps_var(j));
    }
  }
}

std::uint32_t InputClasses::class_of(std::uint64_t state) {
  const std::uint64_t key = state & mask_;
  if (const auto it = ids_.find(key); it != ids_.end()) return it->second;
  bdd::BddManager& mgr = fsm_.manager();
  std::vector<bool> bits;
  for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
    bits.push_back(((key >> std::countr_zero(m)) & 1u) != 0);
  }
  const bdd::Bdd at_class =
      mgr.constrain(fsm_.valid_inputs(), mgr.minterm(mask_vars_, bits));
  std::vector<std::uint64_t> list;
  mgr.for_each_minterm(at_class, fsm_.pi_vars(),
                       [&](const std::vector<bool>& in) {
                         std::uint64_t input = 0;
                         for (std::size_t k = 0; k < in.size(); ++k) {
                           input |= std::uint64_t{in[k]} << k;
                         }
                         list.push_back(input);
                         return true;
                       });
  const auto cls = static_cast<std::uint32_t>(lists_.size());
  lists_.push_back(std::move(list));
  keys_.push_back(key);
  ids_.emplace(key, cls);
  return cls;
}

void step_successors(const PackedCircuitSim& sim, std::uint64_t state,
                     std::span<const std::uint64_t> inputs,
                     std::vector<std::uint64_t>& next) {
  constexpr std::size_t kLanes = PackedCircuitSim::kLanes;
  std::array<std::uint64_t, kLanes> states;
  states.fill(state);
  next.resize(inputs.size());
  for (std::size_t base = 0; base < inputs.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, inputs.size() - base);
    const std::uint64_t valid =
        sim.step(std::span(states.data(), lanes), inputs.subspan(base, lanes),
                 std::span(next).subspan(base, lanes));
    if (static_cast<std::size_t>(std::popcount(valid)) != lanes) {
      throw std::logic_error(
          "step_successors: the circuit rejects an input its BDD lists as "
          "valid");
    }
  }
}

/// Drives the tour: concrete walking over the implicit model, suspended at
/// every reset so SymbolicTourStream can yield sequence-by-sequence.
///
/// States live in a dense table, one uint32 id per packed latch key. Each
/// state holds its constraint class (InputClasses), whose list gives its
/// valid inputs; a state has a valid input iff that list is non-empty, which
/// is exact because every interned state is reachable. Per visited state,
/// the successor ids of those inputs (stepped on the word-level kernel, 64
/// inputs per pass) are enumerated once into one shared edge array, edge k
/// of a state taking input k of its class's list; covering steps then cost
/// O(1). A per-state cursor is exact coverage bookkeeping: transition (s, i)
/// can only be covered by taking i at s, so inputs before the cursor are
/// covered, inputs after are not.
/// A "taken" bit per edge and a "visited" bit per state count what the walk
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
///
/// The same monotony keeps a ladder of per-state edge pointers valid for
/// good: down[j] skips only edges into states at distance more than j, so
/// down_edge(id, j) is the first edge into a state at distance j or less —
/// one whose successor is live or, for j > 0, has a down_edge one rung
/// lower. No pointer ever moves back, so each answer costs amortized O(1).
/// The ladder answers distances 1 to kLadder outright, and so the
/// navigation steps from them. A search runs only past it: every state of
/// a level is checked for an edge one rung below the top before any of it
/// is expanded, so every state the search reaches is at distance kLadder
/// or more, a hit is exact, and the search ends kLadder levels short of the
/// live set. Only navigation from farther away probes edge by edge.
///
/// Memory is sized once, from the BDD counts. Every interned state is
/// reachable and every edge a reachable transition, so when a complete tour
/// fits the step cap, the state table and id map are reserved for the
/// reachable states, the edge array and its taken bits for the reachable
/// transitions, and none of them reallocates. A capped walk may stop long
/// before that and grows them as it goes. A recorded sequence reserves the
/// uncovered transitions (at most the steps left), and gives the slack back
/// when it ends more than half empty.
struct SymbolicTourStream::Impl {
 public:
  Impl(SymbolicFsm& fsm, const SymbolicTourOptions& options)
      : options_(options), sim_(packable(fsm).circuit()), classes_(fsm) {
    const bdd::Bdd reached = fsm.reachable_states();
    transitions_total_ = fsm.count_transitions(reached);
    total_count_ = static_cast<std::size_t>(transitions_total_);
    states_total_ = fsm.count_states(reached);
    if (transitions_total_ <= static_cast<double>(options_.max_steps)) {
      // A complete tour fits the cap, so the tables are sized once.
      const auto states = static_cast<std::size_t>(states_total_);
      states_.reserve(states);
      ids_.reserve(states);
      edges_.reserve(total_count_);
      taken_.reserve(total_count_);
    }

    initial_ = intern(model::TestModel::pack_bits(fsm.initial_state_bits()));
    state_ = initial_;
    visit(state_);
  }

  /// Resumes the walk until the next reset or until it ends. See the
  /// header for the yielded-sequence contract.
  std::optional<model::Sequence> next_sequence() {
    if (finished_) return std::nullopt;
    model::Sequence seq;
    if (options_.record_inputs) {
      seq.reserve(std::min(total_count_ - covered_count_,
                           options_.max_steps - steps_));
    }
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
        return trimmed(std::move(seq));
      }
      if (options_.record_inputs) {
        const State& from = states_[state_];
        seq.push_back(classes_.inputs(from.cls)[edge - from.first_edge]);
      }
      if (!taken_[edge]) {
        taken_[edge] = true;
        ++transitions_taken_;
      }
      state_ = edges_[edge].next;
      visit(state_);
      ++steps_;
    }
    finished_ = true;
    return trimmed(std::move(seq));
  }

  [[nodiscard]] bool finished() const { return finished_; }

  /// Recounts the state table and checks every stored distance against a
  /// reference breadth-first search backwards from the live set.
  void check_invariants() const {
    const auto fail = [](const char* what) {
      throw std::logic_error(std::string("SymbolicTourStream: ") + what);
    };
    // Every interned state is reachable and every edge a reachable
    // transition; the tables are sized on that.
    if (static_cast<double>(states_.size()) > states_total_) {
      fail("more states than the reachable total");
    }
    if (static_cast<double>(edges_.size()) > transitions_total_) {
      fail("more edges than the reachable transitions");
    }
    if (ids_.size() != states_.size()) fail("id table size");
    for (const auto& [key, id] : ids_) {
      if (id >= states_.size() || states_[id].key != key) {
        fail("a state id does not round-trip through its key");
      }
    }
    if (taken_.size() != edges_.size()) fail("not one taken bit per edge");
    std::size_t taken = 0;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      if (edges_[e].next >= states_.size()) fail("edge successor out of range");
      taken += taken_[e] ? 1 : 0;
    }
    std::unordered_map<std::uint64_t, std::uint32_t> class_ids;
    for (std::uint32_t c = 0; c < classes_.size(); ++c) {
      if (!class_ids.emplace(classes_.key(c), c).second) {
        fail("two classes share a masked key");
      }
    }
    std::size_t visited = 0;
    std::size_t listed = 0;
    std::size_t covered = 0;
    for (const State& s : states_) {
      visited += s.visited ? 1 : 0;
      if (s.cls >= classes_.size() ||
          classes_.key(s.cls) != (s.key & classes_.mask())) {
        fail("a state's class is not its masked key");
      }
      const std::size_t listed_here = classes_.inputs(s.cls).size();
      if (s.has_valid_input != (listed_here != 0) ||
          (s.enumerated && s.end_edge - s.first_edge != listed_here)) {
        fail("a state's edges differ from its class's list");
      }
      const auto within = [&](std::uint32_t e) {
        return s.first_edge <= e && e <= s.end_edge;
      };
      if (s.end_edge > edges_.size() || !within(s.cursor) ||
          !std::all_of(s.down.begin(), s.down.end(), within) ||
          (!s.enumerated && s.first_edge != s.end_edge)) {
        fail("edge cursors out of their state's range");
      }
      const bool ran_out = s.first_edge != s.end_edge && s.cursor == s.end_edge;
      if (ran_out != (s.exhausted_in != kNone) ||
          (ran_out && s.exhausted_in > generation_)) {
        fail("exhaustion generation disagrees with the cursor");
      }
      listed += s.end_edge - s.first_edge;
      covered += s.cursor - s.first_edge;
    }
    if (listed != edges_.size()) fail("edge ranges do not cover the edges");
    if (covered != covered_count_) fail("cursor total differs from count");
    const SymbolicTourResult sum = summary();
    if (static_cast<double>(visited) != sum.stats.states_visited ||
        static_cast<double>(taken) != sum.stats.transitions_covered) {
      fail("visited or taken bits differ from the summary");
    }

    // Reference distances to the current generation's live set (kNone:
    // unreachable), over the memoized edges reversed.
    const std::size_t n = states_.size();
    std::vector<std::uint32_t> pred_end(n + 1, 0);
    for (const Edge& e : edges_) ++pred_end[e.next + 1];
    for (std::size_t i = 0; i < n; ++i) pred_end[i + 1] += pred_end[i];
    std::vector<std::uint32_t> preds(edges_.size());
    std::vector<std::uint32_t> fill(pred_end.begin(), pred_end.end() - 1);
    for (std::uint32_t y = 0; y < n; ++y) {
      const State& s = states_[y];
      for (std::uint32_t e = s.first_edge; e < s.end_edge; ++e) {
        preds[fill[edges_[e].next]++] = y;
      }
    }
    std::vector<std::uint32_t> dist(n, kNone);
    std::vector<std::uint32_t> order;
    for (std::uint32_t y = 0; y < n; ++y) {
      if (live(states_[y])) {
        dist[y] = 0;
        order.push_back(y);
      }
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t z = order[i];
      for (std::uint32_t p = pred_end[z]; p < pred_end[z + 1]; ++p) {
        if (dist[preds[p]] == kNone) {
          dist[preds[p]] = dist[z] + 1;
          order.push_back(preds[p]);
        }
      }
    }
    for (std::uint32_t y = 0; y < n; ++y) {
      const State& s = states_[y];
      for (std::uint32_t j = 0; j < kLadder; ++j) {
        for (std::uint32_t e = s.first_edge; e < s.down[j]; ++e) {
          if (dist[edges_[e].next] <= j) {
            fail("a ladder pointer skips a state within its rung");
          }
        }
      }
      if (s.lower > dist[y]) fail("a lower bound exceeds the distance");
      if (s.exact_in == generation_ && s.lower != dist[y]) {
        fail("an exact distance is wrong");
      }
    }
  }

  [[nodiscard]] SymbolicTourResult summary() const {
    SymbolicTourResult result;
    result.steps = steps_;
    result.restarts = restarts_;
    result.navigate_steps = navigate_steps_;
    result.layer_recomputes = generation_;
    result.input_listings = classes_.size();
    result.distance_within_calls = distance_within_calls_;
    result.search_edges = search_edges_;
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
  /// Rungs of the ladder: distances down_edge answers without a search.
  static constexpr std::uint32_t kLadder = 3;

  /// Edge k of a state takes input k of its class's list.
  struct Edge {
    std::uint32_t next;  ///< successor state id
  };
  struct State {
    std::uint64_t key;
    std::uint32_t cls = 0;  ///< its constraint class (InputClasses)
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
    /// Rung j: edges before down[j] lead to states at distance more than j.
    std::array<std::uint32_t, kLadder> down{};
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

  /// `seq` without the slack of a reservation it did not fill: a yielded
  /// sequence holds at most twice its length.
  static model::Sequence trimmed(model::Sequence seq) {
    if (seq.capacity() > 2 * seq.size()) seq.shrink_to_fit();
    return seq;
  }

  // ---- state table ---------------------------------------------------------
  /// The id of a packed state, added on first sight with its class.
  std::uint32_t intern(std::uint64_t key) {
    const auto [it, added] =
        ids_.try_emplace(key, static_cast<std::uint32_t>(states_.size()));
    if (added) {
      if (states_.size() == kNone) {
        throw std::length_error("symbolic_transition_tour: too many states");
      }
      State s;
      s.key = key;
      s.cls = classes_.class_of(key);
      s.has_valid_input = !classes_.inputs(s.cls).empty();
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
    step_successors(sim_, states_[id].key, classes_.inputs(states_[id].cls),
                    next_);
    if (edges_.size() + next_.size() >= kNone) {
      throw std::length_error("symbolic_transition_tour: too many edges");
    }
    const auto first = static_cast<std::uint32_t>(edges_.size());
    for (const std::uint64_t key : next_) edges_.push_back(Edge{intern(key)});
    taken_.resize(edges_.size());
    State& s = states_[id];
    s.first_edge = first;
    s.cursor = first;
    s.down.fill(first);
    s.end_edge = static_cast<std::uint32_t>(edges_.size());
    s.enumerated = true;
  }

  // ---- navigation ----------------------------------------------------------
  /// Member of the current generation's live set (distance 0).
  [[nodiscard]] bool live(const State& s) const {
    return s.has_valid_input &&
           (s.exhausted_in == kNone || s.exhausted_in >= generation_);
  }

  /// The first edge of a state whose successor is at distance j or less
  /// (j < kLadder). Successors it skips are farther for good (distances
  /// never fall), so the position only moves forward.
  std::optional<std::uint32_t> down_edge(std::uint32_t id, std::uint32_t j) {
    State& s = states_[id];
    for (std::uint32_t& e = s.down[j]; e < s.end_edge; ++e) {
      const std::uint32_t z = edges_[e].next;
      if (live(states_[z]) || (j > 0 && down_edge(z, j - 1))) return e;
    }
    return std::nullopt;
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
    if (*k <= kLadder) {
      if (const auto e = down_edge(state_, *k - 1)) return e;
    } else {
      const std::uint32_t end = states_[state_].end_edge;
      for (std::uint32_t e = states_[state_].first_edge; e < end; ++e) {
        if (distance_within(edges_[e].next, *k - 1).has_value()) return e;
      }
    }
    throw std::logic_error("symbolic_transition_tour: no descending edge");
  }

  /// The exact distance from `from` to the live set when it is at most
  /// `bound` (kNone: unbounded), else nullopt. Distances up to kLadder come
  /// from the ladder; past it, a level-by-level breadth-first search over
  /// memoized edges, pruned by the stored bounds, that ends on the first
  /// level with a state at distance kLadder. It records the exact distances
  /// along the path it finds and the lower bounds it proves for every state
  /// it reached.
  std::optional<std::uint32_t> distance_within(std::uint32_t from,
                                               std::uint32_t bound) {
    ++distance_within_calls_;
    State& f = states_[from];
    if (live(f)) return 0;
    if (f.exact_in == generation_) {
      if (f.lower <= bound) return f.lower;
      return std::nullopt;
    }
    if (f.lower > bound || f.lower == kNone) return std::nullopt;
    const std::uint32_t rungs = std::min(bound, kLadder);
    for (std::uint32_t d = std::max<std::uint32_t>(f.lower, 1); d <= rungs;
         ++d) {
      if (down_edge(from, d - 1)) {
        f.lower = d;
        f.exact_in = generation_;
        return d;
      }
    }
    f.lower = std::max(f.lower, rungs + 1);
    if (bound <= kLadder) return std::nullopt;

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
    f.search_mark = epoch_;
    std::size_t head = 0;
    for (std::uint64_t depth = 0; head < queue_.size() &&
                                  depth + kLadder < best &&
                                  depth + kLadder <= limit;
         ++depth) {
      const std::size_t level_end = queue_.size();
      level_ends_.push_back(level_end);
      // Every state on the level is at distance kLadder or more, as no
      // state on the level before had an edge to one closer. One with an
      // edge to a state at kLadder - 1 is therefore at exactly kLadder and
      // ends the search at depth + kLadder: nothing found later can be
      // shorter, so look for one before expanding any of the level.
      for (std::size_t i = head; i < level_end; ++i) {
        if (down_edge(queue_[i], kLadder - 1)) {
          best = depth + kLadder;
          best_end = queue_[i];
          best_tail = kLadder;
          break;
        }
      }
      // Past here only such a state could still help, and there is none.
      if (depth + 1 + kLadder > limit || depth + 1 + kLadder >= best) break;
      for (; head < level_end; ++head) {
        const std::uint32_t y = queue_[head];
        const std::uint32_t end = states_[y].end_edge;
        search_edges_ += end - states_[y].first_edge;
        for (std::uint32_t e = states_[y].first_edge; e < end; ++e) {
          const std::uint32_t z = edges_[e].next;  // at kLadder or more
          State& s = states_[z];
          if (s.search_mark == epoch_) continue;
          s.search_mark = epoch_;
          s.search_parent = y;
          const std::uint64_t through =
              depth + 1 + std::max(s.lower, kLadder);
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
    // The path back from best_end is a shortest one: exact along it.
    std::uint32_t d = best_tail;
    states_[best_end].lower = d;
    states_[best_end].exact_in = generation_;
    for (std::uint32_t y = best_end; y != from;) {
      y = states_[y].search_parent;
      states_[y].lower = ++d;
      states_[y].exact_in = generation_;
    }
    return d;
  }

  SymbolicTourOptions options_;
  PackedCircuitSim sim_;  ///< steps the fsm's circuit
  InputClasses classes_;
  std::vector<std::uint64_t> next_;  ///< step_successors buffer

  std::unordered_map<std::uint64_t, std::uint32_t> ids_;
  std::vector<State> states_;
  std::vector<Edge> edges_;
  std::vector<bool> taken_;  ///< per edge: exercised by the walk
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
  std::size_t distance_within_calls_ = 0;
  std::size_t search_edges_ = 0;
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

void SymbolicTourStream::check_invariants() const {
  impl_->check_invariants();
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
