// Tests for transition-tour / state-tour / random-walk generation. Coverage
// is counted by model::TestModel::evaluate, the one evaluator of a replayed
// test set.
#include "tour/tour.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <random>
#include <set>
#include <unordered_map>

#include "model/explicit_model.hpp"
#include "runtime/rng.hpp"

namespace simcov::tour {
namespace {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;

/// Coverage of `set` on `m`, replayed from the set's start state.
model::CoverageStats coverage_of(const MealyMachine& m, const TourSet& set) {
  return model::ExplicitModel(m, set.start).to_result(set).coverage;
}

/// Three-state ring; input 0 advances, input 1 self-loops.
MealyMachine ring_machine() {
  MealyMachine m(3, 2);
  for (StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  return m;
}

TEST(MinimumTour, CoversEveryTransitionOnRing) {
  const MealyMachine m = ring_machine();
  const auto t = minimum_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(coverage_of(m, {0, {t->inputs}}).complete());
  // Ring + self-loops: 6 transitions; the optimal tour needs no duplicates
  // (the graph is Eulerian: every node has in = out = 2).
  EXPECT_EQ(t->length(), 6u);
}

TEST(MinimumTour, ClosedWalkReturnsToStart) {
  const MealyMachine m = ring_machine();
  const auto t = minimum_transition_tour(m, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(m.run_to_state(t->inputs, 1), 1u);
}

TEST(MinimumTour, FailsWhenNotStronglyConnected) {
  MealyMachine m(2, 1);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 1, 0);  // sink
  EXPECT_FALSE(minimum_transition_tour(m, 0).has_value());
}

TEST(MinimumTour, IgnoresUnreachablePart) {
  MealyMachine m(4, 1);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 0, 0);
  m.set_transition(2, 0, 3, 0);  // unreachable island
  m.set_transition(3, 0, 2, 0);
  const auto t = minimum_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->length(), 2u);
  EXPECT_TRUE(coverage_of(m, {0, {t->inputs}}).complete());
}

TEST(GreedyTour, CoversRing) {
  const MealyMachine m = ring_machine();
  const auto t = greedy_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(coverage_of(m, {0, {t->inputs}}).complete());
}

TEST(GreedyTour, HandlesNonStronglyConnectedWhenOrderAllows) {
  // 0 -> 1 -> 2(sink with self-loop): coverable by one pass.
  MealyMachine m(3, 1);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 2, 0);
  m.set_transition(2, 0, 2, 0);
  const auto t = greedy_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(coverage_of(m, {0, {t->inputs}}).complete());
  // CPP-based generator must refuse here.
  EXPECT_FALSE(minimum_transition_tour(m, 0).has_value());
}

TEST(GreedyTour, FailsWhenCoverageImpossible) {
  // Two branches from 0; taking one loses the other forever.
  MealyMachine m(3, 2);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(0, 1, 2, 0);
  m.set_transition(1, 0, 1, 0);
  m.set_transition(1, 1, 1, 0);
  m.set_transition(2, 0, 2, 0);
  m.set_transition(2, 1, 2, 0);
  EXPECT_FALSE(greedy_transition_tour(m, 0).has_value());
}

TEST(StateTour, VisitsAllStatesButNotAllTransitions) {
  const MealyMachine m = ring_machine();
  const auto t = state_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  const auto stats = coverage_of(m, {0, {t->inputs}});
  EXPECT_EQ(stats.states_visited, 3u);
  EXPECT_DOUBLE_EQ(stats.state_coverage(), 1.0);
  // The ring state tour takes 2 advancing steps and skips all self-loops.
  EXPECT_LT(stats.transitions_covered, stats.transitions_total);
}

TEST(StateTour, SingleStateMachine) {
  MealyMachine m(1, 1);
  m.set_transition(0, 0, 0, 0);
  const auto t = state_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->length(), 0u);
}

TEST(RandomWalk, ProducesRequestedLength) {
  const MealyMachine m = ring_machine();
  const Tour t = random_walk(m, 0, 50, 1234);
  EXPECT_EQ(t.length(), 50u);
  // Must be executable.
  EXPECT_NO_THROW((void)m.run(t.inputs, 0));
}

TEST(RandomWalk, DeterministicInSeed) {
  const MealyMachine m = ring_machine();
  EXPECT_EQ(random_walk(m, 0, 30, 9).inputs, random_walk(m, 0, 30, 9).inputs);
}

TEST(RandomWalk, DeadEndThrows) {
  MealyMachine m(2, 1);
  m.set_transition(0, 0, 1, 0);  // state 1 has no outgoing transition
  EXPECT_THROW((void)random_walk(m, 0, 5, 0), std::domain_error);
}

// ---------------------------------------------------------------------------
// Tour sets (reset-separated sequences)
// ---------------------------------------------------------------------------

TEST(TourSet, SingleSequenceOnStronglyConnectedMachine) {
  const MealyMachine m = ring_machine();
  const auto set = greedy_transition_tour_set(m, 0);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->sequences.size(), 1u);
  const auto stats = coverage_of(m, *set);
  EXPECT_TRUE(stats.complete());
  EXPECT_DOUBLE_EQ(stats.transition_coverage(), 1.0);
}

TEST(TourSet, TransientStartNeedsMultipleSequences) {
  // 0 is transient: 0 -> {1, 2}; 1 and 2 are separate sink SCCs, so the
  // tour must restart at 0 to cover both branches.
  MealyMachine m(3, 2);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(0, 1, 2, 0);
  m.set_transition(1, 0, 1, 1);
  m.set_transition(1, 1, 1, 2);
  m.set_transition(2, 0, 2, 3);
  m.set_transition(2, 1, 2, 4);
  // Single-walk greedy fails...
  EXPECT_FALSE(greedy_transition_tour(m, 0).has_value());
  // ...but the reset-separated set covers everything.
  const auto set = greedy_transition_tour_set(m, 0);
  ASSERT_TRUE(set.has_value());
  EXPECT_GE(set->sequences.size(), 2u);
  EXPECT_TRUE(coverage_of(m, *set).complete());
}

TEST(TourSet, TotalLengthSumsSequences) {
  TourSet set;
  set.sequences = {{0, 1}, {1}, {}};
  EXPECT_EQ(set.total_length(), 3u);
}

// ---------------------------------------------------------------------------
// Properties on random strongly-connected machines
// ---------------------------------------------------------------------------

class TourProperty : public ::testing::TestWithParam<int> {};

TEST_P(TourProperty, MinimumAndGreedyToursBothCover) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  // random_connected_machine guarantees reachability from 0 but not strong
  // connectivity; make it strongly connected by adding a reset input that
  // returns every state to 0.
  fsm::MealyMachine m = fsm::random_connected_machine(10, 3, 4, seed);
  const fsm::InputId reset = 2;
  for (StateId s = 0; s < m.num_states(); ++s) {
    m.set_transition(s, reset, 0, 99);
  }
  const auto opt = minimum_transition_tour(m, 0);
  const auto greedy = greedy_transition_tour(m, 0);
  ASSERT_TRUE(opt.has_value());
  ASSERT_TRUE(greedy.has_value());
  EXPECT_TRUE(coverage_of(m, {0, {opt->inputs}}).complete());
  EXPECT_TRUE(coverage_of(m, {0, {greedy->inputs}}).complete());
  // Optimality sanity: CPP tour is never longer than the greedy tour and
  // never shorter than the number of transitions.
  EXPECT_GE(opt->length(), m.reachable_transitions(0).size());
  EXPECT_LE(opt->length(), greedy->length() + m.num_states());
}

TEST_P(TourProperty, StateTourDominatedByTransitionTour) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) + 100;
  fsm::MealyMachine m = fsm::random_connected_machine(12, 3, 4, seed);
  for (StateId s = 0; s < m.num_states(); ++s) {
    m.set_transition(s, 2, 0, 99);
  }
  const auto st = state_tour(m, 0);
  const auto tt = minimum_transition_tour(m, 0);
  ASSERT_TRUE(st.has_value());
  ASSERT_TRUE(tt.has_value());
  const auto s_stats = coverage_of(m, {0, {st->inputs}});
  const auto t_stats = coverage_of(m, {0, {tt->inputs}});
  EXPECT_DOUBLE_EQ(s_stats.state_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(t_stats.state_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(t_stats.transition_coverage(), 1.0);
  EXPECT_LE(s_stats.transition_coverage(), 1.0);
  EXPECT_LE(st->length(), tt->length());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TourProperty, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Pinned sequences: any change to the greedy walk's choices changes the hash
// ---------------------------------------------------------------------------

/// splitmix64 over one sequence's length, then each of its inputs.
std::uint64_t hash_sequence(std::uint64_t h, const std::vector<InputId>& seq) {
  h = runtime::splitmix64(h ^ seq.size());
  for (InputId i : seq) h = runtime::splitmix64(h ^ i);
  return h;
}

TEST(TourPin, GreedyTourOnLargeRandomMachine) {
  // Input 3 resets every state to 0, so the machine is strongly connected
  // and the greedy walk often has to navigate back across it.
  MealyMachine m = fsm::random_connected_machine(1024, 4, 4, 4);
  for (StateId s = 0; s < m.num_states(); ++s) m.set_transition(s, 3, 0, 99);
  const auto t = greedy_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->length(), 11088u);
  EXPECT_EQ(hash_sequence(0, t->inputs), 12514281586872041985ull);
}

TEST(TourPin, SearchEdgesRepeatExactly) {
  // A work count, not a time: two runs on the same machine scan the same
  // edges, and the generator and the set it builds agree.
  MealyMachine m = fsm::random_connected_machine(1024, 4, 4, 4);
  for (StateId s = 0; s < m.num_states(); ++s) m.set_transition(s, 3, 0, 99);
  const auto first = greedy_transition_tour_set(m, 0);
  const auto second = greedy_transition_tour_set(m, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->search_edges, 449068u);
  EXPECT_EQ(second->search_edges, first->search_edges);
  TransitionTourSetGenerator gen(m, 0);
  while (gen.next()) {
  }
  EXPECT_EQ(gen.search_edges(), first->search_edges);
}

// ---------------------------------------------------------------------------
// Differential test against the original greedy engine
// ---------------------------------------------------------------------------

/// The greedy generators as first written: uncovered transitions in a
/// std::set, and a fresh breadth-first search per step. The dense walk
/// table must reproduce their sequences exactly.
namespace reference {

std::optional<std::vector<InputId>> bfs_to(
    const MealyMachine& m, StateId from,
    const std::function<bool(StateId)>& is_goal) {
  if (is_goal(from)) return std::vector<InputId>{};
  std::vector<bool> seen(m.num_states(), false);
  struct Link {
    StateId prev;
    InputId via;
  };
  std::unordered_map<StateId, Link> parent;
  std::deque<StateId> queue{from};
  seen[from] = true;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i);
      if (!t.has_value() || seen[t->next]) continue;
      seen[t->next] = true;
      parent[t->next] = Link{s, i};
      if (is_goal(t->next)) {
        std::vector<InputId> path;
        for (StateId at = t->next; at != from; at = parent[at].prev) {
          path.push_back(parent[at].via);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(t->next);
    }
  }
  return std::nullopt;
}

std::optional<Tour> greedy_transition_tour(const MealyMachine& m,
                                           StateId start) {
  const auto targets = m.reachable_transitions(start);
  std::set<fsm::TransitionRef> uncovered(targets.begin(), targets.end());
  Tour tour;
  tour.start = start;
  StateId at = start;
  while (!uncovered.empty()) {
    auto has_uncovered_out = [&](StateId s) {
      auto it = uncovered.lower_bound(fsm::TransitionRef{s, 0});
      return it != uncovered.end() && it->state == s;
    };
    const auto path = bfs_to(m, at, has_uncovered_out);
    if (!path.has_value()) return std::nullopt;
    for (InputId i : *path) {
      uncovered.erase(fsm::TransitionRef{at, i});
      tour.inputs.push_back(i);
      at = m.transition(at, i)->next;
    }
    const auto it = uncovered.lower_bound(fsm::TransitionRef{at, 0});
    const InputId i = it->input;
    uncovered.erase(it);
    tour.inputs.push_back(i);
    at = m.transition(at, i)->next;
  }
  return tour;
}

class TourSetGenerator {
 public:
  TourSetGenerator(const MealyMachine& m, StateId start)
      : machine_(m), start_(start) {
    const auto targets = m.reachable_transitions(start);
    uncovered_ = std::set<fsm::TransitionRef>(targets.begin(), targets.end());
  }

  std::optional<std::vector<InputId>> next() {
    if (uncovered_.empty() || stuck_) return std::nullopt;
    auto has_uncovered_out = [&](StateId s) {
      auto it = uncovered_.lower_bound(fsm::TransitionRef{s, 0});
      return it != uncovered_.end() && it->state == s;
    };
    std::vector<InputId> seq;
    StateId at = start_;
    bool progressed = false;
    for (;;) {
      const auto path = bfs_to(machine_, at, has_uncovered_out);
      if (!path.has_value()) break;
      for (InputId i : *path) {
        uncovered_.erase(fsm::TransitionRef{at, i});
        seq.push_back(i);
        at = machine_.transition(at, i)->next;
      }
      const auto it = uncovered_.lower_bound(fsm::TransitionRef{at, 0});
      const InputId i = it->input;
      uncovered_.erase(it);
      seq.push_back(i);
      at = machine_.transition(at, i)->next;
      progressed = true;
    }
    if (!progressed) {
      stuck_ = true;
      return std::nullopt;
    }
    return seq;
  }

  [[nodiscard]] bool done() const { return uncovered_.empty(); }
  [[nodiscard]] bool stuck() const { return stuck_; }
  [[nodiscard]] std::size_t remaining() const { return uncovered_.size(); }

 private:
  const MealyMachine& machine_;
  StateId start_;
  std::set<fsm::TransitionRef> uncovered_;
  bool stuck_ = false;
};

std::optional<TourSet> greedy_transition_tour_set(const MealyMachine& m,
                                                  StateId start) {
  TourSetGenerator gen(m, start);
  TourSet set;
  set.start = start;
  while (auto seq = gen.next()) set.sequences.push_back(std::move(*seq));
  if (gen.stuck()) return std::nullopt;
  return set;
}

std::optional<Tour> state_tour(const MealyMachine& m, StateId start) {
  const auto reachable = m.reachable_states(start);
  std::vector<bool> visited(m.num_states(), false);
  std::size_t remaining = 0;
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (reachable[s]) ++remaining;
  }
  Tour tour;
  tour.start = start;
  StateId at = start;
  visited[at] = true;
  --remaining;
  while (remaining > 0) {
    const auto path = bfs_to(
        m, at, [&](StateId s) { return reachable[s] && !visited[s]; });
    if (!path.has_value()) return std::nullopt;
    for (InputId i : *path) {
      tour.inputs.push_back(i);
      at = m.transition(at, i)->next;
      if (!visited[at]) {
        visited[at] = true;
        --remaining;
      }
    }
  }
  return tour;
}

}  // namespace reference

/// A random partial machine drawn from a splitmix64 stream: about a quarter
/// of its transitions cleared, some dead-end and self-loop sink states, and
/// an island of states the start never reaches. Single greedy walks get
/// stuck on many of these, and tour sets need resets.
struct PartialMachine {
  MealyMachine machine;
  StateId start = 0;
};

PartialMachine random_partial_machine(std::uint64_t seed) {
  std::uint64_t x = seed;
  const auto draw = [&x](std::uint64_t bound) {
    x = runtime::splitmix64(x);
    return static_cast<std::uint32_t>(x % bound);
  };
  const StateId n = 2 + draw(40);
  const InputId k = 1 + draw(5);
  // States [island, n) are never entered from below `island`.
  const StateId island = n - draw(n / 3 + 1);
  PartialMachine pm{MealyMachine(n, k), 0};
  for (StateId s = 0; s < n; ++s) {
    const auto kind = draw(10);  // 0: dead end, 1: self-loop sink
    if (kind == 0) continue;
    for (InputId i = 0; i < k; ++i) {
      if (draw(4) == 0) continue;
      const StateId next = kind == 1 ? s : s < island ? draw(island) : draw(n);
      pm.machine.set_transition(s, i, next, draw(3));
    }
  }
  if (seed % 4 == 3) pm.start = draw(n);
  return pm;
}

constexpr std::uint64_t kDifferentialMachines = 60;

TEST(TourDifferential, GreedyTourMatchesReference) {
  std::size_t stuck = 0;
  for (std::uint64_t seed = 0; seed < kDifferentialMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_partial_machine(seed);
    const auto want = reference::greedy_transition_tour(pm.machine, pm.start);
    const auto got = greedy_transition_tour(pm.machine, pm.start);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want.has_value()) {
      ++stuck;
      continue;
    }
    EXPECT_EQ(got->start, want->start);
    EXPECT_EQ(got->inputs, want->inputs);
  }
  // Both outcomes occur.
  EXPECT_GT(stuck, 0u);
  EXPECT_LT(stuck, kDifferentialMachines);
}

TEST(TourDifferential, GeneratorMatchesReferenceStepByStep) {
  std::size_t multi_sequence = 0;
  for (std::uint64_t seed = 0; seed < kDifferentialMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_partial_machine(seed);
    reference::TourSetGenerator want(pm.machine, pm.start);
    TransitionTourSetGenerator got(pm.machine, pm.start);
    EXPECT_EQ(got.remaining(), want.remaining());
    std::size_t sequences = 0;
    for (;;) {
      const auto w = want.next();
      const auto g = got.next();
      ASSERT_NO_THROW(got.check_invariants());
      ASSERT_EQ(g, w);
      EXPECT_EQ(got.remaining(), want.remaining());
      EXPECT_EQ(got.done(), want.done());
      EXPECT_EQ(got.stuck(), want.stuck());
      if (!w.has_value()) break;
      ++sequences;
    }
    EXPECT_EQ(got.next(), std::nullopt);  // stays exhausted
    if (sequences > 1) ++multi_sequence;
  }
  EXPECT_GT(multi_sequence, 0u);
}

TEST(TourDifferential, TourSetMatchesReference) {
  for (std::uint64_t seed = 0; seed < kDifferentialMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_partial_machine(seed);
    const auto want =
        reference::greedy_transition_tour_set(pm.machine, pm.start);
    const auto got = greedy_transition_tour_set(pm.machine, pm.start);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want.has_value()) continue;
    EXPECT_EQ(got->start, want->start);
    EXPECT_EQ(got->sequences, want->sequences);
  }
}

TEST(TourDifferential, StateTourMatchesReference) {
  std::size_t stuck = 0;
  for (std::uint64_t seed = 0; seed < kDifferentialMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_partial_machine(seed);
    const auto want = reference::state_tour(pm.machine, pm.start);
    const auto got = state_tour(pm.machine, pm.start);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want.has_value()) {
      ++stuck;
      continue;
    }
    EXPECT_EQ(got->start, want->start);
    EXPECT_EQ(got->inputs, want->inputs);
  }
  EXPECT_GT(stuck, 0u);
  EXPECT_LT(stuck, kDifferentialMachines);
}

/// A larger splitmix64-drawn machine (200-2,000 states, 2-8 inputs) shaped
/// so the greedy walk's search does real work: most edges step forward
/// along a chain or a few states back, so coverage opens far from where
/// the walk stands and navigation runs deep. Inputs often repeat the
/// previous input's successor (parallel edges), some states self-loop,
/// and a few transitions are missing, so tour sets also need resets.
PartialMachine random_large_machine(std::uint64_t seed) {
  std::uint64_t x = seed ^ 0x5eed5eed5eedull;
  const auto draw = [&x](std::uint64_t bound) {
    x = runtime::splitmix64(x);
    return static_cast<std::uint32_t>(x % bound);
  };
  const StateId n = 200 + draw(1801);
  const InputId k = 2 + draw(7);
  PartialMachine pm{MealyMachine(n, k), 0};
  for (StateId s = 0; s < n; ++s) {
    // Input 0 continues the chain; it breaks at about one state in 64.
    StateId prev = (s + 1) % n;
    if (draw(64) != 0) pm.machine.set_transition(s, 0, prev, draw(3));
    for (InputId i = 1; i < k; ++i) {
      StateId next = 0;
      switch (draw(16)) {
        case 0:  // undefined
          continue;
        case 1:
        case 2:
        case 3:  // parallel to the previous input's edge
          next = prev;
          break;
        case 4:  // self-loop
          next = s;
          break;
        case 5:  // anywhere
          next = draw(n);
          break;
        case 6:
        case 7:
        case 8:  // a few states back
          next = s - std::min<StateId>(s, 1 + draw(6));
          break;
        default:  // forward along the chain
          next = (s + 1) % n;
          break;
      }
      pm.machine.set_transition(s, i, next, draw(3));
      prev = next;
    }
  }
  if (seed % 3 == 2) pm.start = draw(n);
  return pm;
}

/// The longest run of steps over already-covered transitions in a test set:
/// the deepest navigation the greedy walk made.
std::size_t deepest_navigation(const MealyMachine& m, const TourSet& set) {
  std::set<fsm::TransitionRef> covered;
  std::size_t deepest = 0;
  for (const auto& seq : set.sequences) {
    StateId at = set.start;
    std::size_t run = 0;
    for (InputId i : seq) {
      run = covered.insert(fsm::TransitionRef{at, i}).second ? 0 : run + 1;
      deepest = std::max(deepest, run);
      at = m.transition(at, i)->next;
    }
  }
  return deepest;
}

TEST(TourDifferential, LargeMachinesMatchReference) {
  constexpr std::uint64_t kMachines = 20;
  std::size_t parallel_edges = 0;
  std::size_t deepest = 0;
  for (std::uint64_t seed = 0; seed < kMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_large_machine(seed);
    const auto& m = pm.machine;
    for (StateId s = 0; s < m.num_states(); ++s) {
      std::set<StateId> successors;
      std::size_t defined = 0;
      for (InputId i = 0; i < m.num_inputs(); ++i) {
        if (const auto t = m.transition(s, i)) {
          successors.insert(t->next);
          ++defined;
        }
      }
      parallel_edges += defined - successors.size();
    }

    reference::TourSetGenerator want(m, pm.start);
    TransitionTourSetGenerator got(m, pm.start);
    TourSet set;
    set.start = pm.start;
    for (;;) {
      const auto w = want.next();
      const auto g = got.next();
      ASSERT_NO_THROW(got.check_invariants());
      ASSERT_EQ(g, w);
      ASSERT_EQ(got.remaining(), want.remaining());
      ASSERT_EQ(got.stuck(), want.stuck());
      if (!w.has_value()) break;
      set.sequences.push_back(*w);
    }
    const auto got_set = greedy_transition_tour_set(m, pm.start);
    ASSERT_EQ(got_set.has_value(), !want.stuck());
    if (got_set.has_value()) {
      EXPECT_EQ(got_set->sequences, set.sequences);
    }
    deepest = std::max(deepest, deepest_navigation(m, set));

    const auto want_states = reference::state_tour(m, pm.start);
    const auto got_states = state_tour(m, pm.start);
    ASSERT_EQ(got_states.has_value(), want_states.has_value());
    if (want_states.has_value()) {
      EXPECT_EQ(got_states->inputs, want_states->inputs);
    }
  }
  // The shapes the goal-edge counts must handle actually occur.
  EXPECT_GT(parallel_edges, 0u);
  EXPECT_GE(deepest, 5u);
}

}  // namespace
}  // namespace simcov::tour
