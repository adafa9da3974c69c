// Tests for symbolic (implicit) transition-tour generation: coverage is
// cross-checked against explicit extraction, and recorded sequences must
// replay exactly on the explicit machine.
#include "sym/symbolic_tour.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "model/symbolic_model.hpp"
#include "model/test_model.hpp"
#include "one_lane.hpp"
#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"
#include "tour/tour.hpp"

namespace simcov::sym {
namespace {

/// `prefix` followed by `n`, e.g. "q3". Built by appending: GCC 12 flags
/// the "lit" + std::string prepend with a false -Wrestrict.
std::string numbered(const char* prefix, std::size_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

/// 2-bit counter with enable (same circuit as sym_test).
SequentialCircuit counter_circuit() {
  SequentialCircuit c;
  const SignalId en = c.net.add_input("en");
  const SignalId q0 = c.net.add_input("q0");
  const SignalId q1 = c.net.add_input("q1");
  const SignalId n0 = c.net.make_xor(q0, en);
  const SignalId n1 = c.net.make_xor(q1, c.net.make_and(q0, en));
  c.primary_inputs = {en};
  c.latches = {{q0, n0, false, "q0"}, {q1, n1, false, "q1"}};
  c.outputs = {{"carry", c.net.make_and(en, c.net.make_and(q0, q1))}};
  return c;
}

/// A fork: two latches, the input chooses a branch, both branches are
/// absorbing — so each arm needs a sequence of its own.
SequentialCircuit fork_circuit() {
  SequentialCircuit c;
  const SignalId in = c.net.add_input("in");
  const SignalId a = c.net.add_input("a");
  const SignalId b = c.net.add_input("b");
  const SignalId idle =
      c.net.make_and(c.net.make_not(a), c.net.make_not(b));
  c.primary_inputs = {in};
  c.latches = {{a, c.net.make_or(a, c.net.make_and(idle, in)), false, "a"},
               {b, c.net.make_or(b, c.net.make_and(idle, c.net.make_not(in))),
                false, "b"}};
  c.outputs = {{"a", a}, {"b", b}};
  return c;
}

testmodel::TestModelOptions reg1_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

/// Replays recorded symbolic-tour sequences on the explicit machine and
/// returns the covered-transition count.
std::size_t replay_coverage(const SequentialCircuit& circuit,
                            const SymbolicTourResult& tour) {
  const auto em = extract_explicit(circuit, 1u << 20);
  // Input symbol lookup by packed input key.
  std::map<std::uint64_t, fsm::InputId> symbol_of;
  for (fsm::InputId k = 0; k < em.input_keys.size(); ++k) {
    symbol_of[em.input_keys[k]] = k;
  }
  std::set<std::pair<fsm::StateId, fsm::InputId>> covered;
  for (const auto& seq : tour.sequences) {
    fsm::StateId at = 0;
    for (const std::uint64_t input : seq) {
      const auto it = symbol_of.find(input);
      if (it == symbol_of.end()) {
        ADD_FAILURE() << "tour used an input symbol unknown to the explicit "
                         "model";
        return 0;
      }
      const auto t = em.machine.transition(at, it->second);
      if (!t.has_value()) {
        ADD_FAILURE() << "tour took an undefined transition";
        return 0;
      }
      covered.insert({at, it->second});
      at = t->next;
    }
  }
  return covered.size();
}

TEST(SymbolicTour, CoversCounterCompletely) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto tour = symbolic_transition_tour(fsm);
  EXPECT_TRUE(tour.complete);
  EXPECT_DOUBLE_EQ(tour.transitions_total, 8.0);
  EXPECT_DOUBLE_EQ(tour.transitions_covered, 8.0);
  EXPECT_DOUBLE_EQ(tour.coverage(), 1.0);
  EXPECT_GE(tour.steps, 8u);
  // Replay on the explicit machine confirms the coverage claim.
  EXPECT_EQ(replay_coverage(c, tour), 8u);
}

TEST(SymbolicTour, SequencesIdenticalUnderDynamicReordering) {
  // Dynamic reordering must be semantically invisible: the tour driver
  // addresses variables by stable id, so an aggressively resifted manager
  // yields the exact same sequences as a static-order one.
  const SequentialCircuit c = counter_circuit();

  bdd::BddManager static_mgr;
  SymbolicFsm static_fsm(static_mgr, c);
  const auto baseline = symbolic_transition_tour(static_fsm);

  bdd::BddManager auto_mgr;
  auto_mgr.set_reorder_policy(bdd::ReorderPolicy::kAuto);
  auto_mgr.set_reorder_threshold(16);  // sift eagerly during construction
  SymbolicFsm auto_fsm(auto_mgr, c);
  (void)auto_mgr.try_reorder();  // plus an explicit pass before the tour
  const auto reordered = symbolic_transition_tour(auto_fsm);

  EXPECT_EQ(reordered.sequences, baseline.sequences);
  EXPECT_EQ(reordered.steps, baseline.steps);
  EXPECT_EQ(reordered.restarts, baseline.restarts);
  EXPECT_EQ(reordered.complete, baseline.complete);
  EXPECT_DOUBLE_EQ(reordered.transitions_covered,
                   baseline.transitions_covered);
  EXPECT_EQ(replay_coverage(c, reordered), 8u);
}

TEST(SymbolicTour, RespectsStepCap) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  SymbolicTourOptions opt;
  opt.max_steps = 3;
  const auto tour = symbolic_transition_tour(fsm, opt);
  EXPECT_FALSE(tour.complete);
  EXPECT_EQ(tour.steps, 3u);
  EXPECT_LT(tour.coverage(), 1.0);
}

TEST(SymbolicTour, RecordingCanBeDisabled) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  SymbolicTourOptions opt;
  opt.record_inputs = false;
  const auto tour = symbolic_transition_tour(fsm, opt);
  EXPECT_TRUE(tour.complete);
  EXPECT_TRUE(tour.sequences.empty());
  EXPECT_DOUBLE_EQ(tour.coverage(), 1.0);
}

TEST(SymbolicTour, HandlesConstrainedInputs) {
  // en must be 1 in state 00: the tour must respect the constraint.
  SequentialCircuit c = counter_circuit();
  const auto ins = c.net.inputs();
  c.valid = c.net.make_or(ins[0], c.net.make_or(ins[1], ins[2]));
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto tour = symbolic_transition_tour(fsm);
  EXPECT_TRUE(tour.complete);
  EXPECT_DOUBLE_EQ(tour.transitions_total, 7.0);  // (00, en=0) invalid
  EXPECT_EQ(replay_coverage(c, tour), 7u);
}

TEST(SymbolicTour, RestartsAcrossTransientResetState) {
  const SequentialCircuit c = fork_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto tour = symbolic_transition_tour(fsm);
  EXPECT_TRUE(tour.complete);
  EXPECT_GE(tour.restarts, 1u);  // both fork arms need their own sequence
  EXPECT_EQ(replay_coverage(c, tour),
            static_cast<std::size_t>(tour.transitions_total));
}

TEST(SymbolicTour, MatchesExplicitTransitionCountOnControlModel) {
  const auto model = testmodel::build_dlx_control_model(reg1_options());
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, model.circuit);
  SymbolicTourOptions topt;
  topt.record_inputs = false;  // ~100k steps: skip recording
  const auto tour = symbolic_transition_tour(fsm, topt);
  EXPECT_TRUE(tour.complete);
  // Cross-check against the explicit enumeration.
  const auto em = extract_explicit(model.circuit, 100000);
  EXPECT_DOUBLE_EQ(tour.transitions_total,
                   static_cast<double>(
                       em.machine.num_defined_transitions()));
  EXPECT_DOUBLE_EQ(tour.transitions_covered, tour.transitions_total);
}

// ---- golden walks ----------------------------------------------------------
// The pins below were recorded from the pre-image-layer walk; any rewrite of
// the navigation must reproduce every yielded sequence exactly.

/// splitmix64 over each sequence's size and then each step's input key —
/// the scheme simbench uses for its symbolic_tour input hash.
std::uint64_t input_hash(const SymbolicTourResult& tour) {
  std::uint64_t h = 0;
  for (const auto& seq : tour.sequences) {
    h = runtime::splitmix64(h ^ seq.size());
    for (const std::uint64_t step : seq) h = runtime::splitmix64(h ^ step);
  }
  return h;
}

struct TourPin {
  std::size_t steps;
  std::size_t restarts;
  std::size_t sequences;
  std::uint64_t hash;
  double states_visited;
  double transitions_covered;
  bool complete;
};

void expect_pin(const SymbolicTourResult& tour, const TourPin& pin) {
  EXPECT_EQ(tour.steps, pin.steps);
  EXPECT_EQ(tour.restarts, pin.restarts);
  EXPECT_EQ(tour.sequences.size(), pin.sequences);
  EXPECT_EQ(input_hash(tour), pin.hash);
  EXPECT_DOUBLE_EQ(tour.stats.states_visited, pin.states_visited);
  EXPECT_DOUBLE_EQ(tour.stats.transitions_covered, pin.transitions_covered);
  EXPECT_DOUBLE_EQ(tour.transitions_covered, pin.transitions_covered);
  EXPECT_EQ(tour.complete, pin.complete);
}

/// The whole tour, drained from the stream with the walk's invariants
/// checked after every yielded sequence.
SymbolicTourResult tour_of(const SequentialCircuit& c,
                           std::size_t max_steps = 10'000'000) {
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  SymbolicTourOptions opt;
  opt.max_steps = max_steps;
  SymbolicTourStream stream(fsm, opt);
  EXPECT_NO_THROW(stream.check_invariants());
  std::vector<model::Sequence> sequences;
  while (auto seq = stream.next_sequence()) {
    sequences.push_back(std::move(*seq));
    EXPECT_NO_THROW(stream.check_invariants());
  }
  SymbolicTourResult result = stream.summary();
  result.sequences = std::move(sequences);
  return result;
}

/// n-bit incrementer outputs of the little-endian vector q.
std::vector<SignalId> increment(LogicNetwork& net,
                                const std::vector<SignalId>& q) {
  std::vector<SignalId> out;
  SignalId carry = net.constant(true);
  for (const SignalId bit : q) {
    out.push_back(net.make_xor(bit, carry));
    carry = net.make_and(bit, carry);
  }
  return out;
}

/// An n-bit ring counter (input 0 increments) whose last state alone also
/// accepts input 1, which falls into an absorbing trap. The walk circles the
/// ring once, then must navigate all the way back to the last state: one
/// navigation of distance 2^bits - 1.
SequentialCircuit trap_ring_circuit(unsigned bits) {
  SequentialCircuit c;
  const SignalId in = c.net.add_input("in");
  std::vector<SignalId> q;
  for (unsigned j = 0; j < bits; ++j) {
    q.push_back(c.net.add_input(numbered("q", j)));
  }
  const SignalId t = c.net.add_input("t");
  const SignalId last = c.net.make_and(q);
  const SignalId hold = c.net.make_or(t, in);
  const auto inc = increment(c.net, q);
  c.primary_inputs = {in};
  for (unsigned j = 0; j < bits; ++j) {
    c.latches.push_back({q[j], c.net.make_mux(hold, q[j], inc[j]), false,
                         numbered("q", j)});
  }
  c.latches.push_back({t, hold, false, "t"});
  c.valid = c.net.make_or(c.net.make_not(in),
                          c.net.make_and(last, c.net.make_not(t)));
  c.outputs = {{"t", t}};
  return c;
}

/// An n-bit counter where input 0 increments and input 1 resets to zero:
/// covering the reset edge of state k leaves the walk k + 1 steps from the
/// next uncovered transition, so navigation distances grow one per
/// recomputation up to 2^bits - 1.
SequentialCircuit reset_ring_circuit(unsigned bits) {
  SequentialCircuit c;
  const SignalId in = c.net.add_input("in");
  std::vector<SignalId> q;
  for (unsigned j = 0; j < bits; ++j) {
    q.push_back(c.net.add_input(numbered("q", j)));
  }
  const auto inc = increment(c.net, q);
  const SignalId stay = c.net.make_not(in);
  c.primary_inputs = {in};
  for (unsigned j = 0; j < bits; ++j) {
    c.latches.push_back({q[j], c.net.make_and(stay, inc[j]), false,
                         numbered("q", j)});
  }
  c.outputs = {{"zero", c.net.make_not(c.net.make_or(q))}};
  return c;
}

TEST(SymbolicTourGolden, CounterSequences) {
  const auto tour = tour_of(counter_circuit());
  EXPECT_EQ(tour.sequences,
            (std::vector<model::Sequence>{{0, 1, 0, 1, 0, 1, 0, 1}}));
  expect_pin(tour, {8, 0, 1, 11170432469076873751ull, 4, 8, true});
}

TEST(SymbolicTourGolden, ConstrainedCounterSequences) {
  SequentialCircuit c = counter_circuit();
  const auto ins = c.net.inputs();
  c.valid = c.net.make_or(ins[0], c.net.make_or(ins[1], ins[2]));
  const auto tour = tour_of(c);
  EXPECT_EQ(tour.sequences,
            (std::vector<model::Sequence>{{1, 0, 1, 0, 1, 0, 1}}));
  expect_pin(tour, {7, 0, 1, 7885537747085903944ull, 4, 7, true});
}

TEST(SymbolicTourGolden, TransientForkSequences) {
  const auto tour = tour_of(fork_circuit());
  EXPECT_EQ(tour.sequences,
            (std::vector<model::Sequence>{{0, 0, 1}, {1, 0, 1}}));
  expect_pin(tour, {6, 1, 2, 17378591337652099048ull, 3, 6, true});
}

TEST(SymbolicTourGolden, ReducedControlModel) {
  const auto model = testmodel::build_dlx_control_model(reg1_options());
  expect_pin(tour_of(model.circuit),
             {41497, 18, 19, 3005926578113758076ull, 1024, 21508, true});
}

TEST(SymbolicTourGolden, ReducedControlModelStepCapped) {
  const auto model = testmodel::build_dlx_control_model(reg1_options());
  expect_pin(tour_of(model.circuit, 1),
             {1, 0, 1, 6791897765849424158ull, 2, 1, false});
  expect_pin(tour_of(model.circuit, 1000),
             {1000, 0, 1, 5799018795882451219ull, 269, 996, false});
  expect_pin(tour_of(model.circuit, 20000),
             {20000, 0, 1, 7101338068301397697ull, 977, 13872, false});
}

TEST(SymbolicTourGolden, NavigationDistanceInTheThousands) {
  // One navigation of 4095 steps around a 12-bit ring.
  expect_pin(tour_of(trap_ring_circuit(12)),
             {8193, 0, 1, 13010302705192025890ull, 4097, 4098, true});
}

TEST(SymbolicTourGolden, NavigationDistancesGrowingToHundreds) {
  // 127 navigations, of distance 1, 2, ..., 127.
  expect_pin(tour_of(reset_ring_circuit(7)),
             {8384, 0, 1, 7221818499060847817ull, 128, 256, true});
}

// ---- walk counters -----------------------------------------------------------

TEST(SymbolicTourCounters, CompleteToursSplitIntoCoveringAndNavigation) {
  struct Case {
    const char* name;
    SequentialCircuit circuit;
    std::size_t navigate_steps;
    std::size_t layer_recomputes;
  };
  std::vector<Case> cases;
  cases.push_back({"counter", counter_circuit(), 0, 0});
  cases.push_back({"fork", fork_circuit(), 0, 1});
  cases.push_back({"reg1",
                   testmodel::build_dlx_control_model(reg1_options()).circuit,
                   19989, 1154});
  cases.push_back({"trap ring", trap_ring_circuit(12), 4095, 1});
  cases.push_back({"reset ring", reset_ring_circuit(7), 8128, 127});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto tour = tour_of(c.circuit);
    ASSERT_TRUE(tour.complete);
    EXPECT_EQ(static_cast<double>(tour.steps),
              tour.transitions_total +
                  static_cast<double>(tour.navigate_steps));
    EXPECT_EQ(tour.navigate_steps, c.navigate_steps);
    EXPECT_EQ(tour.layer_recomputes, c.layer_recomputes);
  }
}

// ---- differential check against the layer definition ------------------------
// The walk's navigation is defined by breadth-first distance layers: layer 0
// holds the states with a valid input whose cursor had not run out when the
// layers were last built, and the layers are rebuilt from the current state
// whenever its own layer is missing or 0. The reference below computes those
// layers literally, from scratch, on the explicit machine.

struct ReferenceWalk {
  std::vector<model::Sequence> sequences;
  std::size_t steps = 0;
  std::size_t restarts = 0;
  std::size_t layer_recomputes = 0;
  std::size_t states_visited = 0;
  std::size_t transitions_covered = 0;
  /// Navigation steps by the layer they left (index = layer).
  std::vector<std::size_t> descents;
};

ReferenceWalk reference_walk(const ExplicitModel& em, std::size_t max_steps) {
  const fsm::MealyMachine& m = em.machine;
  const fsm::StateId n = m.num_states();
  // Input ids follow the PI minterm order the walk enumerates in.
  std::vector<std::vector<std::pair<fsm::InputId, fsm::StateId>>> out(n);
  std::vector<std::vector<fsm::StateId>> preds(n);
  std::size_t total = 0;
  for (fsm::StateId s = 0; s < n; ++s) {
    for (fsm::InputId i = 0; i < m.num_inputs(); ++i) {
      if (const auto t = m.transition(s, i)) {
        out[s].emplace_back(i, t->next);
        preds[t->next].push_back(s);
        ++total;
      }
    }
  }
  std::vector<std::size_t> cursor(n, 0);
  std::vector<bool> uncovered(n);
  for (fsm::StateId s = 0; s < n; ++s) uncovered[s] = !out[s].empty();
  std::vector<fsm::StateId> pending;  // exhausted since the last rebuild
  std::vector<long> layer(n, -1);     // -1: in no layer
  std::set<fsm::StateId> visited{m.initial_state()};
  std::set<std::pair<fsm::StateId, fsm::InputId>> taken;
  ReferenceWalk w;
  std::size_t covered = 0;
  fsm::StateId at = m.initial_state();

  const auto rebuild = [&] {
    ++w.layer_recomputes;
    for (const fsm::StateId s : pending) uncovered[s] = false;
    pending.clear();
    layer.assign(n, -1);
    std::vector<fsm::StateId> frontier;
    for (fsm::StateId s = 0; s < n; ++s) {
      if (uncovered[s]) {
        layer[s] = 0;
        frontier.push_back(s);
      }
    }
    for (long k = 1; !frontier.empty() && layer[at] < 0; ++k) {
      std::vector<fsm::StateId> next;
      for (const fsm::StateId s : frontier) {
        for (const fsm::StateId p : preds[s]) {
          if (layer[p] < 0) {
            layer[p] = k;
            next.push_back(p);
          }
        }
      }
      frontier = std::move(next);
    }
  };
  const auto descend =
      [&]() -> std::optional<std::pair<fsm::InputId, fsm::StateId>> {
    if (layer[at] <= 0) return std::nullopt;
    for (const auto& e : out[at]) {
      if (layer[e.second] == layer[at] - 1) {
        const auto l = static_cast<std::size_t>(layer[at]);
        if (w.descents.size() <= l) w.descents.resize(l + 1);
        ++w.descents[l];
        return e;
      }
    }
    return std::nullopt;
  };

  model::Sequence seq;
  while (w.steps < max_steps && covered < total) {
    std::optional<std::pair<fsm::InputId, fsm::StateId>> e;
    if (cursor[at] < out[at].size()) {
      e = out[at][cursor[at]++];
      ++covered;
      if (cursor[at] == out[at].size()) pending.push_back(at);
    } else if (!out[at].empty()) {  // else a dead end: reset
      e = descend();
      if (!e.has_value()) {
        rebuild();
        e = descend();
      }
    }
    if (!e.has_value()) {
      ++w.restarts;
      w.sequences.push_back(std::move(seq));
      seq.clear();
      at = m.initial_state();
      continue;
    }
    seq.push_back(em.input_keys[e->first]);
    taken.insert({at, e->first});
    at = e->second;
    visited.insert(at);
    ++w.steps;
  }
  w.sequences.push_back(std::move(seq));
  w.states_visited = visited.size();
  w.transitions_covered = taken.size();
  return w;
}

/// A random sequential circuit: min_latches to max_latches latches (2-7 by
/// default), 1-3 inputs, a few dozen random gates, and (for half the seeds)
/// a random input constraint.
SequentialCircuit random_circuit(std::uint64_t seed, unsigned min_latches = 2,
                                 unsigned max_latches = 7) {
  std::uint64_t counter = 0;
  const auto draw = [&](std::uint64_t range) {
    return runtime::splitmix64(seed * 0x9e3779b97f4a7c15ull + ++counter) %
           range;
  };
  SequentialCircuit c;
  const auto num_latches =
      static_cast<unsigned>(min_latches + draw(max_latches - min_latches + 1));
  const auto num_inputs = static_cast<unsigned>(1 + draw(3));
  std::vector<SignalId> pool;
  std::vector<SignalId> latch_q;
  for (unsigned j = 0; j < num_latches; ++j) {
    latch_q.push_back(c.net.add_input(numbered("q", j)));
    pool.push_back(latch_q.back());
  }
  for (unsigned k = 0; k < num_inputs; ++k) {
    c.primary_inputs.push_back(c.net.add_input(numbered("i", k)));
    pool.push_back(c.primary_inputs.back());
  }
  const auto pick = [&] { return pool[draw(pool.size())]; };
  const auto gates = 4 + draw(24);
  for (std::uint64_t g = 0; g < gates; ++g) {
    switch (draw(5)) {
      case 0: pool.push_back(c.net.make_and(pick(), pick())); break;
      case 1: pool.push_back(c.net.make_or(pick(), pick())); break;
      case 2: pool.push_back(c.net.make_xor(pick(), pick())); break;
      case 3: pool.push_back(c.net.make_not(pick())); break;
      default: pool.push_back(c.net.make_mux(pick(), pick(), pick()));
    }
  }
  for (unsigned j = 0; j < num_latches; ++j) {
    c.latches.push_back({latch_q[j], pick(), draw(2) == 1,
                         numbered("q", j)});
  }
  if (draw(2) == 1) c.valid = c.net.make_or(pick(), pick());
  c.outputs = {{"o", pick()}};
  return c;
}

TEST(SymbolicTourDifferential, MatchesLayerDefinitionOnRandomCircuits) {
  std::size_t restarts = 0;
  std::size_t navigate_steps = 0;
  std::size_t recomputes = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const SequentialCircuit c = random_circuit(seed);
    const auto em = extract_explicit(c, 1u << 10);
    for (const std::size_t cap : {std::size_t{7}, std::size_t{100000}}) {
      const auto tour = tour_of(c, cap);
      const auto ref = reference_walk(em, cap);
      EXPECT_EQ(tour.sequences, ref.sequences);
      EXPECT_EQ(tour.steps, ref.steps);
      EXPECT_EQ(tour.restarts, ref.restarts);
      EXPECT_EQ(tour.layer_recomputes, ref.layer_recomputes);
      EXPECT_DOUBLE_EQ(tour.stats.states_visited,
                       static_cast<double>(ref.states_visited));
      EXPECT_DOUBLE_EQ(tour.stats.transitions_covered,
                       static_cast<double>(ref.transitions_covered));
      restarts += tour.restarts;
      navigate_steps += tour.navigate_steps;
      recomputes += tour.layer_recomputes;
    }
  }
  // The sample must exercise resets, navigation and stale layers.
  EXPECT_GT(restarts, 20u);
  EXPECT_GT(navigate_steps, 100u);
  EXPECT_GT(recomputes, 120u);
}

TEST(SymbolicTourDifferential, MatchesLayerDefinitionOnRings) {
  for (const SequentialCircuit& c :
       {trap_ring_circuit(6), reset_ring_circuit(5), fork_circuit()}) {
    const auto tour = tour_of(c);
    const auto ref = reference_walk(extract_explicit(c, 1u << 10), 100000);
    EXPECT_EQ(tour.sequences, ref.sequences);
    EXPECT_EQ(tour.layer_recomputes, ref.layer_recomputes);
  }
}

/// An n-bit ring counter (input 0 increments) whose states with their low
/// `gap` bits clear also take a side branch (input 1) half-way round the
/// ring. Once the ring is covered, each branch left is a navigation of up
/// to 2^gap steps.
SequentialCircuit branch_ring_circuit(unsigned bits, unsigned gap) {
  SequentialCircuit c;
  const SignalId in = c.net.add_input("in");
  std::vector<SignalId> q;
  for (unsigned j = 0; j < bits; ++j) {
    q.push_back(c.net.add_input(numbered("q", j)));
  }
  const auto inc = increment(c.net, q);
  const std::vector<SignalId> low(q.begin(), q.begin() + gap);
  const SignalId aligned = c.net.make_not(c.net.make_or(low));
  c.primary_inputs = {in};
  for (unsigned j = 0; j < bits; ++j) {
    const SignalId branch = j + 1 == bits ? c.net.make_not(q[j]) : q[j];
    c.latches.push_back({q[j], c.net.make_mux(in, branch, inc[j]), false,
                         numbered("q", j)});
  }
  c.valid = c.net.make_or(c.net.make_not(in), aligned);
  c.outputs = {{"aligned", aligned}};
  return c;
}

TEST(SymbolicTourDifferential, LargeMachinesMatchReference) {
  std::vector<SequentialCircuit> circuits;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    circuits.push_back(random_circuit(seed, 8, 12));
  }
  for (const unsigned gap : {2u, 3u, 4u}) {
    circuits.push_back(branch_ring_circuit(11, gap));
  }
  std::vector<std::size_t> descents;
  for (std::size_t n = 0; n < circuits.size(); ++n) {
    SCOPED_TRACE(n);
    const auto em = extract_explicit(circuits[n], 1u << 12);
    ASSERT_FALSE(em.truncated);
    const auto tour = tour_of(circuits[n]);
    const auto ref = reference_walk(em, 10'000'000);
    EXPECT_EQ(tour.sequences, ref.sequences);
    EXPECT_EQ(tour.steps, ref.steps);
    EXPECT_EQ(tour.restarts, ref.restarts);
    EXPECT_EQ(tour.layer_recomputes, ref.layer_recomputes);
    std::size_t ref_navigate = 0;
    for (std::size_t l = 0; l < ref.descents.size(); ++l) {
      if (descents.size() <= l) descents.resize(l + 1);
      descents[l] += ref.descents[l];
      ref_navigate += ref.descents[l];
    }
    EXPECT_EQ(tour.navigate_steps, ref_navigate);
    EXPECT_DOUBLE_EQ(tour.stats.states_visited,
                     static_cast<double>(ref.states_visited));
    EXPECT_DOUBLE_EQ(tour.stats.transitions_covered,
                     static_cast<double>(ref.transitions_covered));
  }
  // Descents from layers 1 to 3 take the ladder of edge pointers; layer 4
  // and up probe each edge, past the ladder by search. The sample must have
  // many of both.
  ASSERT_GT(descents.size(), 3u);
  EXPECT_GT(descents[1], 2000u);
  EXPECT_GT(descents[2], 2000u);
  std::size_t deeper = 0;
  for (std::size_t l = 3; l < descents.size(); ++l) deeper += descents[l];
  EXPECT_GT(deeper, 1000u);
}

TEST(SymbolicTour, YieldedSequencesHoldLittleSlack) {
  // Each recorded sequence reserves the uncovered transitions; one cut
  // short by a reset must give the slack back. An empty one holds none.
  std::vector<SequentialCircuit> circuits{fork_circuit()};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    circuits.push_back(random_circuit(seed));
  }
  std::size_t sequences = 0;
  for (std::size_t n = 0; n < circuits.size(); ++n) {
    SCOPED_TRACE(n);
    bdd::BddManager mgr;
    SymbolicFsm fsm(mgr, circuits[n]);
    SymbolicTourStream stream(fsm);
    while (const auto seq = stream.next_sequence()) {
      ++sequences;
      EXPECT_LE(seq->capacity(), 2 * seq->size());
    }
  }
  EXPECT_GT(sequences, circuits.size() + 20);  // many resets
}

TEST(SymbolicTourDifferential, StepCappedWalksMatchReference) {
  // A cap below the transition count: the walk grows its tables as it goes
  // instead of reserving them up front, and still takes the reference's
  // steps.
  const SequentialCircuit c = branch_ring_circuit(11, 4);
  const auto em = extract_explicit(c, 1u << 12);
  ASSERT_FALSE(em.truncated);
  for (const std::size_t cap : {std::size_t{1000}, std::size_t{2175}}) {
    SCOPED_TRACE(cap);
    const auto tour = tour_of(c, cap);
    ASSERT_LT(static_cast<double>(cap), tour.transitions_total);
    const auto ref = reference_walk(em, cap);
    EXPECT_EQ(tour.steps, cap);
    EXPECT_EQ(tour.sequences, ref.sequences);
    EXPECT_EQ(tour.steps, ref.steps);
    EXPECT_EQ(tour.restarts, ref.restarts);
    EXPECT_EQ(tour.layer_recomputes, ref.layer_recomputes);
  }
}

TEST(SymbolicTourDifferential, SearchesPastTheLadderMatchReference) {
  // Navigations of up to 16 steps: distances past the ladder's three rungs
  // are found by search, which must still give the layer definition's walk.
  const SequentialCircuit c = branch_ring_circuit(11, 4);
  const auto em = extract_explicit(c, 1u << 12);
  ASSERT_FALSE(em.truncated);
  const auto tour = tour_of(c);
  const auto ref = reference_walk(em, 10'000'000);
  ASSERT_GT(ref.descents.size(), 4u);
  EXPECT_GT(tour.search_edges, 0u);
  EXPECT_EQ(tour.sequences, ref.sequences);
  EXPECT_EQ(tour.steps, ref.steps);
  EXPECT_EQ(tour.layer_recomputes, ref.layer_recomputes);
}

// ---- successor enumeration vs scalar BDD evaluation ----------------------------
// The walk and SymbolicModel::edges list valid inputs on the BDD once per
// constraint class (InputClasses) and step them on the word-level kernel.
// The oracle is the enumeration they replaced: the inputs listed per state,
// every next-state BDD evaluated once per listed input.

/// (input, successor) pairs of `state` in minterm order, by BDD evaluation.
std::vector<model::TestModel::Edge> bdd_eval_successors(SymbolicFsm& fsm,
                                                        std::uint64_t state) {
  bdd::BddManager& mgr = fsm.manager();
  std::vector<bool> assignment(mgr.var_count(), false);
  std::vector<bool> bits(fsm.num_latches());
  for (std::size_t j = 0; j < bits.size(); ++j) {
    bits[j] = (state >> j) & 1u;
    assignment[fsm.ps_var(j)] = bits[j];
  }
  const bdd::Bdd at_state =
      mgr.constrain(fsm.valid_inputs(), mgr.minterm(fsm.ps_vars(), bits));
  std::vector<model::TestModel::Edge> out;
  mgr.for_each_minterm(
      at_state, fsm.pi_vars(), [&](const std::vector<bool>& in) {
        std::uint64_t input = 0;
        for (std::size_t k = 0; k < in.size(); ++k) {
          assignment[fsm.pi_var(k)] = in[k];
          input |= std::uint64_t{in[k]} << k;
        }
        std::uint64_t next = 0;
        for (std::size_t j = 0; j < fsm.num_latches(); ++j) {
          if (mgr.eval(fsm.next_functions()[j], assignment)) {
            next |= std::uint64_t{1} << j;
          }
        }
        out.push_back({input, next});
        return true;
      });
  return out;
}

/// Scalar BDD evaluation of one (state, input): nullopt when invalid, else
/// the packed successor and output keys.
std::optional<std::pair<std::uint64_t, std::uint64_t>> bdd_eval_step(
    SymbolicFsm& fsm, std::uint64_t state, std::uint64_t input) {
  bdd::BddManager& mgr = fsm.manager();
  std::vector<bool> assignment(mgr.var_count(), false);
  for (std::size_t j = 0; j < fsm.num_latches(); ++j) {
    assignment[fsm.ps_var(j)] = (state >> j) & 1u;
  }
  for (std::size_t k = 0; k < fsm.num_inputs(); ++k) {
    assignment[fsm.pi_var(k)] = (input >> k) & 1u;
  }
  if (!mgr.eval(fsm.valid_inputs(), assignment)) return std::nullopt;
  const auto pack = [&](const std::vector<bdd::Bdd>& funcs) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < funcs.size(); ++j) {
      if (mgr.eval(funcs[j], assignment)) key |= std::uint64_t{1} << j;
    }
    return key;
  };
  return std::pair(pack(fsm.next_functions()), pack(fsm.output_functions()));
}

/// Packed keys of every reachable state.
std::vector<std::uint64_t> reachable_keys(SymbolicFsm& fsm) {
  std::vector<std::uint64_t> keys;
  fsm.manager().for_each_minterm(
      fsm.reachable_states(), fsm.ps_vars(), [&](const std::vector<bool>& b) {
        keys.push_back(model::TestModel::pack_bits(b));
        return true;
      });
  return keys;
}

/// A random circuit with 2-8 latches, 1-9 inputs (7-9 for every fourth
/// seed, so states can have more than 64 valid inputs), 1-3 outputs and,
/// for half the seeds, a random input constraint.
SequentialCircuit wide_random_circuit(std::uint64_t seed) {
  std::uint64_t counter = 0;
  const auto draw = [&](std::uint64_t range) {
    return runtime::splitmix64(seed * 0xd1b54a32d192ed03ull + ++counter) %
           range;
  };
  SequentialCircuit c;
  const auto num_latches = static_cast<unsigned>(2 + draw(7));
  const auto num_inputs =
      static_cast<unsigned>(seed % 4 == 0 ? 7 + draw(3) : 1 + draw(9));
  std::vector<SignalId> pool;
  std::vector<SignalId> latch_q;
  // Latch and input signals interleave in network-input order.
  for (unsigned n = 0; n < num_latches + num_inputs; ++n) {
    const bool latch = latch_q.size() < num_latches &&
                       (c.primary_inputs.size() == num_inputs || draw(2) == 0);
    if (latch) {
      latch_q.push_back(c.net.add_input(numbered("q", latch_q.size())));
      pool.push_back(latch_q.back());
    } else {
      c.primary_inputs.push_back(
          c.net.add_input(numbered("i", c.primary_inputs.size())));
      pool.push_back(c.primary_inputs.back());
    }
  }
  const auto pick = [&] { return pool[draw(pool.size())]; };
  const auto gates = 8 + draw(40);
  for (std::uint64_t g = 0; g < gates; ++g) {
    switch (draw(5)) {
      case 0: pool.push_back(c.net.make_and(pick(), pick())); break;
      case 1: pool.push_back(c.net.make_or(pick(), pick())); break;
      case 2: pool.push_back(c.net.make_xor(pick(), pick())); break;
      case 3: pool.push_back(c.net.make_not(pick())); break;
      default: pool.push_back(c.net.make_mux(pick(), pick(), pick()));
    }
  }
  for (unsigned j = 0; j < num_latches; ++j) {
    c.latches.push_back({latch_q[j], pick(), draw(2) == 1,
                         numbered("q", j)});
  }
  if (seed % 2 == 1) c.valid = c.net.make_or(pick(), pick());
  const auto num_outputs = 1 + draw(3);
  for (std::uint64_t o = 0; o < num_outputs; ++o) {
    c.outputs.emplace_back(numbered("o", o), pick());
  }
  return c;
}

TEST(SuccessorEnumeration, MatchesBddEvaluationOnRandomCircuits) {
  std::size_t with_valid = 0;
  std::size_t multi_pass_states = 0;
  std::size_t reordered = 0;
  std::size_t invalid_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const SequentialCircuit c = wide_random_circuit(seed);
    with_valid += c.valid.has_value() ? 1 : 0;
    const bool reorder = seed % 3 == 0;
    model::SymbolicModel model(
        c, reorder ? bdd::ReorderPolicy::kAuto : bdd::ReorderPolicy::kNone);
    if (reorder) {
      // Sift before enumerating, and eagerly during it.
      model.manager().set_reorder_threshold(16);
      (void)model.manager().try_reorder();
    }
    const PackedCircuitSim sim(model.fsm().circuit());
    InputClasses classes(model.fsm());
    bdd::BddManager oracle_mgr;
    SymbolicFsm oracle(oracle_mgr, c);
    const std::uint64_t num_inputs = std::uint64_t{1} << oracle.num_inputs();

    std::vector<std::uint64_t> next;
    std::set<std::uint64_t> masked_keys;
    for (const std::uint64_t state : reachable_keys(oracle)) {
      SCOPED_TRACE(state);
      const auto want = bdd_eval_successors(oracle, state);
      multi_pass_states += want.size() > 64 ? 1 : 0;

      // The memoized class list holds the same inputs in the same (minterm)
      // order as the per-state listing, and steps to the same successors.
      const std::uint32_t cls = classes.class_of(state);
      masked_keys.insert(state & classes.mask());
      ASSERT_EQ(classes.key(cls), state & classes.mask());
      const auto inputs = classes.inputs(cls);
      step_successors(sim, state, inputs, next);
      ASSERT_EQ(inputs.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(inputs[i], want[i].input);
        ASSERT_EQ(next[i], want[i].next);
      }
      // SymbolicModel::edges: the same pairs, sorted by input.
      auto sorted = want;
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.input < b.input; });
      ASSERT_EQ(model.edges(state), sorted);

      // One transition_batch lane on every input, valid or not, and the
      // listed inputs are exactly the valid ones.
      std::size_t valid = 0;
      for (std::uint64_t input = 0; input < num_inputs; ++input) {
        const auto ref = bdd_eval_step(oracle, state, input);
        const OneLane lane = one_lane(model, state, input);
        if (!ref.has_value()) {
          ++invalid_pairs;
          ASSERT_EQ(lane.next, std::nullopt);
          ASSERT_EQ(lane.output, std::nullopt);
          continue;
        }
        ++valid;
        ASSERT_EQ(lane.next, ref->first);
        ASSERT_EQ(lane.output, ref->second);
      }
      ASSERT_EQ(valid, want.size());
    }
    // One listing per distinct masked key, and the mask is exactly the
    // latches the constraint reads.
    EXPECT_EQ(classes.size(), masked_keys.size());
    std::uint64_t want_mask = 0;
    for (const unsigned v : oracle_mgr.support(oracle.valid_inputs())) {
      for (std::size_t j = 0; j < oracle.num_latches(); ++j) {
        if (oracle.ps_var(j) == v) want_mask |= std::uint64_t{1} << j;
      }
    }
    EXPECT_EQ(classes.mask(), want_mask);
    if (reorder) reordered += model.manager().stats().reorders > 0 ? 1 : 0;
  }
  // The sample must cover constraints, multi-pass states and sifting.
  EXPECT_GE(with_valid, 30u);
  EXPECT_GE(multi_pass_states, 10u);
  EXPECT_EQ(reordered, 20u);
  EXPECT_GT(invalid_pairs, 0u);
}

TEST(SuccessorEnumeration, UnconstrainedCircuitIsOneClass) {
  // No valid signal: every state has every input, so one listing serves all.
  const SequentialCircuit c = counter_circuit();
  ASSERT_FALSE(c.valid.has_value());
  const auto tour = tour_of(c);
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  EXPECT_TRUE(tour.complete);
  EXPECT_EQ(tour.input_listings, 1u);
  InputClasses classes(fsm);
  EXPECT_EQ(classes.mask(), 0u);
  const auto keys = reachable_keys(fsm);
  ASSERT_GT(keys.size(), 1u);
  for (const std::uint64_t state : keys) EXPECT_EQ(classes.class_of(state), 0u);
  EXPECT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes.inputs(0).size(), std::size_t{1} << fsm.num_inputs());
}

TEST(SuccessorEnumeration, ConstraintOnEveryLatchIsOneClassPerState) {
  // valid = en | (q0 ^ q1) reads both latches, so the mask is every latch
  // and each reachable state is a class of its own.
  SequentialCircuit c = counter_circuit();
  const auto ins = c.net.inputs();
  c.valid = c.net.make_or(ins[0], c.net.make_xor(ins[1], ins[2]));
  const auto tour = tour_of(c);
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  EXPECT_TRUE(tour.complete);
  const auto keys = reachable_keys(fsm);
  EXPECT_EQ(keys.size(), 4u);
  EXPECT_EQ(tour.input_listings, keys.size());
  InputClasses classes(fsm);
  EXPECT_EQ(classes.mask(), 0b11u);
  for (const std::uint64_t state : keys) {
    const std::uint32_t cls = classes.class_of(state);
    EXPECT_EQ(classes.key(cls), state);
    // en=1 is always valid; en=0 only where q0 != q1.
    const std::vector<std::uint64_t> want =
        (state == 1 || state == 2) ? std::vector<std::uint64_t>{0, 1}
                                   : std::vector<std::uint64_t>{1};
    const auto got = classes.inputs(cls);
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want);
  }
  EXPECT_EQ(classes.size(), keys.size());
}

TEST(SuccessorEnumeration, WideFsmBuildsButTheTourRejectsIt) {
  // A 70-stage shift register: past the packed-key limit of the walk, not
  // of the BDD view.
  SequentialCircuit c;
  SignalId prev = c.net.add_input("in");
  c.primary_inputs = {prev};
  for (int j = 0; j < 70; ++j) {
    const SignalId q = c.net.add_input(numbered("q", j));
    c.latches.push_back({q, prev, false, numbered("q", j)});
    prev = q;
  }
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  EXPECT_EQ(fsm.num_latches(), 70u);
  EXPECT_EQ(fsm.circuit().latches.size(), 70u);
  try {
    SymbolicTourStream stream(fsm);
    ADD_FAILURE() << "a 70-latch walk must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too many variables"),
              std::string::npos)
        << e.what();
  }
}

TEST(SuccessorEnumeration, SymbolicModelOwnsItsCircuit) {
  // Built from a temporary: the model must not reference the caller's copy.
  const auto constrained_counter = [] {
    SequentialCircuit c = counter_circuit();
    const auto ins = c.net.inputs();
    c.valid = c.net.make_or(ins[0], c.net.make_or(ins[1], ins[2]));
    return c;
  };
  model::SymbolicModel model(constrained_counter());
  // Every (state, en) pair, repeated into a partial second block.
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> inputs;
  for (std::size_t i = 0; i < 100; ++i) {
    states.push_back(i % 4);
    inputs.push_back((i / 4) % 2);
  }
  std::vector<std::optional<std::uint64_t>> next(states.size()),
      out(states.size());
  model.transition_batch(states, inputs, next, out);
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i] == 0 && inputs[i] == 0) {
      EXPECT_EQ(next[i], std::nullopt) << i;  // (00, en=0) is invalid
    } else {
      EXPECT_EQ(next[i], (states[i] + inputs[i]) % 4) << i;
    }
  }
  const std::vector<model::TestModel::Edge> from_zero{{1, 1}};
  EXPECT_EQ(model.edges(0), from_zero);
}

}  // namespace
}  // namespace simcov::sym
