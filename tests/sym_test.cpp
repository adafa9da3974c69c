// Tests for the logic-network IR and the symbolic FSM layer (transition
// relations, image computation, reachability, counting, explicit extraction).
#include "sym/logic_network.hpp"
#include "sym/symbolic_fsm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <stdexcept>

#include "runtime/rng.hpp"
#include "scalar_eval.hpp"
#include "sym/packed_logic_sim.hpp"
#include "testmodel/testmodel.hpp"
#include "tour/tour.hpp"

namespace simcov::sym {
namespace {

// ---------------------------------------------------------------------------
// LogicNetwork
// ---------------------------------------------------------------------------

/// Concrete evaluation of one input vector: lane 0 of the word-level kernel.
std::vector<bool> eval_one(const LogicNetwork& net,
                           const std::vector<bool>& inputs) {
  const std::vector<std::uint64_t> words(inputs.begin(), inputs.end());
  std::vector<std::uint64_t> values;
  PackedLogicSim(net).eval_into(words, values);
  std::vector<bool> lane0(values.size());
  for (std::size_t s = 0; s < values.size(); ++s) lane0[s] = values[s] & 1u;
  return lane0;
}

TEST(LogicNet, ConcreteEvaluation) {
  LogicNetwork net;
  const SignalId a = net.add_input("a");
  const SignalId b = net.add_input("b");
  const SignalId x = net.make_xor(a, b);
  const SignalId n = net.make_not(x);
  const SignalId m = net.make_mux(a, b, n);
  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      const auto val = eval_one(net, {va, vb});
      EXPECT_EQ(val[x], va != vb);
      EXPECT_EQ(val[n], !(va != vb));
      EXPECT_EQ(val[m], va ? vb : !(va != vb));
    }
  }
}

TEST(LogicNet, ConstantsAreShared) {
  LogicNetwork net;
  EXPECT_EQ(net.constant(true), net.constant(true));
  EXPECT_EQ(net.constant(false), net.constant(false));
  EXPECT_NE(net.constant(true), net.constant(false));
}

TEST(LogicNet, NaryHelpers) {
  LogicNetwork net;
  const SignalId a = net.add_input("a");
  const SignalId b = net.add_input("b");
  const SignalId c = net.add_input("c");
  const std::vector<SignalId> xs{a, b, c};
  const SignalId all = net.make_and(xs);
  const SignalId any = net.make_or(xs);
  const auto v1 = eval_one(net, {true, true, false});
  EXPECT_FALSE(v1[all]);
  EXPECT_TRUE(v1[any]);
  const auto v2 = eval_one(net, {true, true, true});
  EXPECT_TRUE(v2[all]);
  // Empty spans give neutral elements.
  const std::vector<SignalId> empty;
  EXPECT_TRUE(eval_one(net, {false, false, false})[net.make_and(empty)]);
  EXPECT_FALSE(eval_one(net, {false, false, false})[net.make_or(empty)]);
}

TEST(LogicNet, EqualityComparators) {
  LogicNetwork net;
  const SignalId a0 = net.add_input("a0");
  const SignalId a1 = net.add_input("a1");
  const SignalId b0 = net.add_input("b0");
  const SignalId b1 = net.add_input("b1");
  const std::vector<SignalId> a{a0, a1};
  const std::vector<SignalId> b{b0, b1};
  const SignalId eq = net.make_eq(a, b);
  const SignalId is2 = net.make_eq_const(a, 2);  // a1=1, a0=0
  EXPECT_TRUE(eval_one(net, {true, false, true, false})[eq]);
  EXPECT_FALSE(eval_one(net, {true, false, false, false})[eq]);
  EXPECT_TRUE(eval_one(net, {false, true, false, false})[is2]);
  EXPECT_FALSE(eval_one(net, {true, true, false, false})[is2]);
}

TEST(LogicNet, ValidationErrors) {
  LogicNetwork net;
  const SignalId a = net.add_input("a");
  EXPECT_THROW((void)net.make_not(99), std::out_of_range);
  EXPECT_THROW((void)eval_one(net, {}), std::invalid_argument);
  const std::vector<SignalId> one{a};
  const std::vector<SignalId> two{a, a};
  EXPECT_THROW((void)net.make_eq(one, two), std::invalid_argument);
}

TEST(LogicNet, EqConstRejectsOverWidthConstants) {
  LogicNetwork net;
  const SignalId a0 = net.add_input("a0");
  const SignalId a1 = net.add_input("a1");
  const std::vector<SignalId> a{a0, a1};
  // 4 needs three bits — it can never match a 2-bit vector; building a
  // comparator that is constant-false would silently hide an encoding bug.
  EXPECT_THROW((void)net.make_eq_const(a, 4), std::invalid_argument);
  EXPECT_THROW((void)net.make_eq_const(a, ~std::uint64_t{0}),
               std::invalid_argument);
  // The full in-range span still builds: 3 is the 2-bit maximum.
  const SignalId is3 = net.make_eq_const(a, 3);
  EXPECT_TRUE(eval_one(net, {true, true})[is3]);
  EXPECT_FALSE(eval_one(net, {true, false})[is3]);
  // A 64-bit vector accepts any constant (nothing is over-width).
  LogicNetwork wide;
  std::vector<SignalId> bits;
  for (int i = 0; i < 64; ++i) {
    bits.push_back(wide.add_input("b" + std::to_string(i)));
  }
  EXPECT_NO_THROW((void)wide.make_eq_const(bits, ~std::uint64_t{0}));
}

TEST(LogicNet, SymbolicMatchesConcrete) {
  LogicNetwork net;
  const SignalId a = net.add_input("a");
  const SignalId b = net.add_input("b");
  const SignalId c = net.add_input("c");
  const SignalId f =
      net.make_or(net.make_and(a, net.make_not(b)), net.make_xor(b, c));
  bdd::BddManager mgr;
  const std::vector<bdd::Bdd> in{mgr.var(0), mgr.var(1), mgr.var(2)};
  const auto sym = net.eval_bdd(mgr, in);
  const std::vector<unsigned> vars{0, 1, 2};
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    const std::vector<bool> bits{(assignment & 1) != 0, (assignment & 2) != 0,
                                 (assignment & 4) != 0};
    const bool concrete = eval_one(net, bits)[f];
    const bdd::Bdd point = mgr.minterm(vars, bits);
    EXPECT_EQ(mgr.leq(point, sym[f]), concrete) << "assignment " << assignment;
  }
}

// ---------------------------------------------------------------------------
// SymbolicFsm on a hand-built 2-bit counter with enable.
// ---------------------------------------------------------------------------

/// 2-bit counter: counts up when `en`, holds otherwise. Output = carry.
SequentialCircuit counter_circuit() {
  SequentialCircuit c;
  const SignalId en = c.net.add_input("en");
  const SignalId q0 = c.net.add_input("q0");
  const SignalId q1 = c.net.add_input("q1");
  const SignalId n0 = c.net.make_xor(q0, en);
  const SignalId n1 = c.net.make_xor(q1, c.net.make_and(q0, en));
  const SignalId carry = c.net.make_and(en, c.net.make_and(q0, q1));
  c.primary_inputs = {en};
  c.latches = {{q0, n0, false, "q0"}, {q1, n1, false, "q1"}};
  c.outputs = {{"carry", carry}};
  return c;
}

TEST(SymFsm, CounterReachesAllFourStates) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  EXPECT_EQ(fsm.num_latches(), 2u);
  EXPECT_EQ(fsm.num_inputs(), 1u);
  const auto stats = fsm.stats();
  EXPECT_DOUBLE_EQ(stats.reachable_states, 4.0);
  // Each state has 2 valid inputs: 8 transitions.
  EXPECT_DOUBLE_EQ(stats.transitions, 8.0);
  EXPECT_DOUBLE_EQ(stats.valid_input_combinations, 2.0);
  // BFS depth: 00 -> 01 -> 10 -> 11 then a no-growth check round.
  EXPECT_GE(stats.reachability_iterations, 4u);
}

TEST(SymFsm, ImageOfSingleState) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  // Image of {00} = {00 (en=0), 01 (en=1)}.
  const bdd::Bdd img = fsm.image(fsm.initial_states());
  EXPECT_DOUBLE_EQ(fsm.count_states(img), 2.0);
  // The initial state is in its own image (en=0 holds).
  EXPECT_TRUE(mgr.leq(fsm.initial_states(), img));
}

TEST(SymFsm, ConstraintPrunesStateSpace) {
  // Constrain en=1: counter must cycle, and "hold" transitions vanish.
  SequentialCircuit c = counter_circuit();
  c.valid = c.net.inputs()[0];  // en itself must be 1
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto stats = fsm.stats();
  EXPECT_DOUBLE_EQ(stats.reachable_states, 4.0);
  EXPECT_DOUBLE_EQ(stats.transitions, 4.0);  // one valid input per state
  EXPECT_DOUBLE_EQ(stats.valid_input_combinations, 1.0);
}

TEST(SymFsm, UndeclaredInputThrows) {
  SequentialCircuit c;
  const SignalId a = c.net.add_input("a");
  const SignalId q = c.net.add_input("q");
  c.latches = {{q, c.net.make_not(q), false, "q"}};
  // `a` is neither latch nor declared primary input.
  (void)a;
  bdd::BddManager mgr;
  EXPECT_THROW((void)SymbolicFsm(mgr, c), std::invalid_argument);
}

TEST(SymFsm, SignalDeclaredTwiceThrows) {
  SequentialCircuit c;
  const SignalId q = c.net.add_input("q");
  c.latches = {{q, q, false, "q"}};
  c.primary_inputs = {q};
  bdd::BddManager mgr;
  EXPECT_THROW((void)SymbolicFsm(mgr, c), std::invalid_argument);
}

TEST(SymFsm, PreimageInvertsImage) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  // Preimage of the image of the initial state contains the initial state.
  const bdd::Bdd img = fsm.image(fsm.initial_states());
  const bdd::Bdd pre = fsm.preimage(img);
  EXPECT_TRUE(mgr.leq(fsm.initial_states(), pre));
  // State 01 is entered only from 00 (en=1) and from itself (en=0).
  const std::vector<unsigned> ps{fsm.ps_var(0), fsm.ps_var(1)};
  const std::vector<bool> s01{true, false};
  const bdd::Bdd state01 = mgr.minterm(ps, s01);
  const bdd::Bdd pred = fsm.preimage(state01);
  EXPECT_DOUBLE_EQ(fsm.count_states(pred), 2.0);
}

TEST(SymFsm, ReorderIsSemanticallyInvisible) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const bdd::Bdd reached = fsm.reachable_states();
  const bdd::Bdd img = fsm.image(fsm.initial_states());
  const double states = fsm.count_states(reached);
  const double transitions = fsm.count_transitions(reached);
  const std::uint64_t fp_before = mgr.order_fingerprint();

  (void)mgr.try_reorder();

  // Handles stay valid and recomputation reaches the same functions.
  EXPECT_EQ(fsm.image(fsm.initial_states()), img);
  EXPECT_DOUBLE_EQ(fsm.count_states(reached), states);
  EXPECT_DOUBLE_EQ(fsm.count_transitions(reached), transitions);
  // ps/ns/pi var ids address the same variables whatever the level map
  // says now (the order itself may or may not have moved).
  const std::vector<unsigned> ps{fsm.ps_var(0), fsm.ps_var(1)};
  const bdd::Bdd s00 = mgr.minterm(ps, std::vector<bool>{false, false});
  EXPECT_TRUE(mgr.leq(s00, reached));
  (void)fp_before;
  EXPECT_GE(mgr.stats().reorders, 1u);
}

TEST(SymFsm, AutoReorderPolicyGivesIdenticalCounts) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager static_mgr;
  SymbolicFsm static_fsm(static_mgr, c);
  const auto baseline = static_fsm.stats();

  bdd::BddManager auto_mgr;
  auto_mgr.set_reorder_policy(bdd::ReorderPolicy::kAuto);
  auto_mgr.set_reorder_threshold(16);
  SymbolicFsm auto_fsm(auto_mgr, c);
  const auto reordered = auto_fsm.stats();

  EXPECT_DOUBLE_EQ(reordered.reachable_states, baseline.reachable_states);
  EXPECT_DOUBLE_EQ(reordered.transitions, baseline.transitions);
  EXPECT_DOUBLE_EQ(reordered.valid_input_combinations,
                   baseline.valid_input_combinations);
  EXPECT_EQ(reordered.reachability_iterations,
            baseline.reachability_iterations);
}

TEST(Invariant, HoldsWhenBadUnreachable) {
  // Counter with the top bit forced off: q1 stays 0.
  SequentialCircuit c;
  const SignalId en = c.net.add_input("en");
  const SignalId q0 = c.net.add_input("q0");
  const SignalId q1 = c.net.add_input("q1");
  c.primary_inputs = {en};
  c.latches = {{q0, c.net.make_xor(q0, en), false, "q0"},
               {q1, c.net.constant(false), false, "q1"}};
  c.outputs = {{"q0", q0}};
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto result = fsm.check_invariant(!mgr.var(fsm.ps_var(1)));
  EXPECT_TRUE(result.holds);
  EXPECT_FALSE(result.counterexample.has_value());
}

TEST(Invariant, ShortestCounterexampleTrace) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  // "The counter never reaches 11": violated after 3 increments.
  const bdd::Bdd bad_state =
      mgr.var(fsm.ps_var(0)) & mgr.var(fsm.ps_var(1));
  const auto result = fsm.check_invariant(!bad_state);
  ASSERT_FALSE(result.holds);
  ASSERT_TRUE(result.counterexample.has_value());
  const auto& trace = *result.counterexample;
  ASSERT_EQ(trace.states.size(), 4u);  // 00 -> 01 -> 10 -> 11 (shortest)
  ASSERT_EQ(trace.inputs.size(), 3u);
  // Starts at reset, ends in the bad state.
  EXPECT_EQ(trace.states.front(), (std::vector<bool>{false, false}));
  EXPECT_EQ(trace.states.back(), (std::vector<bool>{true, true}));
  // Every step must be enabled (en = 1) to keep counting.
  for (const auto& in : trace.inputs) {
    ASSERT_EQ(in.size(), 1u);
    EXPECT_TRUE(in[0]);
  }
  // Replay the trace through the netlist to validate it end to end.
  std::vector<bool> state = trace.states.front();
  for (std::size_t k = 0; k < trace.inputs.size(); ++k) {
    const std::vector<bool> net_in{trace.inputs[k][0], state[0], state[1]};
    const auto values = eval_one(c.net, net_in);
    state = {values[c.latches[0].next], values[c.latches[1].next]};
    EXPECT_EQ(state, trace.states[k + 1]) << "step " << k;
  }
}

TEST(Invariant, ViolatedAtReset) {
  const SequentialCircuit c = counter_circuit();
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto result = fsm.check_invariant(mgr.zero());
  ASSERT_FALSE(result.holds);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->states.size(), 1u);
  EXPECT_TRUE(result.counterexample->inputs.empty());
}

TEST(Invariant, ControlModelSafetyProperty) {
  // On the DLX control model: "stall and squash never assert together"
  // (they are driven by a load vs a control transfer in EX — exclusive).
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 2;
  const auto model = testmodel::build_dlx_control_model(opt);
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, model.circuit);
  // stall & squash are outputs over (ps, pi): check no reachable state
  // admits a valid input with both asserted.
  const auto& outs = fsm.output_functions();
  // outputs: stall=0, squash=1 (see testmodel.cpp ordering).
  const bdd::Bdd both = outs[0] & outs[1] & fsm.valid_inputs();
  const bdd::Bdd reachable = fsm.reachable_states();
  EXPECT_FALSE(mgr.intersects(reachable, both));
}

// ---------------------------------------------------------------------------
// Explicit extraction
// ---------------------------------------------------------------------------

TEST(Extract, CounterBecomesFourStateMachine) {
  const SequentialCircuit c = counter_circuit();
  const auto model = extract_explicit(c, 100);
  EXPECT_FALSE(model.truncated);
  EXPECT_EQ(model.machine.num_states(), 4u);
  EXPECT_EQ(model.machine.num_inputs(), 2u);  // en in {0,1}
  EXPECT_TRUE(model.machine.is_complete());
  EXPECT_EQ(model.state_bits.size(), 4u);
  // Output symbol: carry fires only on (11, en=1).
  fsm::OutputId carries = 0;
  for (fsm::StateId s = 0; s < 4; ++s) {
    for (fsm::InputId i = 0; i < 2; ++i) {
      carries += model.machine.transition(s, i)->output;
    }
  }
  EXPECT_EQ(carries, 1u);
}

TEST(Extract, AgreesWithSymbolicCounts) {
  const SequentialCircuit c = counter_circuit();
  const auto model = extract_explicit(c, 100);
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto stats = fsm.stats();
  EXPECT_DOUBLE_EQ(stats.reachable_states,
                   static_cast<double>(model.machine.num_states()));
  EXPECT_DOUBLE_EQ(stats.transitions,
                   static_cast<double>(model.machine.num_defined_transitions()));
}

TEST(Extract, ConstraintLeavesInvalidInputsUndefined) {
  SequentialCircuit c = counter_circuit();
  // en must be 1 in state 00 (q0=q1=0); elsewhere anything goes:
  // valid = en | q0 | q1.
  const auto ins = c.net.inputs();
  c.valid = c.net.make_or(ins[0], c.net.make_or(ins[1], ins[2]));
  const auto model = extract_explicit(c, 100);
  EXPECT_EQ(model.machine.num_states(), 4u);
  EXPECT_FALSE(model.machine.is_complete());
  // State 00 is the initial state: input en=0 undefined there.
  fsm::InputId en0 = model.input_bits[0][0] ? 1 : 0;
  EXPECT_FALSE(model.machine.transition(0, en0).has_value());
  EXPECT_TRUE(model.machine.transition(0, 1 - en0).has_value());
}

TEST(Extract, TruncationFlag) {
  const SequentialCircuit c = counter_circuit();
  const auto model = extract_explicit(c, 2);
  EXPECT_TRUE(model.truncated);
  EXPECT_LE(model.machine.num_states(), 2u);
}

TEST(Extract, ExtractedMachineSupportsTours) {
  const SequentialCircuit c = counter_circuit();
  const auto model = extract_explicit(c, 100);
  const auto t = tour::minimum_transition_tour(model.machine, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(tour::is_transition_tour(model.machine, 0, t->inputs));
  EXPECT_EQ(t->length(), 8u);  // Eulerian: every state in=out=2
}

/// splitmix64 over each sequence's length, then each of its inputs.
std::uint64_t hash_sequences(
    const std::vector<std::vector<fsm::InputId>>& seqs) {
  std::uint64_t h = 0;
  for (const auto& seq : seqs) {
    h = runtime::splitmix64(h ^ seq.size());
    for (fsm::InputId i : seq) h = runtime::splitmix64(h ^ i);
  }
  return h;
}

/// The reduced DLX control model (the Figure-3(b) ladder flags with one
/// register-address bit and the reduced ISA), extracted explicitly.
const fsm::MealyMachine& reduced_dlx_machine() {
  static const ExplicitModel model = [] {
    testmodel::TestModelOptions opt;
    opt.output_sync_latches = false;
    opt.fetch_controller = false;
    opt.aux_outputs = false;
    opt.onehot_opclass = false;
    opt.interlock_registers = false;
    opt.reg_addr_bits = 1;
    opt.reduced_isa = true;
    return extract_explicit(testmodel::build_dlx_control_model(opt).circuit,
                            100000);
  }();
  return model.machine;
}

// Pins of the explicit tours of the reduced DLX model: any change to the
// greedy walk's choices changes a hash.
TEST(ExtractTourPin, ReducedDlxTransitionTourSet) {
  const auto set = tour::greedy_transition_tour_set(reduced_dlx_machine(), 0);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->total_length(), 40678u);
  EXPECT_EQ(set->sequences.size(), 19u);
  EXPECT_EQ(hash_sequences(set->sequences), 12565255528371427789ull);
}

TEST(ExtractTourPin, ReducedDlxStateTour) {
  const auto t = tour::state_tour(reduced_dlx_machine(), 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->length(), 1614u);
  EXPECT_EQ(hash_sequences({t->inputs}), 18342315256922011764ull);
}

TEST(Extract, TooManyOutputsThrowsBeforeEnumerating) {
  // 32 outputs do not fit an OutputId. The width is checked before any
  // state is enumerated, so a circuit with no valid transition at all
  // (nothing to enumerate) is rejected too.
  SequentialCircuit c;
  const SignalId q = c.net.add_input("q");
  c.latches = {{q, c.net.make_not(q), false, "q"}};
  for (int b = 0; b < 32; ++b) {
    c.outputs.emplace_back("o" + std::to_string(b), q);
  }
  EXPECT_THROW((void)extract_explicit(c, 100), std::invalid_argument);
  c.valid = c.net.constant(false);
  EXPECT_THROW((void)extract_explicit(c, 100), std::invalid_argument);
  c.outputs.pop_back();  // 31 outputs fit
  EXPECT_EQ(extract_explicit(c, 100).machine.num_defined_transitions(), 0u);
}

// ---------------------------------------------------------------------------
// Explicit extraction vs the scalar reference
// ---------------------------------------------------------------------------

/// Copy of the scalar extract_explicit, verbatim but for the names of its
/// two helpers: a BFS over latch-value vectors keyed by a std::map, one
/// scalar network pass per (state, input symbol). The reference the
/// word-level extraction must reproduce.
ExplicitModel reference_extract_explicit(const SequentialCircuit& c,
                                         std::size_t max_states) {
  const auto roles = input_sources(c);
  const std::size_t num_pi = c.primary_inputs.size();
  const std::size_t num_latch = c.latches.size();

  ExplicitModel model;
  {
    bdd::BddManager mgr;
    SymbolicFsm sym(mgr, c);
    std::vector<unsigned> pi_vars(num_pi);
    for (std::size_t k = 0; k < num_pi; ++k) pi_vars[k] = sym.pi_var(k);
    std::vector<unsigned> ps_vars(num_latch);
    for (std::size_t j = 0; j < num_latch; ++j) ps_vars[j] = sym.ps_var(j);
    const bdd::Bdd over_pi = mgr.exists(sym.valid_inputs(), mgr.cube(ps_vars));
    mgr.for_each_minterm(over_pi, pi_vars, [&](const std::vector<bool>& v) {
      model.input_bits.push_back(v);
      return true;
    });
  }
  const std::size_t num_symbols = model.input_bits.size();

  auto net_input_vector = [&](const std::vector<bool>& state,
                              const std::vector<bool>& pi) {
    std::vector<bool> v(roles.size());
    for (std::size_t k = 0; k < roles.size(); ++k) {
      const auto& [is_latch, index] = roles[k];
      v[k] = is_latch ? state[index] : pi[index];
    }
    return v;
  };

  std::map<std::vector<bool>, fsm::StateId> state_id;
  struct PendingTransition {
    fsm::StateId from;
    fsm::InputId input;
    fsm::StateId to;
    fsm::OutputId output;
  };
  std::vector<PendingTransition> transitions;

  std::vector<bool> init(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) init[j] = c.latches[j].init;
  state_id.emplace(init, 0);
  model.state_bits.push_back(init);
  std::deque<fsm::StateId> queue{0};

  std::vector<bool> values;
  while (!queue.empty()) {
    const fsm::StateId sid = queue.front();
    queue.pop_front();
    const std::vector<bool> state = model.state_bits[sid];
    for (std::size_t sym_id = 0; sym_id < num_symbols; ++sym_id) {
      scalar_eval_into(
          c.net, net_input_vector(state, model.input_bits[sym_id]), values);
      if (c.valid.has_value() && !values[*c.valid]) continue;  // invalid here
      std::vector<bool> next(num_latch);
      for (std::size_t j = 0; j < num_latch; ++j) {
        next[j] = values[c.latches[j].next];
      }
      fsm::OutputId out = 0;
      if (c.outputs.size() > 31) {
        throw std::invalid_argument(
            "extract_explicit: too many outputs to pack into an OutputId");
      }
      for (std::size_t b = 0; b < c.outputs.size(); ++b) {
        if (values[c.outputs[b].second]) out |= fsm::OutputId{1} << b;
      }
      auto [it, inserted] =
          state_id.emplace(next, static_cast<fsm::StateId>(state_id.size()));
      if (inserted) {
        if (state_id.size() > max_states) {
          model.truncated = true;
          state_id.erase(it);
          continue;
        }
        model.state_bits.push_back(next);
        queue.push_back(it->second);
      }
      if (!model.truncated || !inserted) {
        transitions.push_back({sid, static_cast<fsm::InputId>(sym_id),
                               it->second, out});
      }
    }
  }

  fsm::MealyMachine machine(static_cast<fsm::StateId>(model.state_bits.size()),
                            static_cast<fsm::InputId>(std::max<std::size_t>(
                                num_symbols, 1)));
  machine.set_initial_state(0);
  for (const auto& t : transitions) {
    machine.set_transition(t.from, t.input, t.to, t.output);
  }
  model.machine = std::move(machine);
  return model;
}

/// splitmix64 over the machine's shape and every (state, input) slot.
std::uint64_t hash_machine(const fsm::MealyMachine& m) {
  std::uint64_t h = runtime::splitmix64(m.num_states());
  h = runtime::splitmix64(h ^ m.num_inputs());
  for (fsm::StateId s = 0; s < m.num_states(); ++s) {
    for (fsm::InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i);
      h = runtime::splitmix64(h ^ (t ? t->next + 1 : 0));
      h = runtime::splitmix64(h ^ (t ? t->output : 0));
    }
  }
  return h;
}

void expect_same_machine(const fsm::MealyMachine& a,
                         const fsm::MealyMachine& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  EXPECT_EQ(a.initial_state(), b.initial_state());
  EXPECT_EQ(a.num_defined_transitions(), b.num_defined_transitions());
  for (fsm::StateId s = 0; s < a.num_states(); ++s) {
    for (fsm::InputId i = 0; i < a.num_inputs(); ++i) {
      ASSERT_EQ(a.transition(s, i), b.transition(s, i))
          << "state " << s << " input " << i;
    }
  }
}

/// What a seeded random circuit of the differential exercises.
struct RandomCircuitShape {
  bool wide = false;       ///< more than 64 latches
  bool with_valid = false;
  std::size_t max_states = 0;
};

/// Seeded random sequential circuit. Latch and primary-input signals are
/// created interleaved, so network-input order differs from both
/// declaration orders. A wide circuit has 65-80 latches, but only three
/// "core" latches feed the logic, so its state space stays small unless
/// max_states cuts it.
SequentialCircuit random_sequential_circuit(std::uint64_t seed,
                                            RandomCircuitShape& shape) {
  std::mt19937_64 rng(seed);
  shape.wide = seed % 5 == 0;
  shape.with_valid = seed % 2 == 0;
  shape.max_states = seed % 3 == 0 ? 1 + rng() % 6 : 4096;
  const std::size_t num_latch = shape.wide ? 65 + rng() % 16 : 1 + rng() % 7;
  const std::size_t num_core = shape.wide ? 3 : num_latch;
  const std::size_t num_pi = rng() % 5;

  SequentialCircuit c;
  std::vector<SignalId> qs, pis;
  while (qs.size() < num_latch || pis.size() < num_pi) {
    const bool latch =
        pis.size() == num_pi || (qs.size() < num_latch && rng() % 2 == 0);
    if (latch) {
      qs.push_back(c.net.add_input("q" + std::to_string(qs.size())));
    } else {
      pis.push_back(c.net.add_input("i" + std::to_string(pis.size())));
    }
  }
  c.primary_inputs = pis;
  std::vector<SignalId> pool(qs.begin(), qs.begin() + num_core);
  pool.insert(pool.end(), pis.begin(), pis.end());
  pool.push_back(c.net.constant(false));
  pool.push_back(c.net.constant(true));
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  const std::size_t num_gates = 10 + rng() % 40;
  for (std::size_t g = 0; g < num_gates; ++g) {
    switch (rng() % 5) {
      case 0: pool.push_back(c.net.make_not(pick())); break;
      case 1: pool.push_back(c.net.make_and(pick(), pick())); break;
      case 2: pool.push_back(c.net.make_or(pick(), pick())); break;
      case 3: pool.push_back(c.net.make_xor(pick(), pick())); break;
      default: pool.push_back(c.net.make_mux(pick(), pick(), pick())); break;
    }
  }
  for (std::size_t j = 0; j < num_latch; ++j) {
    c.latches.push_back(
        {qs[j], pick(), rng() % 2 == 0, "q" + std::to_string(j)});
  }
  const std::size_t num_outputs = rng() % 5;
  for (std::size_t b = 0; b < num_outputs; ++b) {
    c.outputs.emplace_back("o" + std::to_string(b), pick());
  }
  // valid = a | (b & c) over the pool: legal in some (state, input) pairs,
  // pruned in others.
  if (shape.with_valid) {
    c.valid = c.net.make_or(pick(), c.net.make_and(pick(), pick()));
  }
  return c;
}

TEST(ExtractDifferential, MatchesScalarReferenceOnRandomCircuits) {
  std::size_t wide = 0, with_valid = 0, truncated = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomCircuitShape shape;
    const SequentialCircuit c = random_sequential_circuit(seed, shape);
    const ExplicitModel want = reference_extract_explicit(c, shape.max_states);
    const ExplicitModel got = extract_explicit(c, shape.max_states);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_machine(got.machine, want.machine);
    EXPECT_EQ(got.state_bits, want.state_bits);
    EXPECT_EQ(got.input_bits, want.input_bits);
    EXPECT_EQ(got.truncated, want.truncated);
    wide += shape.wide;
    with_valid += shape.with_valid;
    truncated += want.truncated;
  }
  // The seeds cover every path the word-level extraction has.
  EXPECT_GE(wide, 10u);
  EXPECT_GE(with_valid, 25u);
  EXPECT_GE(truncated, 10u);
}

TEST(ExtractDifferential, MultiBlockAlphabetMatchesScalarReference) {
  // Seven primary inputs give a 128-symbol alphabet: two full 64-lane
  // blocks, and a valid signal that prunes lanes in both.
  SequentialCircuit c;
  std::vector<SignalId> pis, qs;
  for (int k = 0; k < 7; ++k) {
    pis.push_back(c.net.add_input("i" + std::to_string(k)));
  }
  for (int j = 0; j < 3; ++j) {
    qs.push_back(c.net.add_input("q" + std::to_string(j)));
  }
  c.primary_inputs = pis;
  const SignalId mix = c.net.make_xor(pis[6], c.net.make_and(pis[0], qs[2]));
  c.latches = {{qs[0], c.net.make_xor(qs[0], pis[1]), false, "q0"},
               {qs[1], c.net.make_mux(pis[2], qs[0], mix), false, "q1"},
               {qs[2], c.net.make_or(qs[1], pis[3]), true, "q2"}};
  c.outputs = {{"o0", mix}, {"o1", c.net.make_and(pis[4], qs[1])}};
  c.valid = c.net.make_or(c.net.make_not(pis[5]), qs[0]);
  const ExplicitModel want = reference_extract_explicit(c, 4096);
  const ExplicitModel got = extract_explicit(c, 4096);
  ASSERT_EQ(want.input_bits.size(), 128u);
  expect_same_machine(got.machine, want.machine);
  EXPECT_EQ(got.state_bits, want.state_bits);
  EXPECT_EQ(got.input_bits, want.input_bits);
  EXPECT_EQ(got.truncated, want.truncated);
}

TEST(ExtractPin, ReducedDlxModel) {
  const fsm::MealyMachine& m = reduced_dlx_machine();
  EXPECT_EQ(m.num_states(), 1024u);
  EXPECT_EQ(m.num_defined_transitions(), 21508u);
  EXPECT_EQ(hash_machine(m), 8491316636677172491ull);
}

// Property: on random gate networks, concrete evaluation and symbolic
// (BDD) evaluation agree on every assignment.
class LogicNetProperty : public ::testing::TestWithParam<int> {};

TEST_P(LogicNetProperty, ConcreteAndSymbolicAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 53 + 11);
  LogicNetwork net;
  const unsigned kInputs = 5;
  std::vector<SignalId> pool;
  for (unsigned k = 0; k < kInputs; ++k) {
    pool.push_back(net.add_input("i" + std::to_string(k)));
  }
  pool.push_back(net.constant(false));
  pool.push_back(net.constant(true));
  auto pick = [&]() { return pool[rng() % pool.size()]; };
  for (int g = 0; g < 30; ++g) {
    switch (rng() % 5) {
      case 0: pool.push_back(net.make_not(pick())); break;
      case 1: pool.push_back(net.make_and(pick(), pick())); break;
      case 2: pool.push_back(net.make_or(pick(), pick())); break;
      case 3: pool.push_back(net.make_xor(pick(), pick())); break;
      case 4: pool.push_back(net.make_mux(pick(), pick(), pick())); break;
    }
  }
  bdd::BddManager mgr;
  std::vector<bdd::Bdd> in_funcs;
  for (unsigned k = 0; k < kInputs; ++k) in_funcs.push_back(mgr.var(k));
  const auto sym = net.eval_bdd(mgr, in_funcs);
  for (unsigned a = 0; a < (1u << kInputs); ++a) {
    std::vector<bool> bits(kInputs);
    std::vector<bool> by_var(kInputs);
    for (unsigned v = 0; v < kInputs; ++v) {
      bits[v] = (a >> v) & 1u;
      by_var[v] = bits[v];
    }
    const auto concrete = eval_one(net, bits);
    for (std::size_t s = 0; s < net.num_signals(); ++s) {
      ASSERT_EQ(concrete[s], mgr.eval(sym[s], by_var))
          << "signal " << s << " assignment " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogicNetProperty, ::testing::Range(0, 10));

// Property: random small circuits — symbolic and explicit agree on
// reachable-state and transition counts.
class SymExplicitAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SymExplicitAgreement, CountsMatch) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31 + 7);
  SequentialCircuit c;
  const unsigned kLatches = 3;
  const unsigned kInputs = 2;
  std::vector<SignalId> pis, qs;
  for (unsigned k = 0; k < kInputs; ++k) {
    pis.push_back(c.net.add_input("i" + std::to_string(k)));
  }
  for (unsigned j = 0; j < kLatches; ++j) {
    qs.push_back(c.net.add_input("q" + std::to_string(j)));
  }
  c.primary_inputs = pis;
  auto random_signal = [&]() {
    // Random 2-level expression over the available signals.
    auto pick = [&]() {
      const auto& pool = (rng() % 2 == 0) ? pis : qs;
      SignalId s = pool[rng() % pool.size()];
      return (rng() % 2 == 0) ? c.net.make_not(s) : s;
    };
    SignalId x = c.net.make_and(pick(), pick());
    SignalId y = c.net.make_xor(pick(), pick());
    return c.net.make_or(x, y);
  };
  for (unsigned j = 0; j < kLatches; ++j) {
    c.latches.push_back({qs[j], random_signal(), false, "q"});
  }
  c.outputs = {{"o", random_signal()}};

  const auto model = extract_explicit(c, 1u << kLatches);
  bdd::BddManager mgr;
  SymbolicFsm fsm(mgr, c);
  const auto stats = fsm.stats();
  EXPECT_FALSE(model.truncated);
  EXPECT_DOUBLE_EQ(stats.reachable_states,
                   static_cast<double>(model.machine.num_states()));
  EXPECT_DOUBLE_EQ(stats.transitions,
                   static_cast<double>(model.machine.num_defined_transitions()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymExplicitAgreement, ::testing::Range(0, 12));

}  // namespace
}  // namespace simcov::sym
