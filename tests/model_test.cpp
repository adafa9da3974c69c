// Cross-backend differential tests for the TestModel seam: an explicitly
// enumerated model and its implicit (BDD) counterpart must agree on every
// observable of the interface — packed keys, edge lists, reachable counts,
// and tour coverage statistics. This is the contract that lets
// core::run_campaign pick a backend by model size without changing results.
#include "model/encode.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "fsm/mealy.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::model {
namespace {

testmodel::TestModelOptions tiny_model_options() {
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

/// Walks the reachable state graph of `a` (BFS over packed keys) and checks
/// `b` produces the identical edge list at every state, and that both report
/// reachable counts matching the enumeration.
void expect_models_agree(TestModel& a, TestModel& b) {
  ASSERT_EQ(a.reset_state(), b.reset_state());
  // Equal widths plus equal keys (below) mean equal PI bit vectors.
  EXPECT_EQ(a.input_bits(), b.input_bits());
  EXPECT_DOUBLE_EQ(a.count_reachable_states(), b.count_reachable_states());
  EXPECT_DOUBLE_EQ(a.count_reachable_transitions(),
                   b.count_reachable_transitions());

  std::unordered_set<std::uint64_t> seen{a.reset_state()};
  std::deque<std::uint64_t> queue{a.reset_state()};
  std::size_t edges_total = 0;
  while (!queue.empty()) {
    const std::uint64_t s = queue.front();
    queue.pop_front();
    const auto ea = a.edges(s);
    const auto eb = b.edges(s);
    ASSERT_EQ(ea.size(), eb.size()) << "edge count differs at state " << s;
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].input, eb[k].input) << "state " << s << " edge " << k;
      EXPECT_EQ(ea[k].next, eb[k].next) << "state " << s << " edge " << k;
      EXPECT_EQ(a.step(s, ea[k].input), b.step(s, ea[k].input));
    }
    edges_total += ea.size();
    for (const auto& e : ea) {
      if (seen.insert(e.next).second) queue.push_back(e.next);
    }
  }
  // The enumerated graph must match what both backends counted.
  EXPECT_DOUBLE_EQ(static_cast<double>(seen.size()),
                   a.count_reachable_states());
  EXPECT_DOUBLE_EQ(static_cast<double>(edges_total),
                   a.count_reachable_transitions());
}

/// Both backends generate a complete transition tour and report the
/// identical coverage statistics; each backend's tour replays on the other
/// with the same result (the coverage definition is representation-blind).
void expect_tours_agree(TestModel& a, TestModel& b) {
  auto ta = a.transition_tour();
  auto tb = b.transition_tour();
  EXPECT_TRUE(ta.complete);
  EXPECT_TRUE(tb.complete);
  EXPECT_EQ(ta.coverage, tb.coverage);
  EXPECT_EQ(ta.coverage.state_coverage(), 1.0);
  EXPECT_EQ(ta.coverage.transition_coverage(), 1.0);
  // Cross-replay: a tour generated on one backend evaluates identically on
  // the other.
  EXPECT_EQ(b.evaluate(ta.tour), ta.coverage);
  EXPECT_EQ(a.evaluate(tb.tour), tb.coverage);
}

TEST(ModelDifferential, RandomMachinesExplicitVsSymbolicEncoding) {
  const std::vector<std::tuple<unsigned, unsigned, std::uint64_t>> corpus{
      {5, 2, 1}, {12, 3, 2}, {23, 2, 3}, {40, 4, 4}, {64, 3, 5},
  };
  for (const auto& [states, inputs, seed] : corpus) {
    SCOPED_TRACE(testing::Message() << "machine " << states << "x" << inputs
                                    << " seed " << seed);
    const auto machine =
        fsm::random_connected_machine(states, inputs, 4, seed);
    ExplicitModel explicit_model(machine, 0);
    const auto circuit = encode_circuit(machine, 0);
    SymbolicModel symbolic_model(circuit);

    EXPECT_EQ(explicit_model.backend(), Backend::kExplicit);
    EXPECT_EQ(symbolic_model.backend(), Backend::kSymbolic);
    EXPECT_EQ(explicit_model.state_bits(), symbolic_model.state_bits());
    EXPECT_EQ(explicit_model.input_bits(), symbolic_model.input_bits());
    expect_models_agree(explicit_model, symbolic_model);
    expect_tours_agree(explicit_model, symbolic_model);
  }
}

TEST(ModelDifferential, RandomWalksAgreeAcrossBackends) {
  // The walk RNG draws are backend-local, so the step sequences need not
  // match — but replaying one backend's walk on the other must reproduce
  // its coverage statistics exactly.
  const auto machine = fsm::random_connected_machine(17, 3, 4, 7);
  ExplicitModel explicit_model(machine, 0);
  const auto circuit = encode_circuit(machine, 0);
  SymbolicModel symbolic_model(circuit);

  auto we = explicit_model.random_walk(200, 42);
  auto ws = symbolic_model.random_walk(200, 42);
  EXPECT_EQ(we.steps, 200u);
  EXPECT_EQ(ws.steps, 200u);
  EXPECT_EQ(symbolic_model.evaluate(we.tour), we.coverage);
  EXPECT_EQ(explicit_model.evaluate(ws.tour), ws.coverage);
}

TEST(ModelDifferential, ReducedDlxControlModel) {
  const auto model = testmodel::build_dlx_control_model(tiny_model_options());
  auto extraction = sym::extract_explicit(model.circuit, 100000);
  ASSERT_FALSE(extraction.truncated);
  ExplicitModel explicit_model(std::move(extraction));
  SymbolicModel symbolic_model(model.circuit);

  expect_models_agree(explicit_model, symbolic_model);
  expect_tours_agree(explicit_model, symbolic_model);
}

TEST(TestModelKeys, PackUnpackRoundTrip) {
  const std::vector<bool> bits{true, false, true, true, false};
  const std::uint64_t key = TestModel::pack_bits(bits);
  EXPECT_EQ(key, 0b01101u);
  EXPECT_EQ(TestModel::unpack_bits(key, 5), bits);
  EXPECT_THROW(TestModel::pack_bits(std::vector<bool>(64, true)),
               std::invalid_argument);
}

TEST(ExplicitModelAdapter, RejectsTruncatedExtraction) {
  const auto model = testmodel::build_dlx_control_model(tiny_model_options());
  auto truncated = sym::extract_explicit(model.circuit, 4);
  ASSERT_TRUE(truncated.truncated);
  EXPECT_THROW(ExplicitModel{std::move(truncated)}, std::invalid_argument);
}

TEST(CoverageTrackerTest, CountsDistinctStatesAndTransitions) {
  CoverageTracker tracker(3.0, 4.0);
  tracker.visit_state(7);
  tracker.visit_state(7);
  tracker.visit_state(9);
  tracker.cover_transition(7, 0);
  tracker.cover_transition(7, 1);
  tracker.cover_transition(7, 1);
  const auto stats = tracker.stats();
  EXPECT_DOUBLE_EQ(stats.states_visited, 2.0);
  EXPECT_DOUBLE_EQ(stats.transitions_covered, 2.0);
  EXPECT_DOUBLE_EQ(stats.state_coverage(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.transition_coverage(), 0.5);
  EXPECT_FALSE(stats.complete());
}

}  // namespace
}  // namespace simcov::model
