// Cross-backend differential tests for the TestModel seam: an explicitly
// enumerated model and its implicit (BDD) counterpart must agree on every
// observable of the interface — packed keys, edge lists, successors and
// outputs through transition_batch, reachable counts, and tour coverage
// statistics. This is the contract that lets core::run_campaign pick a
// backend by model size without changing results.
#include "model/encode.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "distinguish/wmethod.hpp"
#include "fsm/mealy.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"
#include "tour/tour.hpp"

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
/// `b` produces the identical edge list at every state, that transition_batch
/// on both gives every edge's successor and the same output, and that both
/// report reachable counts matching the enumeration.
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
    // Every edge of the state as one lane of a batch, on both backends.
    const std::vector<std::uint64_t> states(ea.size(), s);
    std::vector<std::uint64_t> inputs;
    for (const auto& e : ea) inputs.push_back(e.input);
    std::vector<std::optional<std::uint64_t>> next_a(ea.size()),
        out_a(ea.size()), next_b(ea.size()), out_b(ea.size());
    a.transition_batch(states, inputs, next_a, out_a);
    b.transition_batch(states, inputs, next_b, out_b);
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].input, eb[k].input) << "state " << s << " edge " << k;
      EXPECT_EQ(ea[k].next, eb[k].next) << "state " << s << " edge " << k;
      EXPECT_EQ(next_a[k], ea[k].next) << "state " << s << " edge " << k;
      EXPECT_EQ(next_b[k], ea[k].next) << "state " << s << " edge " << k;
      ASSERT_TRUE(out_a[k].has_value()) << "state " << s << " edge " << k;
      EXPECT_EQ(out_a[k], out_b[k]) << "state " << s << " edge " << k;
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

TEST(ModelDifferential, TransferMutantOfARingExplicitVsSymbolicEncoding) {
  // A 3-state ring (input 0 advances, input 1 holds) whose transition
  // (1, 0) is redirected to state 0, its output kept: state 2 becomes
  // unreachable, and both backends must still agree on every reachable
  // successor and output.
  fsm::MealyMachine machine(3, 2);
  for (fsm::StateId s = 0; s < 3; ++s) {
    machine.set_transition(s, 0, (s + 1) % 3, s);
    machine.set_transition(s, 1, s, 10 + s);
  }
  machine.set_transition(1, 0, 0, 1);
  ExplicitModel explicit_model(machine, 0);
  const auto circuit = encode_circuit(machine, 0);
  SymbolicModel symbolic_model(circuit);
  EXPECT_DOUBLE_EQ(explicit_model.count_reachable_states(), 2.0);
  expect_models_agree(explicit_model, symbolic_model);
  expect_tours_agree(explicit_model, symbolic_model);
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

TEST(SymbolicModelAdapter, RejectsCircuitTooWideToPackBeforeBuildingBdds) {
  // A 64-stage shift register: one latch past the packed-key limit. The
  // width check must run before SymbolicFsm builds any BDD, so the throw is
  // immediate whatever the circuit's BDD cost would have been.
  sym::SequentialCircuit c;
  sym::SignalId prev = c.net.add_input("in");
  c.primary_inputs = {prev};
  for (int j = 0; j < 64; ++j) {
    std::string name = "q";
    name += std::to_string(j);
    const sym::SignalId q = c.net.add_input(name);
    c.latches.push_back({q, prev, false, name});
    prev = q;
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    SymbolicModel model(c);
    ADD_FAILURE() << "a 64-latch circuit must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too many variables"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
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

/// The streamed tour's running summary() counts exactly what evaluate()
/// replays of the sequences yielded so far, before the first sequence and
/// after each one.
void expect_stream_summaries_match_evaluate(ExplicitModel& model) {
  auto stream = model.tour_source();
  Tour prefix;
  std::size_t sequences = 0;
  for (;;) {
    const TourResult summary = stream->summary();
    EXPECT_EQ(summary.coverage, model.evaluate(prefix)) << sequences;
    EXPECT_EQ(summary.steps, prefix.total_steps());
    EXPECT_EQ(summary.complete, summary.coverage.complete());
    auto seq = stream->next_sequence();
    if (!seq.has_value()) break;
    prefix.sequences.push_back(std::move(*seq));
    ++sequences;
  }
  EXPECT_TRUE(stream->summary().complete);
  EXPECT_GT(sequences, 1u);  // the reset-separated case is exercised
}

/// The coverage fixtures: the reduced DLX control model's extraction
/// (packed circuit keys), and dense-id machines whose transient start state
/// 0 leads into two closed random components (states 1-30 and 31-60), plus
/// a state 61 it never reaches.
std::vector<ExplicitModel> coverage_fixtures() {
  std::vector<ExplicitModel> models;
  const auto dlx = testmodel::build_dlx_control_model(tiny_model_options());
  auto extraction = sym::extract_explicit(dlx.circuit, 100000);
  EXPECT_FALSE(extraction.truncated);
  models.emplace_back(std::move(extraction));
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    fsm::MealyMachine m(62, 3);
    for (fsm::StateId base : {1u, 31u}) {
      const auto part = fsm::random_connected_machine(30, 3, 2, seed + base);
      for (fsm::StateId s = 0; s < 30; ++s) {
        for (fsm::InputId i = 0; i < 3; ++i) {
          const auto t = part.transition(s, i);
          m.set_transition(base + s, i, base + t->next, t->output);
        }
      }
    }
    m.set_transition(0, 0, 1, 0);
    m.set_transition(0, 1, 31, 0);
    m.set_transition(61, 0, 0, 0);
    models.emplace_back(std::move(m), 0);
  }
  return models;
}

TEST(ExplicitTourStream, SummaryMatchesEvaluateAfterEverySequence) {
  std::vector<ExplicitModel> models = coverage_fixtures();
  for (std::size_t n = 0; n < models.size(); ++n) {
    SCOPED_TRACE(n);
    expect_stream_summaries_match_evaluate(models[n]);
  }
}

TEST(ExplicitModelAdapter, ToResultCoverageMatchesEvaluate) {
  std::vector<ExplicitModel> models = coverage_fixtures();
  for (std::size_t n = 0; n < models.size(); ++n) {
    SCOPED_TRACE(n);
    ExplicitModel& model = models[n];
    std::vector<TourResult> results;
    results.push_back(model.transition_tour());
    results.push_back(model.random_walk(500, n));
    // A single state tour exists on the DLX machine only.
    if (const auto st = tour::state_tour(model.machine(), model.start())) {
      results.push_back(model.to_result({model.start(), {st->inputs}}));
    }
    if (const auto w = distinguish::wmethod_test_suite(model.machine(),
                                                       model.start())) {
      results.push_back(model.to_result(*w));
    }
    results.push_back(model.to_result({model.start(), {}}));  // empty set
    for (const TourResult& r : results) {
      const CoverageStats want = model.evaluate(r.tour);
      EXPECT_EQ(r.coverage, want);
      EXPECT_EQ(r.complete, want.complete());
    }
  }
  // An undefined step throws as evaluate() does.
  ExplicitModel& model = models.back();
  EXPECT_THROW(model.to_result({model.start(), {{2}}}), std::domain_error);
}

// ---------------------------------------------------------------------------
// TestModel::evaluate, the one evaluator of a replayed test set
// ---------------------------------------------------------------------------

/// Three-state ring; input 0 advances, input 1 self-loops.
fsm::MealyMachine ring_machine() {
  fsm::MealyMachine m(3, 2);
  for (fsm::StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  return m;
}

/// Two states; only input 0 is defined at state 0, and state 1 has none.
fsm::MealyMachine one_step_machine() {
  fsm::MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  return m;
}

TEST(Coverage, EmptySequence) {
  ExplicitModel model(ring_machine(), 0);
  const CoverageStats stats = model.evaluate(Tour{{Sequence{}}});
  EXPECT_EQ(stats.states_visited, 1u);
  EXPECT_EQ(stats.transitions_covered, 0u);
  EXPECT_EQ(stats.transitions_total, 6u);
  EXPECT_FALSE(stats.complete());
}

TEST(Coverage, RepeatedTransitionCountsOnce) {
  ExplicitModel model(ring_machine(), 0);
  const CoverageStats stats = model.evaluate(Tour{{Sequence{1, 1, 1, 1}}});
  EXPECT_EQ(stats.transitions_covered, 1u);
}

TEST(Coverage, UndefinedTransitionThrows) {
  ExplicitModel model(one_step_machine(), 0);
  EXPECT_THROW((void)model.evaluate(Tour{{Sequence{1}}}), std::domain_error);
}

TEST(TourSet, CoverageSetCountsAcrossSequences) {
  ExplicitModel model(ring_machine(), 0);
  // One advance, then (after a reset) one self-loop at 0.
  const CoverageStats stats =
      model.evaluate(Tour{{Sequence{0}, Sequence{1}}});
  EXPECT_EQ(stats.transitions_covered, 2u);
  EXPECT_EQ(stats.states_visited, 2u);  // states 0 and 1
  EXPECT_FALSE(stats.complete());
}

TEST(TourSet, CoverageSetRejectsInvalidSequences) {
  ExplicitModel model(one_step_machine(), 0);
  // The second sequence's step is undefined at the reset state.
  EXPECT_THROW((void)model.evaluate(Tour{{Sequence{0}, Sequence{1}}}),
               std::domain_error);
}

TEST(ExplicitModelAdapter, ToResultRejectsASetFromAnotherStart) {
  // Every step is valid from both states 0 and 1 of the ring, so replaying
  // the set from the model's reset would count the wrong states silently.
  ExplicitModel model(ring_machine(), 0);
  const tour::TourSet from_one{1, {{0, 0, 1}}};
  EXPECT_THROW((void)model.to_result(from_one), std::invalid_argument);
  const tour::TourSet from_zero{0, {{0, 0, 1}}};
  EXPECT_EQ(model.to_result(from_zero).coverage.transitions_covered, 3u);
}

}  // namespace
}  // namespace simcov::model
