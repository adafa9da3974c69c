// Unit tests for the coverage-directed sequence generators (src/gen) and
// the pluggable SequenceSource seam they plug into: determinism per
// (seed, spec), budget/termination behaviour, hybrid seed-phase
// truncation and factory dispatch.
#include "gen/generators.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fsm/mealy.hpp"
#include "io/blif.hpp"
#include "model/encode.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "pipeline/stages.hpp"

namespace simcov {
namespace {

using Sequences = std::vector<model::Sequence>;

Sequences drain(model::SequenceSource& source) {
  Sequences out;
  while (auto seq = source.next_sequence()) out.push_back(std::move(*seq));
  return out;
}

model::GeneratorSpec biased_spec() {
  model::GeneratorSpec spec;
  spec.kind = model::GeneratorKind::kBiasedRandom;
  spec.sequence_length = 16;
  spec.max_walk_steps = 4096;
  return spec;
}

TEST(BiasedRandomSource, DeterministicPerSeedAndSpec) {
  const auto m = fsm::random_connected_machine(40, 4, 4, 7);
  const auto spec = biased_spec();
  model::ExplicitModel a(m, 0), b(m, 0), c(m, 0);
  gen::BiasedRandomSource sa(a, spec, 1), sb(b, spec, 1), sc(c, spec, 2);
  const auto seqs_a = drain(sa);
  const auto seqs_b = drain(sb);
  EXPECT_EQ(seqs_a, seqs_b) << "same (model, spec, seed) must reproduce";
  EXPECT_NE(seqs_a, drain(sc)) << "a different seed must change the walk";
  ASSERT_FALSE(seqs_a.empty());
}

TEST(BiasedRandomSource, RespectsBudgetsAndReportsConsistentSummary) {
  const auto m = fsm::random_connected_machine(64, 4, 4, 11);
  model::ExplicitModel em(m, 0);
  auto spec = biased_spec();
  spec.sequence_length = 8;
  spec.max_walk_steps = 100;
  gen::BiasedRandomSource source(em, spec, 3);
  const auto seqs = drain(source);
  std::size_t steps = 0;
  for (const auto& s : seqs) {
    EXPECT_LE(s.size(), spec.sequence_length);
    steps += s.size();
  }
  EXPECT_LE(steps, spec.max_walk_steps);
  const auto summary = source.summary();
  EXPECT_EQ(summary.steps, steps);
  EXPECT_EQ(summary.restarts, seqs.size() - 1);
  // The walk's own replay must agree with the tracker it filled.
  model::ExplicitModel replay(m, 0);
  model::Tour tour;
  tour.sequences = seqs;
  EXPECT_EQ(replay.evaluate(tour), summary.coverage);
  // Exhausted source keeps answering nullopt and a stable summary.
  EXPECT_FALSE(source.next_sequence().has_value());
  const auto again = source.summary();
  EXPECT_EQ(again.steps, summary.steps);
  EXPECT_EQ(again.restarts, summary.restarts);
  EXPECT_EQ(again.coverage, summary.coverage);
}

TEST(BiasedRandomSource, CoversSmallMachineCompletelyAndStops) {
  // On a small strongly-connected machine the bias chases the un-hit
  // transitions, so the walk reaches complete transition coverage well
  // inside a generous budget and then terminates on its own.
  const auto m = fsm::random_connected_machine(12, 3, 3, 5);
  model::ExplicitModel em(m, 0);
  auto spec = biased_spec();
  spec.max_walk_steps = 1 << 20;
  gen::BiasedRandomSource source(em, spec, 1);
  const auto seqs = drain(source);
  const auto summary = source.summary();
  EXPECT_TRUE(summary.complete)
      << "covered " << summary.coverage.transitions_covered << "/"
      << summary.coverage.transitions_total;
  EXPECT_LT(summary.steps, spec.max_walk_steps);
  ASSERT_FALSE(seqs.empty());
}

TEST(BiasedRandomSource, AbsorbRejectsInvalidInputs) {
  // A machine with an undefined transition: state 0 only defines input 0.
  fsm::MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 0, 0);
  m.set_transition(1, 1, 1, 0);
  model::ExplicitModel em(m, 0);
  gen::BiasedRandomSource source(em, biased_spec(), 1);
  EXPECT_THROW(source.absorb_sequence(model::Sequence{1}), std::domain_error);
}

TEST(HybridSource, SeedPhaseIsATruncatedTourPrefix) {
  const auto m = fsm::random_connected_machine(48, 4, 4, 13);
  model::ExplicitModel tour_model(m, 0);
  const auto full_tour = drain(*tour_model.tour_source());

  model::GeneratorSpec spec;
  spec.kind = model::GeneratorKind::kHybrid;
  spec.sequence_length = 16;
  spec.max_walk_steps = 64;
  spec.hybrid_tour_steps = 24;
  model::ExplicitModel em(m, 0);
  gen::HybridSource source(em, spec, 1);
  const auto seqs = drain(source);
  ASSERT_FALSE(seqs.empty());

  // The seed phase replays tour sequences verbatim, truncating the one
  // that crosses the budget; every step after that comes from the walk.
  std::size_t seed_steps = 0;
  std::size_t i = 0;
  for (; i < seqs.size() && seed_steps < spec.hybrid_tour_steps; ++i) {
    ASSERT_LT(i, full_tour.size());
    const std::size_t remaining = spec.hybrid_tour_steps - seed_steps;
    if (seqs[i].size() == full_tour[i].size() &&
        full_tour[i].size() <= remaining) {
      EXPECT_EQ(seqs[i], full_tour[i]);
    } else {
      ASSERT_EQ(seqs[i].size(), remaining) << "truncated seed sequence";
      for (std::size_t s = 0; s < seqs[i].size(); ++s) {
        EXPECT_EQ(seqs[i][s], full_tour[i][s]);
      }
    }
    seed_steps += seqs[i].size();
  }
  EXPECT_LE(seed_steps, spec.hybrid_tour_steps);

  const auto summary = source.summary();
  std::size_t steps = 0;
  for (const auto& s : seqs) steps += s.size();
  EXPECT_EQ(summary.steps, steps);
  EXPECT_EQ(summary.restarts, seqs.size() - 1);
  model::ExplicitModel replay(m, 0);
  model::Tour tour;
  tour.sequences = seqs;
  EXPECT_EQ(replay.evaluate(tour), summary.coverage);
}

TEST(HybridSource, DeterministicPerSeedAndSpec) {
  const auto m = fsm::random_connected_machine(48, 4, 4, 13);
  model::GeneratorSpec spec;
  spec.kind = model::GeneratorKind::kHybrid;
  spec.sequence_length = 16;
  spec.max_walk_steps = 256;
  spec.hybrid_tour_steps = 40;
  model::ExplicitModel a(m, 0), b(m, 0);
  gen::HybridSource sa(a, spec, 9), sb(b, spec, 9);
  EXPECT_EQ(drain(sa), drain(sb));
}

TEST(HybridSource, ZeroTourBudgetDegeneratesToPureBiasedWalk) {
  const auto m = fsm::random_connected_machine(40, 4, 4, 7);
  auto spec = biased_spec();
  spec.kind = model::GeneratorKind::kHybrid;
  spec.hybrid_tour_steps = 0;
  model::ExplicitModel hybrid_model(m, 0), biased_model(m, 0);
  gen::HybridSource hybrid(hybrid_model, spec, 1);
  gen::BiasedRandomSource biased(biased_model, spec, 1);
  EXPECT_EQ(drain(hybrid), drain(biased));
}

TEST(OpenSequenceSource, TourKindMatchesTheModelsOwnTourSource) {
  const auto m = fsm::random_connected_machine(32, 3, 3, 3);
  model::ExplicitModel a(m, 0), b(m, 0);
  auto via_factory =
      gen::open_sequence_source(a, model::GeneratorSpec{}, 1);
  auto direct = b.tour_source();
  EXPECT_EQ(drain(*via_factory), drain(*direct));
}

TEST(OpenSequenceSource, DispatchesOnKind) {
  const auto m = fsm::random_connected_machine(32, 3, 3, 3);
  for (const auto kind : {model::GeneratorKind::kBiasedRandom,
                          model::GeneratorKind::kHybrid}) {
    model::ExplicitModel em(m, 0);
    model::GeneratorSpec spec = biased_spec();
    spec.kind = kind;
    auto source = gen::open_sequence_source(em, spec, 1);
    ASSERT_NE(source, nullptr);
    EXPECT_TRUE(source->next_sequence().has_value());
  }
}

// ---- Every source yields exactly summary().steps steps ---------------------

/// Steps yielded by `source` against its own final summary.
void expect_summary_counts_yielded_steps(model::SequenceSource& source,
                                         const std::string& label) {
  std::size_t yielded = 0;
  for (const auto& seq : drain(source)) yielded += seq.size();
  EXPECT_EQ(source.summary().steps, yielded) << label;
}

/// Every SequenceSource over `model`: its transition tour, the src/gen
/// generators, and a materialized random walk and tour.
void expect_every_source_counts_its_steps(model::TestModel& m,
                                          const std::string& name) {
  expect_summary_counts_yielded_steps(*m.tour_source(), name + " tour");
  for (const auto kind : {model::GeneratorKind::kBiasedRandom,
                          model::GeneratorKind::kHybrid}) {
    model::GeneratorSpec spec = biased_spec();
    spec.kind = kind;
    expect_summary_counts_yielded_steps(
        *gen::open_sequence_source(m, spec, 5),
        name + " " + model::generator_kind_name(kind));
  }
  model::MaterializedTourStream walk(m.random_walk(300, 9));
  expect_summary_counts_yielded_steps(walk, name + " random walk");
  model::MaterializedTourStream tour(m.transition_tour());
  expect_summary_counts_yielded_steps(tour, name + " materialized tour");
}

TEST(SequenceSource, SummaryStepsEqualTheYieldedLengths) {
  const auto m = fsm::random_connected_machine(24, 3, 3, 13);
  model::ExplicitModel em(m, 0);
  expect_every_source_counts_its_steps(em, "explicit");
  model::SymbolicModel sm(model::encode_circuit(m, 0));
  expect_every_source_counts_its_steps(sm, "symbolic");
  for (const auto method :
       {pipeline::TestMethod::kTransitionTourSet,
        pipeline::TestMethod::kStateTour, pipeline::TestMethod::kRandomWalk,
        pipeline::TestMethod::kWMethod}) {
    model::MaterializedTourStream set(em.to_result(
        pipeline::generate_test_set(m, 0, method, 200, 3)));
    expect_summary_counts_yielded_steps(set, pipeline::method_name(method));
  }
}

TEST(SequenceSource, ZeroWidthSourcesCountTheirSteps) {
  // A circuit without primary inputs: every step is the empty input key.
  const auto blif = io::BlifReader().read_string(
      ".model free2\n"
      ".outputs q0 q1\n"
      ".latch n0 q0 0\n"
      ".latch n1 q1 0\n"
      ".names q0 n0\n0 1\n"
      ".names q0 q1 n1\n01 1\n10 1\n"
      ".end\n");
  model::ExplicitModel em(sym::extract_explicit(blif.circuit, 100));
  ASSERT_EQ(em.input_bits(), 0u);
  expect_every_source_counts_its_steps(em, "zero-width explicit");
  model::SymbolicModel sm(blif.circuit);
  ASSERT_EQ(sm.input_bits(), 0u);
  expect_every_source_counts_its_steps(sm, "zero-width symbolic");
}

TEST(GeneratorSpec, ParsingAndNames) {
  EXPECT_EQ(model::parse_generator_kind("tour"),
            model::GeneratorKind::kTransitionTour);
  EXPECT_EQ(model::parse_generator_kind("biased"),
            model::GeneratorKind::kBiasedRandom);
  EXPECT_EQ(model::parse_generator_kind("biased_random"),
            model::GeneratorKind::kBiasedRandom);
  EXPECT_EQ(model::parse_generator_kind("hybrid"),
            model::GeneratorKind::kHybrid);
  EXPECT_FALSE(model::parse_generator_kind("w-method").has_value());
  EXPECT_STREQ(model::generator_kind_name(model::GeneratorKind::kHybrid),
               "hybrid");
  EXPECT_TRUE(model::is_default_generator(model::GeneratorSpec{}));
  model::GeneratorSpec tweaked;
  tweaked.bias_strength = 5;
  EXPECT_FALSE(model::is_default_generator(tweaked));
}

TEST(GenerateTestSet, RejectsNonDefaultSpecOnOtherMethods) {
  const auto m = fsm::random_connected_machine(16, 3, 3, 3);
  model::GeneratorSpec spec = biased_spec();
  EXPECT_THROW(pipeline::generate_test_set(
                   m, 0, pipeline::TestMethod::kRandomWalk, 100, 1, spec),
               std::invalid_argument);
}

TEST(GenerateTestSet, BiasedSpecRoundTripsThroughInputIds) {
  // Machine-level generation wraps the machine as a bare ExplicitModel;
  // the yielded PI bit vectors must pack back into valid InputIds that
  // replay on the original machine.
  const auto m = fsm::random_connected_machine(24, 3, 4, 17);
  auto spec = biased_spec();
  spec.max_walk_steps = 512;
  const auto set = pipeline::generate_test_set(
      m, 0, pipeline::TestMethod::kTransitionTourSet, 100, 1, spec);
  ASSERT_FALSE(set.sequences.empty());
  for (const auto& seq : set.sequences) {
    fsm::StateId at = 0;
    for (const auto input : seq) {
      const auto t = m.transition(at, input);
      ASSERT_TRUE(t.has_value()) << "generated input invalid on the machine";
      at = t->next;
    }
  }
}

}  // namespace
}  // namespace simcov
