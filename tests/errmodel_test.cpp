// Tests for the paper's error model (Definitions 1-4): mutation application,
// enumeration, excitation/exposure, and masking analysis.
#include "errmodel/errmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "distinguish/wmethod.hpp"
#include "tour/tour.hpp"

namespace simcov::errmodel {
namespace {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::OutputId;
using fsm::StateId;

MealyMachine ring_machine() {
  MealyMachine m(3, 2);
  for (StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  return m;
}

TEST(Mutation, OutputMutationChangesOnlyOutput) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kOutput, {1, 0}, 0, 42};
  const MealyMachine mutant = apply_mutation(m, mut);
  EXPECT_EQ(mutant.transition(1, 0)->output, 42u);
  EXPECT_EQ(mutant.transition(1, 0)->next, m.transition(1, 0)->next);
  // All other transitions intact.
  EXPECT_EQ(mutant.transition(0, 0), m.transition(0, 0));
  EXPECT_EQ(mutant.transition(1, 1), m.transition(1, 1));
}

TEST(Mutation, TransferMutationChangesOnlyNextState) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kTransfer, {1, 0}, 0, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  EXPECT_EQ(mutant.transition(1, 0)->next, 0u);
  EXPECT_EQ(mutant.transition(1, 0)->output, m.transition(1, 0)->output);
}

TEST(Mutation, VacuousMutationThrows) {
  const MealyMachine m = ring_machine();
  const Mutation same_output{ErrorKind::kOutput, {1, 0},
                             0, m.transition(1, 0)->output};
  EXPECT_THROW((void)apply_mutation(m, same_output), std::invalid_argument);
  const Mutation same_next{ErrorKind::kTransfer, {1, 0},
                           m.transition(1, 0)->next, 0};
  EXPECT_THROW((void)apply_mutation(m, same_next), std::invalid_argument);
}

TEST(Mutation, UndefinedTransitionThrows) {
  MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  const Mutation mut{ErrorKind::kOutput, {0, 1}, 0, 5};
  EXPECT_THROW((void)apply_mutation(m, mut), std::invalid_argument);
}

TEST(Enumeration, OutputErrorCounts) {
  const MealyMachine m = ring_machine();
  // 6 reachable transitions x (alphabet 13 - 1 correct) output variants.
  const auto muts = enumerate_output_errors(m, 0, 13);
  EXPECT_EQ(muts.size(), 6u * 12u);
}

TEST(Enumeration, TransferErrorCounts) {
  const MealyMachine m = ring_machine();
  // 6 transitions x 2 wrong-but-reachable destinations.
  const auto muts = enumerate_transfer_errors(m, 0);
  EXPECT_EQ(muts.size(), 12u);
}

TEST(Enumeration, SkipsUnreachableTransitionsAndTargets) {
  MealyMachine m(3, 1);
  m.set_transition(0, 0, 0, 0);  // only state 0 reachable
  m.set_transition(1, 0, 2, 0);
  const auto transfers = enumerate_transfer_errors(m, 0);
  EXPECT_TRUE(transfers.empty());  // no wrong reachable destination exists
  const auto outputs = enumerate_output_errors(m, 0, 2);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].at, (fsm::TransitionRef{0, 0}));
}

// The rank decoder must list the universe exactly as the plain nested
// loops do: per reachable transition, every wrong output in alphabet order,
// then per reachable transition, every wrong reachable destination.
TEST(Enumeration, RankDecodeMatchesNestedLoops) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    MealyMachine m = fsm::random_connected_machine(
        static_cast<StateId>(3 + seed % 11), 1 + seed % 3, 1 + seed % 4, seed);
    // Partial, and with unreachable states from the last state.
    for (StateId s = 0; s < m.num_states(); s += 3) {
      m.clear_transition(s, static_cast<InputId>(seed % m.num_inputs()));
    }
    const StateId start = m.num_states() - 1;
    const auto reachable = m.reachable_states(start);
    // An alphabet that leaves the largest output outside it.
    const OutputId alphabet = m.output_alphabet_size() - 1;
    std::vector<Mutation> outputs;
    std::vector<Mutation> transfers;
    for (const auto& ref : m.reachable_transitions(start)) {
      const auto t = m.transition(ref.state, ref.input).value();
      for (OutputId o = 0; o < alphabet; ++o) {
        if (o != t.output) outputs.push_back({ErrorKind::kOutput, ref, 0, o});
      }
      for (StateId s = 0; s < m.num_states(); ++s) {
        if (s != t.next && reachable[s]) {
          transfers.push_back({ErrorKind::kTransfer, ref, s, 0});
        }
      }
    }
    EXPECT_EQ(enumerate_output_errors(m, start, alphabet), outputs);
    EXPECT_EQ(enumerate_transfer_errors(m, start), transfers);
  }
}

TEST(Sampling, SampleIsBoundedAndReproducible) {
  const MealyMachine m = ring_machine();
  const auto a = sample_mutations(m, 0, 13, 10, 3);
  const auto b = sample_mutations(m, 0, 13, 10, 3);
  EXPECT_EQ(a.size(), 10u);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].at, b[k].at);
    EXPECT_EQ(static_cast<int>(a[k].kind), static_cast<int>(b[k].kind));
  }
  // Requesting more than the pool returns the whole pool.
  const auto all = sample_mutations(m, 0, 13, 1000000, 3);
  EXPECT_EQ(all.size(), 6u * 12u + 12u);
}

TEST(Sampling, WholeUniverseIsTheEnumerationInOrder) {
  // A ring machine with an output outside the alphabet: state 2's
  // self-loop emits 12, so alphabet 12 leaves that transition 12 wrong
  // outputs and every other one 11.
  const MealyMachine m = ring_machine();
  for (const OutputId alphabet : {OutputId{12}, OutputId{13}}) {
    auto expected = enumerate_output_errors(m, 0, alphabet);
    const auto transfers = enumerate_transfer_errors(m, 0);
    expected.insert(expected.end(), transfers.begin(), transfers.end());
    EXPECT_EQ(sample_mutations(m, 0, alphabet, expected.size(), 5), expected);
    EXPECT_EQ(sample_mutations(m, 0, alphabet, 1000000, 5), expected);
  }
}

TEST(Sampling, SampleIsDistinctAndApplicable) {
  const fsm::MealyMachine m = fsm::random_connected_machine(20, 4, 6, 11);
  const auto sample = sample_mutations(m, 0, m.output_alphabet_size(), 150, 2);
  ASSERT_EQ(sample.size(), 150u);
  for (std::size_t a = 0; a < sample.size(); ++a) {
    EXPECT_NO_THROW((void)apply_mutation(m, sample[a]));
    for (std::size_t b = a + 1; b < sample.size(); ++b) {
      EXPECT_NE(sample[a], sample[b]) << "duplicate at " << a << ", " << b;
    }
  }
}

TEST(Sampling, GoldenRingSample) {
  // Floyd's algorithm over the counter-indexed splitmix64 stream is fully
  // specified here, so this sample is the same under every standard library.
  constexpr auto kOut = ErrorKind::kOutput;
  const std::vector<Mutation> golden{
      {kOut, {0, 0}, 0, 4},  {kOut, {2, 0}, 0, 6},  {kOut, {0, 0}, 0, 7},
      {kOut, {2, 0}, 0, 12}, {kOut, {2, 1}, 0, 10}, {kOut, {2, 0}, 0, 8},
      {kOut, {2, 0}, 0, 10}, {kOut, {0, 0}, 0, 5},  {kOut, {1, 1}, 0, 3},
      {kOut, {2, 1}, 0, 6},
  };
  EXPECT_EQ(sample_mutations(ring_machine(), 0, 13, 10, 3), golden);
}

TEST(Sampling, EveryRankDrawnNearUniformly) {
  // 84 mutants, 10 drawn per seed: over 2000 seeds each rank is expected
  // 2000 * 10/84 ~ 238 times with a binomial sigma of ~14.5; allow 5 sigma.
  const MealyMachine m = ring_machine();
  const auto universe = sample_mutations(m, 0, 13, 1000000, 0);
  ASSERT_EQ(universe.size(), 84u);
  constexpr std::size_t kDraws = 10;
  constexpr std::uint64_t kSeeds = 2000;
  std::vector<std::size_t> hits(universe.size(), 0);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    for (const auto& mut : sample_mutations(m, 0, 13, kDraws, seed)) {
      const auto at = std::find(universe.begin(), universe.end(), mut);
      ASSERT_NE(at, universe.end());
      ++hits[static_cast<std::size_t>(at - universe.begin())];
    }
  }
  const double p = static_cast<double>(kDraws) / universe.size();
  const double mean = kSeeds * p;
  const double bound = 5.0 * std::sqrt(kSeeds * p * (1.0 - p));
  for (std::size_t r = 0; r < hits.size(); ++r) {
    EXPECT_NEAR(static_cast<double>(hits[r]), mean, bound) << "rank " << r;
  }
}

TEST(Observable, AgreesWithEquivalenceOnCompleteMachines) {
  // A complete spec leaves no don't-care to newly define, so a mutant is
  // observable exactly when it is not equivalent to the spec.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const fsm::MealyMachine m = fsm::random_connected_machine(9, 2, 2, seed);
    for (const auto& mut :
         sample_mutations(m, 0, m.output_alphabet_size(), 60, seed)) {
      const auto mutant = apply_mutation(m, mut);
      EXPECT_EQ(observable(m, mut, 0),
                !fsm::check_equivalence(m, 0, mutant, 0).equivalent);
    }
  }
}

TEST(Observable, DefinednessOnlyTransferMutantIsUnobservable) {
  // States 1 and 2 differ only in that 2 accepts input 1, which the spec
  // leaves undefined at 1 (a don't-care). Redirecting (0,0) from 1 to 2
  // changes definedness only: check_equivalence calls the mutant
  // inequivalent, yet no sequence of valid inputs tells them apart.
  MealyMachine spec(3, 2);
  spec.set_transition(0, 0, 1, 0);
  spec.set_transition(0, 1, 2, 1);
  spec.set_transition(1, 0, 0, 0);
  spec.set_transition(2, 0, 0, 0);
  spec.set_transition(2, 1, 2, 1);
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 2, 0};
  const MealyMachine mutant = apply_mutation(spec, mut);
  EXPECT_FALSE(fsm::check_equivalence(spec, 0, mutant, 0).equivalent);
  EXPECT_FALSE(observable(spec, mut, 0));
  const auto suite = distinguish::wmethod_test_suite(spec, 0);
  ASSERT_TRUE(suite.has_value());
  EXPECT_EQ(evaluate_test_set(spec, std::span(&mut, 1), 0, suite->sequences)
                .exposed,
            0u);
  // An output error on the same transition is observable and exposed.
  const Mutation out{ErrorKind::kOutput, {0, 0}, 0, 1};
  EXPECT_TRUE(observable(spec, out, 0));
  EXPECT_EQ(evaluate_test_set(spec, std::span(&out, 1), 0, suite->sequences)
                .exposed,
            1u);
}

TEST(Observable, UndefinedTransitionThrows) {
  MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  const Mutation mut{ErrorKind::kOutput, {0, 1}, 0, 5};
  EXPECT_THROW((void)observable(m, mut, 0), std::invalid_argument);
}

TEST(Exposure, OutputErrorExposedExactlyWhenExcited) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kOutput, {1, 1}, 0, 42};
  const MealyMachine mutant = apply_mutation(m, mut);
  // Sequence avoiding (1,1): not exposed.
  const std::vector<InputId> avoid{0, 0, 0};
  EXPECT_FALSE(excites(mutant, mut, 0, avoid));
  EXPECT_FALSE(exposes(m, mutant, 0, avoid));
  // Sequence through (1,1): exposed immediately (deterministic machine =>
  // output errors are uniform, Def. 2 holds trivially at concrete level).
  const std::vector<InputId> hit{0, 1};
  EXPECT_TRUE(excites(mutant, mut, 0, hit));
  EXPECT_TRUE(exposes(m, mutant, 0, hit));
}

TEST(Exposure, TransferErrorNeedsFollowUpToExpose) {
  const MealyMachine m = ring_machine();
  // Redirect (0,0) from state 1 to state 0; output unchanged.
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 0, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  // Excited but not exposed by the single step.
  const std::vector<InputId> one{0};
  EXPECT_TRUE(excites(mutant, mut, 0, one));
  EXPECT_FALSE(exposes(m, mutant, 0, one));
  // The self-loop output (10+state) differs between states: one more step
  // on input 1 exposes.
  const std::vector<InputId> two{0, 1};
  EXPECT_TRUE(exposes(m, mutant, 0, two));
}

TEST(Exposure, DefinednessMismatchCountsAsExposure) {
  MealyMachine spec(2, 1);
  spec.set_transition(0, 0, 1, 0);
  spec.set_transition(1, 0, 0, 0);
  // Mutant redirects (0,0) to state 0... then (0,0) defined. Build a spec
  // with a partial state instead.
  MealyMachine partial = spec;
  partial.clear_transition(1, 0);
  const std::vector<InputId> seq{0, 0};
  EXPECT_TRUE(exposes(spec, partial, 0, seq));
}

TEST(TestSet, TransitionTourExposesAllOutputErrors) {
  const MealyMachine m = ring_machine();
  const auto t = tour::minimum_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  const auto muts = enumerate_output_errors(m, 0, 13);
  const auto report = evaluate_test_set(m, muts, 0, t->inputs);
  EXPECT_EQ(report.total_mutants, muts.size());
  EXPECT_EQ(report.exposed, muts.size());
  EXPECT_EQ(report.excited, muts.size());
  EXPECT_DOUBLE_EQ(report.exposure_rate(), 1.0);
}

TEST(TestSet, EmptySequenceExposesNothing) {
  const MealyMachine m = ring_machine();
  const auto muts = enumerate_transfer_errors(m, 0);
  const std::vector<InputId> empty;
  const auto report = evaluate_test_set(m, muts, 0, empty);
  EXPECT_EQ(report.exposed, 0u);
  EXPECT_EQ(report.excited, 0u);
  EXPECT_EQ(report.exposed_flags.size(), muts.size());
}

TEST(Masking, ReconvergenceWithoutOutputDifferenceIsMasked) {
  // Machine where a transfer error diverges and a structural symmetry brings
  // it back: states 1 and 2 behave identically on input 0 (both -> 0, same
  // output), so redirecting 0->1 to 0->2 reconverges after one step.
  MealyMachine m(3, 1);
  m.set_transition(0, 0, 1, 7);
  m.set_transition(1, 0, 0, 8);
  m.set_transition(2, 0, 0, 8);  // same output as from state 1
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 2, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  const std::vector<InputId> seq{0, 0, 0};
  const auto analysis = analyze_masking(m, mutant, 0, seq);
  EXPECT_TRUE(analysis.diverged);
  EXPECT_TRUE(analysis.reconverged);
  EXPECT_FALSE(analysis.output_differed);
  EXPECT_TRUE(analysis.masked());
  EXPECT_EQ(analysis.diverge_step, 1u);
  EXPECT_EQ(analysis.reconverge_step, 2u);
  // Masked means no test sequence through this path exposes it: indeed the
  // machines are output-equivalent here.
  EXPECT_FALSE(exposes(m, mutant, 0, seq));
}

TEST(Masking, ExposedDivergenceIsNotMasked) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 0, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  const std::vector<InputId> seq{0, 1, 0, 1};
  const auto analysis = analyze_masking(m, mutant, 0, seq);
  EXPECT_TRUE(analysis.diverged);
  EXPECT_TRUE(analysis.output_differed);
  EXPECT_FALSE(analysis.masked());
}

TEST(Masking, NoDivergenceForOutputError) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kOutput, {0, 0}, 0, 42};
  const MealyMachine mutant = apply_mutation(m, mut);
  const std::vector<InputId> seq{0, 0, 0};
  const auto analysis = analyze_masking(m, mutant, 0, seq);
  EXPECT_FALSE(analysis.diverged);
  EXPECT_TRUE(analysis.output_differed);
  EXPECT_FALSE(analysis.masked());
}

// Property: the allocation-free exposes(spec, Mutation, ...) overload agrees
// with the materialized-mutant version on random machines and sequences.
class ExposesOverloadProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExposesOverloadProperty, OverloadsAgree) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const fsm::MealyMachine m = fsm::random_connected_machine(7, 3, 3, seed);
  const auto mutants =
      sample_mutations(m, 0, m.output_alphabet_size(), 40, seed ^ 7);
  std::mt19937_64 rng(seed * 3 + 1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<fsm::InputId> seq(20);
    for (auto& i : seq) i = static_cast<fsm::InputId>(rng() % 3);
    for (const auto& mut : mutants) {
      const auto mutant = apply_mutation(m, mut);
      EXPECT_EQ(exposes(m, mutant, 0, seq), exposes(m, mut, 0, seq));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExposesOverloadProperty,
                         ::testing::Range(0, 8));

TEST(ExposesOverload, UndefinedTransitionThrows) {
  fsm::MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  const Mutation mut{ErrorKind::kOutput, {0, 1}, 0, 5};
  const std::vector<fsm::InputId> seq{0};
  EXPECT_THROW((void)exposes(m, mut, 0, seq), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property: the headline theorem on a favourable class of machines.
//
// If outputs are unique per (state, input), every pair of distinct states is
// ∀1-distinguishable (ANY single input separates them), the strongest form
// of the paper's Definition 5. Theorem 1 then promises that a transition
// tour (plus one trailing step so the final transition also has a follow-up)
// exposes ALL output and transfer errors. This is Theorem 3's mechanism in
// miniature on random machines.
// ---------------------------------------------------------------------------

class TourCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(TourCompleteness, TourExposesAllErrorsOnForallDistinguishableMachines) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  fsm::MealyMachine m = fsm::random_connected_machine(8, 3, 3, seed);
  // Input 2 becomes a reset so the machine is strongly connected; then make
  // every output unique per (state, input): out(s, i) = s * 3 + i.
  for (StateId s = 0; s < m.num_states(); ++s) {
    m.set_transition(s, 2, 0, 0);
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i).value();
      m.set_transition(s, i, t.next, s * m.num_inputs() + i);
    }
  }
  auto t = tour::minimum_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  // Close the tour with one status read so the final transition's transfer
  // errors are also followed by a distinguishing step.
  t->inputs.push_back(2);
  const auto outputs = enumerate_output_errors(m, 0, m.output_alphabet_size());
  const auto transfers = enumerate_transfer_errors(m, 0);
  const auto rep_o = evaluate_test_set(m, outputs, 0, t->inputs);
  EXPECT_EQ(rep_o.exposed, rep_o.total_mutants);
  const auto rep_t = evaluate_test_set(m, transfers, 0, t->inputs);
  EXPECT_EQ(rep_t.exposed, rep_t.total_mutants)
      << "a transfer error escaped the tour";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TourCompleteness, ::testing::Range(0, 15));

}  // namespace
}  // namespace simcov::errmodel
