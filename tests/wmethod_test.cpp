// Tests for characterizing sets, transition covers, and the W-method test
// suite — the classical conformance-testing baseline.
#include "distinguish/wmethod.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "errmodel/errmodel.hpp"
#include "tour/tour.hpp"

namespace simcov::distinguish {
namespace {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;

MealyMachine three_state_machine() {
  // Strongly connected, pairwise distinguishable.
  MealyMachine m(3, 2);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 2, 0);
  m.set_transition(2, 0, 0, 1);
  m.set_transition(0, 1, 0, 2);
  m.set_transition(1, 1, 1, 3);
  m.set_transition(2, 1, 2, 4);
  return m;
}

TEST(CharacterizingSet, SeparatesEveryPair) {
  const MealyMachine m = three_state_machine();
  const auto w = characterizing_set(m, 0);
  ASSERT_TRUE(w.has_value());
  // Each distinct pair must be separated by some experiment.
  for (StateId s = 0; s < 3; ++s) {
    for (StateId t = s + 1; t < 3; ++t) {
      bool separated = false;
      for (const auto& seq : *w) {
        separated = separated || (m.run(seq, s) != m.run(seq, t));
      }
      EXPECT_TRUE(separated) << "pair " << s << "," << t;
    }
  }
}

TEST(CharacterizingSet, NoneForEquivalentStates) {
  MealyMachine m(2, 1);
  m.set_transition(0, 0, 1, 7);
  m.set_transition(1, 0, 0, 7);  // behaviourally identical swap
  EXPECT_FALSE(characterizing_set(m, 0).has_value());
}

TEST(CharacterizingSet, SingleStateMachine) {
  MealyMachine m(1, 1);
  m.set_transition(0, 0, 0, 0);
  const auto w = characterizing_set(m, 0);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->size(), 1u);
  EXPECT_TRUE((*w)[0].empty());
}

TEST(TransitionCover, ReachesEveryTransition) {
  const MealyMachine m = three_state_machine();
  const auto cover = transition_cover(m, 0);
  // Empty prefix + 6 transitions.
  EXPECT_EQ(cover.size(), 7u);
  // Each non-empty sequence must be executable and its last step must be a
  // distinct (state, input) pair.
  std::set<std::pair<StateId, InputId>> covered;
  for (const auto& seq : cover) {
    if (seq.empty()) continue;
    StateId at = 0;
    for (std::size_t k = 0; k + 1 < seq.size(); ++k) {
      at = m.transition(at, seq[k])->next;
    }
    covered.insert({at, seq.back()});
    EXPECT_TRUE(m.transition(at, seq.back()).has_value());
  }
  EXPECT_EQ(covered.size(), 6u);
}

TEST(WMethod, SuiteDetectsAllSingleFaults) {
  const MealyMachine m = three_state_machine();
  const auto suite = wmethod_test_suite(m, 0);
  ASSERT_TRUE(suite.has_value());
  // The W-method guarantee: every output and transfer fault is detected,
  // with no side conditions (unlike transition tours).
  const auto outputs =
      errmodel::enumerate_output_errors(m, 0, m.output_alphabet_size());
  const auto transfers = errmodel::enumerate_transfer_errors(m, 0);
  auto all = outputs;
  all.insert(all.end(), transfers.begin(), transfers.end());
  for (const auto& mut : all) {
    bool exposed = false;
    for (const auto& seq : suite->sequences) {
      if (errmodel::exposes(m, mut, 0, seq)) {
        exposed = true;
        break;
      }
    }
    EXPECT_TRUE(exposed);
  }
}

TEST(WMethod, SuiteLargerThanTour) {
  const MealyMachine m = three_state_machine();
  const auto suite = wmethod_test_suite(m, 0);
  const auto tour = tour::minimum_transition_tour(m, 0);
  ASSERT_TRUE(suite.has_value());
  ASSERT_TRUE(tour.has_value());
  // The completeness guarantee costs test length: P x W outweighs one tour.
  EXPECT_GT(suite->total_length(), tour->length());
  EXPECT_GT(suite->sequences.size(), 1u);
}

TEST(WMethod, NoneWhenStatesEquivalent) {
  MealyMachine m(2, 1);
  m.set_transition(0, 0, 1, 7);
  m.set_transition(1, 0, 0, 7);
  EXPECT_FALSE(wmethod_test_suite(m, 0).has_value());
}

TEST(WMethod, HandlesPartialMachines) {
  MealyMachine m(3, 2);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 2, 1);
  m.set_transition(2, 0, 0, 2);
  m.set_transition(0, 1, 0, 3);  // input 1 defined only in state 0
  const auto suite = wmethod_test_suite(m, 0);
  ASSERT_TRUE(suite.has_value());
  // Every sequence must be executable from reset.
  for (const auto& seq : suite->sequences) {
    EXPECT_NO_THROW((void)m.run(seq, 0));
  }
}

// Property: on random machines with distinguishable states, the W-method
// suite detects every sampled fault — including ones a plain transition
// tour misses.
class WMethodProperty : public ::testing::TestWithParam<int> {};

TEST_P(WMethodProperty, CompleteOnRandomMachines) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  fsm::MealyMachine m = fsm::random_connected_machine(6, 2, 3, seed);
  const auto suite = wmethod_test_suite(m, 0);
  if (!suite.has_value()) return;  // equivalent states: skip this seed
  const auto mutants =
      errmodel::sample_mutations(m, 0, m.output_alphabet_size(), 120, seed);
  std::size_t exposed = 0;
  for (const auto& mut : mutants) {
    for (const auto& seq : suite->sequences) {
      if (errmodel::exposes(m, mut, 0, seq)) {
        ++exposed;
        break;
      }
    }
  }
  EXPECT_EQ(exposed, mutants.size())
      << "W-method must expose every single fault";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WMethodProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace simcov::distinguish
