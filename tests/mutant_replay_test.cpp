// Tests for errmodel::MutantReplay, the site-indexed mutant replay behind
// pipeline::MutantReplayStage: differential checks against the scalar
// oracles (per-sequence errmodel::exposes and fsm::check_equivalence on the
// materialized mutant), hand-built cases for every way a replay window
// ends, and the stage's verdicts on the reduced DLX control model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/campaign.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "pipeline/stages.hpp"
#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"
#include "tour/tour.hpp"

namespace simcov {
namespace {

using errmodel::ErrorKind;
using errmodel::Mutation;
using errmodel::MutantReplay;
using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;
using Sequences = std::vector<std::vector<InputId>>;

/// The oracle: the first s with exposes(spec, mut, start, sequences[s]).
std::optional<std::size_t> scalar_first_exposing(const MealyMachine& m,
                                                 const Mutation& mut,
                                                 StateId start,
                                                 const Sequences& seqs) {
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    if (errmodel::exposes(m, mut, start, seqs[s])) return s;
  }
  return std::nullopt;
}

bool scalar_equivalent(const MealyMachine& m, const Mutation& mut,
                       StateId start) {
  return fsm::check_equivalence(m, start, errmodel::apply_mutation(m, mut),
                                start)
      .equivalent;
}

/// Lockstep walk of spec and mutant over one sequence, as exposes() runs
/// it, recording how the mutant's windows of divergence went.
struct ScalarWindow {
  bool excited = false;
  bool exposed = false;
  bool ends_diverged = false;  ///< meaningful when not exposed
  /// The mutated transition is taken again after a divergence rejoined.
  bool reexcited_after_rejoin = false;
};

ScalarWindow scalar_window(const MealyMachine& m, const MealyMachine& mutant,
                           const Mutation& mut, StateId start,
                           const std::vector<InputId>& seq) {
  ScalarWindow w;
  bool rejoined = false;
  StateId at_spec = start;
  StateId at_mut = start;
  for (const InputId i : seq) {
    const auto ts = m.transition(at_spec, i);
    const auto tm = mutant.transition(at_mut, i);
    if (ts.has_value() != tm.has_value()) w.exposed = true;
    if (!ts.has_value() || !tm.has_value()) break;
    if (at_mut == mut.at.state && i == mut.at.input) {
      w.excited = true;
      if (rejoined) w.reexcited_after_rejoin = true;
    }
    if (ts->output != tm->output) {
      w.exposed = true;
      break;
    }
    const bool was_diverged = at_spec != at_mut;
    at_spec = ts->next;
    at_mut = tm->next;
    if (was_diverged && at_spec == at_mut) rejoined = true;
  }
  w.ends_diverged = at_spec != at_mut;
  return w;
}

/// Random partial machine: some states are dead ends or self-loop sinks,
/// about a quarter of the (state, input) slots are undefined, and an island
/// of states is never entered from below it (so its transitions are
/// unreachable from 0). Outputs come from a small alphabet so transfer
/// mutants reconverge often.
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

/// The tour set (when the greedy walk finds one) plus random walks over the
/// whole input alphabet, which run into undefined inputs.
Sequences test_set(const PartialMachine& pm, std::uint64_t seed) {
  Sequences seqs;
  if (auto set = tour::greedy_transition_tour_set(pm.machine, pm.start)) {
    seqs = std::move(set->sequences);
  }
  std::uint64_t x = seed * 7 + 1;
  for (int w = 0; w < 12; ++w) {
    x = runtime::splitmix64(x);
    std::vector<InputId> walk(1 + x % 40);
    for (auto& i : walk) {
      x = runtime::splitmix64(x);
      i = static_cast<InputId>(x % pm.machine.num_inputs());
    }
    seqs.push_back(std::move(walk));
  }
  seqs.emplace_back();  // an empty sequence is laid out like any other
  return seqs;
}

/// About 200 single-transition mutants spread evenly over every mutant of
/// every defined transition, reachable or not: each wrong output in [0, 3]
/// and each wrong destination.
std::vector<Mutation> spread_mutants(const MealyMachine& m) {
  std::vector<Mutation> all;
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i);
      if (!t.has_value()) continue;
      for (fsm::OutputId o = 0; o <= 3; ++o) {
        if (o != t->output) all.push_back({ErrorKind::kOutput, {s, i}, 0, o});
      }
      for (StateId d = 0; d < m.num_states(); ++d) {
        if (d != t->next) all.push_back({ErrorKind::kTransfer, {s, i}, d, 0});
      }
    }
  }
  const std::size_t stride = std::max<std::size_t>(1, all.size() / 200);
  std::vector<Mutation> result;
  for (std::size_t k = 0; k < all.size(); k += stride) {
    result.push_back(all[k]);
  }
  return result;
}

constexpr std::uint64_t kDifferentialMachines = 80;

TEST(MutantReplayDifferential, FirstExposingSequenceMatchesScalarExposes) {
  std::size_t exposed = 0;
  std::size_t truncated_sequences = 0;
  std::size_t reexcited_after_rejoin = 0;  // (mutant, sequence) pairs
  std::size_t exposed_after_rejoin = 0;
  std::size_t misses[4] = {};
  for (std::uint64_t seed = 0; seed < kDifferentialMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_partial_machine(seed);
    const MealyMachine& m = pm.machine;
    const Sequences seqs = test_set(pm, seed);
    for (const auto& seq : seqs) {
      StateId at = pm.start;
      for (const InputId i : seq) {
        const auto t = m.transition(at, i);
        if (!t.has_value()) {
          ++truncated_sequences;
          break;
        }
        at = t->next;
      }
    }
    const MutantReplay replay(m, pm.start, seqs);
    for (const Mutation& mut : spread_mutants(m)) {
      const auto want = scalar_first_exposing(m, mut, pm.start, seqs);
      const auto got = replay.first_exposing_sequence(mut);
      ASSERT_EQ(got.sequence, want)
          << "state " << mut.at.state << " input " << mut.at.input;
      const MealyMachine mutant = errmodel::apply_mutation(m, mut);
      bool excited = false;
      bool cut_off = false;
      for (std::size_t s = 0; s < seqs.size(); ++s) {
        const auto w = scalar_window(m, mutant, mut, pm.start, seqs[s]);
        ASSERT_EQ(w.exposed, want == s);
        excited = excited || w.excited;
        cut_off = cut_off || w.ends_diverged;
        if (w.reexcited_after_rejoin) ++reexcited_after_rejoin;
        if (w.exposed) {
          if (w.reexcited_after_rejoin) ++exposed_after_rejoin;
          break;
        }
      }
      if (want.has_value()) {
        ++exposed;
        EXPECT_EQ(got.miss, MutantReplay::Miss::kNone);
        continue;
      }
      // The miss bucket, from the per-sequence lockstep walks.
      const auto want_miss = !excited  ? MutantReplay::Miss::kNotExcited
                             : cut_off ? MutantReplay::Miss::kCutOff
                                       : MutantReplay::Miss::kMasked;
      EXPECT_EQ(got.miss, want_miss)
          << "state " << mut.at.state << " input " << mut.at.input;
      ++misses[static_cast<int>(got.miss)];
    }
  }
  // Every branch of the replay was taken.
  EXPECT_GT(exposed, 0u);
  EXPECT_GT(truncated_sequences, 0u);
  EXPECT_GT(reexcited_after_rejoin, 0u);
  EXPECT_GT(exposed_after_rejoin, 0u);
  EXPECT_EQ(misses[static_cast<int>(MutantReplay::Miss::kNone)], 0u);
  EXPECT_GT(misses[static_cast<int>(MutantReplay::Miss::kNotExcited)], 0u);
  EXPECT_GT(misses[static_cast<int>(MutantReplay::Miss::kMasked)], 0u);
  EXPECT_GT(misses[static_cast<int>(MutantReplay::Miss::kCutOff)], 0u);
}

TEST(MutantReplayDifferential, EquivalentMatchesCheckEquivalence) {
  std::size_t equivalent = 0;
  std::size_t inequivalent = 0;
  std::size_t unreachable_sites = 0;
  for (std::uint64_t seed = 0; seed < kDifferentialMachines; ++seed) {
    SCOPED_TRACE(seed);
    const auto pm = random_partial_machine(seed);
    const MealyMachine& m = pm.machine;
    // The test set does not decide equivalence: an empty one will do.
    const MutantReplay replay(m, pm.start, Sequences{});
    const auto reachable = m.reachable_states(pm.start);
    for (const Mutation& mut : spread_mutants(m)) {
      const bool want = scalar_equivalent(m, mut, pm.start);
      ASSERT_EQ(replay.equivalent(mut), want)
          << "state " << mut.at.state << " input " << mut.at.input;
      ++(want ? equivalent : inequivalent);
      if (!reachable[mut.at.state]) ++unreachable_sites;
    }
  }
  EXPECT_GT(equivalent, unreachable_sites);  // some reachable ones too
  EXPECT_GT(unreachable_sites, 0u);
  EXPECT_GT(inequivalent, 0u);
}

// ---------------------------------------------------------------------------
// Hand-built cases
// ---------------------------------------------------------------------------

constexpr InputId kA = 0;
constexpr InputId kB = 1;

/// 0 -a-> 1 and back; state 2 answers a like state 1 but b differently.
/// The transfer mutant (0, a) -> 2 rejoins the spec after another a and is
/// exposed only by a b right after the mutated step. State 3 is never
/// entered and leaves b undefined.
MealyMachine rejoin_machine() {
  MealyMachine m(4, 2);
  m.set_transition(0, kA, 1, 0);
  m.set_transition(0, kB, 0, 3);
  m.set_transition(1, kA, 0, 0);
  m.set_transition(1, kB, 0, 1);
  m.set_transition(2, kA, 0, 0);
  m.set_transition(2, kB, 0, 2);
  m.set_transition(3, kA, 0, 0);
  return m;
}

const Mutation kToTwo{ErrorKind::kTransfer, {0, kA}, 2, 0};

TEST(MutantReplay, ReexcitedAfterRejoiningInTheSameSequence) {
  const MealyMachine m = rejoin_machine();
  const Sequences seqs{{kA}, {kA, kA}, {kA, kA, kA, kB}};
  const auto v = MutantReplay(m, 0, seqs).first_exposing_sequence(kToTwo);
  EXPECT_EQ(v.sequence, std::optional<std::size_t>{2});
  EXPECT_EQ(v.miss, MutantReplay::Miss::kNone);
  EXPECT_EQ(v.sequence, scalar_first_exposing(m, kToTwo, 0, seqs));
}

TEST(MutantReplay, MissBuckets) {
  const MealyMachine m = rejoin_machine();
  const auto miss = [&](const Sequences& seqs) {
    const auto v = MutantReplay(m, 0, seqs).first_exposing_sequence(kToTwo);
    EXPECT_FALSE(v.sequence.has_value());
    return v.miss;
  };
  EXPECT_EQ(miss({{kB, kB}, {}}), MutantReplay::Miss::kNotExcited);
  EXPECT_EQ(miss({{kA, kA}, {kA, kA, kA, kA}}), MutantReplay::Miss::kMasked);
  // One window cut off by the sequence end is enough.
  EXPECT_EQ(miss({{kA, kA}, {kA}}), MutantReplay::Miss::kCutOff);
}

TEST(MutantReplay, TruncatedSequenceExposesOnlyADefinednessMismatch) {
  // The mutant (0, a) -> 3 sits in state 3 where the spec sits in 1: 1
  // defines b and 3 does not, a definedness mismatch.
  MealyMachine m = rejoin_machine();
  const Mutation to_three{ErrorKind::kTransfer, {0, kA}, 3, 0};
  const Sequences via_b{{kA, kB}};
  EXPECT_EQ(MutantReplay(m, 0, via_b).first_exposing_sequence(to_three).sequence,
            std::optional<std::size_t>{0});

  // Truncation: make b undefined in the spec's state 1. The diverged
  // mutant in state 2 defines b, so the truncated sequence exposes it; in
  // state 3 it does not, so the sequence is cut off unexposed.
  m.clear_transition(1, kB);
  const Sequences cut{{kA, kB, kA}};
  EXPECT_EQ(MutantReplay(m, 0, cut).first_exposing_sequence(kToTwo).sequence,
            std::optional<std::size_t>{0});
  const auto v = MutantReplay(m, 0, cut).first_exposing_sequence(to_three);
  EXPECT_FALSE(v.sequence.has_value());
  EXPECT_EQ(v.miss, MutantReplay::Miss::kCutOff);
  for (const Mutation& mut : {kToTwo, to_three}) {
    EXPECT_EQ(MutantReplay(m, 0, cut).first_exposing_sequence(mut).sequence,
              scalar_first_exposing(m, mut, 0, cut));
  }
}

TEST(MutantReplay, OutputMutantIsExposedAtItsFirstExcitation) {
  const MealyMachine m = rejoin_machine();
  const Mutation out{ErrorKind::kOutput, {1, kB}, 0, 7};
  const Sequences seqs{{kB, kB}, {kA, kA}, {kB, kA, kB}, {kA, kB}};
  const MutantReplay replay(m, 0, seqs);
  EXPECT_EQ(replay.first_exposing_sequence(out).sequence,
            std::optional<std::size_t>{2});
  EXPECT_FALSE(replay.equivalent(out));
}

TEST(MutantReplay, VacuousMutationIsNeverExposedAndEquivalent) {
  const MealyMachine m = rejoin_machine();
  const Sequences seqs{{kA, kB, kA, kB}, {kB, kA, kA}};
  const MutantReplay replay(m, 0, seqs);
  for (const Mutation& mut :
       {Mutation{ErrorKind::kOutput, {0, kA}, 0, 0},
        Mutation{ErrorKind::kTransfer, {0, kA}, 1, 0}}) {
    EXPECT_FALSE(replay.first_exposing_sequence(mut).sequence.has_value());
    EXPECT_TRUE(replay.equivalent(mut));
  }
}

TEST(MutantReplay, EquivalenceCases) {
  const MealyMachine m = rejoin_machine();
  const MutantReplay replay(m, 0, Sequences{});
  // State 3 is unreachable: no behaviour from 0 changes.
  EXPECT_TRUE(replay.equivalent({ErrorKind::kOutput, {3, kA}, 0, 5}));
  // 2 is distinguishable from 1 (on b).
  EXPECT_FALSE(replay.equivalent(kToTwo));
  // A twin of state 1 that rejoins on both inputs: equivalent.
  MealyMachine twin(3, 2);
  twin.set_transition(0, kA, 1, 0);
  twin.set_transition(1, kA, 0, 0);
  twin.set_transition(2, kA, 0, 0);
  const Mutation to_twin{ErrorKind::kTransfer, {0, kA}, 2, 0};
  EXPECT_TRUE(MutantReplay(twin, 0, Sequences{}).equivalent(to_twin));
  EXPECT_TRUE(scalar_equivalent(twin, to_twin, 0));
}

TEST(MutantReplay, UndefinedSiteThrowsLikeTheOnTheFlyMutant) {
  const MealyMachine m = rejoin_machine();
  const MutantReplay replay(m, 0, Sequences{{kA, kB}});
  const Mutation undefined{ErrorKind::kTransfer, {3, kB}, 0, 0};
  const std::vector<InputId> seq{kA};
  EXPECT_THROW((void)errmodel::exposes(m, undefined, 0, seq),
               std::invalid_argument);
  EXPECT_THROW((void)replay.first_exposing_sequence(undefined),
               std::invalid_argument);
  EXPECT_THROW((void)replay.equivalent(undefined), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MutantReplayStage on the reduced DLX control model
// ---------------------------------------------------------------------------

/// The reduced DLX control model (one register-address bit, reduced ISA):
/// 1,024 states.
const model::ExplicitModel& reduced_dlx_model() {
  static const model::ExplicitModel model = [] {
    testmodel::TestModelOptions opt;
    opt.output_sync_latches = false;
    opt.fetch_controller = false;
    opt.aux_outputs = false;
    opt.onehot_opclass = false;
    opt.interlock_registers = false;
    opt.reg_addr_bits = 1;
    opt.reduced_isa = true;
    return model::ExplicitModel(sym::extract_explicit(
        testmodel::build_dlx_control_model(opt).circuit, 100000));
  }();
  return model;
}

/// The Theorem-3 experiment's settings (simbench's thm3_mutants).
core::MutantCoverageOptions thm3_options(std::uint64_t seed) {
  core::MutantCoverageOptions options;
  options.method = core::TestMethod::kTransitionTourSet;
  options.mutant_sample = 400;
  options.k_extension = 5;
  options.exclude_equivalent = true;
  options.seed = seed;
  return options;
}

/// The stage's per-mutant result from the scalar oracles over the same test
/// set and sample.
struct OracleResult {
  std::vector<core::MutantCoverageResult::MutantExposure> exposures;
  std::size_t equivalent = 0;
};

OracleResult oracle(const model::ExplicitModel& model,
                    const core::MutantCoverageOptions& options) {
  const MealyMachine& m = model.machine();
  auto set = pipeline::generate_test_set(m, model.start(), options.method,
                                         options.random_length, options.seed);
  for (auto& seq : set.sequences) {
    pipeline::extend_sequence(m, model.start(), seq, options.k_extension);
  }
  const auto mutants = errmodel::sample_mutations(
      m, model.start(), m.output_alphabet_size(), options.mutant_sample,
      runtime::derive_stream(options.seed, runtime::Stream::kMutantStream));
  OracleResult result;
  for (const Mutation& mut : mutants) {
    const auto s = scalar_first_exposing(m, mut, model.start(), set.sequences);
    if (!s.has_value() && scalar_equivalent(m, mut, model.start())) {
      ++result.equivalent;
      continue;
    }
    result.exposures.push_back({s.has_value(), s.has_value() ? *s + 1 : 0});
  }
  return result;
}

class DlxStageOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DlxStageOracle, VerdictsMatchTheScalarOraclesAtAnyThreadCount) {
  const auto options = thm3_options(GetParam());
  const OracleResult want = oracle(reduced_dlx_model(), options);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    auto opt = options;
    opt.threads = threads;
    const auto r = core::evaluate_mutant_coverage(reduced_dlx_model(), opt);
    EXPECT_EQ(r.mutant_exposures, want.exposures);
    EXPECT_EQ(r.equivalent, want.equivalent);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DlxStageOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 9973));

TEST(DlxStageOracle, OtherMethodsMatchTheScalarOracles) {
  for (const auto method :
       {core::TestMethod::kStateTour, core::TestMethod::kRandomWalk}) {
    auto options = thm3_options(1);
    options.method = method;
    const OracleResult want = oracle(reduced_dlx_model(), options);
    const auto r = core::evaluate_mutant_coverage(reduced_dlx_model(), options);
    EXPECT_EQ(r.mutant_exposures, want.exposures)
        << core::method_name(method);
    EXPECT_EQ(r.equivalent, want.equivalent) << core::method_name(method);
  }
}

TEST(DlxStagePin, Seed1Thm3Configuration) {
  auto options = thm3_options(1);
  options.threads = 1;
  const auto r = core::evaluate_mutant_coverage(reduced_dlx_model(), options);
  EXPECT_EQ(r.test_length, 40773u);
  EXPECT_EQ(r.exposed, 358u);
  EXPECT_EQ(r.equivalent, 25u);
  EXPECT_EQ(r.mutants, 375u);
  std::uint64_t hash = 0;
  for (const std::uint64_t latency : r.exposure_latency) {
    hash = runtime::splitmix64(hash ^ latency);
  }
  // Recorded on the full-walk replay this index replaced.
  EXPECT_EQ(hash, 17243103302541007854ull);
}

}  // namespace
}  // namespace simcov
