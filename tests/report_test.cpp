// Tests for report formatting, the umbrella header, and the set-based test
// evaluation helpers.
#include "simcov.hpp"  // umbrella header must compile standalone

#include <gtest/gtest.h>

#include "runtime/rng.hpp"

namespace simcov {
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

TEST(Report, CampaignSummaryContainsKeyFacts) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kStateTour;
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall};
  const auto result = core::run_campaign(options, bugs);
  const std::string text = core::format_report(result);
  EXPECT_NE(text.find("validation campaign"), std::string::npos);
  EXPECT_NE(text.find("latches"), std::string::npos);
  EXPECT_NE(text.find("missing load-use interlock"), std::string::npos);
  EXPECT_NE(text.find(result.clean_pass ? "PASS" : "FAIL"),
            std::string::npos);
}

TEST(Report, RequirementsSummary) {
  fsm::MealyMachine m(2, 1);
  m.set_transition(0, 0, 1, 0);
  m.set_transition(1, 0, 0, 1);
  const auto req = core::assess_requirements(m, 0, tiny_model_options(), 4,
                                             10, 50);
  const std::string text = core::format_report(req);
  EXPECT_NE(text.find("requirements assessment"), std::string::npos);
  EXPECT_NE(text.find("Req. 5"), std::string::npos);
}

TEST(Report, MutantCoverageLine) {
  core::MutantCoverageResult r;
  r.mutants = 100;
  r.exposed = 88;
  r.equivalent = 3;
  r.sequences = 4;
  r.test_length = 1234;
  const std::string line =
      core::format_line(core::TestMethod::kTransitionTourSet, r);
  EXPECT_NE(line.find("transition-tour"), std::string::npos);
  EXPECT_NE(line.find("88/100"), std::string::npos);
  EXPECT_NE(line.find("3 equivalent"), std::string::npos);
}

TEST(Report, EveryBugHasAName) {
  for (int raw = 0;
       raw <= static_cast<int>(dlx::PipelineBug::kForwardFromR0); ++raw) {
    const auto bug = static_cast<dlx::PipelineBug>(raw);
    EXPECT_STRNE(core::bug_name(bug), "?");
  }
}

namespace {

/// Structural sanity of an emitted JSON string without a parser: balanced
/// braces/brackets outside string literals, and object/array delimiters.
void expect_balanced_json(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int depth = 0;
  bool in_string = false;
  for (std::size_t k = 0; k < json.size(); ++k) {
    const char c = json[k];
    if (in_string) {
      if (c == '\\') {
        ++k;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // No empty elements / stray commas.
  EXPECT_EQ(json.find(",,"), std::string::npos);
  EXPECT_EQ(json.find("{,"), std::string::npos);
  EXPECT_EQ(json.find("[,"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
  EXPECT_EQ(json.find(",]"), std::string::npos);
}

}  // namespace

TEST(Json, CampaignReportIsWellFormedAndComplete) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.backend = core::BackendChoice::kSymbolic;
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoForwardExMemA};
  const auto result = core::run_campaign(options, bugs);
  const std::string json = core::to_json(result);
  expect_balanced_json(json);
  for (const char* key :
       {"\"report\":\"campaign\"", "\"model\":", "\"test_set\":",
        "\"clean_pass\":true", "\"clean_runs\":[", "\"exposures\":[",
        "\"timings\":", "\"bdd\":", "\"symbolic\":", "\"impl_cycles\":",
        "\"runs_inconclusive\":0",
        "\"bug\":\"missing load-use interlock\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(Json, MutantCoverageReportHandlesEmptySample) {
  core::MutantCoverageResult empty;
  const std::string json =
      core::to_json(core::TestMethod::kRandomWalk, empty);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"exposure_rate\":null"), std::string::npos);
  core::MutantCoverageResult some;
  some.mutants = 4;
  some.exposed = 3;
  const std::string json2 =
      core::to_json(core::TestMethod::kTransitionTourSet, some);
  expect_balanced_json(json2);
  EXPECT_NE(json2.find("\"exposure_rate\":0.75"), std::string::npos);
}

TEST(Report, EmptyMutantSampleFormatsAsNa) {
  core::MutantCoverageResult empty;
  const std::string line =
      core::format_line(core::TestMethod::kStateTour, empty);
  EXPECT_NE(line.find("n/a"), std::string::npos);
  EXPECT_EQ(line.find("100"), std::string::npos);
}

TEST(Report, CampaignSummaryIncludesTimingsAndExposureDetail) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall};
  const auto result = core::run_campaign(options, bugs);
  const std::string text = core::format_report(result);
  EXPECT_NE(text.find("wall time"), std::string::npos);
  EXPECT_NE(text.find("sequence"), std::string::npos);
}

TEST(TestSetEval, MultiSequenceVariantMatchesUnion) {
  fsm::MealyMachine m(3, 2);
  for (fsm::StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  const auto muts =
      errmodel::enumerate_output_errors(m, 0, m.output_alphabet_size());
  const std::vector<std::vector<fsm::InputId>> sequences{
      {0, 0, 0}, {1}, {0, 1}};
  const errmodel::MutantReplay set_replay(m, 0, sequences);
  // A mutant is exposed by the set iff some individual sequence exposes it.
  for (std::size_t k = 0; k < muts.size(); ++k) {
    bool any = false;
    for (const auto& seq : sequences) {
      const std::vector<std::vector<fsm::InputId>> one{seq};
      any = any || errmodel::MutantReplay(m, 0, one)
                       .first_exposing_sequence(muts[k])
                       .sequence.has_value();
    }
    EXPECT_EQ(set_replay.first_exposing_sequence(muts[k]).sequence.has_value(),
              any)
        << "mutant " << k;
  }
}

TEST(Campaign, WMethodWorksOnMinimizableModel) {
  // The W-method path in the campaign minimizes first, so it must succeed
  // even though the control model has equivalent states.
  const auto model = testmodel::build_dlx_control_model(tiny_model_options());
  const auto em = sym::extract_explicit(model.circuit, 100000);
  const auto minimized = distinguish::minimize(em.machine, 0);
  EXPECT_LT(minimized.machine.num_states(), em.machine.num_states());
  core::MutantCoverageOptions opt;
  opt.method = core::TestMethod::kWMethod;
  opt.mutant_sample = 100;
  const fsm::MealyMachine& spec = minimized.machine;
  const fsm::StateId start = spec.initial_state();
  const auto r =
      core::evaluate_mutant_coverage(model::ExplicitModel(spec, start), opt);
  // On the minimized machine the W-method exposes every fault that valid
  // inputs can observe. The model is partial: a transfer mutant can land on
  // a state that differs from the true successor only by accepting an
  // invalid input (a don't-care), which no applicable test can expose.
  // The experiment keeps such mutants (exclude_equivalent is off), so its
  // per-mutant verdicts line up with the sample it drew.
  const auto sample = errmodel::sample_mutations(
      spec, start, spec.output_alphabet_size(), opt.mutant_sample,
      runtime::derive_stream(opt.seed, runtime::Stream::kMutantStream));
  ASSERT_EQ(r.mutant_exposures.size(), sample.size());
  std::size_t observable = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    if (!errmodel::observable(spec, sample[k], start)) continue;
    ++observable;
    EXPECT_TRUE(r.mutant_exposures[k].exposed) << "mutant " << k;
  }
  EXPECT_GT(observable, sample.size() / 2);
}

}  // namespace
}  // namespace simcov
