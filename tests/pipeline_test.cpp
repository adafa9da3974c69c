// Tests for the streaming validation pipeline: stage budgets, cooperative
// cancellation, the in-flight window, the span-derived timings view, the
// JSONL trace sink, and — the refactor's safety net — bit-identity of the
// pipelined campaign against pre-refactor golden reports at several thread
// counts.
#include "pipeline/contracts.hpp"
#include "pipeline/stages.hpp"
#include "pipeline/validation_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "obs/event_sink.hpp"
#include "pipeline/store_keys.hpp"
#include "store/artifact_store.hpp"
#include "tour/tour.hpp"

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

core::CampaignOptions tour_campaign_options() {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.threads = 1;
  return options;
}

const std::vector<dlx::PipelineBug> kThreeBugs{
    dlx::PipelineBug::kNoLoadUseStall,
    dlx::PipelineBug::kNoForwardExMemA,
    dlx::PipelineBug::kNoSquashOnTakenBranch,
};

/// The campaign outcome with wall-clock timings and store activity erased
/// (cache hit/miss counts legitimately differ between semantically
/// identical cold, warm and resumed runs). The metrics section is erased
/// for the same reason — latency histograms are wall-clock — while
/// coverage_telemetry is deterministic by contract and stays in.
std::string semantic_fingerprint(core::CampaignResult result) {
  result.timings = {};
  result.bdd_stats.reset();
  result.symbolic_stats.reset();
  result.store_stats.reset();
  result.metrics.reset();
  return core::to_json(result);
}

const pipeline::StageReport* find_report(
    const std::vector<pipeline::StageReport>& reports, obs::Stage stage) {
  for (const auto& r : reports) {
    if (r.stage == stage) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Streaming tour generation matches the materialized generators
// ---------------------------------------------------------------------------

TEST(TourStreaming, GeneratorMatchesMaterializedTourSet) {
  const auto m = fsm::random_connected_machine(40, 3, 5, 11);
  const auto set = tour::greedy_transition_tour_set(m, 0);
  ASSERT_TRUE(set.has_value());

  tour::TransitionTourSetGenerator gen(m, 0);
  std::vector<std::vector<fsm::InputId>> streamed;
  while (auto seq = gen.next()) streamed.push_back(std::move(*seq));
  EXPECT_TRUE(gen.done());
  EXPECT_FALSE(gen.stuck());
  EXPECT_EQ(streamed, set->sequences);
}

TEST(TourStreaming, ExplicitStreamMatchesMaterializedTour) {
  const auto m = fsm::random_connected_machine(30, 2, 4, 5);
  model::ExplicitModel materialized(m, 0);
  const auto full = materialized.transition_tour();

  model::ExplicitModel streamed_model(m, 0);
  auto stream = streamed_model.tour_source();
  std::vector<model::Sequence> sequences;
  while (auto seq = stream->next_sequence()) {
    sequences.push_back(std::move(*seq));
  }
  const auto summary = stream->summary();

  EXPECT_EQ(sequences, full.tour.sequences);
  EXPECT_EQ(summary.steps, full.steps);
  EXPECT_EQ(summary.restarts, full.restarts);
  EXPECT_EQ(summary.complete, full.complete);
  EXPECT_DOUBLE_EQ(summary.coverage.state_coverage(),
                   full.coverage.state_coverage());
  EXPECT_DOUBLE_EQ(summary.coverage.transition_coverage(),
                   full.coverage.transition_coverage());
  EXPECT_TRUE(summary.tour.sequences.empty())
      << "the summary must not rematerialize the yielded sequences";
}

TEST(TourStreaming, MaterializedStreamHandlesEmptyTour) {
  model::MaterializedTourStream stream{model::TourResult{}};
  EXPECT_FALSE(stream.next_sequence().has_value());
  const auto summary = stream.summary();
  EXPECT_EQ(summary.steps, 0u);
  EXPECT_FALSE(summary.complete);
  // An exhausted (here: empty) source keeps answering nullopt — a resumed
  // campaign may pull past the end again after restoring its checkpoint.
  EXPECT_FALSE(stream.next_sequence().has_value());
  EXPECT_EQ(stream.summary().steps, 0u);
}

TEST(TourStreaming, MaterializedStreamResumesMidPullWithStableSummary) {
  // A cancelled campaign stops pulling mid-stream and reads summary();
  // resuming pulls the remaining sequences from where it stopped, in
  // order, without disturbing them.
  model::TourResult result;
  result.tour.sequences = {{{true}}, {{false}}, {{true}, {false}}};
  result.steps = 4;
  result.restarts = 2;
  result.complete = true;
  model::MaterializedTourStream stream{result};

  const auto first = stream.next_sequence();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, result.tour.sequences[0]);

  const auto paused = stream.summary();
  EXPECT_EQ(paused.steps, 4u);
  EXPECT_EQ(paused.restarts, 2u);
  EXPECT_TRUE(paused.complete);
  EXPECT_TRUE(paused.tour.sequences.empty())
      << "summary must not rematerialize or consume the pending sequences";

  const auto second = stream.next_sequence();
  const auto third = stream.next_sequence();
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*second, result.tour.sequences[1]);
  EXPECT_EQ(*third, result.tour.sequences[2]);
  EXPECT_FALSE(stream.next_sequence().has_value());
  EXPECT_FALSE(stream.next_sequence().has_value());
  EXPECT_EQ(stream.summary().steps, 4u);
}

// ---------------------------------------------------------------------------
// Stage budgets
// ---------------------------------------------------------------------------

TEST(PipelineBudget, TourItemCapTruncatesAndReportsExhausted) {
  auto options = tour_campaign_options();
  options.budgets.tour.max_items = 3;
  const auto result = core::run_campaign(options, kThreeBugs);

  EXPECT_EQ(result.sequences, 3u);
  EXPECT_EQ(result.clean_runs.size(), 3u);
  EXPECT_TRUE(result.budget_exhausted());
  EXPECT_FALSE(result.cancelled());
  const auto* tour = find_report(result.stage_reports, obs::Stage::kTour);
  ASSERT_NE(tour, nullptr);
  EXPECT_EQ(tour->status, obs::StageStatus::kBudgetExhausted);
  EXPECT_EQ(tour->items, 3u);
  // Compare still runs over the truncated test set.
  EXPECT_EQ(result.exposures.size(), kThreeBugs.size());
  // A truncated tour reports the coverage of what was actually yielded.
  EXPECT_LT(result.transition_coverage, 1.0);
  EXPECT_GT(result.transition_coverage, 0.0);
}

TEST(PipelineBudget, ZeroTourBudgetYieldsEmptyInconclusiveRun) {
  auto options = tour_campaign_options();
  options.budgets.tour.max_items = 0;
  const auto result = core::run_campaign(options, kThreeBugs);

  EXPECT_EQ(result.sequences, 0u);
  EXPECT_TRUE(result.clean_runs.empty());
  EXPECT_TRUE(result.budget_exhausted());
  // Nothing ran, so nothing failed — but nothing was exposed either.
  EXPECT_TRUE(result.clean_pass);
  ASSERT_EQ(result.exposures.size(), kThreeBugs.size());
  for (const auto& e : result.exposures) {
    EXPECT_FALSE(e.exposed);
    EXPECT_EQ(e.programs_run, 0u);
  }
}

TEST(PipelineBudget, CompareItemCapTruncatesBugList) {
  auto options = tour_campaign_options();
  options.budgets.compare.max_items = 1;
  const auto result = core::run_campaign(options, kThreeBugs);

  ASSERT_EQ(result.exposures.size(), 1u);
  EXPECT_EQ(result.exposures[0].bug, kThreeBugs[0]);
  EXPECT_TRUE(result.budget_exhausted());
  const auto* compare = find_report(result.stage_reports,
                                    obs::Stage::kCompare);
  ASSERT_NE(compare, nullptr);
  EXPECT_EQ(compare->status, obs::StageStatus::kBudgetExhausted);
  EXPECT_EQ(compare->items, 1u);
}

TEST(PipelineBudget, DefaultBudgetsMatchUnbudgetedRun) {
  auto options = tour_campaign_options();
  const auto plain = core::run_campaign(options, kThreeBugs);
  EXPECT_FALSE(plain.budget_exhausted());
  EXPECT_FALSE(plain.cancelled());

  // Budgets far above the workload must not perturb the outcome.
  options.budgets.tour.max_items = 1u << 20;
  options.budgets.simulate.deadline_seconds = 1e9;
  options.max_in_flight_sequences = 2;
  const auto budgeted = core::run_campaign(options, kThreeBugs);
  EXPECT_EQ(semantic_fingerprint(budgeted), semantic_fingerprint(plain));
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Cancels the campaign's token when the Nth tour sequence is announced.
class CancelAfterSequences final : public obs::EventSink {
 public:
  CancelAfterSequences(pipeline::CancellationToken token, std::uint64_t after)
      : token_(std::move(token)), after_(after) {}

  void item(obs::Stage stage, std::string_view kind, std::uint64_t id,
            std::uint64_t) override {
    if (stage == obs::Stage::kTour && kind == "sequence" && id + 1 >= after_) {
      token_.cancel();
    }
  }

 private:
  pipeline::CancellationToken token_;
  std::uint64_t after_;
};

TEST(PipelineCancel, MidStreamCancellationIsBatchAtomic) {
  auto options = tour_campaign_options();
  options.max_in_flight_sequences = 1;  // one sequence per batch
  CancelAfterSequences sink(options.cancel, 3);
  options.sink = &sink;
  const auto result = core::run_campaign(options, kThreeBugs);

  // The token trips while sequence 2 (the third) is pulled; its batch is
  // dropped whole, so exactly the two earlier sequences were committed.
  EXPECT_TRUE(result.cancelled());
  EXPECT_EQ(result.sequences, 2u);
  EXPECT_EQ(result.clean_runs.size(), 2u);
  const auto* concretize = find_report(result.stage_reports,
                                       obs::Stage::kConcretize);
  ASSERT_NE(concretize, nullptr);
  EXPECT_EQ(concretize->status, obs::StageStatus::kCancelled);
  // Compare never starts on a cancelled campaign.
  EXPECT_TRUE(result.exposures.empty());
  const auto* compare = find_report(result.stage_reports,
                                    obs::Stage::kCompare);
  ASSERT_NE(compare, nullptr);
  EXPECT_EQ(compare->status, obs::StageStatus::kCancelled);
}

TEST(PipelineCancel, PreCancelledMutantReplayReportsNothingExposed) {
  const auto m = fsm::random_connected_machine(10, 2, 4, 3);
  core::MutantCoverageOptions options;
  options.mutant_sample = 50;
  options.cancel.cancel();
  const auto result =
      core::evaluate_mutant_coverage(model::ExplicitModel(m, 0), options);
  EXPECT_TRUE(result.cancelled());
  EXPECT_EQ(result.exposed, 0u);
  const auto* replay = find_report(result.stage_reports,
                                   obs::Stage::kMutantReplay);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->status, obs::StageStatus::kCancelled);
}

// ---------------------------------------------------------------------------
// Streaming window
// ---------------------------------------------------------------------------

/// Records the in-flight peak a pipeline run emits — a level snapshot, so
/// it arrives as a gauge (max semantics), never as a summed counter.
class PeakGaugeRecorder final : public obs::EventSink {
 public:
  void gauge(obs::Stage, std::string_view name,
             std::uint64_t value) override {
    if (name == "sequences_in_flight_peak") peak_ = std::max(peak_, value);
  }

  [[nodiscard]] std::uint64_t peak() const { return peak_; }

 private:
  std::uint64_t peak_ = 0;
};

TEST(PipelineWindow, InFlightSequencesBoundedByWindow) {
  auto options = tour_campaign_options();
  const auto reference = core::run_campaign(options, kThreeBugs);
  ASSERT_GT(reference.sequences, 2u);

  // Cap the window far below the sequence count: the peak must respect it
  // and the outcome must not change — streaming bounds memory, not results.
  PeakGaugeRecorder counters;
  options.max_in_flight_sequences = 2;
  options.sink = &counters;
  const auto windowed = core::run_campaign(options, kThreeBugs);
  EXPECT_LE(counters.peak(), 2u);
  EXPECT_GT(counters.peak(), 0u);
  EXPECT_EQ(semantic_fingerprint(windowed), semantic_fingerprint(reference));
}

// ---------------------------------------------------------------------------
// Timings as a projection of the stage spans
// ---------------------------------------------------------------------------

TEST(PipelineTimings, TotalSecondsIsThePhaseSum) {
  const auto result = core::run_campaign(tour_campaign_options(), kThreeBugs);
  // Equal up to floating-point summation order (the invariant
  // timings_from_spans itself asserts).
  EXPECT_NEAR(result.timings.total_seconds, result.timings.phase_sum(),
              1e-9 * result.timings.total_seconds + 1e-12);
  EXPECT_GT(result.timings.total_seconds, 0.0);

  // The stage reports carry the same span accumulation the timings view is
  // computed from, so their sum reproduces the total.
  double stage_sum = 0.0;
  for (const auto& r : result.stage_reports) stage_sum += r.seconds;
  EXPECT_NEAR(stage_sum, result.timings.total_seconds,
              1e-9 * result.timings.total_seconds + 1e-12);
}

TEST(PipelineTimings, MutantReplayTimingsAreSpanDerived) {
  const auto m = fsm::random_connected_machine(12, 2, 4, 9);
  core::MutantCoverageOptions options;
  options.mutant_sample = 40;
  const auto result =
      core::evaluate_mutant_coverage(model::ExplicitModel(m, 0), options);
  EXPECT_NEAR(result.timings.total_seconds, result.timings.phase_sum(),
              1e-9 * result.timings.total_seconds + 1e-12);
  EXPECT_GT(result.timings.tour_seconds, 0.0);
  EXPECT_GT(result.timings.simulate_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// JSONL trace sink
// ---------------------------------------------------------------------------

TEST(PipelineTrace, JsonlSinkStreamsParseableEvents) {
  const std::string path =
      testing::TempDir() + "pipeline_trace_test.jsonl";
  {
    obs::JsonlTraceSink sink(path);
    auto options = tour_campaign_options();
    options.sink = &sink;
    const auto result = core::run_campaign(options, kThreeBugs);
    ASSERT_TRUE(result.clean_pass);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  bool saw_span = false;
  bool saw_item = false;
  bool saw_status = false;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"event\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"stage\":"), std::string::npos) << line;
    saw_span = saw_span || line.find("\"event\":\"span\"") != std::string::npos;
    saw_item = saw_item || line.find("\"event\":\"item\"") != std::string::npos;
    saw_status =
        saw_status || line.find("\"event\":\"status\"") != std::string::npos;
  }
  EXPECT_GT(lines, 10u);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_item);
  EXPECT_TRUE(saw_status);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Golden bit-identity: the streamed pipeline reproduces the pre-refactor
// monolithic engine exactly (timings erased), at any thread count.
// ---------------------------------------------------------------------------

// Captured from the pre-refactor engine (commit "Unify explicit and
// symbolic test models behind one TestModel interface") with the dumper
// configuration mirrored in each test below.
constexpr const char* kGoldenExplicitTour =
    R"json({"report":"campaign","model":{"backend":"explicit","latches":21,"primary_inputs":8,"states":1024,"transitions":21508},"test_set":{"sequences":19,"steps":40678,"instructions":39401,"state_coverage":1,"transition_coverage":1},"clean_pass":true,"bugs_exposed":3,"runs_inconclusive":0,"total_impl_cycles":42783,"clean_runs":[{"sequence":0,"impl_cycles":39631,"checkpoints":35261,"passed":true,"budget_exhausted":false},{"sequence":1,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":2,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":3,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":4,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":5,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":6,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":7,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":8,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":9,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":10,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":11,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":12,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":13,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":14,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":15,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":16,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":17,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":18,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false}],"exposures":[{"bug":"missing load-use interlock","exposed":true,"programs_run":1,"impl_cycles":586,"budget_exhausted":false,"exposing_sequence":0},{"bug":"no EX/MEM bypass (A)","exposed":true,"programs_run":1,"impl_cycles":1050,"budget_exhausted":false,"exposing_sequence":0},{"bug":"no squash on taken branch","exposed":true,"programs_run":1,"impl_cycles":1408,"budget_exhausted":false,"exposing_sequence":0}],"timings":{"model_build_seconds":0,"symbolic_seconds":0,"tour_seconds":0,"concretize_seconds":0,"simulate_seconds":0,"total_seconds":0}})json";

constexpr const char* kGoldenRandomWalk =
    R"json({"report":"campaign","model":{"backend":"explicit","latches":21,"primary_inputs":8,"states":1024,"transitions":21508},"test_set":{"sequences":1,"steps":120,"instructions":111,"state_coverage":0.1005859375,"transition_coverage":0.005532824995350567},"clean_pass":true,"bugs_exposed":1,"runs_inconclusive":0,"total_impl_cycles":155,"clean_runs":[{"sequence":0,"impl_cycles":120,"checkpoints":101,"passed":true,"budget_exhausted":false}],"exposures":[{"bug":"missing load-use interlock","exposed":true,"programs_run":1,"impl_cycles":35,"budget_exhausted":false,"exposing_sequence":0}],"timings":{"model_build_seconds":0,"symbolic_seconds":0,"tour_seconds":0,"concretize_seconds":0,"simulate_seconds":0,"total_seconds":0}})json";

constexpr const char* kGoldenSymbolicTour =
    R"json({"report":"campaign","model":{"backend":"symbolic","latches":21,"primary_inputs":8,"states":1024,"transitions":21508},"test_set":{"sequences":19,"steps":41497,"instructions":40220,"state_coverage":1,"transition_coverage":1},"clean_pass":true,"bugs_exposed":2,"runs_inconclusive":0,"total_impl_cycles":42558,"clean_runs":[{"sequence":0,"impl_cycles":40460,"checkpoints":36080,"passed":true,"budget_exhausted":false},{"sequence":1,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":2,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":3,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":4,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":5,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":6,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":7,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":8,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":9,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":10,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":11,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":12,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":13,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":14,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":15,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":16,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":17,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false},{"sequence":18,"impl_cycles":6,"checkpoints":2,"passed":true,"budget_exhausted":false}],"exposures":[{"bug":"missing load-use interlock","exposed":true,"programs_run":1,"impl_cycles":586,"budget_exhausted":false,"exposing_sequence":0},{"bug":"no squash on taken branch","exposed":true,"programs_run":1,"impl_cycles":1404,"budget_exhausted":false,"exposing_sequence":0}],"timings":{"model_build_seconds":0,"symbolic_seconds":0,"tour_seconds":0,"concretize_seconds":0,"simulate_seconds":0,"total_seconds":0}})json";

const std::size_t kGoldenThreadCounts[] = {1, 2, 8};

TEST(PipelineGolden, ExplicitTourMatchesPreRefactorEngine) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.seed = 1;
  for (const std::size_t threads : kGoldenThreadCounts) {
    options.threads = threads;
    const auto result = core::run_campaign(options, kThreeBugs);
    EXPECT_EQ(semantic_fingerprint(result), kGoldenExplicitTour)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Artifact store integration: warm reuse, report archival, checkpoint/resume
// ---------------------------------------------------------------------------

/// A fresh store directory under the system temp dir, wiped on both ends of
/// the test.
class PipelineStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("simcov_pipeline_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::size_t checkpoint_files() const {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind("checkpoint-", 0) == 0) ++n;
    }
    return n;
  }

  std::filesystem::path dir_;
};

TEST_F(PipelineStoreTest, WarmRunSkipsTourGenerationAndIsByteIdentical) {
  core::CampaignOptions options = tour_campaign_options();
  options.store_dir = dir_.string();

  const auto cold = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(cold.store_stats.has_value());
  EXPECT_EQ(cold.store_stats->hits, 0u);
  EXPECT_GT(cold.store_stats->misses, 0u);

  const auto warm = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(warm.store_stats.has_value());
  EXPECT_GT(warm.store_stats->hits, 0u);
  EXPECT_EQ(warm.store_stats->misses, 0u)
      << "the warm run recomputed something the cold run published";
  EXPECT_EQ(semantic_fingerprint(warm), semantic_fingerprint(cold));
}

TEST_F(PipelineStoreTest, CompletedCampaignArchivesItsReport) {
  core::CampaignOptions options = tour_campaign_options();
  options.store_dir = dir_.string();
  const auto result = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(result.report_key.has_value());

  store::ArtifactStore store(store::StoreOptions{dir_, 0});
  const auto payload = store.load(store::ArtifactKind::kReport,
                                  *result.report_key, obs::Stage::kCompare,
                                  obs::null_sink());
  ASSERT_TRUE(payload.has_value());
  const std::string archived(payload->begin(), payload->end());
  EXPECT_EQ(archived, core::to_json(result));
  // The campaign ran to completion, so no checkpoint survives it.
  EXPECT_EQ(checkpoint_files(), 0u);
}

TEST_F(PipelineStoreTest, TourBudgetBypassesTheTourCache) {
  core::CampaignOptions options = tour_campaign_options();
  options.store_dir = dir_.string();
  options.budgets.tour.max_items = 2;  // truncated tour != the keyed tour
  const auto first = core::run_campaign(options, kThreeBugs);
  const auto second = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(second.store_stats.has_value());
  EXPECT_EQ(second.store_stats->hits + second.store_stats->misses, 0u)
      << "a budget-truncated tour must never be cached or served";
  EXPECT_EQ(semantic_fingerprint(second), semantic_fingerprint(first));
}

/// Cancels the campaign after `after` committed clean runs — a
/// deterministic stand-in for killing the process mid-stream.
class KillAfterRuns final : public obs::EventSink {
 public:
  KillAfterRuns(core::CancellationToken token, std::size_t after)
      : token_(std::move(token)), after_(after) {}

  void item(obs::Stage stage, std::string_view kind, std::uint64_t,
            std::uint64_t) override {
    if (stage == obs::Stage::kSimulate && kind == "clean_run" &&
        seen_.fetch_add(1) + 1 >= after_) {
      token_.cancel();
    }
  }

 private:
  core::CancellationToken token_;
  std::size_t after_;
  std::atomic<std::size_t> seen_{0};
};

TEST_F(PipelineStoreTest, KilledCampaignResumesIdenticallyAcrossThreads) {
  // Reference: the uninterrupted run (no store involved at all).
  core::CampaignOptions base = tour_campaign_options();
  base.checkpoint_every = 2;
  const std::string reference =
      semantic_fingerprint(core::run_campaign(base, kThreeBugs));

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto dir = dir_ / ("t" + std::to_string(threads));

    // Copied CampaignOptions share one cancellation flag; each run needs
    // its own token so the kill only hits the run it targets.
    core::CampaignOptions kopt = base;
    kopt.cancel = core::CancellationToken{};
    kopt.threads = threads;
    kopt.store_dir = dir.string();
    KillAfterRuns killer(kopt.cancel, 3);
    kopt.sink = &killer;
    const auto killed = core::run_campaign(kopt, kThreeBugs);
    EXPECT_TRUE(killed.cancelled()) << "threads=" << threads;
    EXPECT_NE(semantic_fingerprint(killed), reference);

    core::CampaignOptions ropt = base;
    ropt.cancel = core::CancellationToken{};
    ropt.threads = threads;
    ropt.store_dir = dir.string();
    ropt.resume = true;
    const auto resumed = core::run_campaign(ropt, kThreeBugs);
    ASSERT_TRUE(resumed.store_stats.has_value());
    EXPECT_GT(resumed.store_stats->resumed_sequences, 0u)
        << "threads=" << threads;
    EXPECT_EQ(semantic_fingerprint(resumed), reference)
        << "threads=" << threads;
  }
}

TEST_F(PipelineStoreTest, ResumeWithoutACheckpointIsACleanColdRun) {
  core::CampaignOptions options = tour_campaign_options();
  options.store_dir = dir_.string();
  options.resume = true;  // nothing to resume from yet
  const auto result = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(result.store_stats.has_value());
  EXPECT_EQ(result.store_stats->resumed_sequences, 0u);

  core::CampaignOptions plain = tour_campaign_options();
  EXPECT_EQ(semantic_fingerprint(result),
            semantic_fingerprint(core::run_campaign(plain, kThreeBugs)));
}

// ---------------------------------------------------------------------------
// Coverage telemetry: deterministic at any thread count and across resume
// ---------------------------------------------------------------------------

TEST(PipelineTelemetry, ConvergenceCurveIsIdenticalAcrossThreadCounts) {
  core::CampaignOptions options = tour_campaign_options();
  options.collect_coverage_telemetry = true;

  options.threads = 1;
  const auto reference = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(reference.coverage_telemetry.has_value());
  const auto& ref = *reference.coverage_telemetry;
  ASSERT_FALSE(ref.convergence.empty());
  EXPECT_EQ(ref.convergence.back().transitions_covered,
            ref.distinct_transitions);
  EXPECT_GE(ref.max_transition_hits, 1u);
  ASSERT_EQ(ref.bug_exposure_latency.size(), kThreeBugs.size());

  const std::string fingerprint = semantic_fingerprint(reference);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    const auto result = core::run_campaign(options, kThreeBugs);
    ASSERT_TRUE(result.coverage_telemetry.has_value())
        << "threads=" << threads;
    EXPECT_EQ(result.coverage_telemetry->convergence, ref.convergence)
        << "threads=" << threads;
    EXPECT_EQ(result.coverage_telemetry->transition_hits, ref.transition_hits)
        << "threads=" << threads;
    EXPECT_EQ(result.coverage_telemetry->bug_exposure_latency,
              ref.bug_exposure_latency)
        << "threads=" << threads;
    EXPECT_EQ(semantic_fingerprint(result), fingerprint)
        << "threads=" << threads;
  }
}

TEST(PipelineTelemetry, ExposureLatencyAgreesWithTheCompareVerdicts) {
  core::CampaignOptions options = tour_campaign_options();
  options.collect_coverage_telemetry = true;
  const auto result = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(result.coverage_telemetry.has_value());
  const auto& latencies = result.coverage_telemetry->bug_exposure_latency;
  ASSERT_EQ(latencies.size(), result.exposures.size());
  for (std::size_t b = 0; b < latencies.size(); ++b) {
    EXPECT_EQ(latencies[b].exposed, result.exposures[b].exposed) << "bug " << b;
    if (result.exposures[b].exposed) {
      ASSERT_TRUE(result.exposures[b].exposing_sequence.has_value());
      EXPECT_EQ(latencies[b].sequences,
                *result.exposures[b].exposing_sequence + 1)
          << "bug " << b << ": latency must be the 1-based exposing index";
    }
  }
}

TEST(PipelineTelemetry, CurveBudgetBoundsThePointCountButNotTheEndpoint) {
  core::CampaignOptions full = tour_campaign_options();
  full.collect_coverage_telemetry = true;
  const auto reference = core::run_campaign(full, kThreeBugs);
  ASSERT_TRUE(reference.coverage_telemetry.has_value());

  core::CampaignOptions tight = full;
  tight.telemetry_curve_budget = 2;
  const auto result = core::run_campaign(tight, kThreeBugs);
  ASSERT_TRUE(result.coverage_telemetry.has_value());
  EXPECT_LE(result.coverage_telemetry->convergence.size(), 3u);
  EXPECT_EQ(result.coverage_telemetry->convergence.back(),
            reference.coverage_telemetry->convergence.back())
      << "downsampling must keep the campaign's final coverage point";
}

/// FNV-1a 64 over a report string.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the whole semantic report, coverage_telemetry section included, on
// both backends. No golden above carries that section, so these hashes are
// what holds the telemetry commit path to its recorded output.
TEST(PipelineTelemetry, ReportHashIsPinnedOnBothBackends) {
  struct Case {
    core::BackendChoice backend;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {core::BackendChoice::kExplicit, 17758656201916841878ull},
      {core::BackendChoice::kSymbolic, 7259922530917120541ull},
  };
  for (const Case& c : cases) {
    core::CampaignOptions options = tour_campaign_options();
    options.backend = c.backend;
    options.collect_coverage_telemetry = true;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      options.threads = threads;
      const auto result = core::run_campaign(options, kThreeBugs);
      ASSERT_TRUE(result.coverage_telemetry.has_value());
      const std::string json = semantic_fingerprint(result);
      EXPECT_NE(json.find("\"coverage_telemetry\""), std::string::npos);
      EXPECT_EQ(fnv1a(json), c.hash)
          << model::backend_name(result.backend) << " threads=" << threads;
    }
  }
}

TEST(PipelineTelemetry, DisabledByDefaultAndAbsentFromTheReport) {
  const auto result =
      core::run_campaign(tour_campaign_options(), kThreeBugs);
  EXPECT_FALSE(result.coverage_telemetry.has_value());
  EXPECT_EQ(core::to_json(result).find("coverage_telemetry"),
            std::string::npos);
}

TEST(PipelineTelemetry, MetricsRegistrySummaryLandsInTheReport) {
  obs::MetricsRegistry registry;
  core::CampaignOptions options = tour_campaign_options();
  options.metrics = &registry;
  const auto result = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(result.metrics.has_value());
  EXPECT_FALSE(result.metrics->histograms.empty());

  // Per-sequence latency instrumentation fed the registry for every stage
  // of the Figure-1 flow.
  bool tour_latency = false, concretize_latency = false,
       simulate_latency = false, queue_wait = false;
  for (const auto& h : result.metrics->histograms) {
    if (h.stage == obs::Stage::kTour && h.name == "sequence.latency_ns")
      tour_latency = true;
    if (h.stage == obs::Stage::kConcretize && h.name == "program.latency_ns")
      concretize_latency = true;
    if (h.stage == obs::Stage::kSimulate && h.name == "clean_run.latency_ns")
      simulate_latency = true;
    if (h.name == "queue_wait.latency_ns") queue_wait = true;
  }
  EXPECT_TRUE(tour_latency);
  EXPECT_TRUE(concretize_latency);
  EXPECT_TRUE(simulate_latency);
  EXPECT_TRUE(queue_wait);

  const std::string json = core::to_json(result);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"clean_run.latency_ns\""), std::string::npos);
}

TEST_F(PipelineStoreTest, TelemetrySurvivesKillAndResumeBitIdentically) {
  core::CampaignOptions base = tour_campaign_options();
  base.checkpoint_every = 2;
  base.collect_coverage_telemetry = true;
  const auto uninterrupted = core::run_campaign(base, kThreeBugs);
  ASSERT_TRUE(uninterrupted.coverage_telemetry.has_value());
  const std::string reference = semantic_fingerprint(uninterrupted);

  core::CampaignOptions kopt = base;
  kopt.cancel = core::CancellationToken{};
  kopt.store_dir = dir_.string();
  KillAfterRuns killer(kopt.cancel, 2);
  kopt.sink = &killer;
  const auto killed = core::run_campaign(kopt, kThreeBugs);
  ASSERT_TRUE(killed.cancelled());

  core::CampaignOptions ropt = base;
  ropt.cancel = core::CancellationToken{};
  ropt.store_dir = dir_.string();
  ropt.resume = true;
  const auto resumed = core::run_campaign(ropt, kThreeBugs);
  ASSERT_TRUE(resumed.store_stats.has_value());
  EXPECT_GT(resumed.store_stats->resumed_sequences, 0u);
  ASSERT_TRUE(resumed.coverage_telemetry.has_value());
  EXPECT_EQ(resumed.coverage_telemetry->convergence,
            uninterrupted.coverage_telemetry->convergence)
      << "replay across the resume boundary must reproduce the curve";
  EXPECT_EQ(semantic_fingerprint(resumed), reference);
}

TEST(PipelineTelemetry, MutantReplayRecordsExposureLatencies) {
  const auto m = fsm::random_connected_machine(20, 3, 4, 9);
  model::ExplicitModel model(m, 0);
  core::MutantCoverageOptions options;
  options.mutant_sample = 40;
  options.k_extension = 2;
  const auto reference = core::evaluate_mutant_coverage(model, options);
  EXPECT_EQ(reference.exposure_latency.size(), reference.exposed);
  for (const auto latency : reference.exposure_latency) {
    EXPECT_GE(latency, 1u);
    EXPECT_LE(latency, reference.sequences);
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    core::MutantCoverageOptions opt = options;
    opt.threads = threads;
    const auto r = core::evaluate_mutant_coverage(model, opt);
    EXPECT_EQ(r.exposure_latency, reference.exposure_latency)
        << "threads=" << threads;
  }
}

TEST(PipelineGolden, RandomWalkMatchesPreRefactorEngine) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kRandomWalk;
  options.random_length = 120;
  options.seed = 7;
  const std::vector<dlx::PipelineBug> bugs{dlx::PipelineBug::kNoLoadUseStall};
  for (const std::size_t threads : kGoldenThreadCounts) {
    options.threads = threads;
    const auto result = core::run_campaign(options, bugs);
    EXPECT_EQ(semantic_fingerprint(result), kGoldenRandomWalk)
        << "threads=" << threads;
  }
}

TEST(PipelineGolden, SymbolicTourMatchesPreRefactorEngine) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.backend = core::BackendChoice::kSymbolic;
  options.seed = 1;
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
  };
  for (const std::size_t threads : kGoldenThreadCounts) {
    options.threads = threads;
    const auto result = core::run_campaign(options, bugs);
    EXPECT_EQ(semantic_fingerprint(result), kGoldenSymbolicTour)
        << "threads=" << threads;
  }
}

TEST(PipelineGolden, SymbolicTourUnchangedByDynamicReordering) {
  // The reorder policy is a runtime knob: with it on, the campaign report
  // must stay byte-identical (modulo engine telemetry, erased exactly like
  // wall clock) to the static-order golden — at every thread count, since
  // all BDD work runs on the coordinator thread.
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.backend = core::BackendChoice::kSymbolic;
  options.seed = 1;
  options.reorder = bdd::ReorderPolicy::kAuto;
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
  };
  for (const std::size_t threads : kGoldenThreadCounts) {
    options.threads = threads;
    const auto result = core::run_campaign(options, bugs);
    EXPECT_EQ(semantic_fingerprint(result), kGoldenSymbolicTour)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Generator layer: pluggable sequence sources at the campaign level
// ---------------------------------------------------------------------------

/// A biased-random spec small enough to keep tiny-model campaigns fast.
core::GeneratorSpec biased_campaign_spec() {
  core::GeneratorSpec spec;
  spec.kind = core::GeneratorKind::kBiasedRandom;
  spec.sequence_length = 32;
  spec.max_walk_steps = 2000;
  return spec;
}

core::GeneratorSpec hybrid_campaign_spec() {
  core::GeneratorSpec spec = biased_campaign_spec();
  spec.kind = core::GeneratorKind::kHybrid;
  spec.hybrid_tour_steps = 256;
  return spec;
}

TEST(PipelineGenerator, BiasedCampaignIsBitIdenticalAcrossThreadCounts) {
  core::CampaignOptions options = tour_campaign_options();
  options.generator = biased_campaign_spec();
  const auto reference = core::run_campaign(options, kThreeBugs);
  const std::string fingerprint = semantic_fingerprint(reference);
  EXPECT_NE(fingerprint.find("\"generator\":{\"kind\":\"biased_random\""),
            std::string::npos);
  EXPECT_GT(reference.sequences, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    EXPECT_EQ(semantic_fingerprint(core::run_campaign(options, kThreeBugs)),
              fingerprint)
        << "threads=" << threads;
  }

  // The strategy actually changed what ran: a default-spec campaign
  // produces a different report, and one without a "generator" section.
  const std::string default_fingerprint =
      semantic_fingerprint(core::run_campaign(tour_campaign_options(),
                                              kThreeBugs));
  EXPECT_NE(default_fingerprint, fingerprint);
  EXPECT_EQ(default_fingerprint.find("\"generator\""), std::string::npos);
}

TEST(PipelineGenerator, HybridCampaignIsBitIdenticalAcrossThreadCounts) {
  core::CampaignOptions options = tour_campaign_options();
  options.generator = hybrid_campaign_spec();
  const auto reference = core::run_campaign(options, kThreeBugs);
  const std::string fingerprint = semantic_fingerprint(reference);
  EXPECT_NE(fingerprint.find("\"generator\":{\"kind\":\"hybrid\""),
            std::string::npos);
  EXPECT_GT(reference.sequences, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    EXPECT_EQ(semantic_fingerprint(core::run_campaign(options, kThreeBugs)),
              fingerprint)
        << "threads=" << threads;
  }
}

TEST(PipelineGenerator, NonDefaultSpecRejectsOtherMethods) {
  core::CampaignOptions options = tour_campaign_options();
  options.method = core::TestMethod::kRandomWalk;
  options.generator = biased_campaign_spec();
  EXPECT_THROW(core::run_campaign(options, kThreeBugs),
               std::invalid_argument);
}

TEST(PipelineGenerator, MutantReplayListsEveryRealMutantOnce) {
  const auto m = fsm::random_connected_machine(20, 3, 4, 9);
  model::ExplicitModel model(m, 0);
  core::MutantCoverageOptions options;
  options.mutant_sample = 40;
  options.k_extension = 2;
  const auto r = core::evaluate_mutant_coverage(model, options);
  ASSERT_EQ(r.mutant_exposures.size(), r.mutants);

  std::size_t exposed = 0;
  std::vector<std::uint64_t> exposed_latencies;
  for (const auto& e : r.mutant_exposures) {
    if (e.exposed) {
      ++exposed;
      EXPECT_GE(e.sequences, 1u);
      EXPECT_LE(e.sequences, r.sequences);
      exposed_latencies.push_back(e.sequences);
    } else {
      EXPECT_EQ(e.sequences, 0u) << "unexposed mutants carry no latency";
    }
  }
  EXPECT_EQ(exposed, r.exposed);
  EXPECT_EQ(exposed_latencies, r.exposure_latency)
      << "the exposed-only view must be a projection of mutant_exposures";
}

TEST(PipelineGenerator, MutantReplayWithBiasedGeneratorIsThreadInvariant) {
  const auto m = fsm::random_connected_machine(20, 3, 4, 9);
  model::ExplicitModel model(m, 0);
  core::MutantCoverageOptions options;
  options.mutant_sample = 30;
  options.k_extension = 2;
  options.generator = biased_campaign_spec();
  const auto reference = core::evaluate_mutant_coverage(model, options);
  EXPECT_GT(reference.sequences, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    core::MutantCoverageOptions opt = options;
    opt.threads = threads;
    const auto r = core::evaluate_mutant_coverage(model, opt);
    EXPECT_EQ(r.mutant_exposures, reference.mutant_exposures)
        << "threads=" << threads;
    EXPECT_EQ(r.exposure_latency, reference.exposure_latency)
        << "threads=" << threads;
  }
}

TEST(PipelineStoreKeys, TourKeyCoversEverySequenceShapingKnob) {
  const auto built = testmodel::build_dlx_control_model(tiny_model_options());
  const core::CampaignOptions base = tour_campaign_options();
  const auto baseline = pipeline::campaign_store_keys(
      base, built.circuit, model::Backend::kExplicit, kThreeBugs);

  using Mutator = std::function<void(core::CampaignOptions&)>;
  const std::vector<std::pair<const char*, Mutator>> knobs{
      {"method",
       [](core::CampaignOptions& o) {
         o.method = core::TestMethod::kStateTour;
       }},
      {"max_tour_steps",
       [](core::CampaignOptions& o) { o.max_tour_steps += 1; }},
      {"random_length",
       [](core::CampaignOptions& o) { o.random_length += 1; }},
      {"seed", [](core::CampaignOptions& o) { o.seed += 1; }},
      {"generator.kind",
       [](core::CampaignOptions& o) {
         o.generator.kind = core::GeneratorKind::kBiasedRandom;
       }},
      {"generator.sequence_length",
       [](core::CampaignOptions& o) { o.generator.sequence_length += 1; }},
      {"generator.max_walk_steps",
       [](core::CampaignOptions& o) { o.generator.max_walk_steps += 1; }},
      {"generator.bias_strength",
       [](core::CampaignOptions& o) { o.generator.bias_strength += 1; }},
      {"generator.hybrid_tour_steps",
       [](core::CampaignOptions& o) { o.generator.hybrid_tour_steps += 1; }},
  };
  for (const auto& [name, mutate] : knobs) {
    core::CampaignOptions opt = base;
    mutate(opt);
    const auto keys = pipeline::campaign_store_keys(
        opt, built.circuit, model::Backend::kExplicit, kThreeBugs);
    EXPECT_NE(keys.tour, baseline.tour) << name;
    // Checkpoint and report keys chain off the tour key, so a sequence-
    // shaping change invalidates those artifacts too.
    EXPECT_NE(keys.checkpoint, baseline.checkpoint) << name;
    EXPECT_NE(keys.report, baseline.report) << name;
  }

  // The resolved backend shapes generation as well.
  const auto symbolic = pipeline::campaign_store_keys(
      base, built.circuit, model::Backend::kSymbolic, kThreeBugs);
  EXPECT_NE(symbolic.tour, baseline.tour);

  // The cycle budget shapes verdicts (checkpoint/report) but not the tour.
  core::CampaignOptions cycles = base;
  cycles.max_cycles += 1;
  const auto cycle_keys = pipeline::campaign_store_keys(
      cycles, built.circuit, model::Backend::kExplicit, kThreeBugs);
  EXPECT_EQ(cycle_keys.tour, baseline.tour);
  EXPECT_NE(cycle_keys.checkpoint, baseline.checkpoint);

  // Runtime-only knobs stay out: artifacts are shareable across them.
  core::CampaignOptions runtime_only = base;
  runtime_only.threads = 7;
  runtime_only.max_in_flight_sequences = 3;
  runtime_only.checkpoint_every = 1;
  const auto same = pipeline::campaign_store_keys(
      runtime_only, built.circuit, model::Backend::kExplicit, kThreeBugs);
  EXPECT_EQ(same.tour, baseline.tour);
  EXPECT_EQ(same.checkpoint, baseline.checkpoint);
  EXPECT_EQ(same.report, baseline.report);
}

TEST_F(PipelineStoreTest, WarmTourCacheNeverCrossesGeneratorSpecs) {
  core::CampaignOptions tour_options = tour_campaign_options();
  tour_options.store_dir = dir_.string();
  const auto tour_run = core::run_campaign(tour_options, kThreeBugs);
  ASSERT_TRUE(tour_run.store_stats.has_value());

  // A biased-spec campaign on the same store must regenerate: the tour the
  // default run published is keyed under a different generator spec.
  core::CampaignOptions biased_options = tour_options;
  biased_options.generator = biased_campaign_spec();
  const auto biased_cold = core::run_campaign(biased_options, kThreeBugs);
  ASSERT_TRUE(biased_cold.store_stats.has_value());
  EXPECT_GT(biased_cold.store_stats->misses, 0u)
      << "the biased run reused an artifact keyed for another generator";
  EXPECT_NE(semantic_fingerprint(biased_cold),
            semantic_fingerprint(tour_run));

  // Same spec, same store: now it's a legitimate warm hit.
  const auto biased_warm = core::run_campaign(biased_options, kThreeBugs);
  ASSERT_TRUE(biased_warm.store_stats.has_value());
  EXPECT_GT(biased_warm.store_stats->hits, 0u);
  EXPECT_EQ(biased_warm.store_stats->misses, 0u);
  EXPECT_EQ(semantic_fingerprint(biased_warm),
            semantic_fingerprint(biased_cold));
}

TEST_F(PipelineStoreTest, KilledBiasedCampaignResumesIdenticallyAcrossThreads) {
  core::CampaignOptions base = tour_campaign_options();
  base.generator = biased_campaign_spec();
  base.checkpoint_every = 2;
  const std::string reference =
      semantic_fingerprint(core::run_campaign(base, kThreeBugs));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto dir = dir_ / ("t" + std::to_string(threads));

    core::CampaignOptions kopt = base;
    kopt.cancel = core::CancellationToken{};
    kopt.threads = threads;
    kopt.store_dir = dir.string();
    KillAfterRuns killer(kopt.cancel, 3);
    kopt.sink = &killer;
    const auto killed = core::run_campaign(kopt, kThreeBugs);
    EXPECT_TRUE(killed.cancelled()) << "threads=" << threads;
    EXPECT_NE(semantic_fingerprint(killed), reference);

    core::CampaignOptions ropt = base;
    ropt.cancel = core::CancellationToken{};
    ropt.threads = threads;
    ropt.store_dir = dir.string();
    ropt.resume = true;
    const auto resumed = core::run_campaign(ropt, kThreeBugs);
    ASSERT_TRUE(resumed.store_stats.has_value());
    EXPECT_GT(resumed.store_stats->resumed_sequences, 0u)
        << "threads=" << threads;
    EXPECT_EQ(semantic_fingerprint(resumed), reference)
        << "the biased stream must re-pull deterministically across resume, "
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace simcov
