// Tests for the streaming validation pipeline: cooperative cancellation,
// the in-flight window, the timings rendered from the stage reports, the
// Perfetto trace of a campaign, and — the refactor's safety net —
// bit-identity of the pipelined campaign against pre-refactor golden
// reports at several thread counts.
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
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "one_lane.hpp"
#include "sym/symbolic_fsm.hpp"
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
  // The materialized greedy tour set, as keys with its coverage.
  model::ExplicitModel materialized(m, 0);
  const auto set = tour::greedy_transition_tour_set(m, 0);
  ASSERT_TRUE(set.has_value());
  const auto full = materialized.to_result(*set);

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
  // One thread: a window of two sequences per batch.
  CancelAfterSequences sink(options.cancel, 3);
  options.sink = &sink;
  const auto result = core::run_campaign(options, kThreeBugs);

  // The token trips while sequence 2 (the third, first of the second batch)
  // is pulled; its batch is dropped whole, so exactly the first batch's two
  // sequences were committed.
  EXPECT_TRUE(result.cancelled());
  EXPECT_EQ(result.sequences, 2u);
  EXPECT_EQ(result.clean_runs.size(), 2u);
  // A truncated tour reports the coverage of what was actually yielded.
  EXPECT_LT(result.transition_coverage, 1.0);
  EXPECT_GT(result.transition_coverage, 0.0);
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
  // The window is twice the worker-pool lanes. At 8 threads it holds the
  // whole tour; at 1 and 2 threads it is far below the sequence count, so
  // the peak must respect it and the outcome must not change — streaming
  // bounds memory, not results.
  auto options = tour_campaign_options();
  options.threads = 8;
  const auto reference = core::run_campaign(options, kThreeBugs);
  ASSERT_GT(reference.sequences, 4u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    PeakGaugeRecorder counters;
    options.threads = threads;
    options.sink = &counters;
    const auto windowed = core::run_campaign(options, kThreeBugs);
    EXPECT_LE(counters.peak(), 2 * threads);
    EXPECT_GT(counters.peak(), 0u);
    EXPECT_EQ(core::semantic_json(windowed), core::semantic_json(reference))
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Timings rendered from the stage reports
// ---------------------------------------------------------------------------

/// The number after the first `"key":` in a JSON document.
double json_number(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\":");
  return at == std::string::npos ? -1.0
                                 : std::stod(json.substr(at + key.size() + 3));
}

TEST(PipelineTimings, TotalSecondsIsThePhaseSum) {
  const auto result = core::run_campaign(tour_campaign_options(), kThreeBugs);
  double stage_sum = 0.0;
  for (const auto& r : result.stage_reports) stage_sum += r.seconds;
  EXPECT_GT(stage_sum, 0.0);

  // The rendered total is the stage reports' sum, and the phase fields fold
  // every stage (compare into simulate). The JSON sums the stages in a
  // different order than this loop, hence the relative tolerance.
  const std::string json = core::to_json(result);
  const double total = json_number(json, "total_seconds");
  EXPECT_NEAR(total, stage_sum, 1e-5 * stage_sum);
  double phases = 0.0;
  for (const char* key : {"model_build_seconds", "symbolic_seconds",
                          "tour_seconds", "concretize_seconds",
                          "simulate_seconds"}) {
    phases += json_number(json, key);
  }
  EXPECT_NEAR(phases, total, 1e-5 * total);
}

TEST(PipelineTimings, MutantReplayTimingsAreSpanDerived) {
  const auto m = fsm::random_connected_machine(12, 2, 4, 9);
  core::MutantCoverageOptions options;
  options.mutant_sample = 40;
  const auto result =
      core::evaluate_mutant_coverage(model::ExplicitModel(m, 0), options);
  const auto* tour = find_report(result.stage_reports, obs::Stage::kTour);
  const auto* replay =
      find_report(result.stage_reports, obs::Stage::kMutantReplay);
  ASSERT_TRUE(tour != nullptr && replay != nullptr);
  EXPECT_GT(tour->seconds, 0.0);
  EXPECT_GT(replay->seconds, 0.0);

  // Mutant replay folds into simulate_seconds; the total is the sum.
  const std::string json =
      core::to_json(core::TestMethod::kTransitionTourSet, result);
  const double total = json_number(json, "total_seconds");
  EXPECT_NEAR(total, tour->seconds + replay->seconds, 1e-5 * total);
  EXPECT_NEAR(json_number(json, "simulate_seconds"), replay->seconds,
              1e-5 * replay->seconds);
}

// ---------------------------------------------------------------------------
// Perfetto trace of a campaign
// ---------------------------------------------------------------------------

TEST(PipelineTrace, PerfettoSinkStreamsParseableEvents) {
  const std::string path = testing::TempDir() + "pipeline_trace_test.json";
  {
    obs::PerfettoTraceSink sink(path);
    auto options = tour_campaign_options();
    options.sink = &sink;
    ASSERT_TRUE(core::run_campaign(options, kThreeBugs).clean_pass);
  }  // the destructor closes the JSON array

  // A JSON array with one event object per line between "[" and "]".
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "[");
  // Each slice or instant as "<ph><scope>/<tid>/<name>". Stage tracks are
  // tid = stage; latency slices sit on tid 100 + stage.
  const std::regex event(
      R"re(^\{"ph":"([Xi])"(?:,"s":"([tg])")?,"pid":1,"tid":(\d+),)re"
      R"re("ts":\d+(?:,"dur":\d+)?,"name":"([^"]+)")re");
  std::set<std::string> events;
  while (std::getline(in, line) && line != "]") {
    if (!line.empty() && line.back() == ',') line.pop_back();
    ASSERT_TRUE(line.size() > 1 && line.front() == '{' && line.back() == '}')
        << line;
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'))
        << line;
    std::smatch m;
    if (std::regex_search(line, m, event)) {
      events.insert(m.str(1) + m.str(2) + "/" + m.str(3) + "/" + m.str(4));
    }
  }
  EXPECT_EQ(line, "]");
  // Every stream stage and compare forwards its spans, emits its item
  // instants and ends with a status instant on its track.
  const std::pair<obs::Stage, const char*> stage_items[] = {
      {obs::Stage::kTour, "sequence"},
      {obs::Stage::kConcretize, "program"},
      {obs::Stage::kSimulate, "clean_run"},
      {obs::Stage::kCompare, "bug"}};
  for (const auto& [stage, item] : stage_items) {
    const std::string track = "/" + std::to_string(static_cast<int>(stage));
    EXPECT_EQ(events.count("X" + track + "/" + obs::stage_name(stage)), 1u)
        << obs::stage_name(stage);
    EXPECT_EQ(events.count("it" + track + "/" + item), 1u) << item;
    EXPECT_EQ(events.count("ig" + track + "/status:ok"), 1u)
        << obs::stage_name(stage);
  }
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
    EXPECT_EQ(core::semantic_json(result), kGoldenExplicitTour)
        << "threads=" << threads;
  }
}

/// FNV-1a 64 over a report or waveform text.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Checkpoint store integration: kill, resume and erase on completion
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
      core::semantic_json(core::run_campaign(base, kThreeBugs));

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
    EXPECT_NE(core::semantic_json(killed), reference);

    core::CampaignOptions ropt = base;
    ropt.cancel = core::CancellationToken{};
    ropt.threads = threads;
    ropt.store_dir = dir.string();
    ropt.resume = true;
    const auto resumed = core::run_campaign(ropt, kThreeBugs);
    ASSERT_TRUE(resumed.store_stats.has_value());
    EXPECT_GT(resumed.store_stats->resumed_sequences, 0u)
        << "threads=" << threads;
    EXPECT_EQ(core::semantic_json(resumed), reference)
        << "threads=" << threads;
  }
}

// The DLX waveform, byte for byte, on both backends: at any thread count,
// and from a campaign killed after three clean runs and resumed.
TEST_F(PipelineStoreTest, DlxWaveformIsPinnedAcrossThreadsAndResume) {
  struct Case {
    core::BackendChoice backend;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {core::BackendChoice::kExplicit, 3407631635820193117ull},
      {core::BackendChoice::kSymbolic, 5846525204836248667ull},
  };
  const auto slurp_hash = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return fnv1a(text);
  };
  for (const Case& c : cases) {
    const auto dir = dir_ / (c.backend == core::BackendChoice::kExplicit
                                 ? "explicit"
                                 : "symbolic");
    std::filesystem::create_directories(dir);
    core::CampaignOptions base = tour_campaign_options();
    base.backend = c.backend;
    base.checkpoint_every = 2;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      core::CampaignOptions options = base;
      options.threads = threads;
      options.vcd_path = (dir / "wave.vcd").string();
      (void)core::run_campaign(options, {});
      EXPECT_EQ(slurp_hash(options.vcd_path), c.hash)
          << static_cast<int>(c.backend) << " threads=" << threads;
    }

    core::CampaignOptions kopt = base;
    kopt.cancel = core::CancellationToken{};
    kopt.store_dir = (dir / "store").string();
    KillAfterRuns killer(kopt.cancel, 3);
    kopt.sink = &killer;
    ASSERT_TRUE(core::run_campaign(kopt, {}).cancelled());
    core::CampaignOptions ropt = base;
    ropt.cancel = core::CancellationToken{};
    ropt.store_dir = kopt.store_dir;
    ropt.resume = true;
    ropt.vcd_path = (dir / "resumed.vcd").string();
    const auto resumed = core::run_campaign(ropt, {});
    ASSERT_TRUE(resumed.store_stats.has_value());
    EXPECT_GT(resumed.store_stats->resumed_sequences, 0u);
    EXPECT_EQ(slurp_hash(ropt.vcd_path), c.hash)
        << static_cast<int>(c.backend) << " resumed";
  }
}

TEST_F(PipelineStoreTest, ResumeWithoutACheckpointIsACleanColdRun) {
  core::CampaignOptions options = tour_campaign_options();
  options.store_dir = dir_.string();
  options.resume = true;  // nothing to resume from yet
  const auto result = core::run_campaign(options, kThreeBugs);
  ASSERT_TRUE(result.store_stats.has_value());
  EXPECT_EQ(result.store_stats->resumed_sequences, 0u);
  // The campaign checkpointed along the way and ran to completion, so no
  // checkpoint survives it.
  EXPECT_GT(result.store_stats->checkpoint_writes, 0u);
  EXPECT_EQ(checkpoint_files(), 0u);

  core::CampaignOptions plain = tour_campaign_options();
  EXPECT_EQ(core::semantic_json(result),
            core::semantic_json(core::run_campaign(plain, kThreeBugs)));
}

// ---------------------------------------------------------------------------
// Coverage telemetry: deterministic at any thread count and across resume
// ---------------------------------------------------------------------------

/// The "bug_exposure_latency" array of a campaign report, brackets included.
std::string bug_exposure_latency(const std::string& json) {
  const std::string key = "\"bug_exposure_latency\":";
  const auto at = json.find(key);
  if (at == std::string::npos) return {};
  const auto begin = at + key.size();
  return json.substr(begin, json.find(']', begin) + 1 - begin);
}

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
  ASSERT_EQ(reference.exposures.size(), kThreeBugs.size());

  const std::string fingerprint = core::semantic_json(reference);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    const auto result = core::run_campaign(options, kThreeBugs);
    ASSERT_TRUE(result.coverage_telemetry.has_value())
        << "threads=" << threads;
    EXPECT_EQ(result.coverage_telemetry->convergence, ref.convergence)
        << "threads=" << threads;
    EXPECT_EQ(result.coverage_telemetry->transition_hits, ref.transition_hits)
        << "threads=" << threads;
    EXPECT_EQ(bug_exposure_latency(core::to_json(result)),
              bug_exposure_latency(core::to_json(reference)))
        << "threads=" << threads;
    EXPECT_EQ(core::semantic_json(result), fingerprint)
        << "threads=" << threads;
  }
}

TEST(PipelineTelemetry, ExposureLatencyAgreesWithTheCompareVerdicts) {
  core::CampaignOptions tour = tour_campaign_options();
  tour.collect_coverage_telemetry = true;
  core::CampaignOptions walk = tour;
  walk.method = core::TestMethod::kRandomWalk;
  walk.random_length = 50;  // short enough to miss some bugs
  auto bugs = kThreeBugs;
  bugs.push_back(dlx::PipelineBug::kInterlockMissesDoubleHazard);
  bugs.push_back(dlx::PipelineBug::kForwardFromR0);
  std::size_t missed = 0;
  for (const auto& options : {tour, walk}) {
    const auto result = core::run_campaign(options, bugs);
    ASSERT_TRUE(result.coverage_telemetry.has_value());
    ASSERT_EQ(result.exposures.size(), bugs.size());
    // One element per compared bug: the 1-based exposing index, or null.
    std::string want = "[";
    for (const auto& e : result.exposures) {
      if (want.size() > 1) want += ",";
      want += "{\"exposed\":";
      if (e.exposed) {
        ASSERT_TRUE(e.exposing_sequence.has_value());
        want += "true,\"sequences\":" +
                std::to_string(*e.exposing_sequence + 1) + "}";
      } else {
        want += "false,\"sequences\":null}";
        ++missed;
      }
    }
    want += "]";
    EXPECT_EQ(bug_exposure_latency(core::to_json(result)), want)
        << core::method_name(options.method);
  }
  EXPECT_GT(missed, 0u) << "no unexposed bug to render";
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
      auto result = core::run_campaign(options, kThreeBugs);
      ASSERT_TRUE(result.coverage_telemetry.has_value());
      result.bdd_stats.reset();  // engine telemetry, not campaign semantics
      result.symbolic_stats.reset();
      const std::string json = core::semantic_json(result);
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

TEST(PipelineTelemetry, MetricsRegistryAttachedAsTheSinkSeesEveryStage) {
  obs::MetricsRegistry registry;
  core::CampaignOptions options = tour_campaign_options();
  options.sink = &registry;
  const auto result = core::run_campaign(options, kThreeBugs);
  const auto summary = registry.summary();
  EXPECT_FALSE(summary.histograms.empty());

  // Per-sequence latency instrumentation fed the registry for every stage
  // of the Figure-1 flow.
  bool tour_latency = false, concretize_latency = false,
       simulate_latency = false, queue_wait = false;
  for (const auto& h : summary.histograms) {
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

  // The wall-clock summary stays with the registry, out of the report.
  EXPECT_EQ(core::to_json(result).find("latency_ns"), std::string::npos);
}

TEST_F(PipelineStoreTest, TelemetrySurvivesKillAndResumeBitIdentically) {
  core::CampaignOptions base = tour_campaign_options();
  base.checkpoint_every = 2;
  base.collect_coverage_telemetry = true;
  const auto uninterrupted = core::run_campaign(base, kThreeBugs);
  ASSERT_TRUE(uninterrupted.coverage_telemetry.has_value());
  const std::string reference = core::semantic_json(uninterrupted);

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
  EXPECT_EQ(core::semantic_json(resumed), reference);
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
    EXPECT_EQ(core::semantic_json(result), kGoldenRandomWalk)
        << "threads=" << threads;
  }
}

/// Runs the symbolic-tour golden's campaign under `reorder` at every golden
/// thread count. Engine telemetry is erased exactly like wall clock.
void expect_symbolic_tour_golden(bdd::ReorderPolicy reorder) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.method = core::TestMethod::kTransitionTourSet;
  options.backend = core::BackendChoice::kSymbolic;
  options.seed = 1;
  options.reorder = reorder;
  const std::vector<dlx::PipelineBug> bugs{
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
  };
  for (const std::size_t threads : kGoldenThreadCounts) {
    options.threads = threads;
    auto result = core::run_campaign(options, bugs);
    result.bdd_stats.reset();  // engine telemetry, not campaign semantics
    result.symbolic_stats.reset();
    EXPECT_EQ(core::semantic_json(result), kGoldenSymbolicTour)
        << "threads=" << threads;
  }
}

TEST(PipelineGolden, SymbolicTourMatchesPreRefactorEngine) {
  expect_symbolic_tour_golden(bdd::ReorderPolicy::kNone);
}

TEST(PipelineGolden, SymbolicTourUnchangedByDynamicReordering) {
  // The reorder policy is a runtime knob: with it on, the campaign report
  // must stay byte-identical to the static-order golden — at every thread
  // count, since all BDD work runs on the coordinator thread.
  expect_symbolic_tour_golden(bdd::ReorderPolicy::kAuto);
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

/// The report of a campaign under `spec`, after expecting it to name the
/// generator `kind` and to be bit-identical at 1, 2 and 8 threads.
std::string thread_invariant_report(const core::GeneratorSpec& spec,
                                    const std::string& kind) {
  core::CampaignOptions options = tour_campaign_options();
  options.generator = spec;
  const auto reference = core::run_campaign(options, kThreeBugs);
  const std::string fingerprint = core::semantic_json(reference);
  EXPECT_NE(fingerprint.find("\"generator\":{\"kind\":\"" + kind + "\""),
            std::string::npos);
  EXPECT_GT(reference.sequences, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    EXPECT_EQ(core::semantic_json(core::run_campaign(options, kThreeBugs)),
              fingerprint)
        << "threads=" << threads;
  }
  return fingerprint;
}

TEST(PipelineGenerator, BiasedCampaignIsBitIdenticalAcrossThreadCounts) {
  const std::string fingerprint =
      thread_invariant_report(biased_campaign_spec(), "biased_random");

  // The strategy actually changed what ran: a default-spec campaign
  // produces a different report, and one without a "generator" section.
  const std::string default_fingerprint =
      core::semantic_json(core::run_campaign(tour_campaign_options(),
                                              kThreeBugs));
  EXPECT_NE(default_fingerprint, fingerprint);
  EXPECT_EQ(default_fingerprint.find("\"generator\""), std::string::npos);
}

TEST(PipelineGenerator, HybridCampaignIsBitIdenticalAcrossThreadCounts) {
  (void)thread_invariant_report(hybrid_campaign_spec(), "hybrid");
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

TEST(PipelineStoreKeys, CheckpointKeyCoversEverySequenceShapingKnob) {
  const auto built = testmodel::build_dlx_control_model(tiny_model_options());
  const core::CampaignOptions base = tour_campaign_options();
  const auto baseline =
      pipeline::checkpoint_key(base, built.circuit, model::Backend::kExplicit);

  using Mutator = std::function<void(core::CampaignOptions&)>;
  const std::vector<std::pair<const char*, Mutator>> knobs{
      {"method",
       [](core::CampaignOptions& o) {
         o.method = core::TestMethod::kStateTour;
       }},
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
    EXPECT_NE(
        pipeline::checkpoint_key(opt, built.circuit, model::Backend::kExplicit),
        baseline)
        << name;
  }

  // The resolved backend shapes generation as well.
  EXPECT_NE(
      pipeline::checkpoint_key(base, built.circuit, model::Backend::kSymbolic),
      baseline);

  // So does the cycle budget: it shapes the restored verdicts.
  core::CampaignOptions cycles = base;
  cycles.max_cycles += 1;
  EXPECT_NE(
      pipeline::checkpoint_key(cycles, built.circuit, model::Backend::kExplicit),
      baseline);

  // Runtime-only knobs stay out: a checkpoint resumes across them.
  core::CampaignOptions runtime_only = base;
  runtime_only.threads = 7;
  runtime_only.checkpoint_every = 1;
  EXPECT_EQ(pipeline::checkpoint_key(runtime_only, built.circuit,
                                     model::Backend::kExplicit),
            baseline);
}

TEST_F(PipelineStoreTest, KilledBiasedCampaignResumesIdenticallyAcrossThreads) {
  core::CampaignOptions base = tour_campaign_options();
  base.generator = biased_campaign_spec();
  base.checkpoint_every = 2;
  const std::string reference =
      core::semantic_json(core::run_campaign(base, kThreeBugs));

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
    EXPECT_NE(core::semantic_json(killed), reference);

    core::CampaignOptions ropt = base;
    ropt.cancel = core::CancellationToken{};
    ropt.threads = threads;
    ropt.store_dir = dir.string();
    ropt.resume = true;
    const auto resumed = core::run_campaign(ropt, kThreeBugs);
    ASSERT_TRUE(resumed.store_stats.has_value());
    EXPECT_GT(resumed.store_stats->resumed_sequences, 0u)
        << "threads=" << threads;
    EXPECT_EQ(core::semantic_json(resumed), reference)
        << "the biased stream must re-pull deterministically across resume, "
        << "threads=" << threads;
  }
}

TEST(ConcretizeStageTest, ReplaysOnceForProgramsAndPathsAndHonoursCancel) {
  const auto built = testmodel::build_dlx_control_model(tiny_model_options());
  model::ExplicitModel m(sym::extract_explicit(built.circuit, 100000));
  const auto batch = m.transition_tour().tour.sequences;
  ASSERT_FALSE(batch.empty());
  runtime::ThreadPool pool(1);

  // A cancelled batch is not replayed.
  pipeline::CancellationToken cancelled;
  cancelled.cancel();
  EXPECT_FALSE(pipeline::replay_batch(m, batch, cancelled).has_value());

  // Otherwise the one replay yields each sequence's state path and output
  // keys, and the programs concretized from those outputs equal the
  // re-simulating reference's.
  const auto replay =
      pipeline::replay_batch(m, batch, pipeline::CancellationToken{});
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->paths.size(), batch.size());
  ASSERT_EQ(replay->outputs.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(replay->paths[i].size(), batch[i].size() + 1);
    ASSERT_EQ(replay->outputs[i].size(), batch[i].size());
    std::uint64_t at = m.reset_state();
    EXPECT_EQ(replay->paths[i].front(), at);
    for (std::size_t j = 0; j < batch[i].size(); ++j) {
      const auto step = one_lane(m, at, batch[i][j]);
      EXPECT_EQ(replay->outputs[i][j], *step.output) << i << ":" << j;
      at = *step.next;
      EXPECT_EQ(replay->paths[i][j + 1], at) << i << ":" << j;
    }
  }

  // A cancelled concretize claims no slot.
  std::vector<validate::ConcretizedProgram> out(batch.size());
  pipeline::ConcretizeStage::run_batch(built, batch, replay->outputs, 0, out,
                                       pool, cancelled, obs::null_sink());
  for (const auto& program : out) EXPECT_TRUE(program.words().empty());
  pipeline::ConcretizeStage::run_batch(built, batch, replay->outputs, 0, out,
                                       pool, pipeline::CancellationToken{},
                                       obs::null_sink());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i].words(),
              validate::concretize_sequence(built, batch[i]).words());
  }
}

}  // namespace
}  // namespace simcov
