// End-to-end campaign tests over the BLIF frontend: run_campaign on a
// bundled netlist (explicit and symbolic backends), determinism across
// thread counts, VCD export covering every committed sequence, the cycle
// budget's truncation of clean runs and waveforms, pinned waveform bytes,
// the backend choice on netlists too wide to enumerate, and the
// external-circuit restrictions (no DLX bug injection).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "obs/event_sink.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::core {
namespace {

namespace fs = std::filesystem;

std::string bundled(const char* name) {
  return std::string(SIMCOV_CIRCUITS_DIR) + "/" + name;
}

/// Fresh scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("simcov_blif_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
  std::string str(const char* leaf) const { return (path / leaf).string(); }
};

CampaignOptions blif_options(const std::string& circuit) {
  CampaignOptions options;
  options.circuit_path = circuit;
  options.method = TestMethod::kTransitionTourSet;
  options.threads = 1;
  options.collect_coverage_telemetry = true;
  return options;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// FNV-1a 64 over a file's text.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(BlifCampaignTest, ExplicitBackendRunsEndToEnd) {
  const auto result = run_campaign(blif_options(bundled("count3.blif")), {});
  EXPECT_EQ(result.backend, model::Backend::kExplicit);
  EXPECT_TRUE(result.clean_pass);
  EXPECT_GT(result.sequences, 0u);
  EXPECT_GT(result.test_length, 0u);
  EXPECT_EQ(result.model_states, 8u);  // 3-bit counter: all states reachable
  EXPECT_DOUBLE_EQ(result.state_coverage, 1.0);
  EXPECT_DOUBLE_EQ(result.transition_coverage, 1.0);
  EXPECT_EQ(result.latches, 3u);
  EXPECT_EQ(result.primary_inputs, 2u);
  // External circuits have no DLX programs behind them.
  EXPECT_EQ(result.total_instructions, 0u);
}

TEST(BlifCampaignTest, SymbolicBackendAgreesWithExplicit) {
  auto options = blif_options(bundled("tlc.blif"));
  const auto explicit_result = run_campaign(options, {});
  options.backend = BackendChoice::kSymbolic;
  const auto symbolic_result = run_campaign(options, {});
  EXPECT_EQ(symbolic_result.backend, model::Backend::kSymbolic);
  EXPECT_TRUE(symbolic_result.clean_pass);
  EXPECT_EQ(symbolic_result.sequences, explicit_result.sequences);
  EXPECT_EQ(symbolic_result.test_length, explicit_result.test_length);
  EXPECT_EQ(symbolic_result.model_states, explicit_result.model_states);
  EXPECT_EQ(symbolic_result.state_coverage, explicit_result.state_coverage);
  EXPECT_EQ(symbolic_result.transition_coverage,
            explicit_result.transition_coverage);
}

TEST(BlifCampaignTest, ReportIsIdenticalAcrossThreadCounts) {
  auto options = blif_options(bundled("updown2.blif"));
  const std::string reference = semantic_json(run_campaign(options, {}));
  options.threads = 3;
  EXPECT_EQ(semantic_json(run_campaign(options, {})), reference);
}

TEST(BlifCampaignTest, VcdExportCoversEveryCommittedSequence) {
  TempDir tmp;
  auto options = blif_options(bundled("tlc.blif"));
  options.vcd_path = tmp.str("tlc.vcd");
  const auto result = run_campaign(options, {});
  const std::string text = slurp(options.vcd_path);

  std::size_t sequence_scopes = 0;
  std::istringstream in(text);
  std::string line;
  long last_time = -1;
  while (std::getline(in, line)) {
    if (line.rfind("$scope module seq", 0) == 0) ++sequence_scopes;
    if (!line.empty() && line[0] == '#') {
      const long t = std::stol(line.substr(1));
      EXPECT_GT(t, last_time);
      last_time = t;
    }
  }
  EXPECT_EQ(sequence_scopes, result.sequences);
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  // Total timeline: one tick per committed cycle plus one trailing tick
  // per sequence showing the final latch state.
  EXPECT_EQ(static_cast<std::size_t>(last_time),
            result.test_length + result.sequences);

  // The export is deterministic: a second run reproduces it byte for byte.
  auto again = options;
  again.vcd_path = tmp.str("tlc_again.vcd");
  (void)run_campaign(again, {});
  EXPECT_EQ(slurp(again.vcd_path), text);
}

// tlc's tour is one 9-step sequence; a 5-cycle budget cuts its clean run
// and its waveform after cycle 5 and leaves the run inconclusive.
TEST(BlifCampaignTest, CycleBudgetTruncatesRunsAndWaveform) {
  TempDir tmp;
  auto options = blif_options(bundled("tlc.blif"));
  options.max_cycles = 5;
  options.vcd_path = tmp.str("tlc.vcd");
  const auto result = run_campaign(options, {});
  ASSERT_EQ(result.clean_runs.size(), 1u);
  EXPECT_EQ(result.test_length, 9u);
  const RunMetrics& run = result.clean_runs[0];
  EXPECT_EQ(run.impl_cycles, 5u);
  EXPECT_EQ(run.checkpoints, 5u);
  EXPECT_TRUE(run.budget_exhausted);
  EXPECT_TRUE(run.passed);
  EXPECT_TRUE(result.clean_pass);
  EXPECT_EQ(result.runs_inconclusive, 1u);
  EXPECT_EQ(fnv1a(slurp(options.vcd_path)), 4552767894373824662ull);
}

// The exported waveforms, byte for byte. Both backends tour these netlists
// into the same sequences, so one pin per netlist holds for each.
TEST(BlifCampaignTest, VcdBytesArePinnedOnBothBackends) {
  struct Case {
    const char* circuit;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"tlc.blif", 15412609237782079212ull},
      {"count3.blif", 5814048225405101626ull},
  };
  TempDir tmp;
  for (const Case& c : cases) {
    for (const BackendChoice backend :
         {BackendChoice::kExplicit, BackendChoice::kSymbolic}) {
      auto options = blif_options(bundled(c.circuit));
      options.backend = backend;
      options.vcd_path = tmp.str("wave.vcd");
      (void)run_campaign(options, {});
      EXPECT_EQ(fnv1a(slurp(options.vcd_path)), c.hash)
          << c.circuit << " backend " << static_cast<int>(backend);
    }
  }
}

TEST(BlifCampaignTest, RejectsBugInjectionForExternalCircuits) {
  const dlx::PipelineBug one_bug[] = {dlx::PipelineBug::kNoIdBypass};
  EXPECT_THROW((void)run_campaign(blif_options(bundled("count3.blif")),
                                  one_bug),
               std::invalid_argument);
}

/// Records which stages closed a span.
struct SpanStages final : obs::EventSink {
  void span(obs::Stage stage, double) override { stages.insert(stage); }
  std::set<obs::Stage> stages;
};

/// Writes a one-input, one-latch netlist whose `outputs` outputs all alias
/// the latch.
void write_wide_netlist(const std::string& path, int outputs) {
  std::ofstream out(path);
  out << ".model wide\n.inputs a\n.outputs";
  for (int k = 0; k < outputs; ++k) out << " o" << k;
  out << "\n.latch a q 0\n";
  for (int k = 0; k < outputs; ++k) out << ".names q o" << k << "\n1 1\n";
  out << ".end\n";
}

// Every step of the campaign's one batch replay packs the outputs into a
// 64-bit key, so a 64-output netlist is turned away while the model is
// built, on either backend, before a single sequence is generated.
TEST(BlifCampaignTest, RejectsCircuitTooWideToReplayBeforeAnyReplay) {
  TempDir tmp;
  const std::string path = tmp.str("wide.blif");
  write_wide_netlist(path, 64);
  for (const BackendChoice backend :
       {BackendChoice::kAuto, BackendChoice::kSymbolic}) {
    SpanStages spans;
    auto options = blif_options(path);
    options.backend = backend;
    options.sink = &spans;
    EXPECT_THROW((void)run_campaign(options, {}), std::invalid_argument)
        << static_cast<int>(backend);
    EXPECT_EQ(spans.stages, std::set<obs::Stage>{obs::Stage::kModelBuild})
        << static_cast<int>(backend);
  }
}

// 40 outputs do not pack into an explicit OutputId but do into the packed
// 64-bit keys: kAuto takes the symbolic backend, kExplicit refuses.
TEST(BlifCampaignTest, AutoTakesSymbolicPastTheExplicitOutputLimit) {
  static_assert(40 > sym::kMaxExplicitOutputs);
  TempDir tmp;
  const std::string path = tmp.str("wide.blif");
  write_wide_netlist(path, 40);
  auto options = blif_options(path);
  const auto result = run_campaign(options, {});
  EXPECT_EQ(result.backend, model::Backend::kSymbolic);
  EXPECT_EQ(result.model_states, 2u);
  EXPECT_TRUE(result.clean_pass);
  options.backend = BackendChoice::kExplicit;
  EXPECT_THROW((void)run_campaign(options, {}), std::invalid_argument);
}

TEST(BlifCampaignTest, MissingNetlistFileFailsCleanly) {
  EXPECT_THROW((void)run_campaign(blif_options("/nonexistent/x.blif"), {}),
               std::runtime_error);
}

}  // namespace
}  // namespace simcov::core
