// End-to-end campaign tests over the BLIF frontend: run_campaign on a
// bundled netlist (explicit and symbolic backends), determinism across
// thread counts, content-addressed store reuse (warm hit on re-run, miss
// after a netlist edit, hit after a pure rename), VCD export covering
// every committed sequence, and the external-circuit restrictions (no DLX
// bug injection).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"

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

/// Report with timings and store activity erased — the fields that may
/// legitimately differ between semantically identical runs.
std::string semantic_fingerprint(CampaignResult result) {
  result.timings = {};
  result.store_stats.reset();
  result.metrics.reset();
  return to_json(result);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
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
  const std::string reference = semantic_fingerprint(run_campaign(options, {}));
  options.threads = 3;
  EXPECT_EQ(semantic_fingerprint(run_campaign(options, {})), reference);
}

TEST(BlifCampaignTest, StoreHitsWarmOnRerunAndMissesAfterNetlistEdit) {
  TempDir tmp;
  const std::string netlist = tmp.str("edit_me.blif");
  fs::copy_file(bundled("count3.blif"), netlist);

  auto options = blif_options(netlist);
  options.store_dir = tmp.str("store");

  const auto cold = run_campaign(options, {});
  ASSERT_TRUE(cold.store_stats.has_value());
  EXPECT_GT(cold.store_stats->misses, 0u);
  EXPECT_EQ(cold.store_stats->hits, 0u);

  const auto warm = run_campaign(options, {});
  ASSERT_TRUE(warm.store_stats.has_value());
  EXPECT_GT(warm.store_stats->hits, 0u);
  EXPECT_EQ(warm.store_stats->misses, 0u);
  EXPECT_EQ(semantic_fingerprint(warm), semantic_fingerprint(cold));

  // Keys address netlist *content*: renaming the file still hits...
  const std::string renamed = tmp.str("renamed.blif");
  fs::copy_file(netlist, renamed);
  auto moved = options;
  moved.circuit_path = renamed;
  const auto rename_run = run_campaign(moved, {});
  ASSERT_TRUE(rename_run.store_stats.has_value());
  EXPECT_GT(rename_run.store_stats->hits, 0u);
  EXPECT_EQ(rename_run.store_stats->misses, 0u);

  // ...while any semantic edit (flip a latch reset value) misses.
  std::string text = slurp(netlist);
  const auto pos = text.find(".latch n0 q0 0");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 14, ".latch n0 q0 1");
  std::ofstream(netlist, std::ios::binary) << text;
  const auto edited = run_campaign(options, {});
  ASSERT_TRUE(edited.store_stats.has_value());
  EXPECT_GT(edited.store_stats->misses, 0u);
  EXPECT_NE(semantic_fingerprint(edited), semantic_fingerprint(cold));
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

TEST(BlifCampaignTest, RejectsBugInjectionForExternalCircuits) {
  const dlx::PipelineBug one_bug[] = {dlx::PipelineBug::kNoIdBypass};
  EXPECT_THROW((void)run_campaign(blif_options(bundled("count3.blif")),
                                  one_bug),
               std::invalid_argument);
}

TEST(BlifCampaignTest, MissingNetlistFileFailsCleanly) {
  EXPECT_THROW((void)run_campaign(blif_options("/nonexistent/x.blif"), {}),
               std::runtime_error);
}

}  // namespace
}  // namespace simcov::core
