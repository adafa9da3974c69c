// Full validation campaigns over real BLIF netlists (the src/io frontend).
//
// Runs the bundled examples/circuits suite — or a single netlist given via
// `--circuit <file.blif>` — through core::run_campaign with coverage
// telemetry on, and checks the determinism claims the frontend makes:
//   1. Thread-count identity — the semantic report is byte-identical at
//      1/2/8 worker threads.
//   2. Backend agreement — the symbolic (BDD) backend commits the same
//      test set, coverage and replay verdicts as the explicit one.
// Any mismatch fails the bench (nonzero exit).
//
// `--vcd <path>` additionally exports the committed test set as a VCD
// waveform: the exact path in single-circuit mode, `<path>.<model>.vcd`
// per circuit in suite mode. With `--store <dir>`, repeated invocations
// get warm tour hits (keys fingerprint netlist content, not the path).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "store/fingerprint.hpp"

namespace {

/// The campaign outcome with timings and store activity erased, for
/// identity comparison (wall clock and cache hit/miss counts legitimately
/// differ between otherwise identical runs).
std::string semantic_fingerprint(simcov::core::CampaignResult result) {
  result.timings = {};
  result.store_stats.reset();
  result.metrics.reset();
  return simcov::core::to_json(result);
}

std::string report_hash(const simcov::core::CampaignResult& result) {
  simcov::store::Hasher h;
  h.str(semantic_fingerprint(result));
  return h.digest().hex();
}

/// Model-name stem of a netlist path ("dir/count3.blif" -> "count3").
std::string stem(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path
                                                : path.substr(slash + 1);
  const auto dot = name.find_last_of('.');
  if (dot != std::string::npos) name.erase(dot);
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  using namespace simcov;

  std::vector<std::string> circuits;
  const bool single = !bench::circuit().empty();
  if (single) {
    circuits.push_back(bench::circuit());
  } else {
    const std::string dir = SIMCOV_CIRCUITS_DIR;
    for (const char* name :
         {"count3.blif", "tlc.blif", "shift4.blif", "updown2.blif"}) {
      circuits.push_back(dir + "/" + name);
    }
  }

  bool all_ok = true;
  for (const std::string& path : circuits) {
    core::CampaignOptions base;
    base.circuit_path = path;
    base.method = core::TestMethod::kTransitionTourSet;
    base.sink = bench::sink();
    base.store_dir = bench::store_dir();
    base.resume = bench::resume();
    base.collect_coverage_telemetry = true;
    base.generator = bench::generator();
    base.reorder = bench::reorder() ? bdd::ReorderPolicy::kAuto
                                    : bdd::ReorderPolicy::kNone;
    if (base.generator.kind != core::GeneratorKind::kTransitionTour) {
      base.generator.max_walk_steps = 16384;  // smoke-scale walk budget
    }
    if (!bench::vcd().empty()) {
      base.vcd_path = single ? bench::vcd()
                             : bench::vcd() + "." + stem(path) + ".vcd";
    }

    // Reference run: one worker thread, explicit backend resolution.
    core::CampaignOptions serial = base;
    serial.threads = 1;
    const auto reference_result = core::run_campaign(serial, {});
    const std::string reference = semantic_fingerprint(reference_result);

    bench::header("BLIF campaign: " + stem(path));
    bench::row("netlist", path);
    bench::row("latches", std::size_t{reference_result.latches});
    bench::row("primary inputs",
               std::size_t{reference_result.primary_inputs});
    bench::row("backend", reference_result.backend == model::Backend::kExplicit
                              ? "explicit"
                              : "symbolic");
    bench::row("reachable states", reference_result.model_states);
    bench::row("reachable transitions", reference_result.model_transitions);
    bench::row("test sequences", reference_result.sequences);
    bench::row("test length (steps)", reference_result.test_length);
    bench::row("state coverage", reference_result.state_coverage);
    bench::row("transition coverage", reference_result.transition_coverage);
    bench::row("clean pass", reference_result.clean_pass ? "yes" : "NO");
    all_ok = all_ok && reference_result.clean_pass;

    // Thread-count identity.
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      core::CampaignOptions opt = base;
      opt.threads = threads;
      const bool identical =
          semantic_fingerprint(core::run_campaign(opt, {})) == reference;
      all_ok = all_ok && identical;
      bench::row("identical at " + std::to_string(threads) + " threads",
                 identical ? "yes" : "NO");
    }

    // Backend agreement: the symbolic backend runs the same tour and
    // commits the same verdicts (its report differs only in the backend
    // and engine-stats sections, so compare the semantic fields directly).
    {
      core::CampaignOptions symbolic = base;
      symbolic.threads = 1;
      symbolic.backend = core::BackendChoice::kSymbolic;
      symbolic.vcd_path.clear();  // keep the artifact from the reference run
      const auto r = core::run_campaign(symbolic, {});
      const bool agree =
          r.backend == model::Backend::kSymbolic &&
          r.sequences == reference_result.sequences &&
          r.test_length == reference_result.test_length &&
          r.model_states == reference_result.model_states &&
          r.state_coverage == reference_result.state_coverage &&
          r.transition_coverage == reference_result.transition_coverage &&
          r.clean_pass == reference_result.clean_pass;
      all_ok = all_ok && agree;
      bench::row("symbolic backend agrees", agree ? "yes" : "NO");
    }

    bench::row("report hash", report_hash(reference_result));
    if (!base.vcd_path.empty()) bench::row("vcd", base.vcd_path);
    if (reference_result.store_stats.has_value()) {
      const auto& s = *reference_result.store_stats;
      bench::row("store hits (reference run)", std::size_t{s.hits});
      bench::row("store misses (reference run)", std::size_t{s.misses});
    }
    bench::attach_json("campaign_" + stem(path),
                       core::to_json(reference_result));
  }

  bench::header("Suite verdict");
  bench::row("all determinism checks passed", all_ok ? "yes" : "NO");
  return simcov::bench::finish(all_ok ? 0 : 1);
}
