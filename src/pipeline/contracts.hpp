// Contracts of the streaming validation pipeline: the campaign types
// (options, result, per-run telemetry) shared by the typed stages
// (pipeline/stages.hpp) and pipeline::execute_campaign. core/campaign.hpp
// re-exports every name for core:: callers. Besides them:
//  * CancellationToken — cooperative cancellation observed between
//    sequences by the coordinator and between indices by the
//    runtime::ThreadPool shards.
//  * StageReport — how each stage ended (status, items, seconds): the one
//    record of stage time. The report's "timings" section is rendered from
//    it (core/report.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "dlx/pipeline.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/generator_spec.hpp"
#include "model/test_model.hpp"
#include "obs/coverage_telemetry.hpp"
#include "obs/event_sink.hpp"
#include "store/artifact_store.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::pipeline {

enum class TestMethod : std::uint8_t {
  kTransitionTourSet,  ///< every transition covered (the paper's method)
  kStateTour,          ///< every state covered [Iwashita+94-style]
  kRandomWalk,         ///< plain random simulation baseline
  kWMethod,            ///< P·W conformance suite [Chow/Dahbura+90 lineage]
};

[[nodiscard]] const char* method_name(TestMethod method);

/// Which test-model representation the campaign runs on. kAuto picks
/// explicit when sym::extract_explicit takes the circuit (no more than
/// sym::kMaxExplicitInputs inputs and sym::kMaxExplicitOutputs outputs)
/// and the reachable state space fits the enumeration budget
/// (CampaignOptions::max_states), and falls back to the implicit (BDD)
/// backend otherwise — large models are no longer truncated. A circuit
/// with more than 63 latches fits neither backend's packed state keys and
/// throws std::invalid_argument before any state is enumerated.
enum class BackendChoice : std::uint8_t {
  kAuto,
  kExplicit,  ///< force enumeration; throws if the circuit is too wide or
              ///< the budget is exceeded
  kSymbolic,  ///< force the implicit representation
};

/// Cooperative cancellation. Copies share one flag; cancel() is sticky.
/// The coordinator checks it between batches, the ThreadPool shards check
/// it between indices (raw() plugs straight into for_each_index).
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return flag_->load(std::memory_order_relaxed);
  }
  /// The shared flag, for runtime::ThreadPool::for_each_index.
  [[nodiscard]] const std::atomic<bool>* raw() const { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// How one stage of a finished pipeline run ended.
struct StageReport {
  obs::Stage stage = obs::Stage::kModelBuild;
  obs::StageStatus status = obs::StageStatus::kOk;
  /// Units processed: sequences for tour/concretize/simulate, bugs for
  /// compare, sampled mutants for mutant replay.
  std::size_t items = 0;
  double seconds = 0.0;  ///< accumulated span time
};

/// Telemetry of one spec-vs-impl simulation run (one test-set program).
struct RunMetrics {
  std::size_t sequence = 0;  ///< index of the program within the test set
  std::uint64_t impl_cycles = 0;
  std::size_t checkpoints = 0;  ///< retire checkpoints compared
  bool passed = false;
  bool budget_exhausted = false;  ///< hit max_cycles: inconclusive
};

struct CampaignOptions {
  testmodel::TestModelOptions model_options;
  TestMethod method = TestMethod::kTransitionTourSet;
  /// Test-model representation (see BackendChoice). State-tour and W-method
  /// generation are explicit-only and throw on the symbolic backend.
  BackendChoice backend = BackendChoice::kAuto;
  /// Explicit-enumeration budget: kAuto switches to the symbolic backend
  /// when the reachable state space exceeds this.
  std::size_t max_states = 100000;
  /// Length of the random-walk baseline.
  std::size_t random_length = 2000;
  /// Sequence-generation strategy (kTransitionTour, kBiasedRandom,
  /// kHybrid). Only meaningful with kTransitionTourSet — a non-default
  /// spec combined with any other method throws std::invalid_argument.
  /// The default spec reproduces the pre-generator-layer pipeline
  /// byte-for-byte. Every field is part of the checkpoint key.
  model::GeneratorSpec generator;
  std::uint64_t seed = 1;
  /// Worker threads for the concretization/simulation loops
  /// (0 = one per hardware thread). Results are identical at any setting.
  std::size_t threads = 0;
  /// Per-run cycle budget handed to the validation harness; an external
  /// circuit's clean runs and the VCD waveform are cut after it too.
  std::size_t max_cycles = 1u << 20;

  // ---- Pipeline knobs -----------------------------------------------------
  /// Instrumentation sink for spans / counters / item events (nullptr: no
  /// external instrumentation; the pipeline still records spans internally
  /// for the stage reports). An obs::MetricsRegistry attaches here like any
  /// other sink; several sinks fan out through one obs::MultiSink.
  obs::EventSink* sink = nullptr;
  /// Cooperative cancellation; observed between batches and inside the
  /// ThreadPool shards. A cancelled campaign returns truncated results
  /// with the interrupted stage reporting kCancelled.
  CancellationToken cancel;

  // ---- Coverage telemetry ------------------------------------------------
  /// Collect the deterministic coverage-telemetry section (convergence
  /// curve, transition hit balance, per-bug exposure latency). Folds the
  /// state paths of each committed batch's replay; keyed off committed
  /// indices, so the section is bit-identical at any thread count and
  /// across checkpoint/resume.
  bool collect_coverage_telemetry = false;
  /// Dynamic variable-reordering policy of the symbolic backend's live BDD
  /// manager (bdd::ReorderPolicy::kAuto enables growth-triggered sifting).
  /// A memory/throughput knob only, excluded from the checkpoint key
  /// (pipeline::checkpoint_key) like `threads`: reordering is
  /// semantically invisible, so the campaign outcome is identical either
  /// way (only the engine-telemetry sections — bdd stats — differ).
  /// Ignored by the explicit backend.
  bdd::ReorderPolicy reorder = bdd::ReorderPolicy::kNone;

  // ---- Real-circuit frontend (src/io) ------------------------------------
  /// Path of a BLIF netlist to campaign on instead of the built-in DLX
  /// control model. Non-empty: ModelBuildStage parses the file
  /// (io::BlifReader) and each clean run is read off the batch's replay
  /// through the test model instead of concretized and simulated — tour
  /// generation, backends, telemetry, cancellation and checkpoint/resume
  /// all work unchanged. A netlist with more than 63 outputs throws
  /// std::invalid_argument. The checkpoint key fingerprints the *lowered
  /// netlist content* (store::fingerprint_circuit), never this path, so
  /// renaming the file keeps its checkpoint and editing it orphans it. DLX
  /// pipeline bugs make no sense against an external circuit: run() throws
  /// std::invalid_argument when `bugs` is non-empty.
  std::string circuit_path;
  /// Write the committed test set as a VCD waveform here (empty: off).
  /// Each committed sequence's replay through the campaign's test model —
  /// external circuit or DLX — is serialized as its own `$scope` by
  /// io::VcdWriter, cut after max_cycles; deterministic, so identical
  /// campaigns produce byte-identical files.
  std::string vcd_path;

  // ---- Checkpoint/resume (src/store) -------------------------------------
  /// Directory of the checkpoint store. Empty: no checkpoints. The simulate
  /// loop checkpoints its committed prefix there (see checkpoint_every).
  std::string store_dir;
  /// Resume from the store's checkpoint for this campaign key, if one
  /// exists: the checkpointed prefix is re-pulled from the (deterministic)
  /// tour stream and re-concretized, but its simulations are restored
  /// instead of re-run — the final report is identical to an uninterrupted
  /// campaign. No-op without store_dir or without a matching checkpoint.
  bool resume = false;
  /// Write a checkpoint every N committed sequences (0 disables). Only
  /// meaningful with store_dir.
  std::size_t checkpoint_every = 16;
};

struct BugExposure {
  dlx::PipelineBug bug;
  bool exposed = false;
  /// Index of the first test-set program that exposed the bug.
  std::optional<std::size_t> exposing_sequence;
  std::size_t programs_run = 0;   ///< simulations until exposure (or all)
  std::uint64_t impl_cycles = 0;  ///< implementation cycles across them
  /// Some run against this bug hit the cycle budget (inconclusive; never
  /// counted as exposure).
  bool budget_exhausted = false;
};

struct CampaignResult {
  unsigned latches = 0;
  unsigned primary_inputs = 0;
  /// Representation the campaign actually ran on (after kAuto resolution).
  model::Backend backend = model::Backend::kExplicit;
  std::size_t model_states = 0;
  std::size_t model_transitions = 0;
  std::size_t sequences = 0;
  std::size_t test_length = 0;  ///< total tour steps
  /// The generator spec the campaign ran with. Echoed as the "generator"
  /// JSON section for non-default specs; default-spec reports carry no
  /// section (they stay byte-identical to pre-generator-layer goldens).
  model::GeneratorSpec generator;
  double state_coverage = 0.0;
  double transition_coverage = 0.0;
  std::size_t total_instructions = 0;
  /// The correct implementation passes every program of the test set.
  bool clean_pass = false;
  std::vector<BugExposure> exposures;
  /// Telemetry of each clean (bug-free) run, one per test-set program.
  std::vector<RunMetrics> clean_runs;
  /// Runs (clean + per-bug) that exhausted the cycle budget.
  std::size_t runs_inconclusive = 0;
  /// Filled on the symbolic backend: its live symbolic FSM and manager.
  std::optional<sym::SymbolicFsmStats> symbolic_stats;
  std::optional<bdd::BddStats> bdd_stats;
  /// Per-stage outcome of the pipeline run; the JSON report renders only
  /// their seconds, as the "timings" section.
  std::vector<StageReport> stage_reports;
  /// Checkpoint-store activity of this campaign; set only when a store was
  /// configured (CampaignOptions::store_dir). Emitted as "store" in the
  /// JSON report.
  std::optional<store::StoreStats> store_stats;
  /// Deterministic coverage telemetry; set when
  /// CampaignOptions::collect_coverage_telemetry is on. Emitted as
  /// "coverage_telemetry" in the JSON report.
  std::optional<obs::CoverageTelemetry> coverage_telemetry;

  [[nodiscard]] std::size_t bugs_exposed() const;
  [[nodiscard]] std::uint64_t total_impl_cycles() const;
  /// The campaign was cancelled mid-stream.
  [[nodiscard]] bool cancelled() const;
};

// ---------------------------------------------------------------------------
// Abstract completeness experiments (machine-level, Theorem 3)
// ---------------------------------------------------------------------------

struct MutantCoverageOptions {
  TestMethod method = TestMethod::kTransitionTourSet;
  std::size_t random_length = 500;
  /// Sequence-generation strategy; same contract as
  /// CampaignOptions::generator (non-default specs require
  /// kTransitionTourSet).
  model::GeneratorSpec generator;
  std::uint64_t seed = 1;
  /// Extra steps appended to every sequence so the final transitions also
  /// get their k-step exposure window (Theorem 1's simulation horizon).
  unsigned k_extension = 0;
  std::size_t mutant_sample = 200;
  /// Detect mutants that are behaviourally equivalent to the specification
  /// (no test can expose them) and report them separately instead of
  /// counting them against the method. Decided per unexposed mutant by
  /// errmodel::MutantReplay::equivalent — exactly fsm::check_equivalence on
  /// the mutant machine, without building it.
  bool exclude_equivalent = false;
  /// Worker threads for the per-mutant replay loop (0 = one per hardware
  /// thread). Every worker reads one shared errmodel::MutantReplay index of
  /// the test set; results are identical at any setting.
  std::size_t threads = 0;

  // ---- Pipeline knobs -----------------------------------------------------
  /// Instrumentation sink (see CampaignOptions::sink).
  obs::EventSink* sink = nullptr;
  /// Cooperative cancellation of the replay loop.
  CancellationToken cancel;
};

struct MutantCoverageResult {
  std::size_t mutants = 0;   ///< sampled mutants that are real errors
  std::size_t exposed = 0;
  std::size_t equivalent = 0;  ///< sampled mutants with identical behaviour
  std::size_t sequences = 0;
  std::size_t test_length = 0;
  /// Per exposed real mutant, in sample order: the 1-based index of the
  /// first test sequence that exposed it — Theorem 3's completeness claim
  /// as a latency distribution. Deterministic (per-mutant verdict slots).
  std::vector<std::uint64_t> exposure_latency;
  /// Exposure verdict of ONE real mutant (equivalent mutants are not
  /// listed — no test can expose them).
  struct MutantExposure {
    bool exposed = false;
    /// 1-based index of the first exposing sequence; meaningful only when
    /// exposed. Never-exposed mutants carry no latency — the JSON emits
    /// {"exposed":false} with the field omitted, not 0.
    std::uint64_t sequences = 0;
    /// Why the test set missed the mutant; kNone exactly when exposed. The
    /// JSON does not render it.
    errmodel::MutantReplay::Miss miss = errmodel::MutantReplay::Miss::kNone;
    friend bool operator==(const MutantExposure&,
                           const MutantExposure&) = default;
  };
  /// Every real mutant in sample order, exposed or not — the per-mutant
  /// view behind exposure_latency (which lists exposed mutants only).
  std::vector<MutantExposure> mutant_exposures;
  /// Per-stage outcome (tour + mutant replay); rendered as "timings".
  std::vector<StageReport> stage_reports;

  /// Fraction of real sampled mutants the test set exposed. Empty when the
  /// sampler produced no real mutants: "nothing to expose" is not "complete
  /// coverage", and must not read as 100%.
  [[nodiscard]] std::optional<double> exposure_rate() const {
    if (mutants == 0) return std::nullopt;
    return static_cast<double>(exposed) / static_cast<double>(mutants);
  }

  [[nodiscard]] bool cancelled() const;
};

}  // namespace simcov::pipeline
