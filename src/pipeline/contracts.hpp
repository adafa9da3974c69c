// Contracts of the streaming validation pipeline.
//
// The campaign types (options, result, per-run telemetry) used to live in
// core/campaign.hpp; they moved here when the campaign monolith was
// decomposed into typed stages (pipeline/stages.hpp) assembled by
// pipeline::ValidationPipeline. core/campaign.hpp re-exports every name, so
// existing core:: callers compile unchanged.
//
// New with the pipeline:
//  * StageBudget / StageBudgets — per-stage deadline and item caps; an
//    exhausted budget truncates the stream (the stage reports
//    kBudgetExhausted) instead of aborting the campaign.
//  * CancellationToken — cooperative cancellation observed between
//    sequences by the coordinator and between indices by the
//    runtime::ThreadPool shards.
//  * StageReport — how each stage ended (status, items, seconds), carried
//    on the results next to the legacy PhaseTimings view.
//  * timings_from_spans — PhaseTimings is no longer accumulated by hand;
//    it is a projection of the obs::SpanRecorder's per-stage spans.
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
#include "fsm/mealy.hpp"
#include "model/generator_spec.hpp"
#include "model/test_model.hpp"
#include "obs/coverage_telemetry.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_store.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::obs {
class CampaignMonitor;  // obs/monitor_server.hpp — kept out of this header
}  // namespace simcov::obs

namespace simcov::pipeline {

enum class TestMethod : std::uint8_t {
  kTransitionTourSet,  ///< every transition covered (the paper's method)
  kStateTour,          ///< every state covered [Iwashita+94-style]
  kRandomWalk,         ///< plain random simulation baseline
  kWMethod,            ///< P·W conformance suite [Chow/Dahbura+90 lineage]
};

[[nodiscard]] const char* method_name(TestMethod method);

/// Which test-model representation the campaign runs on. kAuto picks
/// explicit when the reachable state space fits the enumeration budget
/// (CampaignOptions::max_states) and falls back to the implicit (BDD)
/// backend otherwise — large models are no longer truncated.
enum class BackendChoice : std::uint8_t {
  kAuto,
  kExplicit,  ///< force enumeration; throws if the budget is exceeded
  kSymbolic,  ///< force the implicit representation
};

/// Wall-clock seconds spent in each campaign phase — the legacy view of the
/// pipeline's stage spans, computed by timings_from_spans. Only the phases
/// a given experiment runs are filled; the rest stay zero.
struct PhaseTimings {
  double model_build_seconds = 0.0;  ///< circuit build + explicit extraction
  double symbolic_seconds = 0.0;     ///< optional BDD reachability snapshot
  double tour_seconds = 0.0;         ///< test-set generation + coverage eval
  double concretize_seconds = 0.0;   ///< tour -> DLX program translation
  double simulate_seconds = 0.0;     ///< spec-vs-impl runs / mutant replays
  double total_seconds = 0.0;        ///< == phase_sum(), by construction

  /// Sum of the five phase fields. total_seconds is defined as exactly
  /// this — timings_from_spans asserts the two stay consistent.
  [[nodiscard]] double phase_sum() const {
    return model_build_seconds + symbolic_seconds + tour_seconds +
           concretize_seconds + simulate_seconds;
  }
};

/// Projects the per-stage span accumulation onto the legacy PhaseTimings
/// view: simulate/compare/mutant-replay fold into simulate_seconds, and
/// total_seconds is the sum over every stage (asserted equal to
/// phase_sum(), i.e. the mapping drops no stage).
[[nodiscard]] PhaseTimings timings_from_spans(const obs::SpanRecorder& spans);

/// Deadline / item-count budget of one stage. Unset fields are unlimited.
/// An exhausted budget truncates the stream at a sequence boundary — the
/// campaign still completes on whatever was produced, and the stage reports
/// obs::StageStatus::kBudgetExhausted.
struct StageBudget {
  /// Cap on the stage's accumulated span seconds, checked at batch
  /// boundaries (a running batch is never interrupted).
  std::optional<double> deadline_seconds;
  /// Cap on the items the stage processes (sequences for tour/concretize/
  /// simulate, bugs for compare).
  std::optional<std::size_t> max_items;
};

struct StageBudgets {
  StageBudget tour;
  StageBudget concretize;
  StageBudget simulate;
  StageBudget compare;
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
  std::size_t items = 0;   ///< units processed (see StageBudget::max_items)
  double seconds = 0.0;    ///< accumulated span time
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
  /// Step cap for symbolic transition tours (explicit generators always
  /// terminate on their own).
  std::size_t max_tour_steps = 10'000'000;
  /// Length of the random-walk baseline.
  std::size_t random_length = 2000;
  /// Sequence-generation strategy (kTransitionTour, kBiasedRandom,
  /// kHybrid). Only meaningful with kTransitionTourSet — a non-default
  /// spec combined with any other method throws std::invalid_argument.
  /// The default spec reproduces the pre-generator-layer pipeline
  /// byte-for-byte. Every field is part of the tour-cache fingerprint.
  model::GeneratorSpec generator;
  std::uint64_t seed = 1;
  /// Worker threads for the concretization/simulation loops
  /// (0 = one per hardware thread). Results are identical at any setting.
  std::size_t threads = 0;
  /// Per-run cycle budget handed to the validation harness.
  std::size_t max_cycles = 1u << 20;
  /// Also build the symbolic (BDD) view of the test model and snapshot its
  /// statistics into the result. Costs one reachability fixpoint.
  bool collect_symbolic_stats = false;

  // ---- Pipeline knobs (defaults reproduce the pre-pipeline behaviour) ----
  /// Instrumentation sink for spans / counters / item events (nullptr: no
  /// external instrumentation; the pipeline still records spans internally
  /// for PhaseTimings).
  obs::EventSink* sink = nullptr;
  /// Cooperative cancellation; observed between batches and inside the
  /// ThreadPool shards. A cancelled campaign returns truncated results
  /// with the interrupted stage reporting kCancelled.
  CancellationToken cancel;
  /// Per-stage deadlines / item caps.
  StageBudgets budgets;
  /// Cap on tour sequences held in flight at once (the streaming window).
  /// 0 = twice the worker-pool lanes.
  std::size_t max_in_flight_sequences = 0;

  // ---- Metrics & coverage telemetry --------------------------------------
  /// Metrics aggregation backend. When set, the registry is attached to the
  /// pipeline's sink fan-out (in addition to `sink`) and its summary lands
  /// on CampaignResult::metrics — the "metrics" section of the JSON report.
  /// Histogram values derive from wall-clock and are NOT deterministic; the
  /// tests' semantic fingerprints erase them like "timings".
  obs::MetricsRegistry* metrics = nullptr;
  /// Collect the deterministic coverage-telemetry section (convergence
  /// curve, transition hit balance, per-bug exposure latency). Costs one
  /// coordinator-thread model replay per committed sequence; keyed off
  /// committed indices, so the section is bit-identical at any thread count
  /// and across checkpoint/resume.
  bool collect_coverage_telemetry = false;
  /// Point budget of the downsampled convergence curve.
  std::size_t telemetry_curve_budget = 512;
  /// Dynamic variable-reordering policy of the symbolic backend's live BDD
  /// manager (bdd::ReorderPolicy::kAuto enables growth-triggered sifting).
  /// A memory/throughput knob only, excluded from the store fingerprints
  /// (pipeline/store_keys) like `threads`: reordering is
  /// semantically invisible, so the campaign outcome is identical either
  /// way (only the engine-telemetry sections — bdd stats — differ).
  /// Ignored by the explicit backend. The dedicated snapshot manager of
  /// `collect_symbolic_stats` keeps the static order regardless, so stored
  /// snapshot artifacts never depend on this runtime knob.
  bdd::ReorderPolicy reorder = bdd::ReorderPolicy::kNone;

  // ---- Live monitor ------------------------------------------------------
  /// Live observability plane (obs::CampaignMonitor): its registry joins
  /// the sink fan-out, its progress estimator is fed per committed
  /// sequence (with the CoverageTelemetryCollector's replay account), and
  /// its watchdog samples the run on a background thread. The monitor is
  /// caller-owned and outlives the run, so /metrics and /progress stay
  /// scrapeable before, during and after. Strictly a read-only observer:
  /// the campaign report is byte-identical with the monitor on or off.
  /// Attaching one implies the coordinator-side telemetry replay (the
  /// progress feed's accounting) even when collect_coverage_telemetry is
  /// off — the report section itself stays gated on that flag.
  obs::CampaignMonitor* monitor = nullptr;

  // ---- Real-circuit frontend (src/io) ------------------------------------
  /// Path of a BLIF netlist to campaign on instead of the built-in DLX
  /// control model. Non-empty: ModelBuildStage parses the file
  /// (io::BlifReader) and the concretize/simulate stages are replaced by
  /// direct circuit replay (CircuitReplayStage) — tour generation,
  /// backends, telemetry, budgets and the artifact store all work
  /// unchanged. Store keys fingerprint the *lowered netlist content*
  /// (store::fingerprint_circuit), never this path, so renaming the file
  /// keeps warm hits and editing it forces a miss. DLX pipeline bugs make
  /// no sense against an external circuit: run() throws
  /// std::invalid_argument when `bugs` is non-empty.
  std::string circuit_path;
  /// Write the committed test set as a VCD waveform here (empty: off).
  /// Every committed sequence is replayed through the campaign circuit —
  /// external or DLX — and serialized as its own `$scope` by io::VcdWriter;
  /// deterministic, so identical campaigns produce byte-identical files.
  std::string vcd_path;

  // ---- Artifact store (content-addressed caching + checkpoint/resume) ----
  /// Directory of the artifact store. Empty: no store — no caching, no
  /// checkpoints. The tour and symbolic-snapshot stages consult the store
  /// before computing and publish on miss; the simulate loop checkpoints
  /// its committed prefix (see checkpoint_every).
  std::string store_dir;
  /// LRU size cap over non-checkpoint artifacts in the store, bytes
  /// (0 = unlimited).
  std::uint64_t store_max_bytes = 0;
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
  PhaseTimings timings;
  /// Filled when CampaignOptions::collect_symbolic_stats is set.
  std::optional<sym::SymbolicFsmStats> symbolic_stats;
  std::optional<bdd::BddStats> bdd_stats;
  /// Per-stage outcome of the pipeline run (not part of the JSON report).
  std::vector<StageReport> stage_reports;
  /// Store activity of this campaign; set only when an artifact store was
  /// configured (CampaignOptions::store_dir). Emitted as "store" in the
  /// JSON report.
  std::optional<store::StoreStats> store_stats;
  /// Content key of this campaign's report artifact; set only when a store
  /// was configured (core::run_campaign publishes the JSON under it).
  std::optional<store::Fingerprint> report_key;
  /// Snapshot of the attached MetricsRegistry (CampaignOptions::metrics);
  /// emitted as "metrics" in the JSON report. Wall-clock derived — not
  /// deterministic.
  std::optional<obs::MetricsSummary> metrics;
  /// Deterministic coverage telemetry; set when
  /// CampaignOptions::collect_coverage_telemetry is on. Emitted as
  /// "coverage_telemetry" in the JSON report.
  std::optional<obs::CoverageTelemetry> coverage_telemetry;

  [[nodiscard]] std::size_t bugs_exposed() const;
  [[nodiscard]] std::uint64_t total_impl_cycles() const;
  /// Some stage hit its StageBudget: the results cover a truncated test
  /// set and are inconclusive as a completeness claim.
  [[nodiscard]] bool budget_exhausted() const;
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
    friend bool operator==(const MutantExposure&,
                           const MutantExposure&) = default;
  };
  /// Every real mutant in sample order, exposed or not — the per-mutant
  /// view behind exposure_latency (which lists exposed mutants only).
  std::vector<MutantExposure> mutant_exposures;
  PhaseTimings timings;
  /// Per-stage outcome (tour + mutant replay).
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
