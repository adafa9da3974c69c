// The typed stages of the validation pipeline (Figure 1 of the paper, plus
// the Theorem-3 mutant replay), assembled by pipeline::execute_campaign.
//
//   ModelBuildStage -> (SymbolicSnapshotStage) -> GenerateStage
//       -> replay_batch -> ConcretizeStage -> SimulateStage -> CompareStage
//
// GenerateStage opens a model::SequenceSource — the streaming seam — so the
// stages downstream of it run batch-by-batch while later sequences are
// still being generated. replay_batch is each batch's one replay through
// the test model; every later consumer of the batch reads it. Each stage
// times itself through the obs::EventSink it is handed (one span per batch;
// sinks accumulate) and honours the shared CancellationToken via the
// runtime::ThreadPool's cancel hook.
//
// MutantReplayStage is the machine-level (Theorem 3) evaluator: it shares
// the tour generation helpers but replays sampled mutants instead of
// simulating DLX programs.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "model/explicit_model.hpp"
#include "pipeline/contracts.hpp"
#include "runtime/thread_pool.hpp"
#include "tour/tour.hpp"
#include "validate/concretize.hpp"

namespace simcov::pipeline {

/// Builds the campaign's test model — the DLX control model by default, or
/// an external BLIF netlist when CampaignOptions::circuit_path is set
/// (io::BlifReader; malformed files surface as std::invalid_argument) —
/// resolves the backend choice and counts the reachable state space. Fills
/// the model-shape fields of the result. A circuit with more than 63
/// outputs throws std::invalid_argument before any model is built: the
/// batch replay packs outputs into 64-bit keys. One kModelBuild span.
struct ModelBuildStage {
  struct Output {
    /// Heap-boxed: SymbolicModel keeps a reference to the circuit, so the
    /// built model needs a stable address for the pipeline's lifetime.
    std::unique_ptr<testmodel::BuiltTestModel> built;
    std::unique_ptr<model::TestModel> model;
    /// Non-null when the resolved backend is the explicit one (state-tour
    /// and W-method generation need the underlying machine).
    model::ExplicitModel* explicit_model = nullptr;
    /// The campaign runs on a loaded netlist, not the DLX model: the
    /// executor reads its clean runs off the batch replay instead of
    /// concretizing and simulating.
    bool external_circuit = false;
    /// `.model` name of the loaded netlist (empty for DLX campaigns).
    std::string circuit_name;
  };

  static Output run(const CampaignOptions& options, obs::EventSink& sink,
                    CampaignResult& result);
};

/// BDD view snapshot of the symbolic backend: the statistics of the
/// campaign's own live manager and symbolic FSM. One kSymbolic span; no-op
/// on the explicit backend.
struct SymbolicSnapshotStage {
  static void run(model::TestModel& model, obs::EventSink& sink,
                  CampaignResult& result);
};

/// Opens the test-sequence source for the chosen method and generator
/// spec. Transition tours and the coverage-directed generators (src/gen)
/// stream natively (they suspend at every reset); the other methods
/// materialize first and stream from memory. Generation time lands in
/// kTour spans (here for the materializing methods, per pulled batch in
/// the executor for the native streams).
///
/// A non-default CampaignOptions::generator requires kTransitionTourSet;
/// any other method throws std::invalid_argument.
struct GenerateStage {
  static std::unique_ptr<model::SequenceSource> open(
      const CampaignOptions& options, model::TestModel& model,
      model::ExplicitModel* explicit_model, obs::EventSink& sink);
};

/// One committed batch replayed through the campaign's test model: per
/// sequence, its state path (reset first, the final state last) and the
/// output key of every step. The executor replays each batch once and feeds
/// every consumer from it: concretize's stall/squash flags, an external
/// circuit's clean runs, the coverage telemetry and the VCD export.
struct BatchReplay {
  std::vector<std::vector<std::uint64_t>> paths;
  std::vector<std::vector<std::uint64_t>> outputs;
};

/// Replays `batch` from reset in one model::replay_lockstep on the calling
/// thread (the model is not thread-safe). Returns nullopt when `cancel`
/// fires between rounds. Throws as replay_lockstep does.
std::optional<BatchReplay> replay_batch(model::TestModel& model,
                                        std::span<const model::Sequence> batch,
                                        const CancellationToken& cancel);

/// Concretizes one batch of tour sequences into DLX programs, sharded over
/// the pool. The stall and squash flags of every step are read off
/// `outputs` (BatchReplay::outputs of the batch: the outputs of the test
/// model that generated it), so no worker calls the model. `out` must be
/// pre-sized to the batch; a cancelled batch leaves unclaimed slots
/// default-initialized (the executor drops the batch). `first_sequence` is
/// the absolute test-set index of batch element 0 — it labels the per-item
/// "program" latency and "queue_wait" events with global sequence indices.
/// One kConcretize span per call.
struct ConcretizeStage {
  static void run_batch(const testmodel::BuiltTestModel& built,
                        std::span<const model::Sequence> batch,
                        std::span<const std::vector<std::uint64_t>> outputs,
                        std::size_t first_sequence,
                        std::span<validate::ConcretizedProgram> out,
                        runtime::ThreadPool& pool,
                        const CancellationToken& cancel,
                        obs::EventSink& sink);
};

/// Runs one batch of clean (bug-free) spec-vs-impl validations, sharded.
/// `first_sequence` is the absolute test-set index of batch element 0, so
/// RunMetrics carry global sequence indices. One kSimulate span per call.
struct SimulateStage {
  static void run_batch(std::span<const validate::ConcretizedProgram> batch,
                        std::size_t first_sequence, std::size_t max_cycles,
                        std::span<RunMetrics> out, runtime::ThreadPool& pool,
                        const CancellationToken& cancel,
                        obs::EventSink& sink);
};

/// Per-bug exposure runs over the full concretized test set: independent
/// across bugs; within a bug the programs run in order with early exit at
/// the first exposing one. Budget-exhausted runs never count as exposure.
/// One kCompare span.
struct CompareStage {
  static std::vector<BugExposure> run(
      std::span<const dlx::PipelineBug> bugs,
      std::span<const validate::ConcretizedProgram> programs,
      std::size_t max_cycles, runtime::ThreadPool& pool,
      const CancellationToken& cancel, obs::EventSink& sink);
};

/// The Theorem-3 evaluator: generates the method's test set on the machine
/// level, samples output/transfer mutants and replays each against the
/// set. kTour span for generation, kMutantReplay span for sampling+replay
/// (rendered into "simulate_seconds" of the report's timings).
struct MutantReplayStage {
  static MutantCoverageResult run(const fsm::MealyMachine& machine,
                                  fsm::StateId start,
                                  const MutantCoverageOptions& options);
};

// ---- Shared machine-level helpers -----------------------------------------

/// Generates the test set for a method over an explicit machine. Throws
/// std::runtime_error when the method cannot produce one, and
/// std::invalid_argument when a non-default generator spec is combined
/// with a method other than kTransitionTourSet.
tour::TourSet generate_test_set(const fsm::MealyMachine& machine,
                                fsm::StateId start, TestMethod method,
                                std::size_t random_length, std::uint64_t seed,
                                const model::GeneratorSpec& generator = {});

/// Extends a sequence by `extra` valid steps (smallest defined input each
/// step), providing the exposure window of Theorem 1.
void extend_sequence(const fsm::MealyMachine& machine, fsm::StateId start,
                     std::vector<fsm::InputId>& seq, unsigned extra);

}  // namespace simcov::pipeline
