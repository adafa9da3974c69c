// The streaming campaign executor: assembles the typed stages of
// pipeline/stages.hpp into the paper's Figure-1 flow.
//
//   ModelBuildStage -> SymbolicSnapshotStage -> GenerateStage
//       -> [ replay_batch -> ConcretizeStage -> SimulateStage ]
//       -> CompareStage                        (batched, streaming)
//
// Test sequences are pulled from the model::SequenceSource in windows of
// twice the worker-pool lanes. Each batch is replayed once through the
// test model; that replay feeds concretization (which flows into the
// sharded clean-run loop), an external circuit's clean runs, the coverage
// telemetry and the VCD waveform; the raw sequences are released as soon as
// their batch is simulated, so peak test-set memory is bounded by the
// window, not the tour length. (Concretized programs are retained — the
// per-bug compare stage replays all of them.)
//
// Determinism: every batch writes into per-index slots and the stream
// yields sequences in a fixed order, so for identical options the result
// is bit-identical at any thread count.
// Cancellation truncates at batch boundaries; the interrupted stage
// reports kCancelled in the result's stage_reports, which also carry each
// stage's span seconds — the one record of stage time.
#pragma once

#include <span>

#include "pipeline/contracts.hpp"
#include "store/fingerprint.hpp"

namespace simcov::pipeline {

/// Content key of a campaign's checkpoint (store::ArtifactStore): the
/// structural circuit fingerprint, the model options, the resolved backend,
/// the method and every knob that shapes the sequences (step cap, walk
/// length, seed, the full generator spec), and the per-run cycle budget. A
/// resume restores verdicts only when the same tour runs under the same
/// budget. Runtime-only knobs (threads, reorder, sinks) stay out:
/// results are bit-identical across them, so a checkpoint written at one
/// thread count resumes at any other.
[[nodiscard]] store::Fingerprint checkpoint_key(
    const CampaignOptions& options, const sym::SequentialCircuit& circuit,
    model::Backend backend);

/// Runs the full campaign against each bug in `bugs` (plus clean runs).
[[nodiscard]] CampaignResult execute_campaign(
    const CampaignOptions& options, std::span<const dlx::PipelineBug> bugs);

}  // namespace simcov::pipeline
