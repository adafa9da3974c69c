#include "pipeline/validation_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/vcd.hpp"
#include "pipeline/stages.hpp"
#include "runtime/thread_pool.hpp"
#include "store/codec.hpp"
#include "validate/harness.hpp"

namespace simcov::pipeline {

namespace {

/// Serializes the committed clean-run prefix into a checkpoint payload.
std::vector<std::uint8_t> checkpoint_payload(
    const std::vector<RunMetrics>& clean_runs) {
  store::CampaignCheckpoint ckpt;
  ckpt.clean_runs.reserve(clean_runs.size());
  for (const RunMetrics& r : clean_runs) {
    ckpt.clean_runs.push_back(store::CheckpointRun{
        r.sequence, r.impl_cycles, r.checkpoints, r.passed,
        r.budget_exhausted});
  }
  return store::to_payload(ckpt);
}

/// Everything one campaign shares across its steps. The constructor is the
/// set-up: sink fan-out, model build, the optional telemetry collector,
/// waveform and checkpoint store, the symbolic snapshot, the sequence
/// source and the checkpoint to resume from. Built in place: `sink` points
/// at `recorder`.
struct Campaign {
  Campaign(const CampaignOptions& opts,
           std::span<const dlx::PipelineBug> bugs);

  const CampaignOptions& options;
  obs::SpanRecorder recorder;
  obs::MultiSink sink;
  CampaignResult result;
  ModelBuildStage::Output build;
  std::optional<obs::CoverageTelemetryCollector> telemetry;
  /// The waveform of the committed sequences (CampaignOptions::vcd_path).
  /// Resumed campaigns re-pull and re-replay the same deterministic
  /// stream, so it always holds the full test set.
  std::optional<io::VcdWriter> vcd;
  /// The checkpoint store (optional): holds this campaign's committed
  /// prefix under `key` until the campaign completes.
  std::unique_ptr<store::ArtifactStore> store;
  store::Fingerprint key;
  std::unique_ptr<model::SequenceSource> stream;
  std::vector<store::CheckpointRun> restore;  ///< checkpointed clean runs

  // The batch commit loop's cursor and how each stream stage ended.
  std::vector<validate::ConcretizedProgram> programs;
  obs::StageStatus tour_status = obs::StageStatus::kOk;
  obs::StageStatus concretize_status = obs::StageStatus::kOk;
  obs::StageStatus simulate_status = obs::StageStatus::kOk;
  bool stream_done = false;
  std::size_t yielded = 0;  // sequences pulled from the stream
  std::size_t in_flight_peak = 0;
  std::size_t last_checkpoint = 0;  // clean runs covered by a checkpoint
  std::size_t restored_used = 0;    // checkpointed runs consumed so far

  /// The stream ran to its end and no stream stage was cut short.
  [[nodiscard]] bool stream_complete() const {
    return stream_done && tour_status == obs::StageStatus::kOk &&
           concretize_status == obs::StageStatus::kOk &&
           simulate_status == obs::StageStatus::kOk;
  }
};

Campaign::Campaign(const CampaignOptions& opts,
                   std::span<const dlx::PipelineBug> bugs)
    : options(opts) {
  sink.add(&recorder);
  sink.add(options.sink);

  build = ModelBuildStage::run(options, sink, result);
  if (build.external_circuit && !bugs.empty()) {
    throw std::invalid_argument(
        "run_campaign: DLX pipeline bugs cannot run against an external "
        "circuit (CampaignOptions::circuit_path); pass an empty bug list");
  }

  // Coverage telemetry folds the state paths of each committed batch's
  // replay — the one account that is identical for live and resumed
  // campaigns.
  if (options.collect_coverage_telemetry) telemetry.emplace();
  if (!options.vcd_path.empty()) {
    vcd.emplace(build.built->circuit,
                build.circuit_name.empty() ? "dlx" : build.circuit_name,
                options.max_cycles);
  }

  if (!options.store_dir.empty()) {
    store = std::make_unique<store::ArtifactStore>(options.store_dir);
    key = checkpoint_key(options, build.built->circuit, result.backend);
  }

  SymbolicSnapshotStage::run(*build.model, sink, result);

  stream = GenerateStage::open(options, *build.model, build.explicit_model,
                               sink);
  result.generator = options.generator;

  // Resume: restore the checkpointed prefix of a previously killed campaign
  // with this key. The sequences themselves are re-pulled from the
  // deterministic stream and re-concretized (cheap, and it advances the
  // stream's coverage tracker exactly as the original run did); only their
  // simulation verdicts are restored instead of re-run.
  if (store != nullptr && options.resume) {
    if (auto payload = store->load(key)) {
      try {
        restore = store::checkpoint_from_payload(*payload).clean_runs;
      } catch (const store::CodecError&) {
        restore.clear();  // undecodable checkpoint: full re-run
      }
    }
  }
}

/// Replays one pulled batch through the test model, runs it through
/// concretize and simulate (DLX) or reads its clean runs off the replay
/// (external circuit), and commits it: runs and programs join the result,
/// the coverage telemetry and the waveform take the replay, and the
/// committed prefix is checkpointed when due. Returns false, with the
/// cancelled stage's status set, when the replay or a pool was cancelled
/// mid-batch: unclaimed slots are empty, so the whole batch is dropped —
/// per-batch atomicity keeps the retained prefix exact.
bool commit_batch(Campaign& c, const std::vector<model::Sequence>& batch,
                  bool restored, runtime::ThreadPool& pool) {
  const CancellationToken& cancel = c.options.cancel;
  CampaignResult& result = c.result;
  const std::size_t first = result.clean_runs.size();
  const bool external = c.build.external_circuit;

  // The batch's one replay. For DLX it is concretize's flag source; for an
  // external circuit it is the simulation itself.
  std::optional<BatchReplay> replay;
  {
    obs::ScopedSpan span(c.sink, external ? obs::Stage::kSimulate
                                          : obs::Stage::kConcretize);
    replay = replay_batch(*c.build.model, batch, cancel);
  }
  if (!replay.has_value()) {
    (external ? c.simulate_status : c.concretize_status) =
        obs::StageStatus::kCancelled;
    return false;
  }

  // Concretize (backend-neutral: each tour step is already a packed input
  // key, and its stall/squash flags are the campaign model's own outputs).
  // External circuits have no DLX program in between.
  std::vector<validate::ConcretizedProgram> programs(external ? 0
                                                              : batch.size());
  if (!external) {
    ConcretizeStage::run_batch(*c.build.built, batch, replay->outputs, first,
                               programs, pool, cancel, c.sink);
    if (cancel.cancelled()) {
      c.concretize_status = obs::StageStatus::kCancelled;
      return false;
    }
    for (std::size_t i = 0; i < programs.size(); ++i) {
      c.sink.item(obs::Stage::kConcretize, "program", first + i,
                  programs[i].instructions().size());
    }
  }

  // Clean runs: the bug-free implementation must pass everything. A
  // restored batch skips the simulations — its verdicts come from the
  // checkpoint (recorded under identical options, so they are exactly what
  // re-simulation would produce). An external circuit's run is its replay:
  // a sequence the model yielded is valid by construction, and the cycle
  // budget cuts it short.
  std::vector<RunMetrics> runs(batch.size());
  if (restored) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const store::CheckpointRun& r = c.restore[c.restored_used + i];
      runs[i] = RunMetrics{first + i, r.impl_cycles, r.checkpoints, r.passed,
                           r.budget_exhausted};
    }
    c.restored_used += batch.size();
  } else if (external) {
    const std::size_t budget = c.options.max_cycles;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t cycles = std::min(batch[i].size(), budget);
      runs[i] = RunMetrics{first + i, cycles, cycles, true,
                           batch[i].size() > budget};
    }
  } else {
    SimulateStage::run_batch(programs, first, c.options.max_cycles, runs,
                             pool, cancel, c.sink);
    if (cancel.cancelled()) {
      c.simulate_status = obs::StageStatus::kCancelled;
      return false;
    }
  }

  // The batch survived both pools: commit it.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    c.sink.item(obs::Stage::kSimulate, "clean_run", first + i,
                runs[i].impl_cycles);
    result.sequences += 1;
    result.test_length += batch[i].size();
    result.clean_runs.push_back(runs[i]);
  }
  for (auto& program : programs) {
    result.total_instructions += program.instructions().size();
    c.programs.push_back(std::move(program));
  }
  // Folded in batch order: the telemetry section and the waveform do not
  // depend on how the stream was batched.
  if (c.telemetry.has_value()) c.telemetry->commit_batch(batch, replay->paths);
  if (c.vcd.has_value()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      c.vcd->add_sequence("seq" + std::to_string(first + i),
                          replay->paths[i], batch[i], replay->outputs[i]);
    }
  }

  // Periodic checkpoint of the committed prefix. Restored batches only
  // advance the checkpoint cursor — their prefix is already on disk.
  if (restored) {
    c.last_checkpoint = result.clean_runs.size();
  } else if (c.store != nullptr && c.options.checkpoint_every > 0 &&
             result.clean_runs.size() - c.last_checkpoint >=
                 c.options.checkpoint_every) {
    obs::ScopedSpan span(c.sink, obs::Stage::kSimulate);
    c.store->publish(c.key, checkpoint_payload(result.clean_runs),
                     obs::Stage::kSimulate, c.sink);
    c.last_checkpoint = result.clean_runs.size();
  }
  return true;
}

/// The batch commit loop: checks cancellation, pulls a window of sequences
/// and commits it, until the stream ends or the campaign is cancelled.
/// Cancellation truncates at batch boundaries only, so an uncancelled run
/// never diverges from the monolithic engine.
void commit_stream(Campaign& c, runtime::ThreadPool& pool,
                   std::size_t window) {
  while (!c.stream_done) {
    if (c.options.cancel.cancelled()) {
      c.tour_status = obs::StageStatus::kCancelled;
      break;
    }

    // While restoring from a checkpoint, cap the pull so a batch never
    // straddles the restored/live boundary.
    const std::size_t restore_remaining = c.restore.size() - c.restored_used;
    const std::size_t pull_cap =
        restore_remaining > 0 ? std::min(window, restore_remaining) : window;
    std::vector<model::Sequence> batch;
    {
      obs::ScopedSpan span(c.sink, obs::Stage::kTour);
      while (batch.size() < pull_cap) {
        const auto pull_start = std::chrono::steady_clock::now();
        auto seq = c.stream->next_sequence();
        const double pull_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          pull_start)
                .count();
        if (!seq.has_value()) {
          c.stream_done = true;
          break;
        }
        const std::size_t id = c.yielded + batch.size();
        c.sink.item(obs::Stage::kTour, "sequence", id, seq->size());
        c.sink.latency(obs::Stage::kTour, "sequence", id, pull_seconds);
        batch.push_back(std::move(*seq));
      }
    }
    if (batch.empty()) continue;  // loop re-checks termination
    c.yielded += batch.size();
    c.in_flight_peak = std::max(c.in_flight_peak, batch.size());
    if (!commit_batch(c, batch, restore_remaining > 0, pool)) {
      break;
    }
  }
  if (c.store != nullptr) c.store->add_resumed_sequences(c.restored_used);
}

/// End-of-stream bookkeeping: coverage and clean-pass verdicts, the three
/// stream stages' statuses, and a cancelled stream's final checkpoint.
void close_stream(Campaign& c) {
  CampaignResult& result = c.result;
  // A level snapshot, not an occurrence: gauge (max semantics), so sinks
  // that sum counters can never mis-aggregate it.
  c.sink.gauge(obs::Stage::kTour, "sequences_in_flight_peak",
               c.in_flight_peak);
  // Coverage statistics come from the stream's own tracker, so a cancelled
  // tour reports the coverage of what was actually yielded.
  const auto summary = c.stream->summary();
  result.state_coverage = summary.coverage.state_coverage();
  result.transition_coverage = summary.coverage.transition_coverage();
  result.clean_pass =
      std::all_of(result.clean_runs.begin(), result.clean_runs.end(),
                  [](const RunMetrics& r) { return r.passed; });
  c.sink.status(obs::Stage::kTour, c.tour_status);
  c.sink.status(obs::Stage::kConcretize, c.concretize_status);
  c.sink.status(obs::Stage::kSimulate, c.simulate_status);

  if (c.store != nullptr && !c.stream_complete() &&
      c.options.checkpoint_every > 0 &&
      result.clean_runs.size() > c.last_checkpoint) {
    // Cancelled: flush a final checkpoint so a resume loses none of the
    // committed prefix.
    obs::ScopedSpan span(c.sink, obs::Stage::kSimulate);
    c.store->publish(c.key, checkpoint_payload(result.clean_runs),
                     obs::Stage::kSimulate, c.sink);
  }
}

/// Per-bug exposure runs over the committed test set. A cancelled campaign
/// skips the stage entirely; one that ran to completion drops its
/// checkpoint. Returns the number of bugs compared.
std::size_t run_compare(Campaign& c, std::span<const dlx::PipelineBug> bugs,
                        runtime::ThreadPool& pool) {
  const CancellationToken& cancel = c.options.cancel;
  auto status = obs::StageStatus::kOk;
  std::size_t compared = 0;
  if (cancel.cancelled()) {
    status = obs::StageStatus::kCancelled;
  } else {
    c.result.exposures = CompareStage::run(bugs, c.programs,
                                           c.options.max_cycles, pool, cancel,
                                           c.sink);
    compared = c.result.exposures.size();
    if (cancel.cancelled()) {
      // Cancelled mid-compare: partial exposure slots are meaningless.
      c.result.exposures.clear();
      compared = 0;
      status = obs::StageStatus::kCancelled;
    }
  }
  c.sink.status(obs::Stage::kCompare, status);

  // A campaign that ran to completion no longer needs its checkpoint.
  if (c.store != nullptr && c.stream_complete() &&
      status == obs::StageStatus::kOk) {
    c.store->erase(c.key);
  }
  return compared;
}

/// Completes the result: inconclusive counts, checkpoint activity, stage
/// reports and the coverage-telemetry section.
CampaignResult assemble_result(Campaign& c, std::size_t bugs_compared) {
  CampaignResult& result = c.result;
  for (const auto& r : result.clean_runs) {
    if (r.budget_exhausted) ++result.runs_inconclusive;
  }
  for (const auto& e : result.exposures) {
    if (e.budget_exhausted) ++result.runs_inconclusive;
  }
  if (c.store != nullptr) result.store_stats = c.store->stats();

  auto report = [&](obs::Stage stage, std::size_t items) {
    result.stage_reports.push_back(StageReport{
        stage, c.recorder.stage_status(stage), items,
        c.recorder.seconds(stage)});
  };
  report(obs::Stage::kModelBuild, 1);
  if (result.backend == model::Backend::kSymbolic) {
    report(obs::Stage::kSymbolic, 1);
  }
  report(obs::Stage::kTour, c.yielded);
  report(obs::Stage::kConcretize, c.programs.size());
  report(obs::Stage::kSimulate, result.clean_runs.size());
  report(obs::Stage::kCompare, bugs_compared);

  if (c.telemetry.has_value()) {
    result.coverage_telemetry = c.telemetry->snapshot();
  }
  return std::move(result);
}

}  // namespace

store::Fingerprint checkpoint_key(const CampaignOptions& options,
                                  const sym::SequentialCircuit& circuit,
                                  model::Backend backend) {
  // The inner digest covers everything that shapes the test sequences. Its
  // tag and field order date from when it also keyed a stored tour; they
  // are kept so checkpoints written then still resume.
  store::Hasher sequences;
  sequences.str("simcov.key.tour.v2");
  sequences.fp(store::fingerprint_circuit(circuit))
      .fp(store::fingerprint_options(options.model_options));
  sequences.u8(static_cast<std::uint8_t>(backend));
  sequences.u8(static_cast<std::uint8_t>(options.method));
  // The tour step cap, once an option here, is fixed at the symbolic
  // walk's default. Hashing that value keeps existing checkpoint names.
  sequences.u64(10'000'000);
  sequences.u64(options.random_length);
  sequences.u64(options.seed);
  sequences.u8(static_cast<std::uint8_t>(options.generator.kind));
  sequences.u64(options.generator.sequence_length);
  sequences.u64(options.generator.max_walk_steps);
  sequences.u64(options.generator.bias_strength);
  sequences.u64(options.generator.hybrid_tour_steps);

  store::Hasher h;
  h.str("simcov.key.checkpoint.v1");
  h.fp(sequences.digest());
  h.u64(options.max_cycles);
  return h.digest();
}

CampaignResult execute_campaign(const CampaignOptions& options,
                                std::span<const dlx::PipelineBug> bugs) {
  Campaign c(options, bugs);

  // One worker pool for every sharded loop. Each loop writes into
  // pre-sized per-index slots, so the outcome is independent of scheduling.
  runtime::ThreadPool pool(options.threads);
  // The streaming window: sequences held in flight at once.
  const std::size_t window = 2 * pool.size();

  commit_stream(c, pool, window);
  close_stream(c);
  const std::size_t bugs_compared = run_compare(c, bugs, pool);
  if (c.vcd.has_value()) c.vcd->write_file(options.vcd_path);
  return assemble_result(c, bugs_compared);
}

}  // namespace simcov::pipeline
