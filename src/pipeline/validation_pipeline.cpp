#include "pipeline/validation_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/vcd.hpp"
#include "obs/monitor_server.hpp"
#include "pipeline/stages.hpp"
#include "pipeline/store_keys.hpp"
#include "runtime/thread_pool.hpp"
#include "store/codec.hpp"
#include "store/tour_cache.hpp"
#include "sym/circuit_replay.hpp"
#include "validate/harness.hpp"

namespace simcov::pipeline {

namespace {

/// True when the stage's accumulated span time has passed its deadline.
bool past_deadline(const StageBudget& budget, const obs::SpanRecorder& spans,
                   obs::Stage stage) {
  return budget.deadline_seconds.has_value() &&
         spans.seconds(stage) >= *budget.deadline_seconds;
}

/// True when the stage has processed its item cap.
bool items_exhausted(const StageBudget& budget, std::size_t items) {
  return budget.max_items.has_value() && items >= *budget.max_items;
}

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

/// Guarantees CampaignMonitor::end_campaign on every exit path (the
/// watchdog thread and the queue-depth hook must not outlive the pool and
/// token they observe).
struct MonitorGuard {
  obs::CampaignMonitor* monitor;
  ~MonitorGuard() {
    if (monitor != nullptr) monitor->end_campaign();
  }
};

/// Everything one campaign shares across its steps. The constructor is the
/// set-up: sink fan-out, model build, the optional replayer, telemetry
/// collector and store, the symbolic snapshot, the sequence source and the
/// checkpoint to resume from. Built in place: `sink` points at `recorder`.
struct Campaign {
  Campaign(const CampaignOptions& opts,
           std::span<const dlx::PipelineBug> bugs);

  const CampaignOptions& options;
  obs::SpanRecorder recorder;
  obs::MultiSink sink;
  CampaignResult result;
  ModelBuildStage::Output build;
  /// External circuits replace concretize/simulate with direct replay; one
  /// replayer serves every worker (replay() is const and allocation-local).
  std::optional<sym::CircuitReplayer> replayer;
  std::optional<obs::CoverageTelemetryCollector> telemetry;
  /// The artifact store (optional): caches tours and symbolic snapshots
  /// across campaigns, and checkpoints this campaign's committed prefix.
  std::unique_ptr<store::ArtifactStore> store;
  CampaignStoreKeys keys;
  std::unique_ptr<model::SequenceSource> stream;
  std::vector<store::CheckpointRun> restore;  ///< checkpointed clean runs

  // The batch commit loop's cursor and how each stream stage ended.
  std::vector<validate::ConcretizedProgram> programs;
  /// Committed sequences retained for the VCD export (they otherwise die at
  /// batch commit). Store-replayed and resumed campaigns re-pull the same
  /// deterministic stream, so the retained set is always the full test set.
  std::vector<model::Sequence> vcd_sequences;
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
  sink.add(options.metrics);
  // The live monitor's private registry rides the same fan-out; it never
  // lands on the result, so the report is identical with it on or off.
  if (options.monitor != nullptr) sink.add(&options.monitor->sink());

  build = ModelBuildStage::run(options, sink, result);
  if (build.external_circuit && !bugs.empty()) {
    throw std::invalid_argument(
        "run_campaign: DLX pipeline bugs cannot run against an external "
        "circuit (CampaignOptions::circuit_path); pass an empty bug list");
  }
  if (build.external_circuit) replayer.emplace(build.built->circuit);

  // Coverage telemetry replays committed sequences through the model on the
  // coordinator thread — the one account that is identical for live,
  // store-replayed (no live tracker), and resumed campaigns.
  // An attached monitor needs the same account for its live progress feed,
  // so it forces the collector on; the report section itself stays gated
  // on collect_coverage_telemetry in assemble_result.
  if (options.collect_coverage_telemetry || options.monitor != nullptr) {
    telemetry.emplace(*build.model, options.telemetry_curve_budget);
  }

  if (!options.store_dir.empty()) {
    store = std::make_unique<store::ArtifactStore>(
        store::StoreOptions{options.store_dir, options.store_max_bytes});
    keys = campaign_store_keys(options, build.built->circuit,
                               result.backend, bugs);
    result.report_key = keys.report;
  }

  SymbolicSnapshotStage::run(options, *build.built, *build.model, sink,
                             result, store.get(), keys.symbolic);

  stream = GenerateStage::open(options, *build.model, build.explicit_model,
                               sink, store.get(), keys.tour);
  result.generator = options.generator;

  // Resume: restore the checkpointed prefix of a previously killed campaign
  // with this key. The sequences themselves are re-pulled from the
  // deterministic stream and re-concretized (cheap, and it advances the
  // stream's coverage tracker exactly as the original run did); only their
  // simulation verdicts are restored instead of re-run.
  if (store != nullptr && options.resume) {
    if (auto payload = store->load(store::ArtifactKind::kCheckpoint,
                                   keys.checkpoint, obs::Stage::kSimulate,
                                   sink)) {
      try {
        restore = store::checkpoint_from_payload(*payload).clean_runs;
      } catch (const store::CodecError&) {
        restore.clear();  // undecodable checkpoint: full re-run
      }
    }
  }
}

/// Runs one pulled batch through concretize and simulate (or circuit
/// replay) and commits it: runs and programs join the result, the coverage
/// telemetry folds it in, and the committed prefix is checkpointed when
/// due. Returns false, with the cancelled stage's status set, when a pool
/// was cancelled mid-batch: unclaimed slots are empty, so the whole batch
/// is dropped — per-batch atomicity keeps the retained prefix exact.
bool commit_batch(Campaign& c, std::vector<model::Sequence> batch,
                  bool restored, runtime::ThreadPool& pool) {
  const CancellationToken& cancel = c.options.cancel;
  CampaignResult& result = c.result;
  const std::size_t first = result.clean_runs.size();

  // Concretize (backend-neutral: each tour step is already a packed input
  // key). External circuits skip the stage — their sequences replay
  // directly, no DLX program in between.
  std::vector<validate::ConcretizedProgram> programs(
      c.build.external_circuit ? 0 : batch.size());
  if (!c.build.external_circuit) {
    ConcretizeStage::run_batch(*c.build.built, batch, first, programs, pool,
                               cancel, c.sink);
    if (cancel.cancelled()) {
      c.concretize_status = obs::StageStatus::kCancelled;
      return false;
    }
    for (std::size_t i = 0; i < programs.size(); ++i) {
      c.sink.item(obs::Stage::kConcretize, "program", first + i,
                  programs[i].instructions.size());
    }
  }

  // Clean runs: the bug-free implementation must pass everything. A
  // restored batch skips the simulations — its verdicts come from the
  // checkpoint (recorded under identical options, so they are exactly what
  // re-simulation would produce).
  std::vector<RunMetrics> runs(batch.size());
  if (restored) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const store::CheckpointRun& r = c.restore[c.restored_used + i];
      runs[i] = RunMetrics{first + i, r.impl_cycles, r.checkpoints, r.passed,
                           r.budget_exhausted};
    }
    c.restored_used += batch.size();
  } else {
    if (c.build.external_circuit) {
      CircuitReplayStage::run_batch(*c.replayer, batch, first,
                                    c.options.max_cycles, runs, pool, cancel,
                                    c.sink);
    } else {
      SimulateStage::run_batch(programs, first, c.options.max_cycles, runs,
                               pool, cancel, c.sink);
    }
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
    result.total_instructions += program.instructions.size();
    c.programs.push_back(std::move(program));
  }
  // One lane-parallel replay per batch, folded in batch order: the
  // telemetry section does not depend on how the stream was batched.
  if (c.telemetry.has_value()) {
    c.telemetry->commit_batch(batch);
    if (c.options.monitor != nullptr) {
      c.options.monitor->on_commit(result.sequences, result.test_length,
                                   c.telemetry->states_visited(),
                                   c.telemetry->transitions_covered());
    }
  }
  if (!c.options.vcd_path.empty()) {
    for (auto& seq : batch) c.vcd_sequences.push_back(std::move(seq));
  }

  // Periodic checkpoint of the committed prefix. Restored batches only
  // advance the checkpoint cursor — their prefix is already on disk.
  if (restored) {
    c.last_checkpoint = result.clean_runs.size();
  } else if (c.store != nullptr && c.options.checkpoint_every > 0 &&
             result.clean_runs.size() - c.last_checkpoint >=
                 c.options.checkpoint_every) {
    obs::ScopedSpan span(c.sink, obs::Stage::kSimulate);
    c.store->publish(store::ArtifactKind::kCheckpoint, c.keys.checkpoint,
                     checkpoint_payload(result.clean_runs),
                     obs::Stage::kSimulate, c.sink);
    c.last_checkpoint = result.clean_runs.size();
  }
  return true;
}

/// The batch commit loop: checks cancellation and the stream budgets,
/// pulls a window of sequences and commits it, until the stream ends, a
/// budget runs out or the campaign is cancelled. Budgets and cancellation
/// truncate at batch boundaries only, so a run without budgets never
/// diverges from the monolithic engine.
void commit_stream(Campaign& c, runtime::ThreadPool& pool,
                   std::size_t window) {
  const StageBudgets& budgets = c.options.budgets;
  const auto over = [&c](const StageBudget& budget, std::size_t items,
                         obs::Stage stage) {
    return items_exhausted(budget, items) ||
           past_deadline(budget, c.recorder, stage);
  };
  while (!c.stream_done) {
    if (c.options.cancel.cancelled()) {
      c.tour_status = obs::StageStatus::kCancelled;
      break;
    }
    if (over(budgets.tour, c.yielded, obs::Stage::kTour)) {
      c.tour_status = obs::StageStatus::kBudgetExhausted;
      break;
    }
    if (over(budgets.concretize, c.programs.size(),
             obs::Stage::kConcretize)) {
      c.concretize_status = obs::StageStatus::kBudgetExhausted;
      break;
    }
    if (over(budgets.simulate, c.result.clean_runs.size(),
             obs::Stage::kSimulate)) {
      c.simulate_status = obs::StageStatus::kBudgetExhausted;
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
      while (batch.size() < pull_cap &&
             !items_exhausted(budgets.tour, c.yielded + batch.size())) {
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
    if (batch.empty()) continue;  // loop re-checks budgets / termination
    c.yielded += batch.size();
    c.in_flight_peak = std::max(c.in_flight_peak, batch.size());
    if (!commit_batch(c, std::move(batch), restore_remaining > 0, pool)) {
      break;
    }
  }
  if (c.store != nullptr) c.store->add_resumed_sequences(c.restored_used);
}

/// End-of-stream bookkeeping: coverage and clean-pass verdicts, the three
/// stream stages' statuses, and the store — a complete tour generated live
/// is published, a truncated or cancelled one flushes a final checkpoint.
void close_stream(Campaign& c) {
  CampaignResult& result = c.result;
  // A level snapshot, not an occurrence: gauge (max semantics), so sinks
  // that sum counters can never mis-aggregate it.
  c.sink.gauge(obs::Stage::kTour, "sequences_in_flight_peak",
               c.in_flight_peak);
  // Coverage statistics come from the stream's own tracker, so a truncated
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

  if (c.store == nullptr) return;
  if (c.stream_complete()) {
    // The tour ran to completion: publish it if this run generated it
    // live (a stored tour came from the store in the first place).
    if (auto* rec =
            dynamic_cast<store::RecordingTourStream*>(c.stream.get())) {
      obs::ScopedSpan span(c.sink, obs::Stage::kTour);
      c.store->publish(store::ArtifactKind::kTour, c.keys.tour,
                       rec->artifact(), obs::Stage::kTour, c.sink);
    }
  } else if (c.options.checkpoint_every > 0 &&
             result.clean_runs.size() > c.last_checkpoint) {
    // Truncated / cancelled: flush a final checkpoint so a resume loses
    // none of the committed prefix.
    obs::ScopedSpan span(c.sink, obs::Stage::kSimulate);
    c.store->publish(store::ArtifactKind::kCheckpoint, c.keys.checkpoint,
                     checkpoint_payload(result.clean_runs),
                     obs::Stage::kSimulate, c.sink);
  }
}

/// Per-bug exposure runs over whatever test set was produced — a
/// budget-truncated set still yields meaningful (if inconclusive) exposure
/// data. A cancelled campaign skips the stage entirely; one that ran to
/// completion drops its checkpoint. Returns the number of bugs compared.
std::size_t run_compare(Campaign& c, std::span<const dlx::PipelineBug> bugs,
                        runtime::ThreadPool& pool) {
  const CancellationToken& cancel = c.options.cancel;
  const StageBudget& budget = c.options.budgets.compare;
  auto status = obs::StageStatus::kOk;
  std::size_t compared = 0;
  if (cancel.cancelled()) {
    status = obs::StageStatus::kCancelled;
  } else {
    if (budget.max_items.has_value() && bugs.size() > *budget.max_items) {
      bugs = bugs.first(*budget.max_items);
      status = obs::StageStatus::kBudgetExhausted;
    }
    c.result.exposures = CompareStage::run(bugs, c.programs,
                                           c.options.max_cycles, pool, cancel,
                                           c.sink);
    compared = c.result.exposures.size();
    if (cancel.cancelled()) {
      // Cancelled mid-compare: partial exposure slots are meaningless.
      c.result.exposures.clear();
      compared = 0;
      status = obs::StageStatus::kCancelled;
    } else if (past_deadline(budget, c.recorder, obs::Stage::kCompare)) {
      // The compare pool is one indivisible shard pass; its deadline is
      // reported post-hoc rather than truncating mid-bug.
      status = obs::StageStatus::kBudgetExhausted;
    }
  }
  c.sink.status(obs::Stage::kCompare, status);

  // A campaign that ran to completion no longer needs its checkpoint.
  if (c.store != nullptr && c.stream_complete() &&
      status == obs::StageStatus::kOk) {
    c.store->erase(store::ArtifactKind::kCheckpoint, c.keys.checkpoint);
  }
  return compared;
}

/// VCD export: replays every committed sequence through the campaign
/// circuit (external or DLX) and serializes the traces. Deterministic —
/// identical campaigns, at any thread count, warm or cold, produce
/// byte-identical waveforms.
void export_vcd(Campaign& c) {
  if (c.options.vcd_path.empty()) return;
  if (!c.replayer.has_value()) c.replayer.emplace(c.build.built->circuit);
  io::VcdWriter vcd(c.build.built->circuit, c.build.circuit_name.empty()
                                                ? "dlx"
                                                : c.build.circuit_name);
  for (std::size_t i = 0; i < c.vcd_sequences.size(); ++i) {
    vcd.add_sequence("seq" + std::to_string(i),
                     c.replayer->replay(c.vcd_sequences[i],
                                        c.options.max_cycles));
  }
  vcd.write_file(c.options.vcd_path);
}

/// Completes the result: inconclusive counts, span-derived timings, store
/// activity, stage reports, the coverage-telemetry section and, last, the
/// metrics snapshot.
CampaignResult assemble_result(Campaign& c, std::size_t bugs_compared) {
  CampaignResult& result = c.result;
  for (const auto& r : result.clean_runs) {
    if (r.budget_exhausted) ++result.runs_inconclusive;
  }
  for (const auto& e : result.exposures) {
    if (e.budget_exhausted) ++result.runs_inconclusive;
  }
  result.timings = timings_from_spans(c.recorder);
  if (c.store != nullptr) result.store_stats = c.store->stats();

  const bool symbolic_ran = c.options.collect_symbolic_stats ||
                            result.backend == model::Backend::kSymbolic;
  auto report = [&](obs::Stage stage, std::size_t items) {
    result.stage_reports.push_back(StageReport{
        stage, c.recorder.stage_status(stage), items,
        c.recorder.seconds(stage)});
  };
  report(obs::Stage::kModelBuild, 1);
  if (symbolic_ran) report(obs::Stage::kSymbolic, 1);
  report(obs::Stage::kTour, c.yielded);
  report(obs::Stage::kConcretize, c.programs.size());
  report(obs::Stage::kSimulate, result.clean_runs.size());
  report(obs::Stage::kCompare, bugs_compared);

  if (c.telemetry.has_value() && c.options.collect_coverage_telemetry) {
    auto t = c.telemetry->snapshot();
    // Exposure latency comes from the compare stage's per-bug first-exposing
    // indices (committed order), one entry per compared bug.
    t.bug_exposure_latency.reserve(result.exposures.size());
    for (const auto& e : result.exposures) {
      obs::ExposureLatency lat;
      lat.exposed = e.exposed;
      if (e.exposing_sequence.has_value()) {
        lat.sequences = *e.exposing_sequence + 1;  // 1-based
      }
      t.bug_exposure_latency.push_back(lat);
    }
    result.coverage_telemetry = std::move(t);
  }
  // Snapshot last, so the summary covers every event the campaign emitted.
  if (c.options.metrics != nullptr) {
    result.metrics = c.options.metrics->summary();
  }
  return std::move(result);
}

}  // namespace

CampaignResult ValidationPipeline::run(
    std::span<const dlx::PipelineBug> bugs) {
  Campaign c(options_, bugs);

  // One worker pool for every sharded loop. Each loop writes into
  // pre-sized per-index slots, so the outcome is independent of scheduling.
  runtime::ThreadPool pool(options_.threads);
  const std::size_t window = options_.max_in_flight_sequences != 0
                                 ? options_.max_in_flight_sequences
                                 : 2 * pool.size();

  // Arm the live monitor: progress totals, stall evidence (the pool's
  // backlog), and the cancellation hook a cancel_on_stall watchdog trips.
  // The guard is declared after `pool`, so its end_campaign — which
  // detaches these hooks and stops the watchdog thread — runs first on
  // every exit path.
  MonitorGuard monitor_guard{options_.monitor};
  if (options_.monitor != nullptr) {
    options_.monitor->begin_campaign(
        c.result.model_transitions,
        [&pool] { return static_cast<std::uint64_t>(pool.pending()); },
        [cancel = options_.cancel] { cancel.cancel(); });
  }

  commit_stream(c, pool, window);
  close_stream(c);
  const std::size_t bugs_compared = run_compare(c, bugs, pool);
  export_vcd(c);
  return assemble_result(c, bugs_compared);
}

}  // namespace simcov::pipeline
