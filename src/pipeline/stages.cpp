#include "pipeline/stages.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "distinguish/distinguish.hpp"
#include "distinguish/wmethod.hpp"
#include "errmodel/errmodel.hpp"
#include "gen/generators.hpp"
#include "io/blif.hpp"
#include "model/symbolic_model.hpp"
#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "validate/harness.hpp"

namespace simcov::pipeline {

namespace {

/// Throws std::invalid_argument when a non-default generator spec comes
/// with a method other than kTransitionTourSet: only that method runs a
/// generator.
void check_generator_method(const model::GeneratorSpec& generator,
                            TestMethod method) {
  if (!model::is_default_generator(generator) &&
      method != TestMethod::kTransitionTourSet) {
    throw std::invalid_argument(
        std::string("generator spec '") +
        model::generator_kind_name(generator.kind) +
        "' requires the transition-tour-set method, got " +
        method_name(method));
  }
}

/// Machine-level test set from a coverage-directed source (src/gen): the
/// machine is wrapped as a bare ExplicitModel — whose packed keys coincide
/// with the dense state/input ids — the source is drained, and each
/// yielded input key is the InputId it came from.
tour::TourSet drain_generator_test_set(const fsm::MealyMachine& machine,
                                       fsm::StateId start,
                                       const model::GeneratorSpec& generator,
                                       std::uint64_t seed) {
  model::ExplicitModel wrapped(machine, start);
  const auto source = gen::open_sequence_source(wrapped, generator, seed);
  tour::TourSet set;
  set.start = start;
  while (auto seq = source->next_sequence()) {
    set.sequences.emplace_back(seq->begin(), seq->end());
  }
  return set;
}

}  // namespace

tour::TourSet generate_test_set(const fsm::MealyMachine& machine,
                                fsm::StateId start, TestMethod method,
                                std::size_t random_length,
                                std::uint64_t seed,
                                const model::GeneratorSpec& generator) {
  check_generator_method(generator, method);
  tour::TourSet set;
  set.start = start;
  switch (method) {
    case TestMethod::kTransitionTourSet: {
      if (generator.kind != model::GeneratorKind::kTransitionTour) {
        return drain_generator_test_set(machine, start, generator, seed);
      }
      auto t = tour::greedy_transition_tour_set(machine, start);
      if (!t.has_value()) {
        throw std::runtime_error("transition tour set generation failed");
      }
      return *t;
    }
    case TestMethod::kStateTour: {
      auto t = tour::state_tour(machine, start);
      if (!t.has_value()) {
        throw std::runtime_error("state tour generation failed");
      }
      set.sequences.push_back(std::move(t->inputs));
      return set;
    }
    case TestMethod::kRandomWalk: {
      set.sequences.push_back(
          tour::random_walk(machine, start,
                            random_length,
                            runtime::derive_stream(
                                seed, runtime::Stream::kWalkStream))
              .inputs);
      return set;
    }
    case TestMethod::kWMethod: {
      // The W-method requires a minimal machine; minimize first. Suite
      // sequences remain valid on the original machine (behavioural
      // equivalence from reset includes definedness).
      const auto minimized = distinguish::minimize(machine, start);
      auto suite = distinguish::wmethod_test_suite(
          minimized.machine, minimized.machine.initial_state());
      if (!suite.has_value()) {
        throw std::runtime_error("W-method suite generation failed");
      }
      suite->start = start;
      return *suite;
    }
  }
  throw std::logic_error("unknown test method");
}

void extend_sequence(const fsm::MealyMachine& machine, fsm::StateId start,
                     std::vector<fsm::InputId>& seq, unsigned extra) {
  fsm::StateId at = machine.run_to_state(seq, start);
  for (unsigned k = 0; k < extra; ++k) {
    bool stepped = false;
    for (fsm::InputId i = 0; i < machine.num_inputs(); ++i) {
      const auto t = machine.transition(at, i);
      if (t.has_value()) {
        seq.push_back(i);
        at = t->next;
        stepped = true;
        break;
      }
    }
    if (!stepped) return;  // dead end: nothing to extend with
  }
}

namespace {

/// Resolves the backend choice into a concrete TestModel. Returns the
/// adapter; `out_explicit` is set when it is the explicit one (some phases
/// — state tour, W-method — need the underlying machine).
std::unique_ptr<model::TestModel> select_backend(
    const CampaignOptions& options, const testmodel::BuiltTestModel& built,
    model::ExplicitModel** out_explicit) {
  *out_explicit = nullptr;
  // kAuto enumerates only circuits whose inputs and outputs
  // extract_explicit takes; a forced kExplicit on a wider one throws
  // extract_explicit's invalid_argument. Past 63 latches no backend packs
  // the state, and extract_explicit throws before enumerating anything.
  const bool enumerable =
      built.circuit.primary_inputs.size() <= sym::kMaxExplicitInputs &&
      built.circuit.outputs.size() <= sym::kMaxExplicitOutputs;
  if (options.backend == BackendChoice::kExplicit ||
      (options.backend == BackendChoice::kAuto && enumerable)) {
    auto extraction = sym::extract_explicit(built.circuit, options.max_states);
    if (!extraction.truncated) {
      auto exp = std::make_unique<model::ExplicitModel>(std::move(extraction));
      *out_explicit = exp.get();
      return exp;
    }
    if (options.backend == BackendChoice::kExplicit) {
      throw std::runtime_error(
          "run_campaign: explicit backend requested but the reachable state "
          "space exceeds max_states");
    }
  }
  return std::make_unique<model::SymbolicModel>(built.circuit,
                                                options.reorder);
}

}  // namespace

ModelBuildStage::Output ModelBuildStage::run(const CampaignOptions& options,
                                             obs::EventSink& sink,
                                             CampaignResult& result) {
  obs::ScopedSpan span(sink, obs::Stage::kModelBuild);
  Output out;
  // Heap-boxed: SymbolicModel keeps a reference to the circuit, so the
  // built model must have a stable address for the pipeline's lifetime.
  if (!options.circuit_path.empty()) {
    // External netlist: the BLIF frontend supplies the circuit; every
    // downstream consumer sees the same BuiltTestModel shape the DLX
    // builder produces. The checkpoint key hashes the lowered circuit, so
    // campaigns are addressed by netlist content, never by this path.
    auto parsed = io::BlifReader().read_file(options.circuit_path);
    out.built = std::make_unique<testmodel::BuiltTestModel>();
    out.built->circuit = std::move(parsed.circuit);
    out.built->num_latches =
        static_cast<unsigned>(out.built->circuit.latches.size());
    out.built->num_inputs =
        static_cast<unsigned>(out.built->circuit.primary_inputs.size());
    out.built->num_outputs =
        static_cast<unsigned>(out.built->circuit.outputs.size());
    out.built->options = options.model_options;
    out.external_circuit = true;
    out.circuit_name = std::move(parsed.name);
  } else {
    out.built = std::make_unique<testmodel::BuiltTestModel>(
        testmodel::build_dlx_control_model(options.model_options));
  }
  if (out.built->circuit.outputs.size() > 63) {
    throw std::invalid_argument(
        "run_campaign: more than 63 circuit outputs for packed 64-bit keys");
  }
  result.latches = out.built->num_latches;
  result.primary_inputs = out.built->num_inputs;

  out.model = select_backend(options, *out.built, &out.explicit_model);
  result.backend = out.model->backend();
  result.model_states =
      static_cast<std::size_t>(out.model->count_reachable_states());
  result.model_transitions =
      static_cast<std::size_t>(out.model->count_reachable_transitions());
  sink.counter(obs::Stage::kModelBuild, "states", result.model_states);
  sink.counter(obs::Stage::kModelBuild, "transitions",
               result.model_transitions);
  return out;
}

void SymbolicSnapshotStage::run(model::TestModel& model, obs::EventSink& sink,
                                CampaignResult& result) {
  auto* sym_model = dynamic_cast<model::SymbolicModel*>(&model);
  if (sym_model == nullptr) return;
  obs::ScopedSpan span(sink, obs::Stage::kSymbolic);
  result.symbolic_stats = sym_model->fsm().stats();
  result.bdd_stats = sym_model->manager().stats();
  // Engine housekeeping activity of the live manager. All BDD work runs
  // on the coordinator thread, so these are deterministic per campaign.
  sink.counter(obs::Stage::kSymbolic, "bdd.gc", result.bdd_stats->gc_runs);
  sink.counter(obs::Stage::kSymbolic, "bdd.reorder",
               result.bdd_stats->reorders);
  // Node-table pressure as level snapshots (gauge = max semantics), so a
  // metrics reader sees BDD memory without summing samples.
  sink.gauge(obs::Stage::kSymbolic, "bdd_live_nodes",
             result.bdd_stats->live_nodes);
  sink.gauge(obs::Stage::kSymbolic, "bdd_peak_nodes",
             result.bdd_stats->peak_live_nodes);
}

std::unique_ptr<model::SequenceSource> GenerateStage::open(
    const CampaignOptions& options, model::TestModel& model,
    model::ExplicitModel* explicit_model, obs::EventSink& sink) {
  check_generator_method(options.generator, options.method);
  switch (options.method) {
    case TestMethod::kTransitionTourSet:
      // Native streaming: generation cost lands in kTour spans as batches
      // are pulled by the executor, not here. The generator spec selects
      // the strategy; the default is the model's own transition tour.
      return gen::open_sequence_source(model, options.generator,
                                       options.seed);
    case TestMethod::kRandomWalk: {
      obs::ScopedSpan span(sink, obs::Stage::kTour);
      return std::make_unique<model::MaterializedTourStream>(
          model.random_walk(options.random_length,
                            runtime::derive_stream(
                                options.seed, runtime::Stream::kWalkStream)));
    }
    case TestMethod::kStateTour:
    case TestMethod::kWMethod: {
      if (explicit_model == nullptr) {
        throw std::runtime_error(
            std::string("run_campaign: ") + method_name(options.method) +
            " generation requires the explicit backend");
      }
      obs::ScopedSpan span(sink, obs::Stage::kTour);
      return std::make_unique<model::MaterializedTourStream>(
          explicit_model->to_result(generate_test_set(
              explicit_model->machine(), explicit_model->start(),
              options.method, options.random_length, options.seed)));
    }
  }
  throw std::logic_error("unknown test method");
}

namespace {

/// Seconds elapsed since `t0` — per-item latency measurement.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Queue-wait observer emitting latency events with globally-indexed ids.
runtime::ThreadPool::QueueWaitObserver queue_wait_observer(
    obs::EventSink& sink, obs::Stage stage, std::size_t first_id) {
  return [&sink, stage, first_id](std::size_t i, double wait) {
    sink.latency(stage, "queue_wait", first_id + i, wait);
  };
}

}  // namespace

std::optional<BatchReplay> replay_batch(model::TestModel& model,
                                        std::span<const model::Sequence> batch,
                                        const CancellationToken& cancel) {
  BatchReplay replay;
  replay.paths.resize(batch.size());
  replay.outputs.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    replay.paths[i].reserve(batch[i].size() + 1);
    replay.paths[i].push_back(model.reset_state());
    replay.outputs[i].reserve(batch[i].size());
  }
  const bool replayed = model::replay_lockstep(
      model, batch,
      [&](const model::ReplayStep& s) {
        replay.paths[s.lane].push_back(s.next);
        replay.outputs[s.lane].push_back(s.output);
      },
      cancel.raw());
  if (!replayed) return std::nullopt;
  return replay;
}

void ConcretizeStage::run_batch(
    const testmodel::BuiltTestModel& built,
    std::span<const model::Sequence> batch,
    std::span<const std::vector<std::uint64_t>> outputs,
    std::size_t first_sequence, std::span<validate::ConcretizedProgram> out,
    runtime::ThreadPool& pool, const CancellationToken& cancel,
    obs::EventSink& sink) {
  obs::ScopedSpan span(sink, obs::Stage::kConcretize);
  const validate::OutputFlags read_flags(built);
  const auto queue_wait =
      queue_wait_observer(sink, obs::Stage::kConcretize, first_sequence);
  pool.for_each_index(
      batch.size(),
      [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<validate::StepFlags> flags;
        flags.reserve(outputs[i].size());
        for (const std::uint64_t o : outputs[i]) flags.push_back(read_flags(o));
        out[i] = validate::concretize_sequence(built, batch[i], flags);
        sink.latency(obs::Stage::kConcretize, "program", first_sequence + i,
                     seconds_since(t0));
      },
      cancel.raw(), &queue_wait);
}

void SimulateStage::run_batch(
    std::span<const validate::ConcretizedProgram> batch,
    std::size_t first_sequence, std::size_t max_cycles,
    std::span<RunMetrics> out, runtime::ThreadPool& pool,
    const CancellationToken& cancel, obs::EventSink& sink) {
  obs::ScopedSpan span(sink, obs::Stage::kSimulate);
  const auto queue_wait =
      queue_wait_observer(sink, obs::Stage::kSimulate, first_sequence);
  pool.for_each_index(
      batch.size(),
      [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = validate::run_validation(batch[i], {}, max_cycles);
        out[i] = RunMetrics{first_sequence + i, r.impl_cycles,
                            r.checkpoints_compared, r.passed,
                            r.cycle_budget_exhausted};
        sink.latency(obs::Stage::kSimulate, "clean_run", first_sequence + i,
                     seconds_since(t0));
      },
      cancel.raw(), &queue_wait);
}

std::vector<BugExposure> CompareStage::run(
    std::span<const dlx::PipelineBug> bugs,
    std::span<const validate::ConcretizedProgram> programs,
    std::size_t max_cycles, runtime::ThreadPool& pool,
    const CancellationToken& cancel, obs::EventSink& sink) {
  std::vector<BugExposure> exposures(bugs.size());
  obs::ScopedSpan span(sink, obs::Stage::kCompare);
  const auto queue_wait = queue_wait_observer(sink, obs::Stage::kCompare, 0);
  // Independent across bugs; within a bug the programs run in order with
  // early exit at the first exposing one, exactly like the serial engine.
  // Budget-exhausted runs never count as exposure. Each program's reference
  // runs to its end once, in whichever bug reaches the program first; the
  // other bugs step it only as far as their verdicts need.
  std::vector<std::optional<validate::ReferenceRun>> references(
      programs.size());
  const auto once = std::make_unique<std::once_flag[]>(programs.size());
  pool.for_each_index(
      bugs.size(),
      [&](std::size_t b) {
        const auto t0 = std::chrono::steady_clock::now();
        BugExposure exposure;
        exposure.bug = bugs[b];
        const dlx::PipelineConfig config{{bugs[b]}};
        for (std::size_t i = 0; i < programs.size(); ++i) {
          const auto compare = [&] {
            return validate::run_validation(programs[i], config, max_cycles,
                                            references[i]);
          };
          std::optional<validate::ValidationResult> r;
          std::call_once(once[i], [&] { r = compare(); });
          if (!r.has_value()) r = compare();
          ++exposure.programs_run;
          exposure.impl_cycles += r->impl_cycles;
          if (r->cycle_budget_exhausted) exposure.budget_exhausted = true;
          if (r->error_detected()) {
            exposure.exposed = true;
            exposure.exposing_sequence = i;
            break;
          }
        }
        sink.item(obs::Stage::kCompare, "bug", b, exposure.programs_run);
        sink.latency(obs::Stage::kCompare, "bug", b, seconds_since(t0));
        exposures[b] = exposure;
      },
      cancel.raw(), &queue_wait);
  return exposures;
}

MutantCoverageResult MutantReplayStage::run(
    const fsm::MealyMachine& machine, fsm::StateId start,
    const MutantCoverageOptions& options) {
  obs::SpanRecorder recorder;
  obs::MultiSink sink;
  sink.add(&recorder);
  sink.add(options.sink);

  MutantCoverageResult result;
  tour::TourSet set;
  {
    obs::ScopedSpan span(sink, obs::Stage::kTour);
    set = generate_test_set(machine, start, options.method,
                            options.random_length, options.seed,
                            options.generator);
    if (options.k_extension > 0) {
      for (auto& seq : set.sequences) {
        extend_sequence(machine, start, seq, options.k_extension);
      }
    }
  }
  sink.status(obs::Stage::kTour, obs::StageStatus::kOk);
  result.sequences = set.sequences.size();
  result.test_length = set.total_length();
  sink.counter(obs::Stage::kTour, "sequences", result.sequences);
  sink.counter(obs::Stage::kTour, "steps", result.test_length);

  std::size_t sampled = 0;
  {
    obs::ScopedSpan span(sink, obs::Stage::kMutantReplay);
    // Mutant sampling draws from its own stream: deriving it from the
    // walk's seed (the old `seed ^ 0x9e3779b9` scheme) correlates the
    // sampled error space with the random tests meant to find it.
    const auto mutants = errmodel::sample_mutations(
        machine, start, machine.output_alphabet_size(), options.mutant_sample,
        runtime::derive_stream(options.seed, runtime::Stream::kMutantStream));
    sampled = mutants.size();

    // Replay every mutant against the test set, sharded; per-mutant
    // verdicts land in their own slot and are folded in sample order
    // afterwards. The replay index is shared read-only by every worker.
    std::vector<MutantCoverageResult::MutantExposure> verdicts(mutants.size());
    std::vector<std::uint8_t> equivalent(mutants.size(), 0);
    const errmodel::MutantReplay replay(machine, start, set.sequences);
    const auto queue_wait =
        queue_wait_observer(sink, obs::Stage::kMutantReplay, 0);
    runtime::ThreadPool(options.threads).for_each_index(
        mutants.size(),
        [&](std::size_t m) {
          const auto t0 = std::chrono::steady_clock::now();
          const auto v = replay.first_exposing_sequence(mutants[m]);
          if (v.sequence.has_value()) {
            verdicts[m] = {true, *v.sequence + 1, v.miss};
          } else {
            verdicts[m] = {false, 0, v.miss};
            // An unexposed mutant may simply be no error at all.
            equivalent[m] =
                options.exclude_equivalent && replay.equivalent(mutants[m]);
          }
          sink.latency(obs::Stage::kMutantReplay, "mutant", m,
                       seconds_since(t0));
        },
        options.cancel.raw(), &queue_wait);
    if (!options.cancel.cancelled()) {
      // Fold only complete replays: a cancelled loop leaves unclaimed
      // slots default-initialized, which would read as unexposed mutants.
      for (std::size_t m = 0; m < verdicts.size(); ++m) {
        if (equivalent[m] != 0) {
          ++result.equivalent;
          continue;
        }
        ++result.mutants;
        // Sample order, so both per-mutant lists are deterministic at any
        // thread count — the Theorem-3 exposure distribution.
        const auto& v = verdicts[m];
        result.mutant_exposures.push_back(v);
        if (v.exposed) {
          ++result.exposed;
          result.exposure_latency.push_back(v.sequences);
        }
      }
    }
  }
  const bool cancelled = options.cancel.cancelled();
  sink.status(obs::Stage::kMutantReplay,
              cancelled ? obs::StageStatus::kCancelled
                        : obs::StageStatus::kOk);
  sink.counter(obs::Stage::kMutantReplay, "mutants_sampled", sampled);
  sink.counter(obs::Stage::kMutantReplay, "mutants_exposed", result.exposed);

  result.stage_reports.push_back(
      StageReport{obs::Stage::kTour, recorder.stage_status(obs::Stage::kTour),
                  result.sequences, recorder.seconds(obs::Stage::kTour)});
  result.stage_reports.push_back(StageReport{
      obs::Stage::kMutantReplay,
      recorder.stage_status(obs::Stage::kMutantReplay), sampled,
      recorder.seconds(obs::Stage::kMutantReplay)});
  return result;
}

}  // namespace simcov::pipeline
