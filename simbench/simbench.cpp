// simbench: the simcov benchmark driver.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--perturb]
//
// One process runs one workload. It sets the workload's inputs up several
// times (setup_s is their median), then repeats the workload's operation
// until --seconds have passed, checking every operation's output against
// pinned values. Everything is timed from outside, around public library
// calls, with one worker thread.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: traced operations alternate with untraced ones (their median
// difference is trace.overhead_s), and each traced operation also runs the
// workload's layers as direct public calls on the same inputs, one span
// around each. A layer the workload never calls reads 0.
//
// --perturb corrupts each operation's output before its check, so every
// operation must fail; selftest.py uses it to show the checks bite.
//
// The human-readable lines before the last one tag each metric with its
// layer. The last line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":
//    {"value":..,"unit":".."}}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/campaign.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "obs/event_sink.hpp"
#include "pipeline/stages.hpp"
#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "sym/symbolic_tour.hpp"
#include "testmodel/testmodel.hpp"
#include "tour/tour.hpp"
#include "validate/concretize.hpp"
#include "validate/harness.hpp"

namespace {

using namespace simcov;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Max resident set of this process so far (getrusage), in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool perturb = false;
};

// ---- Metrics ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* layer;
};

// Must match BENCHMARK.json (selftest.py compares them).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "end_to_end"},
    {"setup_s", "s", "end_to_end"},
    {"peak_rss_mb", "MB", "end_to_end"},
    {"steps_per_s", "1/s", "end_to_end"},
};

constexpr MetricDef kPerLayer[] = {
    {"testmodel.build_s", "s", "testmodel"},
    {"sym.extract_s", "s", "sym"},
    {"sym.extract_states", "count", "sym"},
    {"tour.generate_s", "s", "tour"},
    {"tour.steps", "count", "tour"},
    {"tour.sequences", "count", "tour"},
    {"model.coverage_s", "s", "model"},
    {"validate.concretize_s", "s", "validate"},
    {"validate.steps_emitted", "count", "validate"},
    {"validate.steps_dropped", "count", "validate"},
    {"dlx.clean_sim_s", "s", "dlx"},
    {"dlx.clean_cycles", "count", "dlx"},
    {"dlx.cycles_per_s", "1/s", "dlx"},
    {"dlx.bug_sim_s", "s", "dlx"},
    {"dlx.bug_runs", "count", "dlx"},
    {"pipeline.wall_s", "s", "pipeline"},
    {"pipeline.stage_s.model_build", "s", "pipeline"},
    {"pipeline.stage_s.symbolic", "s", "pipeline"},
    {"pipeline.stage_s.tour", "s", "pipeline"},
    {"pipeline.stage_s.concretize", "s", "pipeline"},
    {"pipeline.stage_s.simulate", "s", "pipeline"},
    {"pipeline.stage_s.compare", "s", "pipeline"},
    {"pipeline.stage_s.mutant_replay", "s", "pipeline"},
    {"pipeline.unaccounted_s", "s", "pipeline"},
    {"errmodel.sample_s", "s", "errmodel"},
    {"errmodel.sample_rss_mb", "MB", "errmodel"},
    {"errmodel.universe", "count", "errmodel"},
    {"errmodel.sampled", "count", "errmodel"},
    {"errmodel.real", "count", "errmodel"},
    {"errmodel.exposed", "count", "errmodel"},
    {"errmodel.exposed_ratio", "ratio", "errmodel"},
    {"errmodel.replay_s", "s", "errmodel"},
    {"fsm.equivalence_s", "s", "fsm"},
    {"fsm.equivalence_checks", "count", "fsm"},
    {"fsm.equivalent", "count", "fsm"},
    {"sym.walk_s", "s", "sym"},
    {"sym.steps", "count", "sym"},
    {"sym.sequences", "count", "sym"},
    {"sym.us_per_step", "us", "sym"},
    {"bdd.tr_build_s", "s", "bdd"},
    {"bdd.tr_nodes", "count", "bdd"},
    {"bdd.reach_s", "s", "bdd"},
    {"bdd.reach_iterations", "count", "bdd"},
    {"bdd.peak_live_nodes", "count", "bdd"},
    {"bdd.gc_runs", "count", "bdd"},
    {"bdd.cache_lookups", "count", "bdd"},
    {"bdd.cache_hit_ratio", "ratio", "bdd"},
    {"bdd.unique_lookups", "count", "bdd"},
    {"bdd.unique_hit_ratio", "ratio", "bdd"},
    {"trace.overhead_s", "s", "trace"},
};

/// Samples per metric name; each metric reports the median of its samples.
class Samples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// The run's result: the printed metric set (every metric of the mode,
/// 0 until set) and the operation counts behind `correct`.
class Report {
 public:
  explicit Report(bool trace) {
    if (trace) {
      defs_.assign(std::begin(kPerLayer), std::end(kPerLayer));
    } else {
      defs_.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    }
    values_.assign(defs_.size(), 0.0);
  }

  void set(std::string_view name, double value) {
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (name == defs_[i].name) {
        values_[i] = value;
        return;
      }
    }
    throw std::logic_error("simbench: unknown metric " + std::string(name));
  }
  void set_medians(const Samples& samples) {
    for (const auto& [name, values] : samples.all()) set(name, median(values));
  }
  /// Counts one checked operation.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void print(const Args& args) const {
    std::printf("simbench workload=%s seed=%llu trace=%d attempted=%zu "
                "failed=%zu error_rate=%.4f\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                attempted_, failed_,
                attempted_ == 0 ? 1.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_));
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      std::printf("  %-10s %-32s %18.9g %s\n", defs_[i].layer, defs_[i].name,
                  values_[i], defs_[i].unit);
    }
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true"
                                                                 : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      json << (i == 0 ? "" : ", ") << '"' << defs_[i].name
           << "\": {\"value\": " << values_[i] << ", \"unit\": \""
           << defs_[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
  }

 private:
  std::vector<MetricDef> defs_;
  std::vector<double> values_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Collects the mismatches of one operation's output check; reports them on
/// stderr.
class Check {
 public:
  explicit Check(const char* what) : what_(what) {}

  template <class T, class U>
  void eq(const char* field, const T& got, const U& want) {
    if (got == want) return;
    std::ostringstream msg;
    msg.precision(17);
    msg << field << " = " << got << ", want " << want;
    fail(msg.str());
  }
  void that(const char* field, bool holds) {
    if (!holds) fail(std::string(field) + " does not hold");
  }
  void fail(const std::string& message) {
    ok_ = false;
    std::fprintf(stderr, "simbench: %s check failed: %s\n", what_,
                 message.c_str());
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const char* what_;
  bool ok_ = true;
};

/// Runs `op` (returning whether its output check passed) at least once and
/// until `seconds` have passed; counts each in `report`, returns the wall
/// seconds of each. An operation that throws counts as failed. Before every
/// operation but the first, `between` runs untimed: the workloads repeat a
/// set-up there, so that setup_s samples the whole run, as wall_s does.
template <class Op, class Between>
std::vector<double> measure(double seconds, Report& report, Op&& op,
                            Between&& between) {
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    if (!walls.empty()) between();
    bool ok = false;
    const auto t0 = Clock::now();
    try {
      ok = op();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "simbench: operation threw: %s\n", e.what());
    }
    walls.push_back(seconds_since(t0));
    report.op(ok);
  } while (seconds_since(start) < seconds);
  return walls;
}

/// Runs `op` once, as measure() does, and returns its wall seconds.
template <class Op>
double measure_once(Report& report, Op&& op) {
  return measure(0.0, report, op, [] {}).front();
}

/// Set-ups before the first operation; one more runs before each later one.
constexpr int kSetups = 5;

/// Reports the end-to-end metrics of a --trace 0 run: the operations' wall
/// times, the set-up times, and the workload's `steps` per operation.
void report_end_to_end(const std::vector<double>& walls,
                       const std::vector<double>& setups, double steps,
                       Report& report) {
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  const double wall = median(walls);
  std::printf("wall_s over %zu operations: min %.6f median %.6f max %.6f\n",
              sorted.size(), sorted.front(), wall, sorted.back());
  report.set("wall_s", wall);
  report.set("setup_s", median(setups));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("steps_per_s", steps / wall);
}

// ---- Shared inputs ---------------------------------------------------------

/// The Figure-3(b) ladder flags of the reduced control model that the
/// explicit experiments (bench_parallel_campaign) run on.
testmodel::TestModelOptions ladder_options(unsigned reg_addr_bits,
                                           bool reduced_isa) {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = reg_addr_bits;
  opt.reduced_isa = reduced_isa;
  return opt;
}

constexpr std::size_t kMaxExplicitStates = 100000;

const std::vector<dlx::PipelineBug>& injected_bugs() {
  static const std::vector<dlx::PipelineBug> bugs = {
      dlx::PipelineBug::kNoForwardExMemA,
      dlx::PipelineBug::kNoForwardExMemB,
      dlx::PipelineBug::kNoForwardMemWbA,
      dlx::PipelineBug::kNoForwardMemWbB,
      dlx::PipelineBug::kNoIdBypass,
      dlx::PipelineBug::kNoLoadUseStall,
      dlx::PipelineBug::kInterlockChecksRs1Only,
      dlx::PipelineBug::kNoSquashOnTakenBranch,
      dlx::PipelineBug::kSquashOnlyFetch,
      dlx::PipelineBug::kBranchTargetOffByFour,
      dlx::PipelineBug::kWritebackSelectsAluForLoad,
      dlx::PipelineBug::kStoreDataStale,
      dlx::PipelineBug::kBranchUsesStaleCondition,
      dlx::PipelineBug::kForwardPriorityWrong,
      dlx::PipelineBug::kInterlockMissesDoubleHazard,
      dlx::PipelineBug::kForwardFromR0,
  };
  return bugs;
}

/// Per-stage spans of one traced pipeline run, and the run's wall time.
struct StageSplit {
  double wall = 0.0;
  std::array<double, obs::kStageCount> stage{};
};

/// Reports the traced run of median wall time: its stage spans, and the
/// rest of its wall time as pipeline.unaccounted_s.
void report_stage_split(std::vector<StageSplit> runs, Report& report) {
  std::sort(runs.begin(), runs.end(),
            [](const StageSplit& a, const StageSplit& b) {
              return a.wall < b.wall;
            });
  const StageSplit& mid = runs[(runs.size() - 1) / 2];
  double spans = 0.0;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    report.set(std::string("pipeline.stage_s.") +
                   obs::stage_name(static_cast<obs::Stage>(s)),
               mid.stage[s]);
    spans += mid.stage[s];
  }
  report.set("pipeline.wall_s", mid.wall);
  report.set("pipeline.unaccounted_s", mid.wall - spans);
}

/// Times `op`, handing it an obs::SpanRecorder to attach as its sink.
template <class Op>
StageSplit traced_split(Op&& op) {
  obs::SpanRecorder spans;
  StageSplit split;
  split.wall = timed([&] { op(&spans); });
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    split.stage[s] = spans.seconds(static_cast<obs::Stage>(s));
  }
  return split;
}

// ---- dlx_campaign ----------------------------------------------------------
// The Figure-1 bug-exposure campaign (core::run_campaign) on the reduced
// control model, transition-tour method, explicit backend, 16 injected bugs.

constexpr std::size_t kDlxPrograms = 19;
constexpr std::size_t kDlxTestLength = 40678;
constexpr std::uint64_t kDlxImplCycles = 68948;

bool check_campaign(core::CampaignResult r, bool perturb) {
  if (perturb) ++r.sequences;
  Check c("dlx_campaign");
  c.eq("programs", r.sequences, kDlxPrograms);
  c.eq("test_length", r.test_length, kDlxTestLength);
  c.eq("impl_cycles", r.total_impl_cycles(), kDlxImplCycles);
  c.eq("bugs", r.exposures.size(), injected_bugs().size());
  c.eq("bugs_exposed", r.bugs_exposed(), injected_bugs().size());
  c.that("clean_pass", r.clean_pass);
  c.eq("transition_coverage", r.transition_coverage, 1.0);
  return c.ok();
}

/// The campaign's layers as direct public calls on the same netlist; checks
/// that they reproduce the campaign's own result `ref`.
bool dlx_layers(const testmodel::BuiltTestModel& built,
                const core::CampaignResult& ref, std::size_t max_cycles,
                Samples& s) {
  std::unique_ptr<model::ExplicitModel> em;
  s.add("sym.extract_s", timed([&] {
          em = std::make_unique<model::ExplicitModel>(
              sym::extract_explicit(built.circuit, kMaxExplicitStates));
        }));
  s.add("sym.extract_states", em->machine().num_states());

  model::TourResult tour;
  s.add("tour.generate_s", timed([&] { tour = em->transition_tour(); }));
  const auto& sequences = tour.tour.sequences;
  s.add("tour.steps", static_cast<double>(tour.tour.total_steps()));
  s.add("tour.sequences", static_cast<double>(sequences.size()));

  model::CoverageStats coverage;
  s.add("model.coverage_s",
        timed([&] { coverage = em->evaluate(tour.tour); }));

  std::vector<validate::ConcretizedProgram> programs;
  s.add("validate.concretize_s", timed([&] {
          for (const auto& seq : sequences) {
            programs.push_back(validate::concretize_sequence(built, seq));
          }
        }));
  std::size_t emitted = 0;
  std::size_t dropped = 0;
  for (const auto& p : programs) {
    emitted += p.steps_emitted;
    dropped += p.steps_dropped;
  }
  s.add("validate.steps_emitted", static_cast<double>(emitted));
  s.add("validate.steps_dropped", static_cast<double>(dropped));

  std::uint64_t clean_cycles = 0;
  bool clean_pass = true;
  const double clean_s = timed([&] {
    for (const auto& p : programs) {
      const auto r = validate::run_validation(p, {}, max_cycles);
      clean_cycles += r.impl_cycles;
      clean_pass = clean_pass && r.passed;
    }
  });
  s.add("dlx.clean_sim_s", clean_s);
  s.add("dlx.clean_cycles", static_cast<double>(clean_cycles));
  s.add("dlx.cycles_per_s", static_cast<double>(clean_cycles) / clean_s);

  std::size_t bug_runs = 0;
  std::size_t exposed = 0;
  s.add("dlx.bug_sim_s", timed([&] {
          for (const auto bug : injected_bugs()) {
            const dlx::PipelineConfig config{{bug}};
            for (const auto& p : programs) {
              ++bug_runs;
              if (validate::run_validation(p, config, max_cycles)
                      .error_detected()) {
                ++exposed;
                break;
              }
            }
          }
        }));
  s.add("dlx.bug_runs", static_cast<double>(bug_runs));

  std::uint64_t ref_clean_cycles = 0;
  for (const auto& r : ref.clean_runs) ref_clean_cycles += r.impl_cycles;
  Check c("dlx_campaign layers");
  c.eq("sequences", sequences.size(), ref.sequences);
  c.eq("steps", tour.tour.total_steps(), ref.test_length);
  c.eq("transition_coverage", coverage.transition_coverage(),
       ref.transition_coverage);
  c.eq("clean_cycles", clean_cycles, ref_clean_cycles);
  c.that("clean_pass", clean_pass);
  c.eq("bugs_exposed", exposed, ref.bugs_exposed());
  return c.ok();
}

void run_dlx_campaign(const Args& args, Report& report) {
  Samples s;
  std::unique_ptr<testmodel::BuiltTestModel> built;
  const auto setup = [&] {
    s.add("setup", timed([&] {
            built = std::make_unique<testmodel::BuiltTestModel>(
                testmodel::build_dlx_control_model(ladder_options(1, true)));
          }));
  };
  for (int i = 0; i < kSetups; ++i) setup();
  core::CampaignOptions opt;
  opt.model_options = ladder_options(1, true);
  opt.backend = core::BackendChoice::kExplicit;
  opt.threads = 1;
  opt.seed = args.seed;
  const auto campaign = [&](obs::EventSink* sink) {
    core::CampaignOptions o = opt;
    o.sink = sink;
    return core::run_campaign(o, injected_bugs());
  };

  if (!args.trace) {
    const auto walls = measure(
        args.seconds, report,
        [&] { return check_campaign(campaign(nullptr), args.perturb); },
        setup);
    report_end_to_end(walls, s.all().at("setup"), kDlxTestLength, report);
    return;
  }

  Samples layers;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<StageSplit> splits;
  const auto start = Clock::now();
  do {
    if (!splits.empty()) setup();
    untraced.push_back(measure_once(report, [&] {
      return check_campaign(campaign(nullptr), args.perturb);
    }));
    core::CampaignResult result;
    splits.push_back(traced_split(
        [&](obs::EventSink* sink) { result = campaign(sink); }));
    traced.push_back(splits.back().wall);
    report.op(check_campaign(result, args.perturb) &&
              dlx_layers(*built, result, opt.max_cycles, layers));
  } while (seconds_since(start) < args.seconds);
  layers.add("testmodel.build_s", median(s.all().at("setup")));
  report.set_medians(layers);
  report_stage_split(splits, report);
  report.set("trace.overhead_s", median(traced) - median(untraced));
}

// ---- thm3_mutants ----------------------------------------------------------
// The Theorem-3 model-level experiment (core::evaluate_mutant_coverage) on
// the dlx_campaign machine: transition-tour set, 400 sampled mutants,
// k_extension 5, equivalent mutants excluded.

constexpr std::size_t kMutantSample = 400;
constexpr unsigned kKExtension = 5;
constexpr std::size_t kThm3TestLength = 40773;
constexpr double kMinTourExposure = 0.9;

bool check_mutants(core::MutantCoverageResult r, bool perturb) {
  if (perturb) ++r.equivalent;
  Check c("thm3_mutants");
  c.eq("real+equivalent", r.mutants + r.equivalent, kMutantSample);
  c.eq("latencies", r.exposure_latency.size(), r.exposed);
  c.that("exposure_rate >= 0.9",
         r.exposure_rate().value_or(0.0) >= kMinTourExposure);
  c.eq("test_length", r.test_length, kThm3TestLength);
  return c.ok();
}

/// What the layer pass of thm3_mutants must agree on with the experiment.
struct MutantCounts {
  std::size_t steps = 0;
  std::size_t exposed = 0;
  std::size_t equivalent = 0;
};

/// The experiment's layers as direct public calls on the same machine and
/// seed. `first` marks the process's first sampler call, the one whose
/// max-RSS growth errmodel.sample_rss_mb reports.
MutantCounts mutant_layers(const model::ExplicitModel& em, std::uint64_t seed,
                           bool first, Samples& s) {
  const fsm::MealyMachine& m = em.machine();
  const fsm::StateId start = em.start();

  tour::TourSet set;
  s.add("tour.generate_s", timed([&] {
          set = tour::greedy_transition_tour_set(m, start).value();
          for (auto& seq : set.sequences) {
            pipeline::extend_sequence(m, start, seq, kKExtension);
          }
        }));
  s.add("tour.steps", static_cast<double>(set.total_length()));
  s.add("tour.sequences", static_cast<double>(set.sequences.size()));

  const double transitions =
      static_cast<double>(m.reachable_transitions(start).size());
  s.add("errmodel.universe",
        transitions * (m.output_alphabet_size() - 1.0) +
            transitions *
                (static_cast<double>(m.num_reachable_states(start)) - 1.0));

  std::vector<errmodel::Mutation> mutants;
  const double rss_before = peak_rss_mb();
  s.add("errmodel.sample_s", timed([&] {
          mutants = errmodel::sample_mutations(
              m, start, m.output_alphabet_size(), kMutantSample,
              runtime::derive_stream(seed, runtime::Stream::kMutantStream));
        }));
  if (first) s.add("errmodel.sample_rss_mb", peak_rss_mb() - rss_before);

  std::vector<bool> exposed(mutants.size(), false);
  s.add("errmodel.replay_s", timed([&] {
          for (std::size_t i = 0; i < mutants.size(); ++i) {
            for (const auto& seq : set.sequences) {
              if (errmodel::exposes(m, mutants[i], start, seq)) {
                exposed[i] = true;
                break;
              }
            }
          }
        }));
  std::size_t checks = 0;
  std::size_t equivalent = 0;
  s.add("fsm.equivalence_s", timed([&] {
          for (std::size_t i = 0; i < mutants.size(); ++i) {
            if (exposed[i]) continue;
            ++checks;
            const auto mutant = errmodel::apply_mutation(m, mutants[i]);
            if (fsm::check_equivalence(m, start, mutant, start).equivalent) {
              ++equivalent;
            }
          }
        }));
  const auto n_exposed = static_cast<std::size_t>(
      std::count(exposed.begin(), exposed.end(), true));
  const std::size_t real = mutants.size() - equivalent;
  s.add("fsm.equivalence_checks", static_cast<double>(checks));
  s.add("fsm.equivalent", static_cast<double>(equivalent));
  s.add("errmodel.sampled", static_cast<double>(mutants.size()));
  s.add("errmodel.real", static_cast<double>(real));
  s.add("errmodel.exposed", static_cast<double>(n_exposed));
  s.add("errmodel.exposed_ratio",
        real == 0 ? 0.0 : static_cast<double>(n_exposed) / real);

  return MutantCounts{set.total_length(), n_exposed, equivalent};
}

bool check_layers(const MutantCounts& layers,
                  const core::MutantCoverageResult& ref) {
  Check c("thm3_mutants layers");
  c.eq("steps", layers.steps, ref.test_length);
  c.eq("exposed", layers.exposed, ref.exposed);
  c.eq("equivalent", layers.equivalent, ref.equivalent);
  return c.ok();
}

void run_thm3_mutants(const Args& args, Report& report) {
  Samples s;
  std::unique_ptr<testmodel::BuiltTestModel> built;
  std::unique_ptr<model::ExplicitModel> em;
  const auto setup = [&] {
    double build_s = 0.0;
    double extract_s = 0.0;
    s.add("setup", timed([&] {
            build_s = timed([&] {
              built = std::make_unique<testmodel::BuiltTestModel>(
                  testmodel::build_dlx_control_model(ladder_options(1, true)));
            });
            extract_s = timed([&] {
              em = std::make_unique<model::ExplicitModel>(
                  sym::extract_explicit(built->circuit, kMaxExplicitStates));
            });
          }));
    s.add("testmodel.build_s", build_s);
    s.add("sym.extract_s", extract_s);
  };
  for (int i = 0; i < kSetups; ++i) setup();
  core::MutantCoverageOptions opt;
  opt.method = core::TestMethod::kTransitionTourSet;
  opt.mutant_sample = kMutantSample;
  opt.k_extension = kKExtension;
  opt.exclude_equivalent = true;
  opt.threads = 1;
  opt.seed = args.seed;
  const auto experiment = [&](obs::EventSink* sink) {
    core::MutantCoverageOptions o = opt;
    o.sink = sink;
    return core::evaluate_mutant_coverage(*em, o);
  };

  if (!args.trace) {
    const auto walls = measure(
        args.seconds, report,
        [&] { return check_mutants(experiment(nullptr), args.perturb); },
        setup);
    report_end_to_end(walls, s.all().at("setup"), kThm3TestLength, report);
    return;
  }

  Samples layers;
  layers.add("sym.extract_states", em->machine().num_states());
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<StageSplit> splits;
  const auto start = Clock::now();
  do {
    if (!splits.empty()) setup();
    // The layer pass goes first, so that the process's first sampler call
    // is its own and sees the max RSS from before any sampling.
    const MutantCounts counts =
        mutant_layers(*em, args.seed, splits.empty(), layers);
    core::MutantCoverageResult result;
    splits.push_back(traced_split(
        [&](obs::EventSink* sink) { result = experiment(sink); }));
    traced.push_back(splits.back().wall);
    report.op(check_mutants(result, args.perturb) &&
              check_layers(counts, result));
    untraced.push_back(measure_once(report, [&] {
      return check_mutants(experiment(nullptr), args.perturb);
    }));
  } while (seconds_since(start) < args.seconds);
  for (const char* name : {"testmodel.build_s", "sym.extract_s"}) {
    layers.add(name, median(s.all().at(name)));
  }
  report.set_medians(layers);
  report_stage_split(splits, report);
  report.set("trace.overhead_s", median(traced) - median(untraced));
}

// ---- symbolic_tour ---------------------------------------------------------
// A complete streamed symbolic transition tour (sym::SymbolicTourStream,
// inputs recorded) on the reduced-ISA reg_addr_bits = 2 control model.

constexpr std::size_t kTourSteps = 2557305;
constexpr std::size_t kTourSequences = 101;
constexpr double kTourTransitions = 1298254;
constexpr std::uint64_t kTourHash = 18310855428915025182ull;

/// The workload's inputs: the netlist, its transition relation and its
/// reachable states, in a manager of their own (a walk changes the
/// manager's tables, so every walk gets a fresh one).
struct SymbolicSetup {
  testmodel::BuiltTestModel built;
  std::unique_ptr<bdd::BddManager> mgr;
  std::unique_ptr<sym::SymbolicFsm> fsm;
  double build_s = 0.0;
  double tr_build_s = 0.0;
  double reach_s = 0.0;
};

std::unique_ptr<SymbolicSetup> symbolic_setup(
    const testmodel::TestModelOptions& options) {
  auto out = std::make_unique<SymbolicSetup>();
  out->build_s = timed(
      [&] { out->built = testmodel::build_dlx_control_model(options); });
  out->mgr = std::make_unique<bdd::BddManager>();
  out->tr_build_s = timed([&] {
    out->fsm = std::make_unique<sym::SymbolicFsm>(*out->mgr,
                                                  out->built.circuit);
  });
  out->reach_s = timed([&] { (void)out->fsm->reachable_states(); });
  return out;
}

struct WalkOutcome {
  std::size_t steps = 0;
  std::size_t sequences = 0;
  double covered = 0.0;
  double total = 0.0;
  bool complete = false;
  std::uint64_t hash = 0;
};

/// Drains one tour stream, hashing every yielded input vector in order.
WalkOutcome walk(sym::SymbolicFsm& fsm) {
  sym::SymbolicTourOptions options;
  options.record_inputs = true;
  sym::SymbolicTourStream stream(fsm, options);
  WalkOutcome out;
  std::uint64_t h = 0;
  while (auto seq = stream.next_sequence()) {
    ++out.sequences;
    h = runtime::splitmix64(h ^ seq->size());
    for (const auto& step : *seq) {
      h = runtime::splitmix64(h ^ model::TestModel::pack_bits(step));
    }
  }
  const auto summary = stream.summary();
  out.steps = summary.steps;
  out.covered = summary.transitions_covered;
  out.total = summary.transitions_total;
  out.complete = summary.complete;
  out.hash = h;
  return out;
}

bool check_walk(WalkOutcome w, bool perturb) {
  if (perturb) ++w.hash;
  Check c("symbolic_tour");
  c.eq("steps", w.steps, kTourSteps);
  c.eq("sequences", w.sequences, kTourSequences);
  c.eq("covered", w.covered, kTourTransitions);
  c.eq("transitions", w.total, kTourTransitions);
  c.that("complete", w.complete);
  c.eq("input_hash", w.hash, kTourHash);
  return c.ok();
}

void run_symbolic_tour(const Args& args, Report& report) {
  const auto options = ladder_options(2, true);
  Samples s;
  std::unique_ptr<SymbolicSetup> setup;
  const auto next_setup = [&] {
    s.add("setup", timed([&] { setup = symbolic_setup(options); }));
    s.add("testmodel.build_s", setup->build_s);
    s.add("bdd.tr_build_s", setup->tr_build_s);
    s.add("bdd.reach_s", setup->reach_s);
  };
  for (int i = 0; i < kSetups; ++i) next_setup();
  // Every walk consumes the set-up before it; the next walk sets up anew.
  const auto consume = [&] {
    if (!setup) next_setup();
    return std::move(setup);
  };

  if (!args.trace) {
    const auto walls = measure(
        args.seconds, report,
        [&] {
          auto in = consume();
          return check_walk(walk(*in->fsm), args.perturb);
        },
        next_setup);
    report_end_to_end(walls, s.all().at("setup"), kTourSteps, report);
    return;
  }

  Samples layers;
  std::vector<double> untraced;
  std::vector<double> traced;
  const auto start = Clock::now();
  do {
    untraced.push_back(measure_once(report, [&] {
      auto in = consume();
      return check_walk(walk(*in->fsm), args.perturb);
    }));
    auto in = consume();
    bdd::BddManager& mgr = *in->mgr;
    const bdd::Bdd& tr = in->fsm->transition_relation();
    layers.add("bdd.tr_nodes", static_cast<double>(tr.node_count()));
    layers.add("bdd.reach_iterations", in->fsm->reachability_iterations());
    const bdd::BddStats before = mgr.stats();
    WalkOutcome w;
    const double wall = timed([&] { w = walk(*in->fsm); });
    const bdd::BddStats after = mgr.stats();
    traced.push_back(wall);
    report.op(check_walk(w, args.perturb));
    layers.add("sym.walk_s", wall);
    layers.add("sym.steps", static_cast<double>(w.steps));
    layers.add("sym.sequences", static_cast<double>(w.sequences));
    layers.add("sym.us_per_step", wall * 1e6 / static_cast<double>(w.steps));
    const auto lookups = static_cast<double>(after.cache_lookups -
                                             before.cache_lookups);
    const auto unique = static_cast<double>(after.unique_lookups -
                                            before.unique_lookups);
    layers.add("bdd.cache_lookups", lookups);
    layers.add("bdd.cache_hit_ratio",
               static_cast<double>(after.cache_hits - before.cache_hits) /
                   lookups);
    layers.add("bdd.unique_lookups", unique);
    layers.add("bdd.unique_hit_ratio",
               static_cast<double>(after.unique_hits - before.unique_hits) /
                   unique);
    layers.add("bdd.gc_runs",
               static_cast<double>(after.gc_runs - before.gc_runs));
    layers.add("bdd.peak_live_nodes",
               static_cast<double>(after.peak_live_nodes));
  } while (seconds_since(start) < args.seconds);
  for (const char* name : {"testmodel.build_s", "bdd.tr_build_s",
                           "bdd.reach_s"}) {
    layers.add(name, median(s.all().at(name)));
  }
  report.set_medians(layers);
  report.set("trace.overhead_s", median(traced) - median(untraced));
}

// ---- symbolic_reach --------------------------------------------------------
// Transition-relation build plus the reachable-state fixpoint on the
// reg_addr_bits = 4 control model, static variable order.

constexpr double kReachStates = 13181428;
constexpr double kReachTransitions = 65014026260;

struct ReachOutcome {
  double states = 0.0;
  double transitions = 0.0;
  unsigned iterations = 0;
  double tr_build_s = 0.0;
  double reach_s = 0.0;
};

/// Builds the transition relation and the reachable states in `mgr`, a
/// fresh manager. The traced run passes `tr_nodes` to receive the
/// transition relation's size, which costs a traversal.
ReachOutcome reach(const sym::SequentialCircuit& circuit, bdd::BddManager& mgr,
                   std::size_t* tr_nodes) {
  std::unique_ptr<sym::SymbolicFsm> fsm;
  ReachOutcome out;
  out.tr_build_s = timed(
      [&] { fsm = std::make_unique<sym::SymbolicFsm>(mgr, circuit); });
  out.reach_s = timed([&] {
    const bdd::Bdd& reached = fsm->reachable_states();
    out.states = fsm->count_states(reached);
    out.transitions = fsm->count_transitions(reached);
  });
  out.iterations = fsm->reachability_iterations();
  if (tr_nodes != nullptr) {
    *tr_nodes = fsm->transition_relation().node_count();
  }
  return out;
}

bool check_reach(ReachOutcome r, bool perturb) {
  if (perturb) r.states += 1.0;
  Check c("symbolic_reach");
  c.eq("reachable_states", r.states, kReachStates);
  c.eq("transitions", r.transitions, kReachTransitions);
  return c.ok();
}

void run_symbolic_reach(const Args& args, Report& report) {
  const auto options = ladder_options(4, false);
  Samples s;
  std::unique_ptr<testmodel::BuiltTestModel> built;
  const auto next_setup = [&] {
    s.add("setup", timed([&] {
            built = std::make_unique<testmodel::BuiltTestModel>(
                testmodel::build_dlx_control_model(options));
          }));
  };
  for (int i = 0; i < kSetups; ++i) next_setup();
  ReachOutcome last;
  const auto op = [&] {
    bdd::BddManager mgr;
    last = reach(built->circuit, mgr, nullptr);
    return check_reach(last, args.perturb);
  };

  if (!args.trace) {
    const auto walls = measure(args.seconds, report, op, next_setup);
    report_end_to_end(walls, s.all().at("setup"), last.iterations, report);
    return;
  }

  Samples layers;
  std::vector<double> untraced;
  std::vector<double> traced;
  const auto start = Clock::now();
  do {
    if (!traced.empty()) next_setup();
    untraced.push_back(measure_once(report, op));
    bdd::BddManager mgr;
    std::size_t tr_nodes = 0;
    ReachOutcome r;
    traced.push_back(
        timed([&] { r = reach(built->circuit, mgr, &tr_nodes); }));
    report.op(check_reach(r, args.perturb));
    const bdd::BddStats st = mgr.stats();
    layers.add("bdd.tr_build_s", r.tr_build_s);
    layers.add("bdd.reach_s", r.reach_s);
    layers.add("bdd.tr_nodes", static_cast<double>(tr_nodes));
    layers.add("bdd.reach_iterations", r.iterations);
    layers.add("bdd.peak_live_nodes", static_cast<double>(st.peak_live_nodes));
    layers.add("bdd.gc_runs", static_cast<double>(st.gc_runs));
    layers.add("bdd.cache_lookups", static_cast<double>(st.cache_lookups));
    layers.add("bdd.cache_hit_ratio",
               static_cast<double>(st.cache_hits) /
                   static_cast<double>(st.cache_lookups));
    layers.add("bdd.unique_lookups", static_cast<double>(st.unique_lookups));
    layers.add("bdd.unique_hit_ratio",
               static_cast<double>(st.unique_hits) /
                   static_cast<double>(st.unique_lookups));
  } while (seconds_since(start) < args.seconds);
  layers.add("testmodel.build_s", median(s.all().at("setup")));
  report.set_medians(layers);
  report.set("trace.overhead_s", median(traced) - median(untraced));
}

// ---- Driver ----------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(const Args&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"dlx_campaign", run_dlx_campaign},
    {"thm3_mutants", run_thm3_mutants},
    {"symbolic_tour", run_symbolic_tour},
    {"symbolic_reach", run_symbolic_reach},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--perturb]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--perturb") {
      args.perturb = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("malformed value");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const auto& w : kWorkloads) {
    if (args.workload != w.name) continue;
    Report report(args.trace);
    w.run(args, report);
    report.print(args);
    return 0;
  }
  usage("unknown workload");
}
