// Exposure-latency comparison of the sequence-generator strategies
// (transition tour vs coverage-biased random walk vs hybrid) on the
// Theorem 3 mutant-replay apparatus.
//
// The transition tour guarantees exposure (complete under Req. 1-5) but
// spends its first, very long sequence covering everything once; the
// coverage-directed walks restart often and chase rarely-hit transitions,
// so they tend to expose many error classes after far fewer simulated
// steps. This bench quantifies that trade per error class (output vs
// transfer mutants, Defs. 1/3):
//
//   * exposure rate — fraction of sampled mutants each generator exposes;
//   * mean exposure latency in cumulative test-set steps, over the mutants
//     exposed by BOTH the tour and the challenger (same mutant set, so the
//     means are comparable).
//
// Exit code 0 requires at least one (corpus, error-class) cell where a
// biased or hybrid generator has a strictly lower common-mutant mean
// latency than the pure tour — the generator layer's reason to exist.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "pipeline/stages.hpp"
#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"

namespace {

simcov::testmodel::TestModelOptions tour_model_options() {
  simcov::testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

constexpr std::size_t kMutantSample = 300;
constexpr unsigned kExtension = 2;
constexpr std::uint64_t kSeed = 1;

/// Per-(generator, error-class) exposure statistics.
struct ClassStats {
  std::size_t sampled = 0;
  std::size_t exposed = 0;
  /// Cumulative test-set steps through the exposing sequence, per sampled
  /// mutant of this class; nullopt when the mutant was not exposed.
  std::vector<std::optional<std::uint64_t>> latency_steps;
};

struct GeneratorRun {
  std::string name;
  std::size_t sequences = 0;
  std::size_t test_length = 0;
  ClassStats output;
  ClassStats transfer;
};

/// Mean latency over the mutants exposed by BOTH runs, per class.
std::optional<double> common_mean(
    const std::vector<std::optional<std::uint64_t>>& a,
    const std::vector<std::optional<std::uint64_t>>& b,
    bool take_a) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_value() && b[i].has_value()) {
      sum += static_cast<double>(take_a ? *a[i] : *b[i]);
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  using namespace simcov;

  struct Corpus {
    std::string name;
    fsm::MealyMachine machine;
  };
  std::vector<Corpus> corpora;
  {
    const auto built = testmodel::build_dlx_control_model(tour_model_options());
    corpora.push_back(
        {"dlx-control", sym::extract_explicit(built.circuit, 100000).machine});
    corpora.push_back(
        {"random-mealy-64", fsm::random_connected_machine(64, 4, 4, 11)});
  }

  core::GeneratorSpec tour_spec;  // default: the paper's transition tour
  core::GeneratorSpec biased_spec;
  biased_spec.kind = core::GeneratorKind::kBiasedRandom;
  biased_spec.sequence_length = 32;
  biased_spec.max_walk_steps = 6000;
  core::GeneratorSpec hybrid_spec = biased_spec;
  hybrid_spec.kind = core::GeneratorKind::kHybrid;
  hybrid_spec.hybrid_tour_steps = 512;
  const std::vector<core::GeneratorSpec> specs{tour_spec, biased_spec,
                                               hybrid_spec};

  core::JsonWriter attach;
  attach.begin_object();
  attach.begin_array("corpora");

  bool any_win = false;
  for (const auto& corpus : corpora) {
    const fsm::StateId start = 0;
    const model::ExplicitModel model(corpus.machine, start);
    // The exact mutant sample the replay stage draws, in sample order —
    // mutant_exposures[i] is the verdict on mutants[i], which carries the
    // error class.
    const auto mutants = errmodel::sample_mutations(
        corpus.machine, start, corpus.machine.output_alphabet_size(),
        kMutantSample,
        runtime::derive_stream(kSeed, runtime::Stream::kMutantStream));

    bench::header("Corpus: " + corpus.name);
    bench::row("states",
               static_cast<std::size_t>(corpus.machine.num_states()));
    bench::row("transitions", corpus.machine.num_defined_transitions());
    bench::row("sampled mutants", mutants.size());

    std::vector<GeneratorRun> runs;
    for (const auto& spec : specs) {
      core::MutantCoverageOptions mc;
      mc.method = core::TestMethod::kTransitionTourSet;
      mc.generator = spec;
      mc.mutant_sample = kMutantSample;
      mc.k_extension = kExtension;
      mc.exclude_equivalent = false;  // keep 1:1 alignment with the sample
      mc.seed = kSeed;
      mc.sink = bench::sink();
      const auto r = core::evaluate_mutant_coverage(model, mc);

      // The replay's latency is a 1-based sequence index; convert it to
      // cumulative steps by regenerating the (deterministic) test set the
      // stage used, k-extension included.
      auto set = pipeline::generate_test_set(
          corpus.machine, start, core::TestMethod::kTransitionTourSet,
          mc.random_length, kSeed, spec);
      std::vector<std::uint64_t> prefix_steps;  // through sequence i
      std::uint64_t total = 0;
      for (auto& seq : set.sequences) {
        pipeline::extend_sequence(corpus.machine, start, seq, kExtension);
        total += seq.size();
        prefix_steps.push_back(total);
      }
      if (set.sequences.size() != r.sequences ||
          total != r.test_length) {
        std::fprintf(stderr,
                     "regenerated test set disagrees with the replay's "
                     "(%zu/%zu sequences, %llu/%zu steps)\n",
                     set.sequences.size(), r.sequences,
                     static_cast<unsigned long long>(total), r.test_length);
        return bench::finish(1);
      }
      if (r.mutant_exposures.size() != mutants.size()) {
        std::fprintf(stderr,
                     "mutant_exposures (%zu) is not aligned with the "
                     "sample (%zu)\n",
                     r.mutant_exposures.size(), mutants.size());
        return bench::finish(1);
      }

      GeneratorRun run;
      run.name = core::generator_kind_name(spec.kind);
      run.sequences = r.sequences;
      run.test_length = r.test_length;
      for (std::size_t i = 0; i < mutants.size(); ++i) {
        auto& cls = mutants[i].kind == errmodel::ErrorKind::kOutput
                        ? run.output
                        : run.transfer;
        ++cls.sampled;
        const auto& e = r.mutant_exposures[i];
        if (e.exposed) {
          ++cls.exposed;
          cls.latency_steps.emplace_back(prefix_steps[e.sequences - 1]);
        } else {
          cls.latency_steps.emplace_back(std::nullopt);
        }
      }
      runs.push_back(std::move(run));
    }

    const auto& tour = runs.front();
    std::printf("\n  %-16s %9s %9s %16s %16s %18s %18s\n", "generator",
                "seqs", "steps", "output exposed", "transfer exposed",
                "mean steps (out)", "mean steps (xfer)");
    attach.element_object().field("corpus", corpus.name);
    attach.begin_array("generators");
    for (const auto& run : runs) {
      const auto out_mean =
          common_mean(run.output.latency_steps, tour.output.latency_steps,
                      /*take_a=*/true);
      const auto xfer_mean =
          common_mean(run.transfer.latency_steps, tour.transfer.latency_steps,
                      /*take_a=*/true);
      std::printf("  %-16s %9zu %9zu %10zu/%-5zu %10zu/%-5zu %18.1f %18.1f\n",
                  run.name.c_str(), run.sequences, run.test_length,
                  run.output.exposed, run.output.sampled,
                  run.transfer.exposed, run.transfer.sampled,
                  out_mean.value_or(0.0), xfer_mean.value_or(0.0));
      attach.element_object()
          .field("generator", run.name)
          .field("sequences", run.sequences)
          .field("test_length", run.test_length);
      attach.begin_object("output")
          .field("sampled", run.output.sampled)
          .field("exposed", run.output.exposed);
      if (out_mean.has_value()) {
        attach.field("common_mean_latency_steps", *out_mean);
      }
      attach.end_object();
      attach.begin_object("transfer")
          .field("sampled", run.transfer.sampled)
          .field("exposed", run.transfer.exposed);
      if (xfer_mean.has_value()) {
        attach.field("common_mean_latency_steps", *xfer_mean);
      }
      attach.end_object().end_object();
    }
    attach.end_array().end_object();

    // The gate: some error class where a coverage-directed generator
    // exposes the same mutants in fewer cumulative steps than the tour.
    for (std::size_t g = 1; g < runs.size(); ++g) {
      for (const bool output_class : {true, false}) {
        const auto& challenger =
            output_class ? runs[g].output : runs[g].transfer;
        const auto& reference = output_class ? tour.output : tour.transfer;
        const auto challenger_mean = common_mean(
            challenger.latency_steps, reference.latency_steps, true);
        const auto tour_mean = common_mean(
            challenger.latency_steps, reference.latency_steps, false);
        if (challenger_mean.has_value() && tour_mean.has_value() &&
            *challenger_mean < *tour_mean) {
          any_win = true;
          bench::row(runs[g].name + " earlier on " +
                         (output_class ? "output" : "transfer") + " errors",
                     "yes (" + std::to_string(*challenger_mean) + " vs " +
                         std::to_string(*tour_mean) + " steps)");
        }
      }
    }
  }
  attach.end_array().end_object();
  bench::attach_json("generator_compare", attach.str());

  bench::header("Verdict");
  bench::row("some class exposed earlier by biased/hybrid",
             any_win ? "yes" : "NO");
  return simcov::bench::finish(any_win ? 0 : 1);
}
