// Section 7.2 reproduction ("Table 1"): statistics of the final test model.
//
// The paper reports, for its final 22-latch model: 25 primary inputs,
// 4 primary outputs, 8228 valid of 2^25 input combinations, 13,720
// reachable states (vs 2^22 possible), 123 million transitions, a (non-
// optimal) tour of 1069 million transitions, and ~10 s to build the implicit
// transition relation on an Ultrasparc-166.
//
// We print the same rows for our final model (symbolic, BDD-based), and a
// real tour-length measurement on a reduced configuration small enough for
// exact explicit tour generation, reporting the tour/transition ratio the
// paper's numbers imply (1069M / 123M ≈ 8.7).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bdd/bdd.hpp"
#include "bench_util.hpp"
#include "model/test_model.hpp"
#include "runtime/rng.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"
#include "sym/symbolic_tour.hpp"
#include "tour/tour.hpp"

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  using namespace simcov;
  bench::header("Section 7.2: final test model statistics (paper vs ours)");

  testmodel::TestModelOptions final_opt;
  final_opt.output_sync_latches = false;
  final_opt.reg_addr_bits = 2;
  final_opt.fetch_controller = false;
  final_opt.aux_outputs = false;
  final_opt.onehot_opclass = false;
  final_opt.interlock_registers = false;
  const auto model = testmodel::build_dlx_control_model(final_opt);

  bdd::BddManager mgr;
  bench::Timer tr_timer;
  sym::SymbolicFsm fsm(mgr, model.circuit);
  const double tr_seconds = tr_timer.seconds();
  bench::Timer reach_timer;
  auto stats = fsm.stats();
  const double reach_seconds = reach_timer.seconds();

  std::printf("  %-44s %14s %14s\n", "quantity", "paper", "ours");
  auto prow = [](const char* what, const std::string& paper,
                 const std::string& ours) {
    std::printf("  %-44s %14s %14s\n", what, paper.c_str(), ours.c_str());
  };
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  prow("latches", "22", num(stats.num_latches));
  prow("primary inputs", "25", num(stats.num_primary_inputs));
  prow("primary outputs", "4", num(stats.num_outputs));
  prow("possible input combinations (2^PI)", num(std::exp2(25.0)),
       num(std::exp2(stats.num_primary_inputs)));
  prow("valid input combinations", "8228",
       num(stats.valid_input_combinations));
  prow("possible states (2^latches)", num(std::exp2(22.0)),
       num(std::exp2(stats.num_latches)));
  prow("reachable states", "13720", num(stats.reachable_states));
  prow("transitions", "1.23e8", num(stats.transitions));
  prow("TR construction time (s)", "~10", num(tr_seconds));
  prow("reachability time (s)", "n/r", num(reach_seconds));
  prow("reachability iterations", "n/r", num(stats.reachability_iterations));
  prow("TR BDD nodes", "n/r", num(stats.transition_relation_nodes));

  // The paper's own tour experiment: a transition tour of the final model
  // generated on the implicit representation (their 123M-transition model
  // yielded a 1069M-step tour, ratio 8.7). Ours covers all 4.4M transitions
  // symbolically. The tour is streamed with its inputs recorded and hashed
  // (splitmix64 over each sequence's length, then each step's input key)
  // so any change to the walk shows as a different hash.
  bench::header("Symbolic transition tour of the final model");
  {
    sym::SymbolicTourOptions topt;
    topt.record_inputs = true;
    topt.max_steps = 50'000'000;
    bench::Timer tour_timer;
    sym::SymbolicTourStream stream(fsm, topt);
    std::uint64_t hash = 0;
    std::size_t sequences = 0;
    while (const auto seq = stream.next_sequence()) {
      ++sequences;
      hash = runtime::splitmix64(hash ^ seq->size());
      for (const std::uint64_t step : *seq) {
        hash = runtime::splitmix64(hash ^ step);
      }
    }
    const double tour_seconds = tour_timer.seconds();
    const auto tour = stream.summary();
    bench::row("tour steps (paper: 1.069e9)", tour.steps);
    bench::row("navigation steps", tour.navigate_steps);
    bench::row("layer recomputes", tour.layer_recomputes);
    bench::row("transitions covered", tour.transitions_covered);
    bench::row("coverage", tour.coverage());
    bench::row("complete", tour.complete ? "yes" : "NO");
    bench::row("reset-separated sequences (restarts + 1)", sequences);
    bench::row("tour input hash", std::to_string(hash));
    bench::row("tour steps / transitions (paper: 8.7)",
               static_cast<double>(tour.steps) / stats.transitions);
    bench::row("generation time (s)", tour_seconds);
  }

  // Exact tour on a reduced configuration (explicitly tractable).
  bench::header("Tour length (reduced configuration, exact)");
  testmodel::TestModelOptions tiny = final_opt;
  tiny.reg_addr_bits = 1;
  tiny.reduced_isa = true;
  const auto tiny_model = testmodel::build_dlx_control_model(tiny);
  const auto em = sym::extract_explicit(tiny_model.circuit, 100000);
  bench::row("reduced-model reachable states",
             static_cast<std::size_t>(em.machine.num_states()));
  bench::row("reduced-model transitions",
             em.machine.num_defined_transitions());
  bench::Timer tour_timer;
  const auto set = tour::greedy_transition_tour_set(em.machine, 0);
  if (set.has_value()) {
    const double ratio = static_cast<double>(set->total_length()) /
                         static_cast<double>(
                             em.machine.num_defined_transitions());
    // Hashed like the symbolic tour above, with the explicit input ids.
    std::uint64_t hash = 0;
    for (const auto& seq : set->sequences) {
      hash = runtime::splitmix64(hash ^ seq.size());
      for (const auto i : seq) hash = runtime::splitmix64(hash ^ i);
    }
    bench::row("transition tour total length", set->total_length());
    bench::row("tour sequences (reset-separated)", set->sequences.size());
    bench::row("transition tour input hash", std::to_string(hash));
    bench::row("tour length / transitions (paper: 1069M/123M = 8.7)", ratio);
    bench::row("tour generation time (s)", tour_timer.seconds());
  } else {
    bench::row("tour generation", "FAILED");
    return simcov::bench::finish(1);
  }

  std::printf(
      "\nShape check vs paper: valid input combinations are a tiny fraction\n"
      "of 2^PI; reachable states are orders of magnitude below 2^latches;\n"
      "the TR builds in seconds; the (non-optimal) tour is a small constant\n"
      "multiple of the transition count.\n");
  return simcov::bench::finish(0);
}
