// Figure 2 reproduction: the limitation of transition tours.
//
// The paper's fragment: a transfer error redirects the transition (S2, a)
// from S3 to S3'. Inputs b from S3/S3' produce different outputs; inputs c
// produce the same output and converge. A transition tour that covers
// (S2, a) continuing with <c> never exposes the error (it reconverges
// silently and covers (S3, b) via another path), while a tour continuing
// with <b> exposes it immediately. The root cause is the failure of
// ∀1-distinguishability for the pair (S3, S3').
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "distinguish/distinguish.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"

namespace {

using namespace simcov;
using fsm::InputId;
using fsm::MealyMachine;

constexpr fsm::StateId S1 = 0, S2 = 1, S3 = 2, S3p = 3, S4 = 4, S4p = 5,
                       S5 = 6;
constexpr InputId A = 0, B = 1, C = 2;

MealyMachine figure2_machine() {
  MealyMachine m(7, 3);
  m.set_state_name(S1, "S1");
  m.set_state_name(S2, "S2");
  m.set_state_name(S3, "S3");
  m.set_state_name(S3p, "S3'");
  m.set_state_name(S4, "S4");
  m.set_state_name(S4p, "S4'");
  m.set_state_name(S5, "S5");
  m.set_input_name(A, "a");
  m.set_input_name(B, "b");
  m.set_input_name(C, "c");
  m.set_transition(S1, A, S2, 0);
  m.set_transition(S1, C, S3p, 8);
  m.set_transition(S2, A, S3, 0);   // the transition with the transfer error
  m.set_transition(S3, B, S4, 1);   // b outputs DIFFER between S3 and S3'
  m.set_transition(S3p, B, S4p, 2);
  m.set_transition(S3, C, S5, 3);   // c outputs AGREE and converge
  m.set_transition(S3p, C, S5, 3);
  m.set_transition(S5, B, S3, 7);   // alternate path into S3
  m.set_transition(S4, A, S1, 0);
  m.set_transition(S4p, A, S1, 0);
  m.set_transition(S5, A, S1, 0);
  return m;
}

bool covers_all(const MealyMachine& m, const std::vector<InputId>& seq) {
  return model::ExplicitModel(m, S1).to_result({S1, {seq}}).complete;
}

}  // namespace

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  bench::header("Figure 2: limitations of transition tours");
  const MealyMachine spec = figure2_machine();

  // The transfer error of the figure: (S2, a) goes to S3' instead of S3.
  const errmodel::Mutation transfer{errmodel::ErrorKind::kTransfer,
                                    {S2, A}, S3p, 0};
  const MealyMachine faulty = errmodel::apply_mutation(spec, transfer);

  // Two hand-picked transition tours; both cover every transition.
  const std::vector<InputId> tour_exposing{A, A, B, A, C, B, A, A,
                                           A, C, B, C, A, C, C, A};
  const std::vector<InputId> tour_missing{A, A, C, B, B, A, C, B, A, C, C, A};
  bench::row("tour <...a,b...> covers all transitions",
             covers_all(spec, tour_exposing) ? "yes" : "NO");
  bench::row("tour <...a,c...> covers all transitions",
             covers_all(spec, tour_missing) ? "yes" : "NO");

  const bool exposed_ab =
      errmodel::exposes(spec, faulty, S1, tour_exposing);
  const bool exposed_ac = errmodel::exposes(spec, faulty, S1, tour_missing);
  bench::row("transfer error exposed by tour taking <a,b>",
             exposed_ab ? "yes (paper: yes)" : "NO (paper: yes)");
  bench::row("transfer error exposed by tour taking <a,c>",
             exposed_ac ? "YES (paper: no)" : "no (paper: no)");

  // Why: the <a,c> tour's divergence reconverges without an output change
  // (a masked excitation, Definition 4's mechanism).
  const auto masking =
      errmodel::analyze_masking(spec, faulty, S1, tour_missing);
  bench::row("  diverged at step", masking.diverge_step);
  bench::row("  reconverged at step", masking.reconverge_step);
  bench::row("  any output difference", masking.output_differed ? "yes" : "no");
  bench::row("  excitation masked on this run",
             masking.masked() ? "yes" : "no");

  // Root cause: (S3, S3') fails ∀1-distinguishability (sequence <c> cannot
  // tell them apart) although a distinguishing sequence (<b>) exists.
  bench::row("(S3, S3') ∀1-distinguishable",
             distinguish::forall_k_distinguishable(spec, S3, S3p, 1)
                 ? "yes"
                 : "no (this is the failure the paper identifies)");
  const auto dist = distinguish::distinguishing_sequence(spec, S3, S3p);
  bench::row("(S3, S3') ∃-distinguishable",
             dist.has_value() ? "yes, by <" + spec.input_name((*dist)[0]) + ">"
                              : "no");

  // Theorem 1 contrapositive check across every transfer mutant: on this
  // machine some tours expose a given error and some do not.
  const auto mutants = errmodel::enumerate_transfer_errors(spec, S1);
  std::size_t exposed_by_both = 0, exposed_by_one = 0, exposed_by_none = 0;
  for (const auto& mut : mutants) {
    const auto m2 = errmodel::apply_mutation(spec, mut);
    const bool e1 = errmodel::exposes(spec, m2, S1, tour_exposing);
    const bool e2 = errmodel::exposes(spec, m2, S1, tour_missing);
    if (e1 && e2) {
      ++exposed_by_both;
    } else if (e1 || e2) {
      ++exposed_by_one;
    } else {
      ++exposed_by_none;
    }
  }
  bench::header("All transfer mutants of the Figure 2 machine");
  bench::row("total transfer mutants", mutants.size());
  bench::row("exposed by both tours", exposed_by_both);
  bench::row("exposed by only one tour (tour choice matters)",
             exposed_by_one);
  bench::row("exposed by neither tour", exposed_by_none);
  std::printf(
      "\nShape check vs paper: tour choice determines exposure;"
      " a tour covering (S2,a) followed by c misses the transfer error.\n");
  return simcov::bench::finish((exposed_ab && !exposed_ac) ? 0 : 1);
}
