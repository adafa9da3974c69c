// Quickstart: the simcov library in ~80 lines.
//
// Build a small Mealy test model, generate a minimum-cost transition tour
// (Chinese Postman), inject the paper's error classes, and check what the
// tour exposes.
//
//   $ ./quickstart
#include <cstdio>
#include <vector>

#include "distinguish/distinguish.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "tour/tour.hpp"

using namespace simcov;

int main() {
  // A 4-state controller: input 0 advances, input 1 reports status
  // (a unique per-state output) and resets.
  fsm::MealyMachine model(4, 2);
  model.set_input_name(0, "step");
  model.set_input_name(1, "status");
  for (fsm::StateId s = 0; s < 4; ++s) {
    model.set_transition(s, 0, (s + 1) % 4, /*output=*/s);
    model.set_transition(s, 1, 0, /*output=*/10 + s);
  }

  // 1. Generate a minimum-cost transition tour (every transition covered).
  const auto tour = tour::minimum_transition_tour(model, 0);
  if (!tour.has_value()) {
    std::puts("model is not strongly connected; no closed tour");
    return 1;
  }
  std::printf("transition tour of length %zu covering all %zu transitions:\n ",
              tour->length(), model.reachable_transitions(0).size());
  for (const fsm::InputId i : tour->inputs) {
    std::printf(" %s", model.input_name(i).c_str());
  }
  std::printf("\n\n");

  // 2. How distinguishable are the states? (Definition 5 of the paper.)
  const auto k = distinguish::min_forall_k(model, 0, 8);
  if (k.has_value()) {
    std::printf("every pair of states is ∀%u-distinguishable\n", *k);
  } else {
    std::puts("some states are not ∀k-distinguishable for any small k");
  }

  // 3. Inject every single-transition error (output + transfer) and measure
  //    what the tour exposes. Theorem 1 says: with uniform output errors and
  //    ∀k-distinguishability, appending k steps makes the tour complete.
  auto extended = tour->inputs;
  for (unsigned j = 0; j < (k.has_value() ? *k : 1); ++j) {
    extended.push_back(1);  // status reads provide the exposure window
  }
  const auto outputs =
      errmodel::enumerate_output_errors(model, 0, model.output_alphabet_size());
  const auto transfers = errmodel::enumerate_transfer_errors(model, 0);
  const std::vector<std::vector<fsm::InputId>> test_set{extended};
  const errmodel::MutantReplay replay(model, 0, test_set);
  const auto exposed = [&](const std::vector<errmodel::Mutation>& mutants) {
    std::size_t n = 0;
    for (const auto& m : mutants) {
      n += replay.first_exposing_sequence(m).sequence.has_value() ? 1 : 0;
    }
    return n;
  };
  const std::size_t out_exposed = exposed(outputs);
  const std::size_t tr_exposed = exposed(transfers);
  std::printf("output errors exposed:   %zu / %zu\n", out_exposed,
              outputs.size());
  std::printf("transfer errors exposed: %zu / %zu\n", tr_exposed,
              transfers.size());

  const bool complete =
      out_exposed == outputs.size() && tr_exposed == transfers.size();
  std::printf("\nthe extended transition tour is %s test set\n",
              complete ? "a complete" : "NOT a complete");
  return complete ? 0 : 1;
}
