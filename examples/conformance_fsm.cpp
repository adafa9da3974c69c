// Protocol conformance testing with transition tours and UIO sequences.
//
// The paper's completeness argument descends from protocol conformance
// testing [Dahbura+90]: a transition tour catches all errors when a
// state-identifying input exists. This example models a small
// connection-management protocol entity (CLOSED/LISTEN/OPEN/CLOSING),
// computes UIO sequences for every state, builds a minimum-cost tour, and
// cross-checks tour completeness against the full single-fault universe.
//
//   $ ./conformance_fsm
#include <cstdio>
#include <vector>

#include "distinguish/distinguish.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "tour/tour.hpp"

using namespace simcov;

namespace {

enum : fsm::StateId { kClosed, kListen, kOpen, kClosing };
enum : fsm::InputId { kPassiveOpen, kSyn, kClose, kTimeout };
enum : fsm::OutputId { kNone, kSynAck, kAck, kFin, kErr };

fsm::MealyMachine protocol_entity() {
  fsm::MealyMachine m(4, 4);
  m.set_state_name(kClosed, "CLOSED");
  m.set_state_name(kListen, "LISTEN");
  m.set_state_name(kOpen, "OPEN");
  m.set_state_name(kClosing, "CLOSING");
  m.set_input_name(kPassiveOpen, "passive_open");
  m.set_input_name(kSyn, "syn");
  m.set_input_name(kClose, "close");
  m.set_input_name(kTimeout, "timeout");

  m.set_transition(kClosed, kPassiveOpen, kListen, kNone);
  m.set_transition(kClosed, kSyn, kClosed, kErr);      // reject
  m.set_transition(kClosed, kClose, kClosed, kNone);
  m.set_transition(kClosed, kTimeout, kClosed, kNone);

  m.set_transition(kListen, kPassiveOpen, kListen, kErr);
  m.set_transition(kListen, kSyn, kOpen, kSynAck);
  m.set_transition(kListen, kClose, kClosed, kNone);
  m.set_transition(kListen, kTimeout, kClosed, kNone);

  m.set_transition(kOpen, kPassiveOpen, kOpen, kErr);
  m.set_transition(kOpen, kSyn, kOpen, kAck);          // retransmission
  m.set_transition(kOpen, kClose, kClosing, kFin);
  m.set_transition(kOpen, kTimeout, kClosing, kFin);

  m.set_transition(kClosing, kPassiveOpen, kClosing, kErr);
  m.set_transition(kClosing, kSyn, kClosing, kErr);
  m.set_transition(kClosing, kClose, kClosing, kNone);
  m.set_transition(kClosing, kTimeout, kClosed, kAck);
  return m;
}

}  // namespace

int main() {
  const fsm::MealyMachine m = protocol_entity();

  // UIO sequences: the classical state-identification machinery.
  std::puts("UIO sequences (unique input/output per state):");
  for (fsm::StateId s = 0; s < m.num_states(); ++s) {
    const auto uio = distinguish::find_uio(m, s, kClosed, 6);
    std::printf("  %-8s: ", m.state_name(s).c_str());
    if (!uio.has_value()) {
      std::puts("none up to length 6");
      continue;
    }
    for (const fsm::InputId i : *uio) {
      std::printf("%s ", m.input_name(i).c_str());
    }
    std::printf("\n");
  }

  // ∀k-distinguishability (Definition 5) — stricter than UIO existence.
  const auto k = distinguish::min_forall_k(m, kClosed, 8);
  if (k.has_value()) {
    std::printf("\nall state pairs ∀%u-distinguishable\n", *k);
  } else {
    std::puts("\nsome pair not ∀k-distinguishable for k <= 8 — tours alone "
              "cannot promise completeness (Theorem 1 hypothesis fails)");
  }

  // Minimum-cost transition tour (Chinese Postman reduction).
  const auto tour = tour::minimum_transition_tour(m, kClosed);
  if (!tour.has_value()) {
    std::puts("machine not strongly connected");
    return 1;
  }
  std::printf("\nminimum transition tour: %zu steps for %zu transitions\n",
              tour->length(), m.reachable_transitions(kClosed).size());

  // Fault coverage of the tour over the complete single-fault universe.
  const auto outputs =
      errmodel::enumerate_output_errors(m, kClosed, m.output_alphabet_size());
  const auto transfers = errmodel::enumerate_transfer_errors(m, kClosed);
  auto test = tour->inputs;
  for (unsigned j = 0; j < (k.has_value() ? *k : 2); ++j) {
    test.push_back(kSyn);  // exposure window
  }
  const std::vector<std::vector<fsm::InputId>> test_set{test};
  const errmodel::MutantReplay replay(m, kClosed, test_set);
  const auto exposed = [&](const std::vector<errmodel::Mutation>& mutants) {
    std::size_t n = 0;
    for (const auto& mut : mutants) {
      n += replay.first_exposing_sequence(mut).sequence.has_value() ? 1 : 0;
    }
    return n;
  };
  std::printf("output faults exposed:   %zu/%zu\n", exposed(outputs),
              outputs.size());
  std::printf("transfer faults exposed: %zu/%zu\n", exposed(transfers),
              transfers.size());

  // Shortest distinguishing experiment for the two "quiet" states.
  const auto seq = distinguish::distinguishing_sequence(m, kClosed, kClosing);
  if (seq.has_value()) {
    std::printf("\nCLOSED vs CLOSING separated by:");
    for (const fsm::InputId i : *seq) {
      std::printf(" %s", m.input_name(i).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
