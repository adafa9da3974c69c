// Explicit-state Mealy machines.
//
// The paper models both the implementation and the test model as Mealy
// machines (Section 4.1): transitions carry outputs, errors are classified
// as output errors (wrong output on a transition) or transfer errors (wrong
// destination state). This module provides the explicit representation used
// by the tour generators, the error model, and the distinguishability
// analyses; the symbolic (BDD) representation lives in src/sym.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace simcov::fsm {

using StateId = std::uint32_t;
using InputId = std::uint32_t;
using OutputId = std::uint32_t;

struct Transition {
  StateId next = 0;
  OutputId output = 0;

  friend bool operator==(const Transition&, const Transition&) = default;
};

/// Identifies a transition by its source state and input symbol. For a
/// deterministic machine this pins down exactly one edge of the state graph.
struct TransitionRef {
  StateId state = 0;
  InputId input = 0;

  friend bool operator==(const TransitionRef&, const TransitionRef&) = default;
  friend auto operator<=>(const TransitionRef&, const TransitionRef&) = default;
};

/// A deterministic, possibly partial, Mealy machine.
///
/// States and inputs are dense ids. Undefined (state, input) pairs model
/// invalid input combinations (the paper's "input don't-cares", Section 7.2:
/// only 8228 of 2^25 combinations are valid).
class MealyMachine {
 public:
  MealyMachine() = default;
  MealyMachine(StateId num_states, InputId num_inputs);

  [[nodiscard]] StateId num_states() const { return num_states_; }
  [[nodiscard]] InputId num_inputs() const { return num_inputs_; }

  void set_initial_state(StateId s);
  [[nodiscard]] StateId initial_state() const { return initial_; }

  /// Defines (or redefines) the transition out of `s` on `i`.
  void set_transition(StateId s, InputId i, StateId next, OutputId output);
  /// Removes the transition, making (s, i) undefined.
  void clear_transition(StateId s, InputId i);
  [[nodiscard]] std::optional<Transition> transition(StateId s,
                                                     InputId i) const;

  /// True when every (state, input) pair is defined.
  [[nodiscard]] bool is_complete() const;
  [[nodiscard]] std::size_t num_defined_transitions() const {
    return defined_count_;
  }

  /// Largest output value used, plus one (0 if no transitions defined).
  [[nodiscard]] OutputId output_alphabet_size() const;

  // ---- Simulation ---------------------------------------------------------
  /// Runs the machine from `from`, returning the output sequence.
  /// Throws std::domain_error on an undefined transition.
  [[nodiscard]] std::vector<OutputId> run(std::span<const InputId> inputs,
                                          StateId from) const;
  /// Runs from the initial state.
  [[nodiscard]] std::vector<OutputId> run(std::span<const InputId> inputs) const {
    return run(inputs, initial_);
  }
  /// Final state after consuming `inputs` from `from`.
  [[nodiscard]] StateId run_to_state(std::span<const InputId> inputs,
                                     StateId from) const;

  // ---- Structure ----------------------------------------------------------
  /// States reachable from `from` through defined transitions.
  [[nodiscard]] std::vector<bool> reachable_states(StateId from) const;
  [[nodiscard]] std::size_t num_reachable_states(StateId from) const;
  /// All defined transitions with a reachable source state, in
  /// (state, input) order. These are the transitions a tour must cover.
  [[nodiscard]] std::vector<TransitionRef> reachable_transitions(
      StateId from) const;

  // ---- Naming (optional, for reports) --------------------------------------
  void set_state_name(StateId s, std::string name);
  void set_input_name(InputId i, std::string name);
  [[nodiscard]] std::string state_name(StateId s) const;
  [[nodiscard]] std::string input_name(InputId i) const;

 private:
  [[nodiscard]] std::size_t idx(StateId s, InputId i) const {
    return static_cast<std::size_t>(s) * num_inputs_ + i;
  }
  void check_ids(StateId s, InputId i) const;

  StateId num_states_ = 0;
  InputId num_inputs_ = 0;
  StateId initial_ = 0;
  std::vector<std::optional<Transition>> table_;
  std::size_t defined_count_ = 0;
  std::vector<std::string> state_names_;
  std::vector<std::string> input_names_;
};

/// Result of an equivalence check between two machines.
struct EquivalenceResult {
  bool equivalent = false;
  /// When not equivalent: a shortest input sequence whose output sequences
  /// differ (or that is defined in one machine and not the other).
  std::vector<InputId> counterexample;
};

/// Output-language equivalence of (a from sa) and (b from sb): every input
/// sequence defined in both produces identical outputs, and definedness
/// agrees. BFS over the product machine; counterexamples are shortest.
EquivalenceResult check_equivalence(const MealyMachine& a, StateId sa,
                                    const MealyMachine& b, StateId sb);

/// Convenience: equivalence from the two initial states.
EquivalenceResult check_equivalence(const MealyMachine& a,
                                    const MealyMachine& b);

/// A random complete machine whose states are all reachable from state 0
/// (a spanning in-tree of transitions is planted first). Deterministic in
/// `seed`.
MealyMachine random_connected_machine(StateId num_states, InputId num_inputs,
                                      OutputId num_outputs,
                                      std::uint64_t seed);

}  // namespace simcov::fsm
