// The paper's error (fault) model, Section 4.1.
//
//   Definition 1: a transition has an *output error* when some input sequence
//   ending in it yields an output different from the specification.
//   Definition 2: the output error is *uniform* when every input sequence
//   ending in the transition yields a wrong output.
//   Definition 3: a *transfer error* sends a transition to the wrong
//   destination state.
//   Definition 4: a transfer error is *masked* when a later transfer error
//   returns control to the state the correct machine would be in.
//
// This module realizes the model as single-transition mutations of a
// deterministic Mealy machine (the same FSM fault model used in protocol
// conformance testing [Dahbura+90]), plus evaluators that decide whether a
// given test sequence *excites* and *exposes* each mutant. The
// transition-tour completeness experiments (Theorem 3 bench) are built on
// these evaluators.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fsm/mealy.hpp"

namespace simcov::errmodel {

enum class ErrorKind : std::uint8_t {
  kOutput,    ///< wrong output value on a transition (Def. 1)
  kTransfer,  ///< wrong destination state on a transition (Def. 3)
};

/// A single-transition mutation of a Mealy machine.
struct Mutation {
  ErrorKind kind = ErrorKind::kOutput;
  fsm::TransitionRef at;
  /// Replacement destination (kTransfer) — must differ from the original.
  fsm::StateId new_next = 0;
  /// Replacement output (kOutput) — must differ from the original.
  fsm::OutputId new_output = 0;

  friend bool operator==(const Mutation&, const Mutation&) = default;
};

/// Returns a copy of `m` with the mutation applied.
/// Throws std::invalid_argument if the mutated transition is undefined or
/// the mutation is vacuous (replacement equals the original).
fsm::MealyMachine apply_mutation(const fsm::MealyMachine& m,
                                 const Mutation& mut);

/// All output-error mutants of reachable transitions: for each transition,
/// every wrong output value in [0, output_alphabet).
std::vector<Mutation> enumerate_output_errors(const fsm::MealyMachine& m,
                                              fsm::StateId start,
                                              fsm::OutputId output_alphabet);

/// All transfer-error mutants of reachable transitions: for each transition,
/// every wrong destination among the reachable states.
std::vector<Mutation> enumerate_transfer_errors(const fsm::MealyMachine& m,
                                                fsm::StateId start);

/// A reproducible random sample (without replacement) of `count` mutations
/// from the error universe: the output errors of enumerate_output_errors
/// followed by the transfer errors of enumerate_transfer_errors, rank 0 first.
/// Floyd's algorithm picks `count` distinct ranks, draw n being
/// runtime::splitmix64(seed + n * runtime::kGolden) % (j + 1) for its step j;
/// the sample lists the mutants in Floyd's insertion order. Each rank is
/// decoded on its own, so memory is O(count) plus O(T + R) for the T reachable
/// transitions and R reachable states, never the universe. No
/// library-defined algorithm (a standard shuffle or <random> distribution)
/// takes part, so every standard library draws the same sample. When
/// `count` is at least the universe size the whole universe is returned, in
/// order.
std::vector<Mutation> sample_mutations(const fsm::MealyMachine& m,
                                       fsm::StateId start,
                                       fsm::OutputId output_alphabet,
                                       std::size_t count, std::uint64_t seed);

/// True when running `inputs` from `start` produces different output traces
/// on `spec` and `mutant` (i.e. the test sequence exposes the error).
/// Sequences that hit an undefined transition in either machine are
/// truncated at that point (definedness mismatch counts as exposure).
bool exposes(const fsm::MealyMachine& spec, const fsm::MealyMachine& mutant,
             fsm::StateId start, std::span<const fsm::InputId> inputs);

/// Same check without materializing the mutant machine: the mutation is
/// applied on the fly while walking `spec`. Equivalent to
/// exposes(spec, apply_mutation(spec, mut), start, inputs) but allocation-free
/// — use this inside mutant-coverage loops.
bool exposes(const fsm::MealyMachine& spec, const Mutation& mut,
             fsm::StateId start, std::span<const fsm::InputId> inputs);

/// True when some input sequence that `spec` defines at every step exposes
/// `mut` from `start`: a breadth-first search over (spec, mutant) state pairs
/// along spec-defined inputs, the mutation applied on the fly, that reaches a
/// differing output or an input the mutant leaves undefined. Narrower than
/// fsm::check_equivalence, which also counts an input the mutant newly
/// defines where the spec has a don't-care (Section 7.2): no test made of
/// valid inputs can observe that, and test suites built from the spec (the
/// W-method's included) only apply valid inputs.
/// Throws std::invalid_argument if the mutated transition is undefined.
bool observable(const fsm::MealyMachine& spec, const Mutation& mut,
                fsm::StateId start);

/// Mutant replay against one test set, simulating only where a mutant can
/// differ from the specification (the concurrent fault-simulation idea at
/// the Mealy level). A mutant is in lockstep with the spec until the walk
/// takes its mutated transition, and matters again only until its state
/// rejoins the spec's (Definition 4 masking). So the index is built from
/// ONE spec walk of the test set: the spec state before every step, and per
/// (state, input) slot the steps that take it, in CSR form — 4 B per slot
/// plus 12 B per step. The walk of a sequence stops at its first input the
/// spec leaves undefined, where exposes() truncates it. `spec` must outlive
/// the index; the sequences need not.
class MutantReplay {
 public:
  /// Why a mutant the whole test set leaves unexposed went unexposed.
  enum class Miss : std::uint8_t {
    kNone,        ///< exposed
    kNotExcited,  ///< no sequence takes the mutated transition
    kMasked,      ///< every divergence rejoined the spec's state without an
                  ///< output difference (Definition 4)
    kCutOff,      ///< some sequence ended, or was truncated, while the
                  ///< mutant was still diverged: its exposure window was cut
                  ///< short (Theorem 1's k horizon)
  };

  struct Verdict {
    /// Index of the first sequence s with exposes(spec, mut, start,
    /// sequences[s]); empty when no sequence exposes the mutant.
    std::optional<std::size_t> sequence;
    Miss miss = Miss::kNone;  ///< kNone exactly when `sequence` is set
  };

  MutantReplay(const fsm::MealyMachine& spec, fsm::StateId start,
               std::span<const std::vector<fsm::InputId>> sequences);

  /// The first exposing sequence of `mut`, found by stepping the mutant
  /// alone against the recorded spec states from each step that takes its
  /// mutated transition until it exposes, rejoins the spec or its sequence
  /// ends. Throws std::invalid_argument if the mutated transition is
  /// undefined; a vacuous mutation is never exposed.
  [[nodiscard]] Verdict first_exposing_sequence(const Mutation& mut) const;

  /// fsm::check_equivalence(spec, start, apply_mutation(spec, mut), start)
  /// .equivalent without building the mutant: pairs (x, x) behave alike
  /// except at the mutated transition, so a site unreachable from start is
  /// equivalent, an output mutant is not, and a transfer mutant runs the
  /// product search from (spec next, new next), stopping at diagonal pairs.
  /// Throws std::invalid_argument if the mutated transition is undefined; a
  /// vacuous mutation is equivalent.
  [[nodiscard]] bool equivalent(const Mutation& mut) const;

 private:
  /// One step of the spec walk: the spec state before it and its input.
  struct Step {
    fsm::StateId state;
    fsm::InputId input;
  };

  [[nodiscard]] std::size_t slot(fsm::StateId s, fsm::InputId i) const {
    return static_cast<std::size_t>(s) * spec_->num_inputs() + i;
  }

  const fsm::MealyMachine* spec_;
  std::vector<bool> reachable_;  ///< per state, from start
  std::vector<Step> steps_;      ///< the test set's steps, back to back
  std::vector<std::uint32_t> first_;     ///< slots + 1 offsets into steps_at_
  std::vector<std::uint32_t> steps_at_;  ///< step positions, grouped by slot
  /// Per sequence: one past its last walked step (sequences are laid out
  /// back to back), the spec state after it, and the undefined input that
  /// truncated it, if any.
  std::vector<std::uint32_t> end_;
  std::vector<fsm::StateId> final_;
  std::vector<std::optional<fsm::InputId>> cut_;
};

/// True when the walk of `inputs` through `mutant` takes the mutated
/// transition at least once (the error is *excited*).
bool excites(const fsm::MealyMachine& mutant, const Mutation& mut,
             fsm::StateId start, std::span<const fsm::InputId> inputs);

/// Aggregate quality of a test sequence against a set of mutants.
struct TestSetReport {
  std::size_t total_mutants = 0;
  std::size_t excited = 0;
  std::size_t exposed = 0;
  /// exposed_flags[k] says whether mutation k was exposed.
  std::vector<bool> exposed_flags;

  [[nodiscard]] double exposure_rate() const {
    return total_mutants == 0
               ? 1.0
               : static_cast<double>(exposed) / total_mutants;
  }
};

TestSetReport evaluate_test_set(const fsm::MealyMachine& spec,
                                std::span<const Mutation> mutations,
                                fsm::StateId start,
                                std::span<const fsm::InputId> inputs);

/// Multi-sequence variant: each sequence restarts from `start`; a mutant is
/// exposed (excited) when any sequence exposes (excites) it.
TestSetReport evaluate_test_set(
    const fsm::MealyMachine& spec, std::span<const Mutation> mutations,
    fsm::StateId start,
    const std::vector<std::vector<fsm::InputId>>& sequences);

/// Divergence/reconvergence structure of the state traces of spec vs mutant
/// along `inputs` — the operational form of Definition 4. A transfer error is
/// *masked on this run* when the traces diverge and later reconverge without
/// any output difference in between.
struct MaskingAnalysis {
  bool diverged = false;
  bool reconverged = false;
  bool output_differed = false;
  std::size_t diverge_step = 0;      ///< first step with different states
  std::size_t reconverge_step = 0;   ///< first step back in lockstep

  [[nodiscard]] bool masked() const {
    return diverged && reconverged && !output_differed;
  }
};

MaskingAnalysis analyze_masking(const fsm::MealyMachine& spec,
                                const fsm::MealyMachine& mutant,
                                fsm::StateId start,
                                std::span<const fsm::InputId> inputs);

}  // namespace simcov::errmodel
