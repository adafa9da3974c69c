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

#include <array>
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

/// Bit-parallel (word-level) mutant replay: up to 64 mutants of the same
/// specification ride in the lanes of ONE walk — the classic parallel
/// fault-simulation trick lifted to the Mealy level. The shared
/// specification walk advances once per step; lanes whose mutant is still
/// in lockstep (same state as the spec) cost nothing beyond a site-mask
/// lookup, and only lanes whose transfer mutant has diverged step
/// individually. Lane L's verdict equals exposes(spec, block[L], start,
/// inputs) exactly (pinned by the differential test in
/// tests/bitparallel_test.cpp).
class PackedMutantBlock {
 public:
  static constexpr std::size_t kLanes = 64;

  /// Indexes the block's mutation sites. The block must hold at most 64
  /// mutations of defined transitions of `spec` (else
  /// std::invalid_argument); both must outlive this object.
  PackedMutantBlock(const fsm::MealyMachine& spec,
                    std::span<const Mutation> block);

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Mask of lanes (restricted to `active`) whose mutant is exposed by
  /// running `inputs` from `start` — bit L set iff exposes(spec, block[L],
  /// start, inputs). Lanes outside `active` are skipped entirely, so a
  /// caller replaying many sequences can drop already-exposed lanes.
  [[nodiscard]] std::uint64_t exposes(fsm::StateId start,
                                      std::span<const fsm::InputId> inputs,
                                      std::uint64_t active) const;

 private:
  const fsm::MealyMachine* spec_;
  std::size_t size_ = 0;
  /// Per spec state: lanes whose mutation site sits in that state (input
  /// still checked per lane). Direct-indexed — the per-step lockstep fast
  /// path is one load, no hashing.
  std::vector<std::uint64_t> state_lanes_;
  std::uint64_t output_kind_ = 0;  ///< lanes carrying output mutations
  std::array<fsm::StateId, kLanes> site_state_{};
  std::array<fsm::InputId, kLanes> site_input_{};
  std::array<fsm::StateId, kLanes> new_next_{};
  std::array<fsm::OutputId, kLanes> new_output_{};
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
