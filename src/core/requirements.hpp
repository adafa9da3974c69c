// Methodology-level checkers for the paper's Requirements 1-5 and
// Definition 5, applied to an (explicit) test model.
//
//  * Definition 5 / Theorem 2: `forall_k` computes the smallest k for which
//    every pair of distinct reachable states is ∀k-distinguishable.
//  * Requirement 1 (uniform output errors): `analyze_projection` drops named
//    latch groups from the model state (the paper's "abstracting too much",
//    Section 6.3) and reports the output nondeterminism of the quotient —
//    each nondeterministic (state, input) pair is an abstract transition on
//    which an output error need not be uniform.
//  * Requirement 4 (no masking): `assess_requirements` samples transfer
//    errors and measures how often the state traces reconverge without an
//    output difference along probe runs.
//  * Requirements 2/3/5 are structural: bounded pipeline latency, data
//    selection during concretization, and the expose_dest_outputs switch;
//    `assess_requirements` folds them, the ∀k check and the masking
//    estimate into one report.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fsm/mealy.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::core {

struct RequirementsReport {
  /// Smallest k such that all distinct reachable state pairs are
  /// ∀k-distinguishable (Definition 5); nullopt if none up to max_k.
  std::optional<unsigned> forall_k;
  /// Requirement 5: interaction state (destination addresses) observable.
  bool r5_interaction_state_observable = false;
  /// Requirement 1 on the model as built: the machine is deterministic, so
  /// output errors on its own transitions are uniform by construction.
  bool r1_deterministic_outputs = true;
  /// Requirement 4 estimate: fraction of sampled transfer errors that are
  /// masked along the probe run (0 = none masked).
  double r4_masked_fraction = 0.0;
};

/// Assesses the requirements on an explicit test model.
/// @param probe_length  length of the random probe used for the masking
///                      estimate.
RequirementsReport assess_requirements(const fsm::MealyMachine& machine,
                                       fsm::StateId start,
                                       const testmodel::TestModelOptions& opt,
                                       unsigned max_k = 8,
                                       std::size_t mutant_sample = 50,
                                       std::size_t probe_length = 200,
                                       std::uint64_t seed = 1);

/// Over-abstraction analysis (Requirement 1 ablation): project away the
/// latches whose names start with any of `dropped_prefixes` and inspect the
/// quotient machine.
struct ProjectionReport {
  unsigned kept_latches = 0;
  unsigned dropped_latches = 0;
  std::size_t abstract_states = 0;
  /// (state, input) pairs of the quotient with conflicting outputs: on these
  /// abstract transitions an output error is NOT guaranteed uniform.
  std::size_t output_nondet_pairs = 0;
  bool output_deterministic = true;
  bool deterministic = true;
};

ProjectionReport analyze_projection(
    const sym::ExplicitModel& explicit_model,
    const testmodel::BuiltTestModel& model,
    std::span<const std::string> dropped_prefixes);

}  // namespace simcov::core
