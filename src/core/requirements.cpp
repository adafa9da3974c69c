#include "core/requirements.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "abstraction/abstraction.hpp"
#include "distinguish/distinguish.hpp"
#include "errmodel/errmodel.hpp"
#include "tour/tour.hpp"

namespace simcov::core {

RequirementsReport assess_requirements(const fsm::MealyMachine& machine,
                                       fsm::StateId start,
                                       const testmodel::TestModelOptions& opt,
                                       unsigned max_k,
                                       std::size_t mutant_sample,
                                       std::size_t probe_length,
                                       std::uint64_t seed) {
  RequirementsReport report;
  report.forall_k = distinguish::min_forall_k(machine, start, max_k);
  report.r5_interaction_state_observable =
      opt.expose_dest_outputs && opt.keep_dest_in_state;
  report.r1_deterministic_outputs = true;  // explicit machines are built
                                           // deterministic; see
                                           // analyze_projection for quotients

  // Requirement 4 estimate: sample transfer errors, probe with a random
  // walk, and count divergences that reconverge silently (Definition 4).
  const auto transfers = errmodel::enumerate_transfer_errors(machine, start);
  if (!transfers.empty() && probe_length > 0) {
    std::size_t masked = 0;
    std::size_t sampled = 0;
    const std::size_t step = std::max<std::size_t>(
        1, transfers.size() / std::max<std::size_t>(1, mutant_sample));
    for (std::size_t k = 0; k < transfers.size() && sampled < mutant_sample;
         k += step) {
      const auto mutant = errmodel::apply_mutation(machine, transfers[k]);
      // Probe along a walk through the MUTANT so the faulty transition is
      // actually exercised when reached.
      std::vector<fsm::InputId> probe;
      try {
        probe = tour::random_walk(mutant, start, probe_length, seed + k)
                    .inputs;
      } catch (const std::domain_error&) {
        continue;  // dead-end in the mutant: skip this sample
      }
      const auto analysis =
          errmodel::analyze_masking(machine, mutant, start, probe);
      if (analysis.masked()) ++masked;
      ++sampled;
    }
    if (sampled > 0) {
      report.r4_masked_fraction =
          static_cast<double>(masked) / static_cast<double>(sampled);
    }
  }
  return report;
}

ProjectionReport analyze_projection(
    const sym::ExplicitModel& explicit_model,
    const testmodel::BuiltTestModel& model,
    std::span<const std::string> dropped_prefixes) {
  const auto& latches = model.circuit.latches;
  if (explicit_model.state_width != latches.size()) {
    throw std::invalid_argument(
        "analyze_projection: explicit model does not match circuit");
  }
  std::uint64_t kept = 0;
  unsigned dropped_count = 0;
  for (std::size_t j = 0; j < latches.size(); ++j) {
    const bool dropped = std::any_of(
        dropped_prefixes.begin(), dropped_prefixes.end(),
        [&](const std::string& prefix) {
          return latches[j].name.rfind(prefix, 0) == 0;
        });
    if (dropped) {
      ++dropped_count;
    } else {
      kept |= std::uint64_t{1} << j;
    }
  }

  // Build the state map: explicit state -> masked key -> abstract id, ids
  // in order of first appearance.
  std::unordered_map<std::uint64_t, fsm::StateId> abstract_of;
  std::vector<fsm::StateId> map(explicit_model.state_keys.size());
  for (fsm::StateId s = 0; s < explicit_model.state_keys.size(); ++s) {
    const auto [it, inserted] =
        abstract_of.emplace(explicit_model.state_keys[s] & kept,
                            static_cast<fsm::StateId>(abstract_of.size()));
    map[s] = it->second;
  }

  const abstraction::StateAbstraction abs(
      std::move(map), static_cast<fsm::StateId>(abstract_of.size()));
  const auto analysis =
      abstraction::analyze_abstraction(explicit_model.machine, abs);

  ProjectionReport report;
  report.kept_latches = static_cast<unsigned>(latches.size()) - dropped_count;
  report.dropped_latches = dropped_count;
  report.abstract_states = abstract_of.size();
  report.output_nondet_pairs = analysis.nondet_output_pairs.size();
  report.output_deterministic = analysis.output_deterministic;
  report.deterministic = analysis.deterministic;
  return report;
}

}  // namespace simcov::core
