#include "errmodel/errmodel.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "runtime/rng.hpp"

namespace simcov::errmodel {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::OutputId;
using fsm::StateId;

fsm::MealyMachine apply_mutation(const MealyMachine& m, const Mutation& mut) {
  const auto t = m.transition(mut.at.state, mut.at.input);
  if (!t.has_value()) {
    throw std::invalid_argument("apply_mutation: transition undefined");
  }
  MealyMachine mutant = m;
  if (mut.kind == ErrorKind::kOutput) {
    if (mut.new_output == t->output) {
      throw std::invalid_argument("apply_mutation: vacuous output mutation");
    }
    mutant.set_transition(mut.at.state, mut.at.input, t->next, mut.new_output);
  } else {
    if (mut.new_next == t->next) {
      throw std::invalid_argument("apply_mutation: vacuous transfer mutation");
    }
    mutant.set_transition(mut.at.state, mut.at.input, mut.new_next, t->output);
  }
  return mutant;
}

namespace {

/// The error universe of (m, start, output_alphabet) without its members:
/// rank r < output_size() is the r-th output error, then the transfer errors
/// follow, each section in reachable_transitions order. Stores O(T + R) for
/// T reachable transitions and R reachable states.
class ErrorUniverse {
 public:
  ErrorUniverse(const MealyMachine& m, StateId start, OutputId output_alphabet)
      : refs_(m.reachable_transitions(start)) {
    const auto reachable = m.reachable_states(start);
    for (StateId s = 0; s < m.num_states(); ++s) {
      if (reachable[s]) reachable_.push_back(s);
    }
    spec_.reserve(refs_.size());
    output_prefix_.reserve(refs_.size() + 1);
    output_prefix_.push_back(0);
    for (const auto& ref : refs_) {
      spec_.push_back(m.transition(ref.state, ref.input).value());
      // An output outside the alphabet leaves every alphabet value wrong.
      const std::uint64_t wrong =
          output_alphabet - (spec_.back().output < output_alphabet ? 1 : 0);
      output_prefix_.push_back(output_prefix_.back() + wrong);
    }
  }

  [[nodiscard]] std::uint64_t output_size() const {
    return output_prefix_.back();
  }
  [[nodiscard]] std::uint64_t size() const {
    const std::uint64_t wrong_next =
        reachable_.empty() ? 0 : reachable_.size() - 1;
    return output_size() + refs_.size() * wrong_next;
  }

  /// The mutation of rank `r` < size().
  [[nodiscard]] Mutation operator[](std::uint64_t r) const {
    if (r < output_size()) {
      const auto t = static_cast<std::size_t>(
          std::upper_bound(output_prefix_.begin(), output_prefix_.end(), r) -
          output_prefix_.begin() - 1);
      // The j-th alphabet value, skipping the correct output.
      const std::uint64_t j = r - output_prefix_[t];
      const auto o = static_cast<OutputId>(j + (j >= spec_[t].output ? 1 : 0));
      return Mutation{ErrorKind::kOutput, refs_[t], 0, o};
    }
    r -= output_size();
    const std::uint64_t wrong_next = reachable_.size() - 1;
    const auto t = static_cast<std::size_t>(r / wrong_next);
    // The j-th reachable state, skipping the correct (reachable) successor.
    const auto j = static_cast<std::size_t>(r % wrong_next);
    const StateId s = reachable_[j] < spec_[t].next ? reachable_[j]
                                                    : reachable_[j + 1];
    return Mutation{ErrorKind::kTransfer, refs_[t], s, 0};
  }

 private:
  std::vector<fsm::TransitionRef> refs_;
  std::vector<fsm::Transition> spec_;
  std::vector<std::uint64_t> output_prefix_;  ///< T+1 running output counts
  std::vector<StateId> reachable_;            ///< ascending
};

/// The mutations of ranks [0, n), in rank order.
std::vector<Mutation> first_ranks(const ErrorUniverse& u, std::uint64_t n) {
  std::vector<Mutation> result;
  result.reserve(n);
  for (std::uint64_t r = 0; r < n; ++r) result.push_back(u[r]);
  return result;
}

}  // namespace

std::vector<Mutation> enumerate_output_errors(const MealyMachine& m,
                                              StateId start,
                                              OutputId output_alphabet) {
  const ErrorUniverse u(m, start, output_alphabet);
  return first_ranks(u, u.output_size());
}

std::vector<Mutation> enumerate_transfer_errors(const MealyMachine& m,
                                                StateId start) {
  // With an empty output alphabet the universe is the transfer section.
  const ErrorUniverse u(m, start, 0);
  return first_ranks(u, u.size());
}

std::vector<Mutation> sample_mutations(const MealyMachine& m, StateId start,
                                       OutputId output_alphabet,
                                       std::size_t count, std::uint64_t seed) {
  const ErrorUniverse u(m, start, output_alphabet);
  const std::uint64_t n = u.size();
  if (count >= n) return first_ranks(u, n);
  // Floyd's algorithm: for j = n-k .. n-1 draw t in [0, j]; take t unless
  // already taken, else j (which no earlier step could have taken).
  std::unordered_set<std::uint64_t> taken;
  taken.reserve(count);
  std::vector<Mutation> result;
  result.reserve(count);
  std::uint64_t draw = 0;
  for (std::uint64_t j = n - count; j < n; ++j) {
    std::uint64_t r =
        runtime::splitmix64(seed + draw++ * runtime::kGolden) % (j + 1);
    if (!taken.insert(r).second) {
      r = j;
      taken.insert(j);
    }
    result.push_back(u[r]);
  }
  return result;
}

bool exposes(const MealyMachine& spec, const MealyMachine& mutant,
             StateId start, std::span<const InputId> inputs) {
  StateId at_spec = start;
  StateId at_mut = start;
  for (InputId i : inputs) {
    const auto ts = spec.transition(at_spec, i);
    const auto tm = mutant.transition(at_mut, i);
    if (ts.has_value() != tm.has_value()) return true;  // definedness mismatch
    if (!ts.has_value()) return false;  // sequence invalid for both: truncate
    if (ts->output != tm->output) return true;
    at_spec = ts->next;
    at_mut = tm->next;
  }
  return false;
}

namespace {

/// `spec` with `mut` applied on the fly, one transition lookup at a time.
class MutantView {
 public:
  MutantView(const MealyMachine& spec, const Mutation& mut, const char* caller)
      : spec_(spec), at_(mut.at) {
    const auto original = spec.transition(mut.at.state, mut.at.input);
    if (!original.has_value()) {
      throw std::invalid_argument(std::string(caller) +
                                  ": mutated transition undefined");
    }
    mutated_ = *original;
    if (mut.kind == ErrorKind::kOutput) {
      mutated_.output = mut.new_output;
    } else {
      mutated_.next = mut.new_next;
    }
  }

  [[nodiscard]] std::optional<fsm::Transition> transition(StateId s,
                                                          InputId i) const {
    if (s == at_.state && i == at_.input) return mutated_;
    return spec_.transition(s, i);
  }

 private:
  const MealyMachine& spec_;
  fsm::TransitionRef at_;
  fsm::Transition mutated_;
};

}  // namespace

bool exposes(const MealyMachine& spec, const Mutation& mut, StateId start,
             std::span<const InputId> inputs) {
  const MutantView mutant(spec, mut, "exposes");
  StateId at_spec = start;
  StateId at_mut = start;
  for (InputId i : inputs) {
    const auto ts = spec.transition(at_spec, i);
    const auto tm = mutant.transition(at_mut, i);
    if (ts.has_value() != tm.has_value()) return true;
    if (!ts.has_value()) return false;
    if (ts->output != tm->output) return true;
    at_spec = ts->next;
    at_mut = tm->next;
  }
  return false;
}

bool observable(const MealyMachine& spec, const Mutation& mut,
                StateId start) {
  const MutantView mutant(spec, mut, "observable");
  const std::uint64_t n = spec.num_states();
  std::unordered_set<std::uint64_t> seen{start * n + start};
  std::vector<std::pair<StateId, StateId>> queue{{start, start}};
  for (std::size_t k = 0; k < queue.size(); ++k) {
    const auto [at_spec, at_mut] = queue[k];
    for (InputId i = 0; i < spec.num_inputs(); ++i) {
      const auto ts = spec.transition(at_spec, i);
      if (!ts.has_value()) continue;  // not a valid input: nothing to apply
      const auto tm = mutant.transition(at_mut, i);
      if (!tm.has_value() || tm->output != ts->output) return true;
      if (seen.insert(ts->next * n + tm->next).second) {
        queue.emplace_back(ts->next, tm->next);
      }
    }
  }
  return false;
}

PackedMutantBlock::PackedMutantBlock(const MealyMachine& spec,
                                     std::span<const Mutation> block)
    : spec_(&spec), size_(block.size()) {
  if (block.size() > kLanes) {
    throw std::invalid_argument(
        "PackedMutantBlock: more than 64 mutants in a block");
  }
  state_lanes_.resize(spec.num_states(), 0);
  for (std::size_t l = 0; l < block.size(); ++l) {
    const Mutation& mut = block[l];
    const auto original = spec.transition(mut.at.state, mut.at.input);
    if (!original.has_value()) {
      throw std::invalid_argument(
          "PackedMutantBlock: mutated transition undefined");
    }
    site_state_[l] = mut.at.state;
    site_input_[l] = mut.at.input;
    new_next_[l] = mut.new_next;
    new_output_[l] = mut.new_output;
    const std::uint64_t bit = std::uint64_t{1} << l;
    if (mut.kind == ErrorKind::kOutput) output_kind_ |= bit;
    // A vacuous mutation (replacement equals the original) leaves the lane
    // behaving exactly like the spec — it can never be exposed, which is
    // what an unregistered site yields.
    const bool vacuous = mut.kind == ErrorKind::kOutput
                             ? mut.new_output == original->output
                             : mut.new_next == original->next;
    if (!vacuous) {
      state_lanes_[mut.at.state] |= bit;
    }
  }
}

std::uint64_t PackedMutantBlock::exposes(StateId start,
                                         std::span<const InputId> inputs,
                                         std::uint64_t active) const {
  const std::uint64_t lane_mask =
      size_ == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << size_) - 1;
  std::uint64_t undecided = active & lane_mask;
  std::uint64_t lockstep = undecided;  // at_mut == at_spec, site not yet hit
  std::uint64_t diverged = 0;          // transfer mutants walking on their own
  std::uint64_t exposed = 0;
  std::array<StateId, kLanes> at_mut{};
  StateId at_spec = start;

  const MealyMachine& spec = *spec_;
  for (const InputId i : inputs) {
    if (undecided == 0) break;
    const auto ts = spec.transition(at_spec, i);
    // Diverged lanes still pending at the start of this step; lanes that
    // diverge on THIS step consumed input i at the site and must not also
    // walk below.
    const std::uint64_t walk = diverged & undecided;
    if (!ts.has_value()) {
      // Spec truncates here. Lockstep mutants truncate too (unexposed);
      // a diverged mutant is exposed iff its own transition is defined
      // (definedness mismatch).
      for (std::uint64_t w = walk; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        if (spec.transition(at_mut[l], i).has_value()) {
          exposed |= std::uint64_t{1} << l;
        }
      }
      return exposed;
    }
    // Lockstep lanes whose mutation site is the spec's current transition:
    // an output mutant differs right here (non-vacuous, so exposed); a
    // transfer mutant silently branches off to its replacement state. The
    // state-indexed mask keeps the overwhelmingly common no-site step to a
    // single load; the input check happens per candidate lane.
    if (const std::uint64_t in_state =
            state_lanes_[at_spec] & lockstep & undecided;
        in_state != 0) {
      std::uint64_t hit = 0;
      for (std::uint64_t w = in_state; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        if (site_input_[l] == i) hit |= std::uint64_t{1} << l;
      }
      const std::uint64_t out_hit = hit & output_kind_;
      exposed |= out_hit;
      undecided &= ~out_hit;
      for (std::uint64_t w = hit & ~output_kind_; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        at_mut[l] = new_next_[l];
      }
      lockstep &= ~hit;
      diverged |= hit & ~output_kind_;
    }
    // Diverged lanes advance one at a time — each is in its own state, so
    // there is nothing word-level left to share beyond the spec's walk.
    for (std::uint64_t w = walk & undecided; w != 0; w &= w - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(w));
      const std::uint64_t bit = std::uint64_t{1} << l;
      auto tm = spec.transition(at_mut[l], i);
      if (tm.has_value() && at_mut[l] == site_state_[l] &&
          i == site_input_[l]) {
        if ((output_kind_ & bit) != 0) {
          tm->output = new_output_[l];
        } else {
          tm->next = new_next_[l];
        }
      }
      if (!tm.has_value() || tm->output != ts->output) {
        exposed |= bit;
        undecided &= ~bit;
        diverged &= ~bit;
        continue;
      }
      at_mut[l] = tm->next;
    }
    at_spec = ts->next;
    // Reconvergence (the paper's Definition 4 masking): a diverged mutant
    // landing back on the spec's state rejoins the lockstep herd.
    for (std::uint64_t w = diverged & undecided; w != 0; w &= w - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(w));
      if (at_mut[l] == at_spec) {
        diverged &= ~(std::uint64_t{1} << l);
        lockstep |= std::uint64_t{1} << l;
      }
    }
  }
  return exposed;
}

bool excites(const MealyMachine& mutant, const Mutation& mut, StateId start,
             std::span<const InputId> inputs) {
  StateId at = start;
  for (InputId i : inputs) {
    if (at == mut.at.state && i == mut.at.input) return true;
    const auto t = mutant.transition(at, i);
    if (!t.has_value()) return false;
    at = t->next;
  }
  return false;
}

TestSetReport evaluate_test_set(const MealyMachine& spec,
                                std::span<const Mutation> mutations,
                                StateId start,
                                std::span<const InputId> inputs) {
  TestSetReport report;
  report.total_mutants = mutations.size();
  report.exposed_flags.resize(mutations.size(), false);
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const MealyMachine mutant = apply_mutation(spec, mutations[k]);
    if (excites(mutant, mutations[k], start, inputs)) ++report.excited;
    if (exposes(spec, mutant, start, inputs)) {
      report.exposed_flags[k] = true;
      ++report.exposed;
    }
  }
  return report;
}

TestSetReport evaluate_test_set(
    const MealyMachine& spec, std::span<const Mutation> mutations,
    StateId start, const std::vector<std::vector<InputId>>& sequences) {
  TestSetReport report;
  report.total_mutants = mutations.size();
  report.exposed_flags.resize(mutations.size(), false);
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const MealyMachine mutant = apply_mutation(spec, mutations[k]);
    bool excited = false;
    bool exposed = false;
    for (const auto& seq : sequences) {
      excited = excited || excites(mutant, mutations[k], start, seq);
      exposed = exposed || exposes(spec, mutant, start, seq);
      if (excited && exposed) break;
    }
    if (excited) ++report.excited;
    if (exposed) {
      report.exposed_flags[k] = true;
      ++report.exposed;
    }
  }
  return report;
}

MaskingAnalysis analyze_masking(const MealyMachine& spec,
                                const MealyMachine& mutant, StateId start,
                                std::span<const InputId> inputs) {
  MaskingAnalysis result;
  StateId at_spec = start;
  StateId at_mut = start;
  std::size_t step = 0;
  for (InputId i : inputs) {
    const auto ts = spec.transition(at_spec, i);
    const auto tm = mutant.transition(at_mut, i);
    if (!ts.has_value() || !tm.has_value()) break;
    if (ts->output != tm->output) result.output_differed = true;
    at_spec = ts->next;
    at_mut = tm->next;
    ++step;
    if (at_spec != at_mut && !result.diverged) {
      result.diverged = true;
      result.diverge_step = step;
    } else if (at_spec == at_mut && result.diverged && !result.reconverged) {
      result.reconverged = true;
      result.reconverge_step = step;
    }
  }
  return result;
}

}  // namespace simcov::errmodel
