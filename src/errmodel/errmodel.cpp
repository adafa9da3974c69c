#include "errmodel/errmodel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
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

MutantReplay::MutantReplay(const MealyMachine& spec, StateId start,
                           std::span<const std::vector<InputId>> sequences)
    : spec_(&spec), reachable_(spec.reachable_states(start)) {
  std::size_t total_length = 0;
  for (const auto& seq : sequences) total_length += seq.size();
  if (total_length > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("MutantReplay: test set exceeds 2^32 steps");
  }
  steps_.reserve(total_length);
  end_.reserve(sequences.size());
  final_.reserve(sequences.size());
  cut_.reserve(sequences.size());
  // Count the steps per slot into first_[slot + 1] during the walk.
  first_.assign(
      static_cast<std::size_t>(spec.num_states()) * spec.num_inputs() + 1, 0);
  for (const auto& seq : sequences) {
    StateId at = start;
    std::optional<InputId> cut;
    for (const InputId i : seq) {
      const auto t = spec.transition(at, i);
      if (!t.has_value()) {
        cut = i;
        break;
      }
      steps_.push_back({at, i});
      ++first_[slot(at, i) + 1];
      at = t->next;
    }
    end_.push_back(static_cast<std::uint32_t>(steps_.size()));
    final_.push_back(at);
    cut_.push_back(cut);
  }
  // Counting sort of the step positions by slot: first_[slot] serves as
  // the slot's fill cursor, which leaves it at the next slot's offset, so
  // the offsets shift back by one afterwards.
  std::partial_sum(first_.begin(), first_.end(), first_.begin());
  steps_at_.resize(steps_.size());
  for (std::uint32_t q = 0; q < steps_.size(); ++q) {
    steps_at_[first_[slot(steps_[q].state, steps_[q].input)]++] = q;
  }
  std::copy_backward(first_.begin(), first_.end() - 1, first_.end());
  first_[0] = 0;
}

MutantReplay::Verdict MutantReplay::first_exposing_sequence(
    const Mutation& mut) const {
  const MealyMachine& spec = *spec_;
  const MutantView mutant(spec, mut, "first_exposing_sequence");
  const std::size_t site = slot(mut.at.state, mut.at.input);
  const auto last = steps_at_.begin() + first_[site + 1];
  auto it = steps_at_.begin() + first_[site];
  Verdict verdict{std::nullopt, it == last ? Miss::kNotExcited : Miss::kMasked};
  // Each pass starts in lockstep at a step that takes the mutated
  // transition and walks the mutant alone until it exposes, rejoins the
  // spec's state or runs off the end of its sequence.
  while (it != last) {
    std::uint32_t q = *it;
    const auto s = static_cast<std::size_t>(
        std::upper_bound(end_.begin(), end_.end(), q) - end_.begin());
    StateId at_mut = steps_[q].state;
    do {
      const auto ts = spec.transition(steps_[q].state, steps_[q].input);
      const auto tm = mutant.transition(at_mut, steps_[q].input);
      if (!tm.has_value() || tm->output != ts->output) return {s, Miss::kNone};
      at_mut = tm->next;
      ++q;
    } while (q < end_[s] && at_mut != steps_[q].state);
    if (q == end_[s] && at_mut != final_[s]) {
      // Still diverged where the sequence ends. A truncating input the
      // spec leaves undefined exposes a mutant that defines it.
      if (cut_[s].has_value() &&
          mutant.transition(at_mut, *cut_[s]).has_value()) {
        return {s, Miss::kNone};
      }
      verdict.miss = Miss::kCutOff;
    }
    // Back in lockstep from step q (or from the next sequence's start):
    // nothing can differ before the mutated transition is taken again.
    it = std::lower_bound(it, last, q);
  }
  return verdict;
}

bool MutantReplay::equivalent(const Mutation& mut) const {
  const MealyMachine& spec = *spec_;
  const MutantView mutant(spec, mut, "equivalent");
  if (!reachable_[mut.at.state]) return true;
  const fsm::Transition original =
      spec.transition(mut.at.state, mut.at.input).value();
  if (mut.kind == ErrorKind::kOutput) return mut.new_output == original.output;
  if (mut.new_next == original.next) return true;
  // Product search over the off-diagonal pairs only: a diagonal pair (y, y)
  // reaches nothing but diagonal pairs and the seed pair again.
  const std::uint64_t n = spec.num_states();
  std::unordered_set<std::uint64_t> seen{original.next * n + mut.new_next};
  std::vector<std::pair<StateId, StateId>> queue{
      {original.next, mut.new_next}};
  for (std::size_t k = 0; k < queue.size(); ++k) {
    const auto [at_spec, at_mut] = queue[k];
    for (InputId i = 0; i < spec.num_inputs(); ++i) {
      const auto ts = spec.transition(at_spec, i);
      const auto tm = mutant.transition(at_mut, i);
      if (ts.has_value() != tm.has_value()) return false;
      if (!ts.has_value()) continue;
      if (ts->output != tm->output) return false;
      if (ts->next != tm->next &&
          seen.insert(ts->next * n + tm->next).second) {
        queue.emplace_back(ts->next, tm->next);
      }
    }
  }
  return true;
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
