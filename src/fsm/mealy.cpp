#include "fsm/mealy.hpp"

#include <algorithm>
#include <deque>
#include <random>
#include <stdexcept>
#include <unordered_map>

namespace simcov::fsm {

MealyMachine::MealyMachine(StateId num_states, InputId num_inputs)
    : num_states_(num_states),
      num_inputs_(num_inputs),
      table_(static_cast<std::size_t>(num_states) * num_inputs) {}

void MealyMachine::check_ids(StateId s, InputId i) const {
  if (s >= num_states_) throw std::out_of_range("MealyMachine: bad state id");
  if (i >= num_inputs_) throw std::out_of_range("MealyMachine: bad input id");
}

void MealyMachine::set_initial_state(StateId s) {
  if (s >= num_states_) throw std::out_of_range("MealyMachine: bad state id");
  initial_ = s;
}

void MealyMachine::set_transition(StateId s, InputId i, StateId next,
                                  OutputId output) {
  check_ids(s, i);
  if (next >= num_states_) {
    throw std::out_of_range("MealyMachine: bad next-state id");
  }
  auto& slot = table_[idx(s, i)];
  if (!slot.has_value()) ++defined_count_;
  slot = Transition{next, output};
}

void MealyMachine::clear_transition(StateId s, InputId i) {
  check_ids(s, i);
  auto& slot = table_[idx(s, i)];
  if (slot.has_value()) --defined_count_;
  slot.reset();
}

std::optional<Transition> MealyMachine::transition(StateId s, InputId i) const {
  check_ids(s, i);
  return table_[idx(s, i)];
}

bool MealyMachine::is_complete() const {
  return defined_count_ == table_.size();
}

OutputId MealyMachine::output_alphabet_size() const {
  OutputId max_plus_one = 0;
  for (const auto& t : table_) {
    if (t.has_value()) max_plus_one = std::max(max_plus_one, t->output + 1);
  }
  return max_plus_one;
}

std::vector<OutputId> MealyMachine::run(std::span<const InputId> inputs,
                                        StateId from) const {
  std::vector<OutputId> outputs;
  outputs.reserve(inputs.size());
  StateId at = from;
  for (InputId i : inputs) {
    const auto t = transition(at, i);
    if (!t.has_value()) {
      throw std::domain_error("MealyMachine::run: undefined transition");
    }
    outputs.push_back(t->output);
    at = t->next;
  }
  return outputs;
}

StateId MealyMachine::run_to_state(std::span<const InputId> inputs,
                                   StateId from) const {
  StateId at = from;
  for (InputId i : inputs) {
    const auto t = transition(at, i);
    if (!t.has_value()) {
      throw std::domain_error("MealyMachine::run_to_state: undefined transition");
    }
    at = t->next;
  }
  return at;
}

std::vector<bool> MealyMachine::reachable_states(StateId from) const {
  std::vector<bool> seen(num_states_, false);
  if (from >= num_states_) return seen;
  std::deque<StateId> queue{from};
  seen[from] = true;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (InputId i = 0; i < num_inputs_; ++i) {
      const auto& t = table_[idx(s, i)];
      if (t.has_value() && !seen[t->next]) {
        seen[t->next] = true;
        queue.push_back(t->next);
      }
    }
  }
  return seen;
}

std::size_t MealyMachine::num_reachable_states(StateId from) const {
  const auto seen = reachable_states(from);
  return static_cast<std::size_t>(
      std::count(seen.begin(), seen.end(), true));
}

std::vector<TransitionRef> MealyMachine::reachable_transitions(
    StateId from) const {
  const auto seen = reachable_states(from);
  std::vector<TransitionRef> result;
  for (StateId s = 0; s < num_states_; ++s) {
    if (!seen[s]) continue;
    for (InputId i = 0; i < num_inputs_; ++i) {
      if (table_[idx(s, i)].has_value()) result.push_back({s, i});
    }
  }
  return result;
}

void MealyMachine::set_state_name(StateId s, std::string name) {
  if (s >= num_states_) throw std::out_of_range("MealyMachine: bad state id");
  if (state_names_.size() < num_states_) state_names_.resize(num_states_);
  state_names_[s] = std::move(name);
}

void MealyMachine::set_input_name(InputId i, std::string name) {
  if (i >= num_inputs_) throw std::out_of_range("MealyMachine: bad input id");
  if (input_names_.size() < num_inputs_) input_names_.resize(num_inputs_);
  input_names_[i] = std::move(name);
}

std::string MealyMachine::state_name(StateId s) const {
  if (s < state_names_.size() && !state_names_[s].empty()) {
    return state_names_[s];
  }
  std::string name = "s";
  name += std::to_string(s);
  return name;
}

std::string MealyMachine::input_name(InputId i) const {
  if (i < input_names_.size() && !input_names_[i].empty()) {
    return input_names_[i];
  }
  std::string name = "i";
  name += std::to_string(i);
  return name;
}

// ---------------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------------

EquivalenceResult check_equivalence(const MealyMachine& a, StateId sa,
                                    const MealyMachine& b, StateId sb) {
  if (a.num_inputs() != b.num_inputs()) {
    throw std::invalid_argument(
        "check_equivalence: machines have different input alphabets");
  }
  EquivalenceResult result;
  // BFS over the product machine with parent pointers for counterexamples.
  struct Entry {
    std::int64_t parent;  // index into visited_list, -1 for root
    InputId via;
  };
  std::unordered_map<std::uint64_t, std::size_t> visited;
  std::vector<std::pair<StateId, StateId>> pair_of;
  std::vector<Entry> entry_of;
  auto key = [](StateId x, StateId y) {
    return (static_cast<std::uint64_t>(x) << 32) | y;
  };
  auto rebuild = [&](std::size_t leaf, InputId last) {
    std::vector<InputId> seq{last};
    for (std::int64_t n = static_cast<std::int64_t>(leaf);
         entry_of[n].parent >= 0; n = entry_of[n].parent) {
      seq.push_back(entry_of[n].via);
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  };

  std::deque<std::size_t> queue;
  visited.emplace(key(sa, sb), 0);
  pair_of.emplace_back(sa, sb);
  entry_of.push_back(Entry{-1, 0});
  queue.push_back(0);

  while (!queue.empty()) {
    const std::size_t cur = queue.front();
    queue.pop_front();
    const auto [xa, xb] = pair_of[cur];
    for (InputId i = 0; i < a.num_inputs(); ++i) {
      const auto ta = a.transition(xa, i);
      const auto tb = b.transition(xb, i);
      if (ta.has_value() != tb.has_value()) {
        result.counterexample = rebuild(cur, i);
        return result;  // definedness mismatch
      }
      if (!ta.has_value()) continue;
      if (ta->output != tb->output) {
        result.counterexample = rebuild(cur, i);
        return result;
      }
      const std::uint64_t k = key(ta->next, tb->next);
      if (visited.emplace(k, pair_of.size()).second) {
        pair_of.emplace_back(ta->next, tb->next);
        entry_of.push_back(Entry{static_cast<std::int64_t>(cur), i});
        queue.push_back(pair_of.size() - 1);
      }
    }
  }
  result.equivalent = true;
  return result;
}

EquivalenceResult check_equivalence(const MealyMachine& a,
                                    const MealyMachine& b) {
  return check_equivalence(a, a.initial_state(), b, b.initial_state());
}

MealyMachine random_connected_machine(StateId num_states, InputId num_inputs,
                                      OutputId num_outputs,
                                      std::uint64_t seed) {
  if (num_states == 0 || num_inputs == 0 || num_outputs == 0) {
    throw std::invalid_argument(
        "random_connected_machine: all sizes must be positive");
  }
  std::mt19937_64 rng(seed);
  MealyMachine m(num_states, num_inputs);
  m.set_initial_state(0);
  // Plant a spanning in-tree: state s>0 is reached from a random earlier
  // state on a random input, guaranteeing reachability from state 0.
  for (StateId s = 1; s < num_states; ++s) {
    // Retry until we find an unused (state, input) slot among earlier
    // states, so tree edges never overwrite each other. A free slot always
    // exists when s <= s * num_inputs - (s - 1), which holds for all s.
    for (;;) {
      const StateId from = static_cast<StateId>(rng() % s);
      const InputId in = static_cast<InputId>(rng() % num_inputs);
      if (m.transition(from, in).has_value()) continue;
      m.set_transition(from, in, s,
                       static_cast<OutputId>(rng() % num_outputs));
      break;
    }
  }
  // Fill in the rest randomly.
  for (StateId s = 0; s < num_states; ++s) {
    for (InputId i = 0; i < num_inputs; ++i) {
      if (m.transition(s, i).has_value()) continue;
      m.set_transition(s, i, static_cast<StateId>(rng() % num_states),
                       static_cast<OutputId>(rng() % num_outputs));
    }
  }
  return m;
}

}  // namespace simcov::fsm
