#include "model/explicit_model.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace simcov::model {

namespace {

unsigned id_width(std::uint64_t count) {
  return count <= 1 ? 1u : static_cast<unsigned>(std::bit_width(count - 1));
}

/// Coverage of sequences of dense input ids replayed from the model's start
/// state: one visited bit per state and one covered bit per (state, input)
/// over the machine's dense ids — a bijection of the packed keys
/// TestModel::evaluate uses, so the distinct-state/transition counts agree
/// exactly.
class DenseCoverage {
 public:
  explicit DenseCoverage(ExplicitModel& model)
      : machine_(model.machine()),
        start_(model.start()),
        states_total_(model.count_reachable_states()),
        transitions_total_(model.count_reachable_transitions()),
        visited_(machine_.num_states()),
        covered_(static_cast<std::size_t>(machine_.num_states()) *
                 machine_.num_inputs()) {
    // An empty tour still starts at reset (matches TestModel::evaluate).
    visit(start_);
  }

  /// Replays one sequence; throws std::domain_error on an undefined step.
  void add(std::span<const fsm::InputId> seq) {
    fsm::StateId at = start_;
    for (const fsm::InputId i : seq) {
      const auto t = machine_.transition(at, i);
      if (!t.has_value()) {
        throw std::domain_error("ExplicitModel: invalid input in tour");
      }
      const std::size_t slot =
          static_cast<std::size_t>(at) * machine_.num_inputs() + i;
      if (!covered_[slot]) {
        covered_[slot] = true;
        ++transitions_covered_;
      }
      at = t->next;
      visit(at);
    }
  }

  [[nodiscard]] CoverageStats stats() const {
    return {static_cast<double>(states_visited_), states_total_,
            static_cast<double>(transitions_covered_), transitions_total_};
  }

 private:
  void visit(fsm::StateId s) {
    if (!visited_[s]) {
      visited_[s] = true;
      ++states_visited_;
    }
  }

  const fsm::MealyMachine& machine_;
  fsm::StateId start_;
  double states_total_;
  double transitions_total_;
  std::vector<bool> visited_;  // by state id
  std::vector<bool> covered_;  // by state id × num_inputs + input id
  std::size_t states_visited_ = 0;
  std::size_t transitions_covered_ = 0;
};

}  // namespace

ExplicitModel::ExplicitModel(sym::ExplicitModel extraction)
    : machine_(std::move(extraction.machine)),
      state_width_(extraction.state_width),
      input_width_(extraction.input_width),
      state_keys_(std::move(extraction.state_keys)),
      input_keys_(std::move(extraction.input_keys)) {
  if (extraction.truncated) {
    throw std::invalid_argument(
        "ExplicitModel: extraction was truncated; use SymbolicModel for "
        "models beyond the explicit-enumeration budget");
  }
  index_keys();
}

ExplicitModel::ExplicitModel(fsm::MealyMachine machine, fsm::StateId start)
    : machine_(std::move(machine)), start_(start) {
  if (start_ >= machine_.num_states()) {
    throw std::invalid_argument("ExplicitModel: start state out of range");
  }
  state_width_ = id_width(machine_.num_states());
  input_width_ = id_width(machine_.num_inputs());
  state_keys_.resize(machine_.num_states());
  for (fsm::StateId s = 0; s < machine_.num_states(); ++s) {
    state_keys_[s] = s;
  }
  input_keys_.resize(machine_.num_inputs());
  for (fsm::InputId i = 0; i < machine_.num_inputs(); ++i) {
    input_keys_[i] = i;
  }
  index_keys();
}

void ExplicitModel::index_keys() {
  key_to_state_.reserve(state_keys_.size());
  for (fsm::StateId s = 0; s < state_keys_.size(); ++s) {
    key_to_state_.emplace(state_keys_[s], s);
  }
  key_to_input_.reserve(input_keys_.size());
  for (fsm::InputId i = 0; i < input_keys_.size(); ++i) {
    key_to_input_.emplace(input_keys_[i], i);
  }
}

std::vector<TestModel::Edge> ExplicitModel::edges(std::uint64_t state) {
  const auto it = key_to_state_.find(state);
  if (it == key_to_state_.end()) return {};
  std::vector<Edge> out;
  for (fsm::InputId i = 0; i < machine_.num_inputs(); ++i) {
    const auto t = machine_.transition(it->second, i);
    if (!t.has_value()) continue;
    out.push_back(Edge{input_keys_[i], state_keys_[t->next]});
  }
  std::sort(out.begin(), out.end(),
            [](const Edge& a, const Edge& b) { return a.input < b.input; });
  return out;
}

void ExplicitModel::transition_batch(
    std::span<const std::uint64_t> states,
    std::span<const std::uint64_t> inputs,
    std::span<std::optional<std::uint64_t>> next,
    std::span<std::optional<std::uint64_t>> out) {
  if (inputs.size() != states.size() || next.size() != states.size() ||
      out.size() != states.size()) {
    throw std::invalid_argument(
        "ExplicitModel::transition_batch: lane span mismatch");
  }
  for (std::size_t l = 0; l < states.size(); ++l) {
    next[l] = std::nullopt;
    out[l] = std::nullopt;
    const auto s = key_to_state_.find(states[l]);
    const auto i = key_to_input_.find(inputs[l]);
    if (s == key_to_state_.end() || i == key_to_input_.end()) continue;
    if (const auto t = machine_.transition(s->second, i->second)) {
      next[l] = state_keys_[t->next];
      out[l] = static_cast<std::uint64_t>(t->output);
    }
  }
}

double ExplicitModel::count_reachable_states() {
  return static_cast<double>(machine_.num_reachable_states(start_));
}

double ExplicitModel::count_reachable_transitions() {
  return static_cast<double>(machine_.reachable_transitions(start_).size());
}

Sequence ExplicitModel::to_keys(std::span<const fsm::InputId> inputs) const {
  Sequence keys;
  keys.reserve(inputs.size());
  for (const fsm::InputId i : inputs) keys.push_back(input_keys_[i]);
  return keys;
}

TourResult ExplicitModel::to_result(const tour::TourSet& set) {
  TourResult result;
  for (const auto& seq : set.sequences) {
    result.tour.sequences.push_back(to_keys(seq));
  }
  result.steps = set.total_length();
  result.restarts =
      set.sequences.empty() ? 0 : set.sequences.size() - 1;
  DenseCoverage coverage(*this);
  for (const auto& seq : set.sequences) coverage.add(seq);
  result.coverage = coverage.stats();
  result.complete = result.coverage.complete();
  return result;
}

namespace {

/// Streaming transition tour over the incremental greedy generator; each
/// yielded sequence is counted into the same dense bits as to_result.
class ExplicitTourStream final : public SequenceSource {
 public:
  explicit ExplicitTourStream(ExplicitModel& model)
      : model_(model), gen_(model.machine(), model.start()), coverage_(model) {}

  std::optional<Sequence> next_sequence() override {
    auto seq = gen_.next();
    if (!seq.has_value()) {
      if (gen_.stuck()) {
        throw std::runtime_error(
            "ExplicitModel: transition tour set generation failed");
      }
      return std::nullopt;
    }
    coverage_.add(*seq);
    steps_ += seq->size();
    ++yielded_;
    return model_.to_keys(*seq);
  }

  TourResult summary() override {
    TourResult out;
    out.coverage = coverage_.stats();
    out.steps = steps_;
    out.restarts = yielded_ == 0 ? 0 : yielded_ - 1;
    out.complete = out.coverage.complete();
    return out;
  }

 private:
  ExplicitModel& model_;
  tour::TransitionTourSetGenerator gen_;
  DenseCoverage coverage_;
  std::size_t steps_ = 0;
  std::size_t yielded_ = 0;
};

}  // namespace

std::unique_ptr<SequenceSource> ExplicitModel::tour_source(
    const TourOptions& options) {
  (void)options;  // explicit generators always terminate; no step cap
  return std::make_unique<ExplicitTourStream>(*this);
}

TourResult ExplicitModel::random_walk(std::size_t length,
                                      std::uint64_t seed) {
  tour::TourSet set;
  set.start = start_;
  set.sequences.push_back(
      tour::random_walk(machine_, start_, length, seed).inputs);
  return to_result(set);
}

}  // namespace simcov::model
