#include "model/explicit_model.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace simcov::model {

namespace {

unsigned id_width(std::uint64_t count) {
  return count <= 1 ? 1u : static_cast<unsigned>(std::bit_width(count - 1));
}

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
  if (set.start != start_) {
    throw std::invalid_argument(
        "ExplicitModel::to_result: test set starts at state " +
        std::to_string(set.start) + ", the model resets to " +
        std::to_string(start_));
  }
  TourResult result;
  for (const auto& seq : set.sequences) {
    result.tour.sequences.push_back(to_keys(seq));
  }
  result.steps = set.total_length();
  result.restarts =
      set.sequences.empty() ? 0 : set.sequences.size() - 1;
  result.coverage = evaluate(result.tour);
  result.complete = result.coverage.complete();
  return result;
}

namespace {

/// Streaming transition tour over the incremental greedy generator, whose
/// walk table reports the coverage of the sequences yielded so far.
class ExplicitTourStream final : public SequenceSource {
 public:
  explicit ExplicitTourStream(ExplicitModel& model)
      : model_(model), gen_(model.machine(), model.start()) {}

  std::optional<Sequence> next_sequence() override {
    auto seq = gen_.next();
    if (!seq.has_value()) {
      if (gen_.stuck()) {
        throw std::runtime_error(
            "ExplicitModel: transition tour set generation failed");
      }
      return std::nullopt;
    }
    steps_ += seq->size();
    ++yielded_;
    return model_.to_keys(*seq);
  }

  TourResult summary() override {
    TourResult out;
    out.coverage = {static_cast<double>(gen_.states_visited()),
                    static_cast<double>(gen_.reachable_states()),
                    static_cast<double>(gen_.transitions_covered()),
                    static_cast<double>(gen_.reachable_transitions())};
    out.steps = steps_;
    out.restarts = yielded_ == 0 ? 0 : yielded_ - 1;
    out.complete = out.coverage.complete();
    return out;
  }

 private:
  ExplicitModel& model_;
  tour::TransitionTourSetGenerator gen_;
  std::size_t steps_ = 0;
  std::size_t yielded_ = 0;
};

}  // namespace

std::unique_ptr<SequenceSource> ExplicitModel::tour_source() {
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
