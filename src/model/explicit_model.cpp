#include "model/explicit_model.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace simcov::model {

namespace {

unsigned id_width(std::uint64_t count) {
  return count <= 1 ? 1u : static_cast<unsigned>(std::bit_width(count - 1));
}

}  // namespace

ExplicitModel::ExplicitModel(sym::ExplicitModel extraction)
    : machine_(std::move(extraction.machine)) {
  if (extraction.truncated) {
    throw std::invalid_argument(
        "ExplicitModel: extraction was truncated; use SymbolicModel for "
        "models beyond the explicit-enumeration budget");
  }
  input_width_ = extraction.input_bits.empty()
                     ? 0u
                     : static_cast<unsigned>(extraction.input_bits[0].size());
  state_width_ = extraction.state_bits.empty()
                     ? 0u
                     : static_cast<unsigned>(extraction.state_bits[0].size());
  state_keys_.reserve(extraction.state_bits.size());
  for (const auto& bits : extraction.state_bits) {
    state_keys_.push_back(pack_bits(bits));
  }
  input_keys_.reserve(extraction.input_bits.size());
  for (const auto& bits : extraction.input_bits) {
    input_keys_.push_back(pack_bits(bits));
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

std::optional<std::uint64_t> ExplicitModel::step(std::uint64_t state,
                                                 std::uint64_t input) {
  const auto s = key_to_state_.find(state);
  const auto i = key_to_input_.find(input);
  if (s == key_to_state_.end() || i == key_to_input_.end()) {
    return std::nullopt;
  }
  const auto t = machine_.transition(s->second, i->second);
  if (!t.has_value()) return std::nullopt;
  return state_keys_[t->next];
}

std::optional<std::uint64_t> ExplicitModel::output(std::uint64_t state,
                                                   std::uint64_t input) {
  const auto s = key_to_state_.find(state);
  const auto i = key_to_input_.find(input);
  if (s == key_to_state_.end() || i == key_to_input_.end()) {
    return std::nullopt;
  }
  const auto t = machine_.transition(s->second, i->second);
  if (!t.has_value()) return std::nullopt;
  return static_cast<std::uint64_t>(t->output);
}

void ExplicitModel::step_batch(std::span<const std::uint64_t> states,
                               std::span<const std::uint64_t> inputs,
                               std::span<std::optional<std::uint64_t>> next) {
  if (inputs.size() != states.size() || next.size() != states.size()) {
    throw std::invalid_argument(
        "ExplicitModel::step_batch: lane span mismatch");
  }
  for (std::size_t l = 0; l < states.size(); ++l) {
    const auto s = key_to_state_.find(states[l]);
    const auto i = key_to_input_.find(inputs[l]);
    if (s == key_to_state_.end() || i == key_to_input_.end()) {
      next[l] = std::nullopt;
      continue;
    }
    const auto t = machine_.transition(s->second, i->second);
    next[l] = t.has_value() ? std::optional<std::uint64_t>(
                                  state_keys_[t->next])
                            : std::nullopt;
  }
}

void ExplicitModel::output_batch(std::span<const std::uint64_t> states,
                                 std::span<const std::uint64_t> inputs,
                                 std::span<std::optional<std::uint64_t>> out) {
  if (inputs.size() != states.size() || out.size() != states.size()) {
    throw std::invalid_argument(
        "ExplicitModel::output_batch: lane span mismatch");
  }
  for (std::size_t l = 0; l < states.size(); ++l) {
    const auto s = key_to_state_.find(states[l]);
    const auto i = key_to_input_.find(inputs[l]);
    if (s == key_to_state_.end() || i == key_to_input_.end()) {
      out[l] = std::nullopt;
      continue;
    }
    const auto t = machine_.transition(s->second, i->second);
    out[l] = t.has_value()
                 ? std::optional<std::uint64_t>(
                       static_cast<std::uint64_t>(t->output))
                 : std::nullopt;
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
  result.coverage = evaluate(result.tour);
  result.complete = result.coverage.complete();
  return result;
}

TourResult ExplicitModel::transition_tour(const TourOptions& options) {
  (void)options;  // explicit generators always terminate; no step cap
  auto set = tour::greedy_transition_tour_set(machine_, start_);
  if (!set.has_value()) {
    throw std::runtime_error(
        "ExplicitModel: transition tour set generation failed");
  }
  return to_result(*set);
}

namespace {

/// Streaming transition tour over the incremental greedy generator. Each
/// yielded sequence is replayed into a persistent CoverageTracker keyed by
/// dense ids — a bijection of the packed keys TestModel::evaluate uses, so
/// the distinct-state/transition counts agree exactly.
class ExplicitTourStream final : public SequenceSource {
 public:
  explicit ExplicitTourStream(ExplicitModel& model)
      : model_(model),
        gen_(model.machine(), model.start()),
        tracker_(model.count_reachable_states(),
                 model.count_reachable_transitions()) {
    // An empty tour still starts at reset (matches TestModel::evaluate).
    tracker_.visit_state(model_.start());
  }

  std::optional<Sequence> next_sequence() override {
    auto seq = gen_.next();
    if (!seq.has_value()) {
      if (gen_.stuck()) {
        throw std::runtime_error(
            "ExplicitModel: transition tour set generation failed");
      }
      return std::nullopt;
    }
    fsm::StateId at = model_.start();
    tracker_.visit_state(at);
    for (fsm::InputId i : *seq) {
      tracker_.cover_transition(at, i);
      at = model_.machine().transition(at, i)->next;
      tracker_.visit_state(at);
    }
    steps_ += seq->size();
    ++yielded_;
    return model_.to_keys(*seq);
  }

  TourResult summary() override {
    TourResult out;
    out.coverage = tracker_.stats();
    out.steps = steps_;
    out.restarts = yielded_ == 0 ? 0 : yielded_ - 1;
    out.complete = out.coverage.complete();
    return out;
  }

 private:
  ExplicitModel& model_;
  tour::TransitionTourSetGenerator gen_;
  CoverageTracker tracker_;
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
