#include "model/test_model.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace simcov::model {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kExplicit: return "explicit";
    case Backend::kSymbolic: return "symbolic";
  }
  return "?";
}

std::unique_ptr<SequenceSource> TestModel::tour_source(
    const TourOptions& options) {
  return std::make_unique<MaterializedTourStream>(transition_tour(options));
}

void TestModel::step_batch(std::span<const std::uint64_t> states,
                           std::span<const std::uint64_t> inputs,
                           std::span<std::optional<std::uint64_t>> next) {
  if (inputs.size() != states.size() || next.size() != states.size()) {
    throw std::invalid_argument("TestModel::step_batch: lane span mismatch");
  }
  for (std::size_t l = 0; l < states.size(); ++l) {
    next[l] = step(states[l], inputs[l]);
  }
}

void TestModel::output_batch(std::span<const std::uint64_t> states,
                             std::span<const std::uint64_t> inputs,
                             std::span<std::optional<std::uint64_t>> out) {
  if (inputs.size() != states.size() || out.size() != states.size()) {
    throw std::invalid_argument("TestModel::output_batch: lane span mismatch");
  }
  for (std::size_t l = 0; l < states.size(); ++l) {
    out[l] = output(states[l], inputs[l]);
  }
}

void TestModel::visit_reachable(
    std::size_t max_states,
    const std::function<void(std::uint64_t, const Edge&)>& visit) {
  std::unordered_set<std::uint64_t> seen;
  std::deque<std::uint64_t> frontier;
  seen.insert(reset_state());
  frontier.push_back(reset_state());
  while (!frontier.empty()) {
    const std::uint64_t state = frontier.front();
    frontier.pop_front();
    for (const Edge& edge : edges(state)) {
      visit(state, edge);
      if (seen.insert(edge.next).second) {
        if (seen.size() > max_states) {
          throw std::runtime_error(
              "TestModel::visit_reachable: state space exceeds max_states");
        }
        frontier.push_back(edge.next);
      }
    }
  }
}

CoverageStats TestModel::evaluate(const Tour& tour) {
  CoverageTracker tracker(count_reachable_states(),
                          count_reachable_transitions());
  for (const auto& seq : tour.sequences) {
    std::uint64_t at = reset_state();
    tracker.visit_state(at);
    for (const std::uint64_t input : seq) {
      const auto next = step(at, input);
      if (!next.has_value()) {
        throw std::domain_error(
            "TestModel::evaluate: invalid input in tour");
      }
      tracker.cover_transition(at, input);
      at = *next;
      tracker.visit_state(at);
    }
  }
  // An empty tour still starts at reset.
  if (tour.sequences.empty()) tracker.visit_state(reset_state());
  return tracker.stats();
}

}  // namespace simcov::model
