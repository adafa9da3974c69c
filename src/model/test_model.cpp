#include "model/test_model.hpp"

#include <stdexcept>
#include <string>

namespace simcov::model {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kExplicit: return "explicit";
    case Backend::kSymbolic: return "symbolic";
  }
  return "?";
}

TourResult TestModel::transition_tour() {
  auto source = tour_source();
  std::vector<Sequence> sequences;
  while (auto seq = source->next_sequence()) {
    sequences.push_back(std::move(*seq));
  }
  TourResult result = source->summary();
  result.tour.sequences = std::move(sequences);
  return result;
}

bool replay_lockstep(TestModel& model, std::span<const Sequence> batch,
                     const std::function<void(const ReplayStep&)>& visit,
                     const std::atomic<bool>* stop) {
  const unsigned width = model.input_bits();  // at most 63
  const std::size_t n = batch.size();
  std::vector<std::uint64_t> at(n, model.reset_state());
  std::vector<std::size_t> pos(n, 0);
  std::vector<std::size_t> running(n);
  for (std::size_t l = 0; l < n; ++l) running[l] = l;
  std::vector<std::uint64_t> states, inputs;
  std::vector<std::optional<std::uint64_t>> next, out;
  while (true) {
    std::erase_if(running,
                  [&](std::size_t l) { return pos[l] >= batch[l].size(); });
    if (running.empty()) return true;
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return false;
    }
    states.clear();
    inputs.clear();
    for (const std::size_t l : running) {
      const std::uint64_t key = batch[l][pos[l]];
      if ((key >> width) != 0) {
        throw std::invalid_argument("replay_lockstep: width mismatch");
      }
      states.push_back(at[l]);
      inputs.push_back(key);
    }
    next.assign(running.size(), std::nullopt);
    out.assign(running.size(), std::nullopt);
    model.transition_batch(states, inputs, next, out);
    for (std::size_t k = 0; k < running.size(); ++k) {
      const std::size_t l = running[k];
      if (!next[k].has_value() || !out[k].has_value()) {
        throw std::domain_error("replay_lockstep: input invalid in its state "
                                "at step " + std::to_string(pos[l]) +
                                " of sequence " + std::to_string(l));
      }
      visit(ReplayStep{l, states[k], inputs[k], *out[k], *next[k]});
      at[l] = *next[k];
      ++pos[l];
    }
  }
}

CoverageStats TestModel::evaluate(const Tour& tour) {
  CoverageTracker tracker(count_reachable_states(),
                          count_reachable_transitions());
  // Every sequence starts at reset, and so does an empty tour.
  tracker.visit_state(reset_state());
  replay_lockstep(*this, tour.sequences, [&](const ReplayStep& step) {
    tracker.cover_transition(step.state, step.input);
    tracker.visit_state(step.next);
  });
  return tracker.stats();
}

}  // namespace simcov::model
