#include "obs/coverage_telemetry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace simcov::obs {

// ---------------------------------------------------------------------------
// CoverageCurveBuilder
// ---------------------------------------------------------------------------

CoverageCurveBuilder::CoverageCurveBuilder(std::size_t budget)
    : budget_(std::max<std::size_t>(2, budget)) {}

void CoverageCurveBuilder::add(const CoveragePoint& point) {
  ++appended_;
  last_ = point;
  if (appended_ % stride_ != 0) return;
  if (kept_.size() + 1 > budget_) {
    // Budget full: keep every other point (kept_[j] holds append index
    // (j+1)*stride, so the survivors of a doubled stride are the odd
    // 0-based positions) and double the stride.
    std::vector<CoveragePoint> thinned;
    thinned.reserve(kept_.size() / 2 + 1);
    for (std::size_t j = 1; j < kept_.size(); j += 2) {
      thinned.push_back(kept_[j]);
    }
    kept_ = std::move(thinned);
    stride_ *= 2;
    if (appended_ % stride_ != 0) return;
  }
  kept_.push_back(point);
}

std::vector<CoveragePoint> CoverageCurveBuilder::points() const {
  std::vector<CoveragePoint> out = kept_;
  if (last_.has_value() &&
      (out.empty() || out.back().sequence != last_->sequence)) {
    out.push_back(*last_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CoverageTelemetryCollector
// ---------------------------------------------------------------------------

CoverageTelemetryCollector::CoverageTelemetryCollector(model::TestModel& model,
                                                       std::size_t curve_budget)
    : model_(model), curve_(curve_budget) {}

void CoverageTelemetryCollector::commit_batch(
    std::span<const model::Sequence> batch) {
  // Phase 1 — lane-parallel replay: every sequence is a lane; one
  // step_batch round advances all lanes that still have steps left. The
  // traces are only recorded here, not yet folded, because fold order (not
  // replay order) is what the convergence curve observes.
  const std::size_t n = batch.size();
  std::vector<std::uint64_t> at(n, model_.reset_state());
  std::vector<std::size_t> pos(n, 0);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> trace(n);
  for (std::size_t l = 0; l < n; ++l) trace[l].reserve(batch[l].size());

  std::vector<std::size_t> running(n);
  for (std::size_t l = 0; l < n; ++l) running[l] = l;
  std::vector<std::uint64_t> states, inputs;
  std::vector<std::optional<std::uint64_t>> next;
  while (!running.empty()) {
    std::erase_if(running,
                  [&](std::size_t l) { return pos[l] >= batch[l].size(); });
    if (running.empty()) break;
    states.clear();
    inputs.clear();
    for (const std::size_t l : running) {
      states.push_back(at[l]);
      inputs.push_back(batch[l][pos[l]]);
    }
    next.assign(running.size(), std::nullopt);
    model_.step_batch(states, inputs, next);
    for (std::size_t k = 0; k < running.size(); ++k) {
      if (!next[k].has_value()) {
        throw std::domain_error(
            "CoverageTelemetryCollector: invalid input in committed sequence");
      }
      const std::size_t l = running[k];
      trace[l].emplace_back(at[l], inputs[k]);
      at[l] = *next[k];
      ++pos[l];
    }
  }

  // Phase 2 — fold in batch order. The tracker's sets and hit counts do
  // not depend on the order within one sequence, so this equals
  // TestModel::evaluate's interleaved visit/cover accounting.
  for (std::size_t l = 0; l < n; ++l) {
    tracker_.visit_state(model_.reset_state());
    for (const auto& [state, input] : trace[l]) {
      tracker_.cover_transition(state, input);
    }
    // visit_state of every post-step state: entry j+1's source state, then
    // the lane's final state.
    for (std::size_t j = 1; j < trace[l].size(); ++j) {
      tracker_.visit_state(trace[l][j].first);
    }
    if (!trace[l].empty()) tracker_.visit_state(at[l]);
    ++committed_;
    curve_.add(
        CoveragePoint{committed_,
                      static_cast<std::uint64_t>(tracker_.states_visited()),
                      static_cast<std::uint64_t>(
                          tracker_.transitions_covered())});
  }
}

CoverageTelemetry CoverageTelemetryCollector::snapshot() const {
  CoverageTelemetry out;
  out.curve_budget = curve_.budget();
  out.convergence = curve_.points();
  out.distinct_transitions =
      static_cast<std::uint64_t>(tracker_.transitions_covered());
  tracker_.for_each_transition_hit([&](std::uint64_t hits) {
    ++out.transition_hits[histogram_bucket_index(hits)];
    out.max_transition_hits = std::max(out.max_transition_hits, hits);
  });
  return out;
}

}  // namespace simcov::obs
