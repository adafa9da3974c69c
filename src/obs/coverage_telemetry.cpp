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

CoverageTelemetryCollector::CoverageTelemetryCollector(std::size_t curve_budget)
    : curve_(curve_budget) {}

void CoverageTelemetryCollector::commit_batch(
    std::span<const model::Sequence> batch,
    std::span<const std::vector<std::uint64_t>> paths) {
  if (paths.size() != batch.size()) {
    throw std::invalid_argument(
        "CoverageTelemetryCollector: one state path per sequence required");
  }
  for (std::size_t l = 0; l < batch.size(); ++l) {
    if (paths[l].size() != batch[l].size() + 1) {
      throw std::invalid_argument(
          "CoverageTelemetryCollector: a state path is one longer than its "
          "sequence");
    }
  }
  // Fold in batch order. The tracker's sets and hit counts do not depend
  // on the order within one sequence, so this equals TestModel::evaluate's
  // interleaved visit/cover accounting.
  for (std::size_t l = 0; l < batch.size(); ++l) {
    const auto& path = paths[l];
    tracker_.visit_state(path.front());
    for (std::size_t j = 0; j < batch[l].size(); ++j) {
      tracker_.cover_transition(path[j], batch[l][j]);
    }
    for (std::size_t j = 1; j < path.size(); ++j) {
      tracker_.visit_state(path[j]);
    }
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
