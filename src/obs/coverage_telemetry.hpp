// Deterministic coverage telemetry — the quantitative heart of the paper,
// made observable.
//
// Three artifacts, all keyed off *committed sequence indices* rather than
// wall-clock, so every one of them is bit-identical at any thread count and
// across a checkpoint/resume boundary:
//
//   * convergence curve — (sequence index, states visited, transitions
//     covered) after each committed sequence, downsampled by a
//     stride-doubling builder to a bounded point budget. The shape shows
//     how fast the method approaches full transition coverage (Theorem 2's
//     argument as a curve instead of a final scalar).
//   * transition hit histogram — log2-bucketed distribution of how many
//     times each distinct transition was exercised. A transition tour
//     should be nearly flat (balance ≈ 1); a random walk is heavy-tailed.
//   * exposure latency — sequences until first exposure, per bug (campaign)
//     or per mutant (Theorem-3 replay). Derived from the committed indices
//     the Compare / MutantReplay stages already record.
//
// The collector replays each committed sequence through the TestModel into
// its own hit-counting CoverageTracker, mirroring TestModel::evaluate's
// accounting exactly. Replay (not the stream's tracker) is deliberate: a
// store-replayed tour (store::StoredTourStream) has no live tracker, and a
// resumed campaign restores verdicts without regenerating per-sequence
// coverage — the replay path is the one account that is identical for
// live, cached, and resumed campaigns.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/test_model.hpp"
#include "obs/metrics.hpp"

namespace simcov::obs {

/// Coverage after the sequence with this 1-based committed index.
struct CoveragePoint {
  std::uint64_t sequence = 0;
  std::uint64_t states_visited = 0;
  std::uint64_t transitions_covered = 0;

  friend bool operator==(const CoveragePoint&, const CoveragePoint&) = default;
};

/// Downsamples an append-only point stream to a bounded budget by stride
/// doubling: every point is kept until the budget fills, then every other
/// kept point is dropped and the keep-stride doubles. The final point is
/// always retained (the curve's endpoint is the campaign's headline
/// coverage). Deterministic in the append sequence alone.
class CoverageCurveBuilder {
 public:
  explicit CoverageCurveBuilder(std::size_t budget = 512);

  void add(const CoveragePoint& point);

  /// The downsampled curve, ending with the last appended point.
  [[nodiscard]] std::vector<CoveragePoint> points() const;

  [[nodiscard]] std::size_t budget() const { return budget_; }

 private:
  std::size_t budget_;
  std::uint64_t stride_ = 1;
  std::uint64_t appended_ = 0;
  std::vector<CoveragePoint> kept_;
  std::optional<CoveragePoint> last_;
};

/// Sequences until a bug / mutant was first exposed (1-based), or
/// unexposed. One entry per compare target, in target order.
struct ExposureLatency {
  bool exposed = false;
  std::uint64_t sequences = 0;  ///< meaningful only when exposed

  friend bool operator==(const ExposureLatency&,
                         const ExposureLatency&) = default;
};

/// The "coverage_telemetry" report section.
struct CoverageTelemetry {
  std::uint64_t curve_budget = 0;
  std::vector<CoveragePoint> convergence;
  /// Distinct transitions the committed test set covered.
  std::uint64_t distinct_transitions = 0;
  /// Exact maximum hit count over the distinct transitions.
  std::uint64_t max_transition_hits = 0;
  /// Log2-bucketed hit-count distribution (histogram_bucket_index scheme);
  /// trailing all-zero buckets are meaningful but boring — the report
  /// emitter trims them.
  std::array<std::uint64_t, kHistogramBuckets> transition_hits{};
  /// Per-bug exposure latency (campaign reports); per-mutant latency lives
  /// on MutantCoverageResult directly.
  std::vector<ExposureLatency> bug_exposure_latency;
};

/// Feed committed sequences in commit order; snapshot() at campaign end.
/// Single-threaded by contract — the pipeline commits on the coordinator.
class CoverageTelemetryCollector {
 public:
  CoverageTelemetryCollector(model::TestModel& model,
                             std::size_t curve_budget = 512);

  /// Replays every committed sequence of `batch` (one input key per step)
  /// from reset, lane-parallel through TestModel::step_batch, then
  /// folds the traces into the tracker strictly in batch order, exactly as
  /// TestModel::evaluate accounts one sequence: one convergence point per
  /// sequence. Throws std::domain_error on an input that is invalid in its
  /// state (committed sequences are valid by construction, so this
  /// indicates stream corruption); nothing of the batch is folded then.
  void commit_batch(std::span<const model::Sequence> batch);

  [[nodiscard]] std::uint64_t committed() const { return committed_; }

  // Live view of the tracker's account, O(1) — the CampaignMonitor's
  // progress feed reads these after every commit, with exactly the same
  // replay-based numbers the final telemetry section reports.
  [[nodiscard]] std::uint64_t states_visited() const {
    return tracker_.states_visited();
  }
  [[nodiscard]] std::uint64_t transitions_covered() const {
    return tracker_.transitions_covered();
  }

  /// The telemetry so far. bug_exposure_latency is left empty — the
  /// pipeline fills it from the compare stage's results.
  [[nodiscard]] CoverageTelemetry snapshot() const;

 private:
  model::TestModel& model_;
  model::CoverageTracker tracker_;
  CoverageCurveBuilder curve_;
  std::uint64_t committed_ = 0;
};

}  // namespace simcov::obs
