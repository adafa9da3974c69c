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
//     or per mutant (Theorem-3 replay). Not collected here: the report
//     renders it from the committed indices the Compare / MutantReplay
//     stages already record (CampaignResult::exposures,
//     MutantCoverageResult::mutant_exposures).
//
// The collector folds the state paths of each committed batch's replay
// through the TestModel (pipeline::replay_batch) into its own hit-counting
// CoverageTracker, mirroring TestModel::evaluate's accounting exactly.
// Replay (not the stream's tracker) is deliberate: it depends on the
// committed sequences alone, so it is the one account that is identical
// for live and resumed campaigns whatever source yielded them.
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
};

/// Feed committed sequences in commit order; snapshot() at campaign end.
/// Single-threaded by contract — the pipeline commits on the coordinator.
class CoverageTelemetryCollector {
 public:
  explicit CoverageTelemetryCollector(std::size_t curve_budget = 512);

  /// Folds a replayed batch into the tracker strictly in batch order,
  /// exactly as TestModel::evaluate accounts one sequence: one convergence
  /// point per sequence. `paths[l]` is sequence l's state path from reset,
  /// one state longer than the sequence (reset first, the final state
  /// last); std::invalid_argument otherwise.
  void commit_batch(std::span<const model::Sequence> batch,
                    std::span<const std::vector<std::uint64_t>> paths);

  [[nodiscard]] std::uint64_t committed() const { return committed_; }

  /// The telemetry so far.
  [[nodiscard]] CoverageTelemetry snapshot() const;

 private:
  model::CoverageTracker tracker_;
  CoverageCurveBuilder curve_;
  std::uint64_t committed_ = 0;
};

}  // namespace simcov::obs
