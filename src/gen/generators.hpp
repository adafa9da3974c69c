// Coverage-directed sequence generators behind the model::SequenceSource
// seam.
//
// The paper's flow generates stimuli with a transition tour; this layer
// adds the coverage-feedback family the ROADMAP's methodology-comparison
// item asks for:
//
//   * BiasedRandomSource — deterministic random walks whose next-input
//     distribution is reweighted by live CoverageTracker hit counts toward
//     rarely-hit transitions (the biasing idea of coverage-directed random
//     simulation, cf. "Methodology for Biasing Random Simulation for Rapid
//     Coverage of Corner Cases", PAPERS.md);
//   * HybridSource — seeds coverage with a budget-bounded partial
//     transition tour, then hands the seeded tracker to the biased walk
//     (tour-seeded directed search, cf. "Hybrid Intelligent Testing in
//     Simulation-Based Verification", PAPERS.md).
//
// Determinism contract: both sources are pure functions of
// (model, spec, seed). Randomness comes from a counter-indexed splitmix64
// stream derived via runtime::derive_stream(seed, kGeneratorStream), so
// draw k is a function of (seed, k) alone — no hidden mutable generator
// state. Sequences are pulled serially by the pipeline coordinator, which
// makes campaign reports bit-identical at any thread count, and a resumed
// campaign re-pulls the identical stream from the start, so the sources
// compose with checkpoint/resume byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "model/generator_spec.hpp"
#include "model/test_model.hpp"

namespace simcov::gen {

/// Coverage-biased random walk. Each yielded sequence restarts from the
/// reset state (mirroring the tour-set restart discipline) and runs for
/// spec.sequence_length steps; at every step the valid inputs of the
/// current state are weighted 1 + bias_strength * (h_max - h), h being the
/// walk's own hit count for that edge. The source ends once
/// spec.max_walk_steps have been emitted, the tracker reports complete
/// transition coverage, or the walk hits a dead-end state at reset.
class BiasedRandomSource final : public model::SequenceSource {
 public:
  /// `model` must outlive the source.
  BiasedRandomSource(model::TestModel& model, const model::GeneratorSpec& spec,
                     std::uint64_t seed);

  std::optional<model::Sequence> next_sequence() override;
  model::TourResult summary() override;

  /// Replays an externally produced sequence into the walk's coverage
  /// tracker without counting it against the walk's own step budget — the
  /// hybrid seed phase feeds its partial tour through this, so the biased
  /// phase starts from the seeded coverage. Throws as model::replay_lockstep
  /// does (std::domain_error on an invalid input).
  void absorb_sequence(const model::Sequence& steps);

 private:
  [[nodiscard]] std::uint64_t next_u64();
  [[nodiscard]] bool coverage_complete() const;

  model::TestModel* model_;
  model::GeneratorSpec spec_;
  /// Counter-indexed splitmix64 stream: draw k is splitmix64(base + k*phi).
  std::uint64_t rng_base_ = 0;
  std::uint64_t draws_ = 0;
  model::CoverageTracker tracker_;
  std::size_t steps_ = 0;
  std::size_t yielded_ = 0;
  bool done_ = false;
};

/// Budget-bounded partial transition tour, then a biased walk over the
/// seeded coverage tracker. The seed phase replays the model's own tour
/// source sequence-by-sequence, truncating the sequence that crosses
/// spec.hybrid_tour_steps (a prefix of a valid sequence is valid); every
/// seed step lands in the shared tracker, so the walk phase is steered
/// away from what the tour already covered.
class HybridSource final : public model::SequenceSource {
 public:
  /// `model` must outlive the source.
  HybridSource(model::TestModel& model, const model::GeneratorSpec& spec,
               std::uint64_t seed);

  std::optional<model::Sequence> next_sequence() override;
  model::TourResult summary() override;

 private:
  model::GeneratorSpec spec_;
  std::unique_ptr<model::SequenceSource> inner_;
  BiasedRandomSource walker_;
  std::size_t seed_steps_ = 0;
  std::size_t seed_sequences_ = 0;
  bool seed_done_ = false;
};

/// Opens the sequence source selected by `spec`: the model's own
/// transition-tour source for kTransitionTour (byte-identical to the
/// pre-generator-layer pipeline), or one of the coverage-directed sources
/// above seeded from runtime::derive_stream(seed, kGeneratorStream).
std::unique_ptr<model::SequenceSource> open_sequence_source(
    model::TestModel& model, const model::GeneratorSpec& spec,
    std::uint64_t seed);

}  // namespace simcov::gen
