// Generator specification — selects and parameterizes the sequence
// generation strategy behind the model::SequenceSource seam.
//
// The paper's methodology fixes the transition tour as *the* stimulus
// generator; the spec generalizes that choice so coverage-directed
// strategies (biased-random walks steered toward rarely-hit transitions,
// tour-seeded hybrid search) plug into the same pipeline. The default
// spec is the pure transition tour — campaigns with a default spec are
// byte-identical to the pre-refactor pipeline and carry no "generator"
// section in reports.
//
// Determinism contract: every generator is a pure function of
// (model, spec, seed). Sequences are pulled serially by the pipeline
// coordinator, so results are bit-identical at any thread count, and a
// resumed campaign re-pulls the same deterministic stream, so the spec
// composes with checkpoint/resume. Every field below participates in the
// checkpoint key (pipeline::checkpoint_key) — a resume can never cross
// generator strategies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace simcov::model {

/// The generator family. Values are part of the checkpoint-key encoding —
/// append only.
enum class GeneratorKind : std::uint8_t {
  kTransitionTour = 0,  ///< greedy transition tour set (the paper's method)
  kBiasedRandom = 1,    ///< coverage-biased random walk
  kHybrid = 2,          ///< budget-bounded partial tour, then biased walk
};

[[nodiscard]] constexpr const char* generator_kind_name(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kTransitionTour:
      return "transition_tour";
    case GeneratorKind::kBiasedRandom:
      return "biased_random";
    case GeneratorKind::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

/// Spelled form accepted on bench/CLI surfaces (`--generator tour|biased|
/// hybrid`; the long kind names are accepted too).
[[nodiscard]] constexpr std::optional<GeneratorKind> parse_generator_kind(
    std::string_view name) {
  if (name == "tour" || name == "transition_tour")
    return GeneratorKind::kTransitionTour;
  if (name == "biased" || name == "biased_random")
    return GeneratorKind::kBiasedRandom;
  if (name == "hybrid") return GeneratorKind::kHybrid;
  return std::nullopt;
}

/// Strategy + knobs for sequence generation. All fields are sequence-
/// shaping: each is folded into the checkpoint key.
struct GeneratorSpec {
  GeneratorKind kind = GeneratorKind::kTransitionTour;

  /// Biased walk: steps per yielded sequence (each sequence restarts from
  /// the reset state, mirroring the tour-set restart discipline).
  std::size_t sequence_length = 64;

  /// Biased walk: total step budget across all sequences. The walk also
  /// stops early once its tracker reports complete transition coverage.
  std::size_t max_walk_steps = 1 << 16;

  /// Biased walk: weight multiplier for the coverage bias. An edge with
  /// hit count h gets integer weight 1 + bias_strength * (h_max - h),
  /// where h_max is the largest hit count among the edges of the current
  /// state — 0 makes the walk uniform, larger values chase rarely-hit
  /// transitions harder.
  std::uint64_t bias_strength = 4;

  /// Hybrid: step budget for the tour-seed phase. The seed phase replays
  /// tour sequences (truncating the final one mid-sequence — a prefix of
  /// a valid sequence is valid) until the budget is spent, then the
  /// biased walk takes over with the seeded coverage tracker.
  std::size_t hybrid_tour_steps = 4096;

  friend bool operator==(const GeneratorSpec&, const GeneratorSpec&) = default;
};

/// True for specs that reproduce the pre-generator-layer pipeline
/// byte-for-byte (pure transition tour, knobs at their defaults).
[[nodiscard]] inline bool is_default_generator(const GeneratorSpec& spec) {
  return spec == GeneratorSpec{};
}

}  // namespace simcov::model
