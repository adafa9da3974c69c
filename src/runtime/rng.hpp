// Deterministic RNG stream derivation for parallel campaigns.
//
// Every randomized phase of a campaign (random-walk generation, mutant
// sampling, per-run perturbations) draws from its own stream derived from
// the user-visible seed and a stream tag. Streams are decoupled through
// splitmix64 finalization — unlike xor-with-a-constant schemes, no affine
// relation between two user seeds can make one phase's stream collide with
// another's — and a (seed, stream, index) triple always yields the same
// value regardless of thread count or scheduling, which is what makes
// sharded campaign runs bit-identical to serial ones.
#pragma once

#include <cstdint>

namespace simcov::runtime {

/// 2^64 / golden ratio, splitmix64's state increment. A counter-indexed
/// stream draws value n as splitmix64(base + n * kGolden).
inline constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// splitmix64 finalizer [Steele+14]: a bijective avalanche mix on 64 bits.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Well-known stream tags used by the campaign engine. Values are part of
/// the reproducibility contract: changing them changes every seeded result.
enum Stream : std::uint64_t {
  kWalkStream = 0,       ///< random-walk test generation
  kMutantStream = 1,     ///< error-model mutant sampling
  kGeneratorStream = 2,  ///< coverage-biased sequence generators (src/gen)
  /// Base for per-run streams (run k uses kRunStream + k). Keep this tag
  /// last: the run range is open-ended upward, so fixed tags must sit
  /// below it. (Renumbering it here was free — derive_run_stream had no
  /// callers yet when kGeneratorStream was inserted.)
  kRunStream = 3,
};

/// Derives the seed of stream `stream` from user seed `seed`: mix the seed,
/// advance the splitmix64 state by `stream` golden-ratio increments, mix
/// again. Mixing the seed first keeps streams independent across related
/// user seeds (seed, seed+1, seed^c, ...) — the failure mode of the old
/// xor-constant split — and the combine is asymmetric in (seed, stream), so
/// no (seed', stream') swap can land on the same state the way a
/// mix(seed)+mix(stream) sum could.
[[nodiscard]] constexpr std::uint64_t derive_stream(std::uint64_t seed,
                                                    std::uint64_t stream) {
  return splitmix64(splitmix64(seed) + stream * kGolden);
}

/// Per-run stream: deterministic in (seed, run_index) only.
[[nodiscard]] constexpr std::uint64_t derive_run_stream(
    std::uint64_t seed, std::uint64_t run_index) {
  return derive_stream(seed, Stream::kRunStream + run_index);
}

}  // namespace simcov::runtime
