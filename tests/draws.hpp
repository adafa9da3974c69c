// Counter-indexed splitmix64 draws for the deterministic mutation fuzzers.
// Draw n is runtime::splitmix64(seed + n * runtime::kGolden), so a fixed
// seed gives the same mutants under every standard library.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/rng.hpp"

namespace simcov {

class Draws {
 public:
  explicit Draws(std::uint64_t seed) : base_(seed) {}
  std::uint64_t next() {
    return runtime::splitmix64(base_ + count_++ * runtime::kGolden);
  }
  /// A draw in [0, n); 0 when n is 0.
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t base_;
  std::uint64_t count_ = 0;
};

}  // namespace simcov
