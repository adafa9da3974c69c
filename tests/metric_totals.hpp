// Name-level totals over an obs::MetricsRegistry summary: counters summed
// and gauges max'ed across every stage that emitted the name, for tests
// that assert on store and watchdog events regardless of stage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace simcov {

/// Sum of every `counter` event named `name` (0 when never emitted).
inline std::uint64_t counter_total(const obs::MetricsRegistry& registry,
                                   std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& entry : registry.summary().counters) {
    if (entry.name == name) total += entry.value;
  }
  return total;
}

/// Maximum of every `gauge` event named `name` (0 when never emitted).
inline std::uint64_t gauge_max(const obs::MetricsRegistry& registry,
                               std::string_view name) {
  std::uint64_t peak = 0;
  for (const auto& entry : registry.summary().gauges) {
    if (entry.name == name) peak = std::max(peak, entry.value);
  }
  return peak;
}

}  // namespace simcov
