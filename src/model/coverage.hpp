// Backend-neutral coverage accounting.
//
// The paper's coverage measure — which fraction of the reachable states and
// reachable (state, input) transitions a test set exercises — is defined on
// the *model*, not on a particular representation of it. TestModel::evaluate
// counts every replayed test set through a CoverageTracker, and so do the
// sequence generators (src/gen) while they walk. The transition-tour walks
// report the same two counts from their own tables instead of replaying
// what they yielded: the symbolic tour driver (src/sym) a visited bit per
// state and a taken bit per edge, the explicit walk table (src/tour) a
// visited bit per state and a coverage cursor per state. Every backend thus
// reports the identical statistic: distinct visited states and distinct
// exercised transitions over the reachable totals.
//
// Header-only on purpose: it sits *below* the symbolic backend in the
// dependency order (sym includes it for CoverageStats without linking
// anything), while the TestModel adapters that consume it live in the
// simcov_model library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace simcov::model {

/// State/transition coverage of a test set over the reachable portion of a
/// model. Counts are doubles because symbolic backends measure totals by
/// BDD satisfying-assignment counts (exact for anything below 2^53, which
/// covers the paper's 123M-transition model with room to spare).
struct CoverageStats {
  double states_visited = 0.0;
  double states_total = 0.0;
  double transitions_covered = 0.0;
  double transitions_total = 0.0;

  [[nodiscard]] double state_coverage() const {
    return states_total == 0.0 ? 1.0 : states_visited / states_total;
  }
  [[nodiscard]] double transition_coverage() const {
    return transitions_total == 0.0 ? 1.0
                                    : transitions_covered / transitions_total;
  }
  [[nodiscard]] bool complete() const {
    return transitions_covered == transitions_total;
  }

  friend bool operator==(const CoverageStats&, const CoverageStats&) = default;
};

/// Accumulates the distinct states visited and distinct (state, input)
/// transitions exercised by a walk. States and inputs are the packed 64-bit
/// keys of the TestModel interface (explicit ids or packed latch/PI bits);
/// the tracker itself is representation-blind.
class CoverageTracker {
 public:
  CoverageTracker() = default;
  CoverageTracker(double states_total, double transitions_total)
      : totals_{0.0, states_total, 0.0, transitions_total} {}

  void set_totals(double states_total, double transitions_total) {
    totals_.states_total = states_total;
    totals_.transitions_total = transitions_total;
  }

  void visit_state(std::uint64_t state) { states_.insert(state); }

  void cover_transition(std::uint64_t state, std::uint64_t input) {
    ++transitions_[TransitionKey{state, input}];
  }

  [[nodiscard]] std::size_t states_visited() const { return states_.size(); }
  [[nodiscard]] std::size_t transitions_covered() const {
    return transitions_.size();
  }

  /// How many times the walk exercised (state, input); 0 when uncovered.
  /// The coverage-biased generators (gen::BiasedRandomSource) reweight
  /// their next-input distribution by this count.
  [[nodiscard]] std::uint64_t hits(std::uint64_t state,
                                   std::uint64_t input) const {
    const auto it = transitions_.find(TransitionKey{state, input});
    return it == transitions_.end() ? 0 : it->second;
  }

  /// Calls `fn(hits)` once per distinct covered transition with how many
  /// times the walk exercised it. Iteration order is unspecified — consumers
  /// building tour-balance statistics (obs::coverage_telemetry) aggregate
  /// into order-insensitive forms (histograms, max).
  template <typename Fn>
  void for_each_transition_hit(Fn&& fn) const {
    for (const auto& [key, hits] : transitions_) fn(hits);
  }

  [[nodiscard]] CoverageStats stats() const {
    CoverageStats s = totals_;
    s.states_visited = static_cast<double>(states_.size());
    s.transitions_covered = static_cast<double>(transitions_.size());
    return s;
  }

 private:
  /// Exact (state, input) identity — counts must be collision-free, they
  /// feed the cross-backend differential contract.
  struct TransitionKey {
    std::uint64_t state;
    std::uint64_t input;
    friend bool operator==(const TransitionKey&,
                           const TransitionKey&) = default;
  };
  struct TransitionKeyHash {
    std::size_t operator()(const TransitionKey& k) const {
      // splitmix64 finalizer over the combined pair — hash quality only;
      // equality stays exact.
      std::uint64_t x = k.state + 0x9e3779b97f4a7c15ull * (k.input + 1);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }
  };

  std::unordered_set<std::uint64_t> states_;
  /// Distinct coverage *and* balance: the mapped value counts how many times
  /// each transition was exercised, so the tour-balance histogram costs no
  /// extra pass. size() still gives the distinct count the stats() use.
  std::unordered_map<TransitionKey, std::uint64_t, TransitionKeyHash>
      transitions_;
  CoverageStats totals_;
};

}  // namespace simcov::model
