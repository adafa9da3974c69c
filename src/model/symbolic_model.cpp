#include "model/symbolic_model.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

namespace simcov::model {

SymbolicModel::SymbolicModel(const sym::SequentialCircuit& circuit,
                             bdd::ReorderPolicy reorder)
    // The comma expression rejects a circuit too wide for packed keys and
    // installs the reordering policy on the manager, both before SymbolicFsm
    // builds the transition relation in it: on a too-wide circuit that build
    // can run for minutes and gigabytes before packed_ would reject it.
    : fsm_((sym::PackedCircuitSim::check_key_widths(circuit),
            mgr_.set_reorder_policy(reorder), mgr_),
           circuit),
      packed_(fsm_.circuit()),
      reset_(pack_bits(fsm_.initial_state_bits())),
      classes_(fsm_) {}

std::vector<TestModel::Edge> SymbolicModel::edges(std::uint64_t state) {
  const auto it = edge_cache_.find(state);
  if (it != edge_cache_.end()) return it->second;

  const auto inputs = classes_.inputs(classes_.class_of(state));
  std::vector<std::uint64_t> next;
  sym::step_successors(packed_, state, inputs, next);
  std::vector<Edge> out;
  out.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out.push_back(Edge{inputs[i], next[i]});
  }
  std::sort(out.begin(), out.end(),
            [](const Edge& a, const Edge& b) { return a.input < b.input; });
  return edge_cache_.emplace(state, std::move(out)).first->second;
}

void SymbolicModel::transition_batch(
    std::span<const std::uint64_t> states,
    std::span<const std::uint64_t> inputs,
    std::span<std::optional<std::uint64_t>> next,
    std::span<std::optional<std::uint64_t>> out) {
  if (inputs.size() != states.size() || next.size() != states.size() ||
      out.size() != states.size()) {
    throw std::invalid_argument(
        "SymbolicModel::transition_batch: lane span mismatch");
  }
  std::array<std::uint64_t, sym::PackedCircuitSim::kLanes> next_scratch;
  std::array<std::uint64_t, sym::PackedCircuitSim::kLanes> out_scratch;
  for (std::size_t base = 0; base < states.size();
       base += sym::PackedCircuitSim::kLanes) {
    const std::size_t lanes =
        std::min(sym::PackedCircuitSim::kLanes, states.size() - base);
    const std::uint64_t valid = packed_.step(
        states.subspan(base, lanes), inputs.subspan(base, lanes),
        std::span<std::uint64_t>(next_scratch.data(), lanes),
        std::span<std::uint64_t>(out_scratch.data(), lanes));
    for (std::size_t l = 0; l < lanes; ++l) {
      const bool ok = ((valid >> l) & 1u) != 0;
      next[base + l] =
          ok ? std::optional<std::uint64_t>(next_scratch[l]) : std::nullopt;
      out[base + l] =
          ok ? std::optional<std::uint64_t>(out_scratch[l]) : std::nullopt;
    }
  }
}

double SymbolicModel::count_reachable_states() {
  return fsm_.count_states(fsm_.reachable_states());
}

double SymbolicModel::count_reachable_transitions() {
  return fsm_.count_transitions(fsm_.reachable_states());
}

namespace {

/// Streaming transition tour over sym::SymbolicTourStream — sequences come
/// out of the suspended BDD walk one reset at a time.
class SymbolicModelTourStream final : public SequenceSource {
 public:
  explicit SymbolicModelTourStream(sym::SymbolicFsm& fsm) : stream_(fsm) {}

  std::optional<Sequence> next_sequence() override {
    return stream_.next_sequence();
  }

  TourResult summary() override {
    auto sym_result = stream_.summary();
    TourResult result;
    result.coverage = sym_result.stats;
    result.steps = sym_result.steps;
    result.restarts = sym_result.restarts;
    result.complete = sym_result.complete;
    return result;
  }

 private:
  sym::SymbolicTourStream stream_;
};

}  // namespace

std::unique_ptr<SequenceSource> SymbolicModel::tour_source() {
  return std::make_unique<SymbolicModelTourStream>(fsm_);
}

TourResult SymbolicModel::random_walk(std::size_t length,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CoverageTracker tracker(count_reachable_states(),
                          count_reachable_transitions());
  TourResult result;
  result.tour.sequences.emplace_back();
  std::uint64_t at = reset_;
  tracker.visit_state(at);
  for (std::size_t step = 0; step < length; ++step) {
    const auto& out = edges(at);
    if (out.empty()) {
      throw std::domain_error("SymbolicModel: dead-end state reached");
    }
    const Edge e = out[rng() % out.size()];
    result.tour.sequences.back().push_back(e.input);
    tracker.cover_transition(at, e.input);
    at = e.next;
    tracker.visit_state(at);
    ++result.steps;
  }
  result.coverage = tracker.stats();
  result.complete = result.coverage.complete();
  return result;
}

}  // namespace simcov::model
