// The representation-independent test-model seam.
//
// The paper's methodology is representation-blind: the same tour-and-
// simulate flow runs on a small explicitly enumerated test model and on the
// 22-latch / 123M-transition implicit (BDD) model of Section 7.2. TestModel
// is that seam: one interface over "reset state, valid inputs, step,
// reachable counts, transition tour", with two adapters —
//
//   * ExplicitModel (explicit_model.hpp): wraps fsm::MealyMachine, tours
//     via src/tour;
//   * SymbolicModel (symbolic_model.hpp): wraps sym::SymbolicFsm, tours via
//     src/sym's memoized-walk driver.
//
// Both report coverage by the shared model::CoverageTracker definition, so
// "state coverage" and "transition coverage" mean the same thing whichever
// backend produced them, and core::run_campaign can pick the backend by
// model size instead of truncating large state spaces.
//
// Keys: states and inputs are packed little-endian into 64-bit keys — the
// latch / primary-input bit vectors for circuit-backed models, the dense
// ids for bare Mealy machines (whose binary encodings coincide with the
// ids). The packing caps both widths at 63 bits, far beyond explicit reach
// and matching the symbolic tour driver's existing limit. A test step is its
// input key, so a test sequence (model::Sequence) is a vector of keys from
// the generator through the store to concretization.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "model/coverage.hpp"

namespace simcov::model {

enum class Backend : std::uint8_t {
  kExplicit,  ///< enumerated fsm::MealyMachine
  kSymbolic,  ///< implicit BDD representation (sym::SymbolicFsm)
};

[[nodiscard]] const char* backend_name(Backend backend);

/// One reset-separated test sequence: each step is the packed input key of
/// the model's input symbol (the primary-input bits, little-endian in the
/// model's PI order, for circuit-backed models).
using Sequence = std::vector<std::uint64_t>;

/// A backend-neutral test set: reset-separated input sequences — exactly
/// what validate::concretize consumes.
struct Tour {
  std::vector<Sequence> sequences;

  [[nodiscard]] std::size_t total_steps() const {
    std::size_t n = 0;
    for (const auto& seq : sequences) n += seq.size();
    return n;
  }
};

struct TourOptions {
  /// Hard cap on total walk length (symbolic backend; explicit generators
  /// always terminate).
  std::size_t max_steps = 10'000'000;
};

struct TourResult {
  Tour tour;
  CoverageStats coverage;
  std::size_t steps = 0;
  std::size_t restarts = 0;  ///< reset-separated sequence boundaries
  bool complete = false;     ///< every reachable transition covered
};

/// The streaming seam between sequence generation and the rest of the
/// pipeline: reset-separated sequences are pulled one at a time, so
/// downstream stages (concretize, simulate) can run while later sequences
/// are still being generated, and the full test set need never be
/// materialized. Transition tours, coverage-biased random walks and hybrid
/// generators (src/gen) are all strategies behind this one interface.
class SequenceSource {
 public:
  virtual ~SequenceSource() = default;

  /// The next reset-separated input sequence; nullopt once the tour has
  /// ended.
  virtual std::optional<Sequence> next_sequence() = 0;

  /// Tour statistics so far (coverage, steps, restarts, complete). Final
  /// once next_sequence() has returned nullopt. The returned result's
  /// `tour` is empty — the caller already holds the yielded sequences.
  virtual TourResult summary() = 0;
};

/// SequenceSource over an already materialized TourResult — the adapter
/// behind TestModel::tour_source's default implementation and a handy
/// wrapper for tests.
class MaterializedTourStream final : public SequenceSource {
 public:
  explicit MaterializedTourStream(TourResult result)
      : result_(std::move(result)) {}

  std::optional<Sequence> next_sequence() override {
    if (next_ >= result_.tour.sequences.size()) return std::nullopt;
    return std::move(result_.tour.sequences[next_++]);
  }

  TourResult summary() override {
    TourResult out;
    out.coverage = result_.coverage;
    out.steps = result_.steps;
    out.restarts = result_.restarts;
    out.complete = result_.complete;
    return out;
  }

 private:
  TourResult result_;
  std::size_t next_ = 0;
};

class TestModel {
 public:
  /// A valid (input, successor) edge out of a state, packed keys.
  struct Edge {
    std::uint64_t input = 0;
    std::uint64_t next = 0;

    friend bool operator==(const Edge&, const Edge&) = default;
  };

  virtual ~TestModel() = default;

  [[nodiscard]] virtual Backend backend() const = 0;
  /// Width of one input step in primary-input bits.
  [[nodiscard]] virtual unsigned input_bits() const = 0;
  /// Width of one state in latch bits.
  [[nodiscard]] virtual unsigned state_bits() const = 0;
  /// Packed reset state.
  [[nodiscard]] virtual std::uint64_t reset_state() const = 0;

  /// All valid (input, successor) pairs out of `state`, sorted by input key.
  virtual std::vector<Edge> edges(std::uint64_t state) = 0;
  /// Successor of `state` under `input`; nullopt when the input is invalid
  /// in that state (the paper's input don't-cares).
  virtual std::optional<std::uint64_t> step(std::uint64_t state,
                                            std::uint64_t input) = 0;
  /// Packed output of the transition out of `state` under `input`; nullopt
  /// when the input is invalid there. Packing follows the key convention:
  /// little-endian output bits for circuit-backed models, the dense output
  /// id for bare Mealy machines (the two coincide through encode_circuit).
  /// Part of the fingerprinting surface — behavioural fingerprints must see
  /// output errors, which leave the edge structure unchanged.
  virtual std::optional<std::uint64_t> output(std::uint64_t state,
                                              std::uint64_t input) = 0;

  /// Batch (bit-parallel) form of step(): lane L advances states[L] under
  /// inputs[L], writing the successor (or nullopt for an invalid input)
  /// into next[L]. All spans must agree in size; callers group lanes in
  /// blocks of at most 64 so circuit-backed overrides can evaluate all
  /// lanes in one word-level network pass (sym::PackedCircuitSim). The
  /// base implementation loops over step(), so every backend answers
  /// identically — batch entry points are a throughput contract, never a
  /// semantic one.
  virtual void step_batch(std::span<const std::uint64_t> states,
                          std::span<const std::uint64_t> inputs,
                          std::span<std::optional<std::uint64_t>> next);
  /// Batch form of output(), same lane convention as step_batch().
  virtual void output_batch(std::span<const std::uint64_t> states,
                            std::span<const std::uint64_t> inputs,
                            std::span<std::optional<std::uint64_t>> out);

  [[nodiscard]] virtual double count_reachable_states() = 0;
  /// Valid (state, input) pairs with a reachable source state — the
  /// transitions a tour must cover.
  [[nodiscard]] virtual double count_reachable_transitions() = 0;

  /// Transition tour from reset, coverage accounted through a shared
  /// CoverageTracker (identical definition across backends).
  virtual TourResult transition_tour(const TourOptions& options = {}) = 0;

  /// Streaming form of transition_tour: yields the identical sequences in
  /// the identical order, one at a time. The base implementation simply
  /// materializes transition_tour; ExplicitModel and SymbolicModel override
  /// it with generators that produce sequences incrementally. This is the
  /// transition-tour strategy behind the SequenceSource seam — other
  /// strategies (biased-random, hybrid) live in src/gen and are selected
  /// through gen::open_sequence_source.
  virtual std::unique_ptr<SequenceSource> tour_source(
      const TourOptions& options = {});

  /// Random walk of `length` steps from reset (uniform over the valid
  /// inputs of the current state), deterministic in `seed`.
  virtual TourResult random_walk(std::size_t length, std::uint64_t seed) = 0;

  // ---- Shared helpers over the primitives --------------------------------

  /// Deterministic BFS over the reachable state space from reset, in packed-
  /// key order: states are expanded in the order discovered, and within a
  /// state the edges arrive sorted by input key (the edges() contract). The
  /// callback sees every reachable (state, input, successor) triple exactly
  /// once. Both backends produce the identical traversal for the same
  /// machine — this is the canonicalization behind store::fingerprint_model.
  /// Throws std::runtime_error when more than `max_states` states are
  /// discovered.
  void visit_reachable(
      std::size_t max_states,
      const std::function<void(std::uint64_t state, const Edge& edge)>& visit);

  /// Replays a tour from reset through a CoverageTracker. Throws
  /// std::domain_error on an invalid input.
  CoverageStats evaluate(const Tour& tour);

  /// Packs a little-endian bit vector into a key (at most 63 bits). This
  /// and unpack_bits are inline, so layers below the model library (the
  /// symbolic walk, circuit replay) share them.
  static std::uint64_t pack_bits(const std::vector<bool>& bits) {
    if (bits.size() > 63) {
      throw std::invalid_argument("TestModel::pack_bits: more than 63 bits");
    }
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < bits.size(); ++j) {
      if (bits[j]) key |= std::uint64_t{1} << j;
    }
    return key;
  }
  /// Identity on a key that is already packed. It exists only so the
  /// benchmark driver (simbench/simbench.cpp), which hashes each yielded
  /// step through pack_bits, compiles unchanged now that steps are keys.
  static std::uint64_t pack_bits(std::uint64_t key) { return key; }
  /// Unpacks a key into `width` little-endian bits.
  static std::vector<bool> unpack_bits(std::uint64_t key, unsigned width) {
    std::vector<bool> bits(width);
    for (unsigned j = 0; j < width; ++j) bits[j] = (key >> j) & 1u;
    return bits;
  }
};

}  // namespace simcov::model
