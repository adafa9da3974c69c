// The representation-independent test-model seam.
//
// The paper's methodology is representation-blind: the same tour-and-
// simulate flow runs on a small explicitly enumerated test model and on the
// 22-latch / 123M-transition implicit (BDD) model of Section 7.2. TestModel
// is that seam: one interface over "reset state, valid inputs, reachable
// counts", one per-step primitive (transition_batch: successor and output
// of each lane's (state, input)) and one tour primitive (tour_source: the
// transition tour as a stream), with two adapters —
//
//   * ExplicitModel (explicit_model.hpp): wraps fsm::MealyMachine, tours
//     via src/tour;
//   * SymbolicModel (symbolic_model.hpp): wraps sym::SymbolicFsm, tours via
//     src/sym's memoized-walk driver.
//
// Both report coverage as model::CoverageStats defines it — distinct
// visited states and exercised transitions over the reachable totals — so
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
// the generator to concretization.
#pragma once

#include <atomic>
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

/// SequenceSource over an already materialized TourResult — how the
/// pipeline streams its materialized baselines (random walk, state tour,
/// W-method), and a handy wrapper for tests.
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

/// One step of a lockstep replay (replay_lockstep): sequence `lane` took
/// the transition `state --input/output--> next`.
struct ReplayStep {
  std::size_t lane = 0;
  std::uint64_t state = 0;
  std::uint64_t input = 0;
  std::uint64_t output = 0;
  std::uint64_t next = 0;
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
  /// The one way to ask a model where an input takes a state: lane L
  /// advances states[L] under inputs[L], writing the successor key into
  /// next[L] and the packed output into out[L] — nullopt in both when the
  /// input is invalid in that state (the paper's input don't-cares).
  /// Outputs follow the key convention: little-endian output bits for
  /// circuit-backed models, the dense output id for bare Mealy machines
  /// (the two coincide through encode_circuit). All spans must agree in
  /// size (std::invalid_argument otherwise). Circuit-backed models evaluate
  /// 64 lanes per word-level network pass (sym::PackedCircuitSim), so
  /// callers batch independent lanes (replay_lockstep).
  virtual void transition_batch(
      std::span<const std::uint64_t> states,
      std::span<const std::uint64_t> inputs,
      std::span<std::optional<std::uint64_t>> next,
      std::span<std::optional<std::uint64_t>> out) = 0;

  [[nodiscard]] virtual double count_reachable_states() = 0;
  /// Valid (state, input) pairs with a reachable source state — the
  /// transitions a tour must cover.
  [[nodiscard]] virtual double count_reachable_transitions() = 0;

  /// The transition tour from reset as a stream of reset-separated
  /// sequences. Its summary() reports the coverage the walk's own table
  /// keeps, which equals evaluate() of the sequences yielded so far. This
  /// is the transition-tour strategy behind the SequenceSource seam —
  /// other strategies (biased-random, hybrid) live in src/gen and are
  /// selected through gen::open_sequence_source. The symbolic walk stops
  /// at sym::SymbolicTourOptions' default step cap.
  virtual std::unique_ptr<SequenceSource> tour_source() = 0;

  /// Random walk of `length` steps from reset (uniform over the valid
  /// inputs of the current state), deterministic in `seed`.
  virtual TourResult random_walk(std::size_t length, std::uint64_t seed) = 0;

  // ---- Shared helpers over the primitives --------------------------------

  /// tour_source() drained: its summary() with every sequence.
  TourResult transition_tour();

  /// The one evaluator of a replayed test set: replays `tour` from reset
  /// through a CoverageTracker. Throws as replay_lockstep does
  /// (std::domain_error on an invalid input).
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

/// Replays every sequence of `batch` from reset in lockstep: lane L is
/// sequence L, and each round is one transition_batch call over the lanes
/// that still have steps left. `visit` sees every step, each lane's steps
/// in order. Throws std::invalid_argument on a key wider than
/// input_bits() and std::domain_error on an input that is invalid in its
/// state. Checks `stop` between rounds: once it is set, returns false with
/// the batch only partly replayed. Calls the model, so one thread at a
/// time.
bool replay_lockstep(TestModel& model, std::span<const Sequence> batch,
                     const std::function<void(const ReplayStep&)>& visit,
                     const std::atomic<bool>* stop = nullptr);

}  // namespace simcov::model
