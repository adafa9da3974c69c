// Bit-parallel (word-level) evaluation of combinational logic networks.
//
// The classic fault-simulation trick [ROADMAP: "Bit-parallel and sharded
// simulation"]: a signal's value for 64 independent simulations is packed
// into one std::uint64_t — bit L of every word is lane L's run — so one
// pass of word ops (~, &, |, ^) evaluates the whole network for 64 input
// vectors at once. PackedLogicSim is the only concrete evaluator of a
// LogicNetwork: it levelizes the gate DAG once at construction and
// compiles the level-major schedule into a flat instruction array
// {op, dst, a, b, c}, with signal ids checked once, there. A pass runs that
// array over a buffer whose constant signals are pre-filled and whose input
// signals the caller writes directly. Sequential users that need one run
// (concretize, circuit replay) use lane 0 and ignore the rest.
//
// PackedCircuitSim lifts the same trick to a SequentialCircuit: each lane
// is an independent (state, input) pair in the packed 64-bit key encoding
// of model::TestModel, so batch stepping 64 test-model sequences costs one
// network pass instead of 64.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sym/logic_network.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::sym {

class PackedLogicSim {
 public:
  /// Lanes per machine word; partial blocks simply leave high lanes unused.
  static constexpr std::size_t kLanes = 64;

  /// Levelizes `net` (inputs and constants at level 0, every other gate one
  /// past its deepest operand) and compiles the instruction array. The
  /// network must outlive the simulator.
  explicit PackedLogicSim(const LogicNetwork& net);

  [[nodiscard]] const LogicNetwork& network() const { return *net_; }
  /// Depth of the levelized DAG (0 for a network of bare inputs/constants).
  [[nodiscard]] std::size_t num_levels() const { return num_levels_; }
  [[nodiscard]] std::size_t level(SignalId s) const { return levels_[s]; }

  /// Signal of network input k: run() reads input k's lane word from
  /// values[input_signal(k)].
  [[nodiscard]] SignalId input_signal(std::size_t k) const {
    return net_->inputs()[k];
  }

  /// Sizes `values` to num_signals() and writes the constant signals. No
  /// pass writes a constant or an input signal, so one prepared buffer
  /// serves every later run().
  void prepare(std::vector<std::uint64_t>& values) const;

  /// One pass over a prepared buffer whose input signals hold their lane
  /// words: every gate signal gets its lane word. Throws
  /// std::invalid_argument when `values` is not num_signals() long.
  void run(std::span<std::uint64_t> values) const;

  /// prepare() + write `input_words[k]` (bit L = lane L of input k) to
  /// input k + run(). Lanes beyond the ones the caller packed compute
  /// garbage-in/garbage-out and are simply ignored on readback. Throws
  /// std::invalid_argument on an input-count mismatch.
  void eval_into(std::span<const std::uint64_t> input_words,
                 std::vector<std::uint64_t>& values) const;

  /// Packs per-lane booleans into a lane word (bit L = lanes[L]).
  [[nodiscard]] static std::uint64_t pack_lanes(std::span<const bool> lanes);

 private:
  /// One gate of the schedule; operand meaning follows GateOp.
  struct Instr {
    GateOp op;
    SignalId dst, a, b, c;
  };

  const LogicNetwork* net_;
  std::vector<std::uint32_t> levels_;  // per signal
  std::vector<Instr> program_;         // gates only, level-major order
  std::vector<std::pair<SignalId, std::uint64_t>> constants_;
  std::size_t num_levels_ = 0;
};

/// Word-level batch stepper for a SequentialCircuit: every lane is one
/// independent (state, input) pair, packed little-endian into 64-bit keys
/// exactly as model::TestModel does. Stateless between calls — latches are
/// part of the per-lane state keys the caller threads through.
class PackedCircuitSim {
 public:
  static constexpr std::size_t kLanes = PackedLogicSim::kLanes;

  /// The circuit must outlive the simulator. Throws std::invalid_argument
  /// beyond 63 latches / primary inputs (the packed-key limit) or when the
  /// circuit breaks the SequentialCircuit contract (input_sources). Reading
  /// outputs additionally requires at most 63 output signals (checked per
  /// step() call, like SymbolicModel::output).
  explicit PackedCircuitSim(const SequentialCircuit& circuit);

  /// Steps lanes [0, states.size()) once: lane L starts in state key
  /// states[L] and consumes input key inputs[L]. Returns the mask of lanes
  /// whose (state, input) satisfies the circuit's validity constraint;
  /// next[L] and (when `outputs` is non-empty) outputs[L] are filled for
  /// valid lanes only. Spans must agree in size (at most kLanes).
  std::uint64_t step(std::span<const std::uint64_t> states,
                     std::span<const std::uint64_t> inputs,
                     std::span<std::uint64_t> next,
                     std::span<std::uint64_t> outputs = {}) const;

 private:
  const SequentialCircuit* circuit_;
  PackedLogicSim sim_;
  std::vector<InputSource> sources_;            // per network input
  mutable std::vector<std::uint64_t> values_;  // reused prepared buffer
};

}  // namespace simcov::sym
