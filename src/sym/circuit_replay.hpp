// Concrete replay of input sequences on a SequentialCircuit.
//
// The circuit frontend (src/io) and the external-circuit campaign path
// (pipeline::CircuitReplayStage) both need the same primitive: start the
// latches at their reset values, apply one packed input key per cycle,
// evaluate the combinational network, read the outputs, and clock the
// latches. CircuitReplayer packages that loop on lane 0 of the word-level
// kernel (PackedLogicSim) — validity-aware (a step
// whose (state, input) violates the circuit's constraint ends the replay),
// budget-aware (max_steps truncation is reported, not an error), and
// thread-safe (replay() keeps all scratch local, so one replayer can serve
// every worker of a sharded batch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sym/packed_logic_sim.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::sym {

/// One replayed sequence: per-cycle latch/input/output values plus how the
/// replay ended. Cycle i reads states[i] and inputs[i] and produces
/// outputs[i]; states has one extra entry (the latch values after the last
/// replayed cycle). An invalid step is not recorded at all — the trace
/// covers exactly the `steps` cycles that satisfied the constraint.
struct SequenceTrace {
  std::vector<std::vector<bool>> states;   ///< size steps + 1 (latch order)
  std::vector<std::vector<bool>> inputs;   ///< size steps (PI order)
  std::vector<std::vector<bool>> outputs;  ///< size steps (output order)
  std::size_t steps = 0;   ///< cycles replayed
  bool valid = true;       ///< false: a step violated the circuit constraint
  bool truncated = false;  ///< true: max_steps ended the replay early
};

/// Reusable replay engine over one circuit. Construction resolves every
/// network input to its source (input_sources) and compiles the kernel
/// once; replay() is const and allocation-local, so a single instance may
/// be shared across threads.
class CircuitReplayer {
 public:
  /// Throws std::invalid_argument when the circuit breaks the
  /// SequentialCircuit contract (input_sources) or has more than 63 primary
  /// inputs (the packed-key limit).
  explicit CircuitReplayer(const SequentialCircuit& circuit);

  /// Replays `pi_steps` from reset. Each step is a packed input key: bit k
  /// is primary input k; a set bit beyond the declared inputs throws
  /// std::invalid_argument. Replay stops at the first invalid step
  /// (trace.valid = false, the step unrecorded) or after max_steps cycles
  /// (trace.truncated = true).
  [[nodiscard]] SequenceTrace replay(
      std::span<const std::uint64_t> pi_steps,
      std::size_t max_steps = static_cast<std::size_t>(-1)) const;

 private:
  const SequentialCircuit* circuit_;
  PackedLogicSim sim_;
  std::vector<InputSource> sources_;  // per network input
};

/// One-shot convenience over a throwaway CircuitReplayer.
[[nodiscard]] SequenceTrace replay_sequence(
    const SequentialCircuit& circuit,
    std::span<const std::uint64_t> pi_steps,
    std::size_t max_steps = static_cast<std::size_t>(-1));

}  // namespace simcov::sym
