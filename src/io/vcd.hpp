// VCD (Value Change Dump) serialization of replayed sequences.
//
// A campaign's committed tour is only useful to an external RTL simulator
// if it can be replayed there — io::VcdWriter turns the campaign's one
// replay of each committed sequence (packed keys, as model::TestModel keys
// them: the state path, the input keys and the output keys) into a
// standard IEEE-1364 VCD: one `$scope module` per sequence declaring a
// 1-bit `$var` for every primary input, latch and output, then timestamped
// scalar value changes on a shared timeline (sequences play back to back,
// one timestep per cycle, with a trailing tick that exposes the final
// latch state and parks the sequence's inputs/outputs at `x`). Keys are
// unpacked into bits at write time.
//
// The output is fully deterministic: no dates, no tool banners, and value
// changes are emitted in declaration order — byte-identical runs produce
// byte-identical files, which CI exploits to diff two runs of a campaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sym/symbolic_fsm.hpp"

namespace simcov::io {

/// Accumulates replayed sequences for one circuit and writes them as a
/// single VCD document. Signal names are captured at construction, so the
/// writer does not keep a reference to the circuit.
class VcdWriter {
 public:
  /// `module_name` is the top-level `$scope` (each sequence nests inside
  /// it). Every sequence is cut after `max_cycles` cycles, the campaign's
  /// per-run cycle budget. Throws std::invalid_argument if a primary input
  /// is not a network input, or if the circuit has more than 63 primary
  /// inputs, latches or outputs (the packed-key limit).
  explicit VcdWriter(const sym::SequentialCircuit& circuit,
                     std::string_view module_name = "campaign",
                     std::size_t max_cycles = static_cast<std::size_t>(-1));

  /// Appends one sequence replayed from reset. Cycle i reads states[i] and
  /// inputs[i] and produces outputs[i]; `states` has one more entry, the
  /// latch key after the last cycle. `name` becomes its `$scope`
  /// (sanitized: VCD identifiers cannot contain whitespace). Throws
  /// std::invalid_argument when the trace's shape is inconsistent or a
  /// kept key sets a bit beyond the circuit's latch, input or output width.
  void add_sequence(std::string_view name,
                    std::span<const std::uint64_t> states,
                    std::span<const std::uint64_t> inputs,
                    std::span<const std::uint64_t> outputs);

  [[nodiscard]] std::size_t num_sequences() const { return traces_.size(); }

  void write(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;
  /// Throws std::runtime_error when the file cannot be written.
  void write_file(const std::string& path) const;

 private:
  /// One sequence's kept cycles: states has one more entry than the rest.
  struct Trace {
    std::vector<std::uint64_t> states, inputs, outputs;
  };

  std::string module_name_;
  std::size_t max_cycles_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> latch_names_;
  std::vector<std::string> out_names_;
  std::vector<std::string> seq_names_;
  std::vector<Trace> traces_;
};

}  // namespace simcov::io
