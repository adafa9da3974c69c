// VCD (Value Change Dump) serialization of replayed sequences.
//
// A campaign's committed tour is only useful to an external RTL simulator
// if it can be replayed there — io::VcdWriter turns replayed sequence
// traces (sym::SequenceTrace) into a standard IEEE-1364 VCD: one
// `$scope module` per sequence declaring a 1-bit `$var` for every primary
// input, latch and output, then timestamped scalar value changes on a
// shared timeline (sequences play back to back, one timestep per cycle,
// with a trailing tick that exposes the final latch state and parks the
// sequence's inputs/outputs at `x`).
//
// The output is fully deterministic: no dates, no tool banners, and value
// changes are emitted in declaration order — byte-identical runs produce
// byte-identical files, which CI exploits to diff two runs of a campaign.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sym/circuit_replay.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::io {

/// Accumulates replayed sequences for one circuit and writes them as a
/// single VCD document. Signal names are captured at construction, so the
/// writer does not keep a reference to the circuit.
class VcdWriter {
 public:
  /// `module_name` is the top-level `$scope` (each sequence nests inside
  /// it). Throws std::invalid_argument if the circuit declares a network
  /// input that is neither a latch current signal nor a primary input.
  explicit VcdWriter(const sym::SequentialCircuit& circuit,
                     std::string_view module_name = "campaign");

  /// Appends one sequence. `name` becomes its `$scope` (sanitized: VCD
  /// identifiers cannot contain whitespace). Throws std::invalid_argument
  /// when the trace's widths do not match the circuit the writer was built
  /// for.
  void add_sequence(std::string_view name, const sym::SequenceTrace& trace);

  [[nodiscard]] std::size_t num_sequences() const { return traces_.size(); }

  void write(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;
  /// Throws std::runtime_error when the file cannot be written.
  void write_file(const std::string& path) const;

 private:
  std::string module_name_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> latch_names_;
  std::vector<std::string> out_names_;
  std::vector<std::string> seq_names_;
  std::vector<sym::SequenceTrace> traces_;
};

}  // namespace simcov::io
