// BLIF netlist ingestion and emission (the real-circuit frontend).
//
// Campaigns no longer need a hand-built netlist: io::BlifReader parses the
// Berkeley Logic Interchange Format subset that ISCAS/MCNC-style benchmark
// circuits use and lowers it into the existing sym::SequentialCircuit IR,
// so any such circuit is a first-class test model for the whole stack
// (explicit extraction, symbolic FSMs, tours, packed simulation, the
// validation pipeline). io::BlifWriter emits the same subset back out —
// the round-trip reproduces a structurally identical circuit
// (store::fingerprint_circuit-equal) for every reader-produced netlist,
// which is how checkpoint keys address BLIF campaigns purely by content.
//
// Supported subset (everything else is a line-numbered error):
//   .model <name>                 at most one; name optional
//   .inputs / .outputs <names...> repeatable, `\` continuations
//   .names <in...> <out>          single-output cover; rows over {0,1,-}
//                                 with a single consistent output plane
//   .latch <in> <out> [<type> <ctl>] [<init>]
//                                 init 0/1; 2 (don't care) and 3 (unknown)
//                                 resolve to 0; type/control accepted and
//                                 ignored (single implicit clock)
//   .end                          parsing stops here
//   #-comments, blank lines, `\`-continuations
//
// Rejected with std::invalid_argument naming the offending line:
// `.subckt`/`.search`/`.exdc`/latch-free constructs outside the subset,
// second `.model`, malformed/truncated cover rows, multi-bit output
// planes, mixed ON/OFF covers, duplicate signal drivers, duplicate
// `.inputs`/`.outputs` declarations, undriven signals (cover inputs,
// latch data inputs or declared outputs that nothing drives),
// combinational cycles.
//
// Lowering rules (deterministic, the canonicalization the round-trip
// relies on): primary inputs become network inputs in declaration order,
// then one network input per latch (named after the latch output) in
// declaration order; covers lower in file order with dependencies resolved
// depth-first. Canonical covers map to single gates — `0 1`→NOT,
// `11 1`→AND, `1-`/`-1`→OR, `01`/`10`→XOR, `11-`/`0-1`→MUX(sel,a,b),
// empty/`1`/`0`→constants, `1 1`→alias (no gate) — and anything else to a
// sum-of-products over NOT/AND/OR (an all-`0` output plane complements the
// sum).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "sym/symbolic_fsm.hpp"

namespace simcov::io {

/// A parsed netlist: the lowered circuit plus its `.model` name (empty when
/// the file declares none).
struct BlifCircuit {
  std::string name;
  sym::SequentialCircuit circuit;
};

/// Parser for the BLIF subset documented above. Stateless — one instance
/// may parse any number of files.
class BlifReader {
 public:
  /// Parses a whole BLIF document. `source_name` labels error messages
  /// ("<path>: line N: ..."). Throws std::invalid_argument on any
  /// malformed, unsupported or inconsistent input.
  [[nodiscard]] BlifCircuit read(std::istream& in,
                                 std::string_view source_name = "<blif>") const;
  [[nodiscard]] BlifCircuit read_string(
      std::string_view text, std::string_view source_name = "<string>") const;
  /// Throws std::runtime_error when the file cannot be opened.
  [[nodiscard]] BlifCircuit read_file(const std::string& path) const;
};

/// Emitter for the same subset. Internal gate signals get generated names
/// (`g<id>`, de-collided against declared names); primary inputs and
/// latches keep theirs. Gates are emitted as the canonical covers the
/// reader recognizes, in network storage order, so read(write(c)) is
/// structurally identical to `c` for any reader-produced circuit.
class BlifWriter {
 public:
  /// Throws std::invalid_argument for circuits outside the emittable set:
  /// a validity constraint (BLIF has no input-constraint construct) or
  /// whitespace/empty signal names.
  void write(std::ostream& out, const sym::SequentialCircuit& circuit,
             std::string_view model_name) const;
  [[nodiscard]] std::string to_string(const sym::SequentialCircuit& circuit,
                                      std::string_view model_name) const;
  /// Throws std::runtime_error when the file cannot be written.
  void write_file(const std::string& path,
                  const sym::SequentialCircuit& circuit,
                  std::string_view model_name) const;
};

}  // namespace simcov::io
