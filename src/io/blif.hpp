// BLIF netlist ingestion (the real-circuit frontend).
//
// Campaigns no longer need a hand-built netlist: io::BlifReader parses the
// Berkeley Logic Interchange Format subset that ISCAS/MCNC-style benchmark
// circuits use and lowers it into the existing sym::SequentialCircuit IR,
// so any such circuit is a first-class test model for the whole stack
// (explicit extraction, symbolic FSMs, tours, packed simulation, the
// validation pipeline). Lowering is deterministic, so two parses of the
// same text give store::fingerprint_circuit-equal circuits; checkpoint keys
// hash that lowered circuit, which addresses BLIF campaigns by content.
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
// Lowering rules (deterministic): primary inputs become network inputs in
// declaration order, then one network input per latch (named after the
// latch output) in declaration order; covers lower in file order with
// dependencies resolved depth-first. Canonical covers map to single
// gates — `0 1`→NOT, `11 1`→AND, `1-`/`-1`→OR, `01`/`10`→XOR,
// `11-`/`0-1`→MUX(sel,a,b), empty/`1`/`0`→constants, `1 1`→alias (no
// gate) — and anything else to a sum-of-products over NOT/AND/OR (an
// all-`0` output plane complements the sum).
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

}  // namespace simcov::io
