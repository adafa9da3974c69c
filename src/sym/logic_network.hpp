// Combinational logic networks (gate-level IR).
//
// Test models are bit-level netlists: latches plus next-state/output logic
// (the paper derives them from the RTL by removing datapath state, Section
// 6.1; we build them programmatically in src/testmodel). A LogicNetwork is
// a DAG of gates over named inputs, evaluatable concretely, 64 runs per
// pass (sym::PackedLogicSim), and symbolically (BDDs) — the latter is how
// transition relations are built.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace simcov::sym {

using SignalId = std::uint32_t;

enum class GateOp : std::uint8_t {
  kInput,
  kConst,
  kNot,
  kAnd,
  kOr,
  kXor,
  kMux,  ///< a = select, b = when-true, c = when-false
};

/// A combinational gate DAG. Gates reference earlier signals only, so the
/// storage order is topological and evaluation is a single forward pass.
class LogicNetwork {
 public:
  /// Fresh primary input signal.
  SignalId add_input(std::string name);
  /// Constant signal (shared per value).
  SignalId constant(bool value);

  SignalId make_not(SignalId a);
  SignalId make_and(SignalId a, SignalId b);
  SignalId make_or(SignalId a, SignalId b);
  SignalId make_xor(SignalId a, SignalId b);
  SignalId make_mux(SignalId select, SignalId when_true, SignalId when_false);

  /// n-ary conveniences (empty spans give the neutral constant).
  SignalId make_and(std::span<const SignalId> xs);
  SignalId make_or(std::span<const SignalId> xs);
  /// 1 iff bit-vectors a and b are equal (same length required).
  SignalId make_eq(std::span<const SignalId> a, std::span<const SignalId> b);
  /// 1 iff the bit-vector equals the little-endian constant `value`.
  /// Throws std::invalid_argument when `value` has bits at or above
  /// a.size() — an over-width constant can never match.
  SignalId make_eq_const(std::span<const SignalId> a, std::uint64_t value);

  [[nodiscard]] std::size_t num_signals() const { return gates_.size(); }
  [[nodiscard]] std::size_t num_inputs() const { return inputs_.size(); }
  [[nodiscard]] std::span<const SignalId> inputs() const { return inputs_; }
  [[nodiscard]] const std::string& input_name(std::size_t k) const {
    return input_names_[k];
  }

  /// Read-only view of one gate, for structural hashing / serialization of
  /// circuits (store::fingerprint_circuit) and for compiling the word-level
  /// kernel (sym::PackedLogicSim). Operand meaning follows GateOp;
  /// unused operands are 0.
  struct GateView {
    GateOp op;
    SignalId a, b, c;
  };
  [[nodiscard]] GateView gate(SignalId s) const {
    check(s);
    const Gate& g = gates_[s];
    return GateView{g.op, g.a, g.b, g.c};
  }

  /// Symbolic evaluation: BDD for every signal, given one BDD per input.
  [[nodiscard]] std::vector<bdd::Bdd> eval_bdd(
      bdd::BddManager& mgr, std::span<const bdd::Bdd> input_funcs) const;

 private:
  struct Gate {
    GateOp op;
    SignalId a = 0, b = 0, c = 0;  // operands (see GateOp); input index for
                                   // kInput; value (0/1) in `a` for kConst
  };

  SignalId push(Gate g);
  void check(SignalId s) const;

  std::vector<Gate> gates_;
  std::vector<SignalId> inputs_;
  std::vector<std::string> input_names_;
  std::int64_t const_ids_[2] = {-1, -1};
};

}  // namespace simcov::sym
