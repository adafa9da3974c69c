#include "sym/logic_network.hpp"

#include <stdexcept>

namespace simcov::sym {

SignalId LogicNetwork::push(Gate g) {
  gates_.push_back(g);
  return static_cast<SignalId>(gates_.size() - 1);
}

void LogicNetwork::check(SignalId s) const {
  if (s >= gates_.size()) {
    throw std::out_of_range("LogicNetwork: signal id out of range");
  }
}

SignalId LogicNetwork::add_input(std::string name) {
  const SignalId id =
      push(Gate{GateOp::kInput, static_cast<SignalId>(inputs_.size()), 0, 0});
  inputs_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

SignalId LogicNetwork::constant(bool value) {
  auto& slot = const_ids_[value ? 1 : 0];
  if (slot < 0) slot = push(Gate{GateOp::kConst, value ? 1u : 0u, 0, 0});
  return static_cast<SignalId>(slot);
}

SignalId LogicNetwork::make_not(SignalId a) {
  check(a);
  return push(Gate{GateOp::kNot, a, 0, 0});
}

SignalId LogicNetwork::make_and(SignalId a, SignalId b) {
  check(a);
  check(b);
  return push(Gate{GateOp::kAnd, a, b, 0});
}

SignalId LogicNetwork::make_or(SignalId a, SignalId b) {
  check(a);
  check(b);
  return push(Gate{GateOp::kOr, a, b, 0});
}

SignalId LogicNetwork::make_xor(SignalId a, SignalId b) {
  check(a);
  check(b);
  return push(Gate{GateOp::kXor, a, b, 0});
}

SignalId LogicNetwork::make_mux(SignalId select, SignalId when_true,
                                SignalId when_false) {
  check(select);
  check(when_true);
  check(when_false);
  return push(Gate{GateOp::kMux, select, when_true, when_false});
}

SignalId LogicNetwork::make_and(std::span<const SignalId> xs) {
  SignalId acc = constant(true);
  for (SignalId x : xs) acc = make_and(acc, x);
  return acc;
}

SignalId LogicNetwork::make_or(std::span<const SignalId> xs) {
  SignalId acc = constant(false);
  for (SignalId x : xs) acc = make_or(acc, x);
  return acc;
}

SignalId LogicNetwork::make_eq(std::span<const SignalId> a,
                               std::span<const SignalId> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("make_eq: width mismatch");
  }
  SignalId acc = constant(true);
  for (std::size_t k = 0; k < a.size(); ++k) {
    acc = make_and(acc, make_not(make_xor(a[k], b[k])));
  }
  return acc;
}

SignalId LogicNetwork::make_eq_const(std::span<const SignalId> a,
                                     std::uint64_t value) {
  // Bits of `value` at or above the vector's width used to be silently
  // dropped, so make_eq_const(a, (1 << n) + k) matched k. Over-width
  // constants can never be equal to the vector — reject them.
  if (a.size() < 64 && (value >> a.size()) != 0) {
    throw std::invalid_argument(
        "make_eq_const: constant does not fit the bit-vector width");
  }
  SignalId acc = constant(true);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const bool bit = (value >> k) & 1u;
    acc = make_and(acc, bit ? a[k] : make_not(a[k]));
  }
  return acc;
}

std::vector<bdd::Bdd> LogicNetwork::eval_bdd(
    bdd::BddManager& mgr, std::span<const bdd::Bdd> input_funcs,
    std::span<const SignalId> roots) const {
  if (input_funcs.size() != inputs_.size()) {
    throw std::invalid_argument("LogicNetwork::eval_bdd: input count mismatch");
  }
  // Gates reference earlier signals only, so one backward pass marks the
  // roots' fan-in. Unused operands are 0, which at worst keeps signal 0 —
  // an input or a constant.
  std::vector<bool> needed(gates_.size(), roots.empty());
  for (const SignalId r : roots) {
    check(r);
    needed[r] = true;
  }
  for (std::size_t s = gates_.size(); s-- > 0;) {
    const Gate& g = gates_[s];
    if (needed[s] && g.op != GateOp::kInput && g.op != GateOp::kConst) {
      needed[g.a] = needed[g.b] = needed[g.c] = true;
    }
  }
  std::vector<bdd::Bdd> val(gates_.size());
  for (std::size_t s = 0; s < gates_.size(); ++s) {
    if (!needed[s]) continue;
    const Gate& g = gates_[s];
    switch (g.op) {
      case GateOp::kInput:
        val[s] = input_funcs[g.a];
        break;
      case GateOp::kConst:
        val[s] = g.a != 0 ? mgr.one() : mgr.zero();
        break;
      case GateOp::kNot:
        val[s] = !val[g.a];
        break;
      case GateOp::kAnd:
        val[s] = val[g.a] & val[g.b];
        break;
      case GateOp::kOr:
        val[s] = val[g.a] | val[g.b];
        break;
      case GateOp::kXor:
        val[s] = val[g.a] ^ val[g.b];
        break;
      case GateOp::kMux:
        val[s] = mgr.ite(val[g.a], val[g.b], val[g.c]);
        break;
    }
  }
  return val;
}

}  // namespace simcov::sym
