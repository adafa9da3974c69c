// The scalar gate interpreter the library ran before the word-level kernel
// (sym::PackedLogicSim) replaced it: one forward pass over
// std::vector<bool>. Tests keep it as an oracle independent of the kernel.
#pragma once

#include <stdexcept>
#include <vector>

#include "sym/logic_network.hpp"

namespace simcov {

inline void scalar_eval_into(const sym::LogicNetwork& net,
                             const std::vector<bool>& input_values,
                             std::vector<bool>& val) {
  if (input_values.size() != net.num_inputs()) {
    throw std::invalid_argument("scalar_eval_into: input count mismatch");
  }
  val.assign(net.num_signals(), false);
  for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
    const auto g = net.gate(s);
    switch (g.op) {
      case sym::GateOp::kInput:
        val[s] = input_values[g.a];
        break;
      case sym::GateOp::kConst:
        val[s] = g.a != 0;
        break;
      case sym::GateOp::kNot:
        val[s] = !val[g.a];
        break;
      case sym::GateOp::kAnd:
        val[s] = val[g.a] && val[g.b];
        break;
      case sym::GateOp::kOr:
        val[s] = val[g.a] || val[g.b];
        break;
      case sym::GateOp::kXor:
        val[s] = val[g.a] != val[g.b];
        break;
      case sym::GateOp::kMux:
        val[s] = val[g.a] ? val[g.b] : val[g.c];
        break;
    }
  }
}

}  // namespace simcov
