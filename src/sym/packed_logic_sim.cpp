#include "sym/packed_logic_sim.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace simcov::sym {

// ---------------------------------------------------------------------------
// PackedLogicSim
// ---------------------------------------------------------------------------

PackedLogicSim::PackedLogicSim(const LogicNetwork& net) : net_(&net) {
  const std::size_t n = net.num_signals();
  levels_.assign(n, 0);
  for (SignalId s = 0; s < n; ++s) {
    const auto g = net.gate(s);
    std::uint32_t lvl = 0;
    switch (g.op) {
      case GateOp::kInput:
        break;
      case GateOp::kConst:
        constants_.emplace_back(s, g.a != 0 ? ~std::uint64_t{0} : 0);
        break;
      case GateOp::kNot:
        lvl = levels_[g.a] + 1;
        break;
      case GateOp::kAnd:
      case GateOp::kOr:
      case GateOp::kXor:
        lvl = std::max(levels_[g.a], levels_[g.b]) + 1;
        break;
      case GateOp::kMux:
        lvl = std::max({levels_[g.a], levels_[g.b], levels_[g.c]}) + 1;
        break;
    }
    levels_[s] = lvl;
    num_levels_ = std::max<std::size_t>(num_levels_, lvl);
  }
  // Level-major schedule: gates of one level are independent, so any order
  // within a level is topological. Grouping them by op keeps the dispatch
  // predictable; the stable sort keeps id order within a group, so the
  // array is deterministic.
  for (SignalId s = 0; s < n; ++s) {
    if (levels_[s] == 0) continue;
    const auto g = net.gate(s);
    program_.push_back(Instr{g.op, s, g.a, g.b, g.c});
  }
  std::stable_sort(program_.begin(), program_.end(),
                   [this](const Instr& x, const Instr& y) {
                     return std::pair(levels_[x.dst], x.op) <
                            std::pair(levels_[y.dst], y.op);
                   });
}

std::uint64_t PackedLogicSim::pack_lanes(std::span<const bool> lanes) {
  std::uint64_t word = 0;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (lanes[l]) word |= std::uint64_t{1} << l;
  }
  return word;
}

void PackedLogicSim::prepare(std::vector<std::uint64_t>& values) const {
  values.resize(levels_.size());
  for (const auto& [s, word] : constants_) values[s] = word;
}

void PackedLogicSim::run(std::span<std::uint64_t> values) const {
  if (values.size() != levels_.size()) {
    throw std::invalid_argument("PackedLogicSim::run: buffer size mismatch");
  }
  std::uint64_t* v = values.data();
  for (const Instr& g : program_) {
    switch (g.op) {
      case GateOp::kNot:
        v[g.dst] = ~v[g.a];
        break;
      case GateOp::kAnd:
        v[g.dst] = v[g.a] & v[g.b];
        break;
      case GateOp::kOr:
        v[g.dst] = v[g.a] | v[g.b];
        break;
      case GateOp::kXor:
        v[g.dst] = v[g.a] ^ v[g.b];
        break;
      case GateOp::kMux:
        v[g.dst] = (v[g.a] & v[g.b]) | (~v[g.a] & v[g.c]);
        break;
      case GateOp::kInput:
      case GateOp::kConst:
        break;  // level 0: never in the array
    }
  }
}

void PackedLogicSim::eval_into(std::span<const std::uint64_t> input_words,
                               std::vector<std::uint64_t>& values) const {
  const auto inputs = net_->inputs();
  if (input_words.size() != inputs.size()) {
    throw std::invalid_argument(
        "PackedLogicSim::eval_into: input count mismatch");
  }
  prepare(values);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    values[inputs[k]] = input_words[k];
  }
  run(values);
}

// ---------------------------------------------------------------------------
// PackedCircuitSim
// ---------------------------------------------------------------------------

PackedCircuitSim::PackedCircuitSim(const SequentialCircuit& circuit)
    : circuit_(&circuit), sim_(circuit.net), sources_(input_sources(circuit)) {
  check_key_widths(circuit);
  sim_.prepare(values_);
}

void PackedCircuitSim::check_key_widths(const SequentialCircuit& circuit) {
  if (circuit.latches.size() > 63 || circuit.primary_inputs.size() > 63) {
    throw std::invalid_argument(
        "PackedCircuitSim: too many variables for packed 64-bit keys");
  }
}

namespace {

/// One round of transpose64: swaps the J x J block of row bits [J, 2J) in
/// rows k with row bits [0, J) in rows k + J, for every k whose bit J is
/// clear. Constant J and Mask keep the inner loop straight-line.
template <std::size_t J, std::uint64_t Mask>
void transpose_round(std::uint64_t* rows) {
  for (std::size_t base = 0; base < 64; base += 2 * J) {
    for (std::size_t k = base; k < base + J; ++k) {
      const std::uint64_t t = ((rows[k] >> J) ^ rows[k + J]) & Mask;
      rows[k + J] ^= t;
      rows[k] ^= t << J;
    }
  }
}

}  // namespace

void transpose64(std::span<std::uint64_t, 64> rows) {
  std::uint64_t* r = rows.data();
  transpose_round<32, 0x00000000ffffffffull>(r);
  transpose_round<16, 0x0000ffff0000ffffull>(r);
  transpose_round<8, 0x00ff00ff00ff00ffull>(r);
  transpose_round<4, 0x0f0f0f0f0f0f0f0full>(r);
  transpose_round<2, 0x3333333333333333ull>(r);
  transpose_round<1, 0x5555555555555555ull>(r);
}

std::uint64_t PackedCircuitSim::step(std::span<const std::uint64_t> states,
                                     std::span<const std::uint64_t> inputs,
                                     std::span<std::uint64_t> next,
                                     std::span<std::uint64_t> outputs) const {
  const std::size_t lanes = states.size();
  if (lanes > kLanes || inputs.size() != lanes || next.size() != lanes ||
      (!outputs.empty() && outputs.size() != lanes)) {
    throw std::invalid_argument("PackedCircuitSim::step: lane span mismatch");
  }
  if (!outputs.empty() && circuit_->outputs.size() > 63) {
    throw std::invalid_argument(
        "PackedCircuitSim::step: too many outputs for a packed 64-bit key");
  }
  // Up to kGatherLanes lanes, the keys are gathered into lane words and
  // scattered back bit by bit, which is cheaper than a 64x64 transpose
  // each way. Lockstep replays of a few sequences step that few lanes.
  constexpr std::size_t kGatherLanes = 8;
  const bool gather = lanes <= kGatherLanes;
  if (gather) {
    for (std::size_t k = 0; k < sources_.size(); ++k) {
      const auto& [is_latch, bit] = sources_[k];
      const auto keys = is_latch ? states : inputs;
      std::uint64_t word = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        word |= ((keys[l] >> bit) & 1u) << l;
      }
      values_[sim_.input_signal(k)] = word;
    }
  } else {
    // Transpose the per-lane keys into per-bit lane words (row b, bit L =
    // bit b of lane L's key); network input k reads row
    // sources_[k].index.
    std::array<std::uint64_t, kLanes> state_bits{};
    std::array<std::uint64_t, kLanes> input_bits{};
    std::copy(states.begin(), states.end(), state_bits.begin());
    std::copy(inputs.begin(), inputs.end(), input_bits.begin());
    transpose64(state_bits);
    transpose64(input_bits);
    for (std::size_t k = 0; k < sources_.size(); ++k) {
      const auto& [is_latch, bit] = sources_[k];
      values_[sim_.input_signal(k)] =
          (is_latch ? state_bits : input_bits)[bit];
    }
  }
  sim_.run(values_);

  const std::uint64_t lane_mask =
      lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const std::uint64_t valid =
      circuit_->valid.has_value()
          ? values_[*circuit_->valid] & lane_mask
          : lane_mask;

  // Transpose back: row j = the lane word of signal j, so after the
  // transpose row L holds lane L's packed key.
  const auto read_keys = [&](auto signal_of, std::size_t count,
                             std::span<std::uint64_t> keys) {
    if (gather) {
      std::fill(keys.begin(), keys.end(), 0);
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint64_t word = values_[signal_of(j)];
        for (std::size_t l = 0; l < lanes; ++l) {
          keys[l] |= ((word >> l) & 1u) << j;
        }
      }
      return;
    }
    std::array<std::uint64_t, kLanes> rows{};
    for (std::size_t j = 0; j < count; ++j) rows[j] = values_[signal_of(j)];
    transpose64(rows);
    std::copy_n(rows.begin(), lanes, keys.begin());
  };
  read_keys([&](std::size_t j) { return circuit_->latches[j].next; },
            circuit_->latches.size(), next);
  if (!outputs.empty()) {
    read_keys([&](std::size_t j) { return circuit_->outputs[j].second; },
              circuit_->outputs.size(), outputs);
  }
  return valid;
}

}  // namespace simcov::sym
