#include "sym/circuit_replay.hpp"

#include <stdexcept>

#include "model/test_model.hpp"

namespace simcov::sym {

CircuitReplayer::CircuitReplayer(const SequentialCircuit& circuit)
    : circuit_(&circuit), sim_(circuit.net), sources_(input_sources(circuit)) {
  if (circuit.primary_inputs.size() > 63) {
    throw std::invalid_argument(
        "CircuitReplayer: more than 63 primary inputs for packed keys");
  }
}

SequenceTrace CircuitReplayer::replay(std::span<const std::uint64_t> pi_steps,
                                      std::size_t max_steps) const {
  const SequentialCircuit& c = *circuit_;
  SequenceTrace trace;

  std::vector<bool> state(c.latches.size());
  for (std::size_t j = 0; j < c.latches.size(); ++j) {
    state[j] = c.latches[j].init;
  }
  trace.states.push_back(state);

  std::vector<std::uint64_t> values;
  sim_.prepare(values);
  const auto bit = [&values](SignalId s) { return (values[s] & 1u) != 0; };
  for (const std::uint64_t pi : pi_steps) {
    if (trace.steps >= max_steps) {
      trace.truncated = true;
      break;
    }
    if ((pi >> c.primary_inputs.size()) != 0) {
      throw std::invalid_argument(
          "CircuitReplayer::replay: primary-input width mismatch");
    }
    for (std::size_t k = 0; k < sources_.size(); ++k) {
      const auto& [is_latch, index] = sources_[k];
      values[sim_.input_signal(k)] =
          is_latch ? std::uint64_t{state[index]} : (pi >> index) & 1u;
    }
    sim_.run(values);
    if (c.valid.has_value() && !bit(*c.valid)) {
      trace.valid = false;
      break;
    }
    std::vector<bool> outs(c.outputs.size());
    for (std::size_t o = 0; o < c.outputs.size(); ++o) {
      outs[o] = bit(c.outputs[o].second);
    }
    for (std::size_t j = 0; j < c.latches.size(); ++j) {
      state[j] = bit(c.latches[j].next);
    }
    trace.inputs.push_back(model::TestModel::unpack_bits(
        pi, static_cast<unsigned>(c.primary_inputs.size())));
    trace.outputs.push_back(std::move(outs));
    trace.states.push_back(state);
    ++trace.steps;
  }
  return trace;
}

SequenceTrace replay_sequence(const SequentialCircuit& circuit,
                              std::span<const std::uint64_t> pi_steps,
                              std::size_t max_steps) {
  return CircuitReplayer(circuit).replay(pi_steps, max_steps);
}

}  // namespace simcov::sym
