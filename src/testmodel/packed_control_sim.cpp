#include "testmodel/packed_control_sim.hpp"

#include <stdexcept>

namespace simcov::testmodel {

PackedControlModelSim::PackedControlModelSim(const BuiltTestModel& model)
    : model_(model),
      roles_(classify_network_inputs(model)),
      sim_(model.circuit.net) {
  const auto& c = model_.circuit;
  for (std::size_t k = 0; k < c.outputs.size(); ++k) {
    output_index_[c.outputs[k].first] = k;
  }
  latch_words_.assign(c.latches.size(), 0);
  out_words_.assign(c.outputs.size(), 0);
  sim_.prepare(values_);
  reset();
}

void PackedControlModelSim::reset() {
  const auto& c = model_.circuit;
  for (std::size_t j = 0; j < c.latches.size(); ++j) {
    latch_words_[j] = c.latches[j].init ? ~std::uint64_t{0} : 0;
  }
  out_words_.assign(c.outputs.size(), 0);
}

void PackedControlModelSim::step(std::span<const ControlInput> inputs) {
  const std::size_t lanes = inputs.size();
  if (lanes > kLanes) {
    throw std::invalid_argument("PackedControlModelSim::step: too many lanes");
  }
  const bool onehot = model_.options.onehot_opclass;
  for (std::size_t k = 0; k < roles_.size(); ++k) {
    const InputRole& role = roles_[k];
    std::uint64_t word = 0;
    if (role.is_latch) {
      word = latch_words_[role.latch_index];
    } else {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (role_pi_value(role, inputs[l], onehot)) {
          word |= std::uint64_t{1} << l;
        }
      }
    }
    values_[sim_.input_signal(k)] = word;
  }
  sim_.run(values_);

  const std::uint64_t lane_mask =
      lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const auto& c = model_.circuit;
  if (c.valid.has_value() && (values_[*c.valid] & lane_mask) != lane_mask) {
    throw std::domain_error(
        "PackedControlModelSim: invalid input combination");
  }
  for (std::size_t k = 0; k < c.outputs.size(); ++k) {
    out_words_[k] = values_[c.outputs[k].second] & lane_mask;
  }
  // Stepped lanes advance; the rest hold their latch values.
  for (std::size_t j = 0; j < c.latches.size(); ++j) {
    latch_words_[j] = (values_[c.latches[j].next] & lane_mask) |
                      (latch_words_[j] & ~lane_mask);
  }
}

std::size_t PackedControlModelSim::output_index(const std::string& name) const {
  const auto it = output_index_.find(name);
  if (it == output_index_.end()) {
    throw std::out_of_range("PackedControlModelSim: no output named " + name);
  }
  return it->second;
}

}  // namespace simcov::testmodel
