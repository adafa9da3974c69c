#include "testmodel/control_sim.hpp"

#include <stdexcept>

namespace simcov::testmodel {

std::vector<InputRole> classify_network_inputs(const BuiltTestModel& model) {
  const auto& c = model.circuit;
  // Classify every network input as latch or primary input, by signal id.
  std::map<sym::SignalId, std::size_t> latch_of;
  for (std::size_t j = 0; j < c.latches.size(); ++j) {
    latch_of[c.latches[j].current] = j;
  }
  std::map<sym::SignalId, std::string> pi_name;
  const auto net_inputs = c.net.inputs();
  for (std::size_t k = 0; k < net_inputs.size(); ++k) {
    pi_name[net_inputs[k]] = c.net.input_name(k);
  }
  auto parse_pi = [](const std::string& name, InputRole& role) {
    auto suffix_bits = [&](std::size_t prefix_len) {
      return static_cast<unsigned>(std::stoul(name.substr(prefix_len)));
    };
    if (name == "branch_outcome") {
      role.pi_kind = InputRole::Pi::kBranchOutcome;
    } else if (name == "instr_valid") {
      role.pi_kind = InputRole::Pi::kInstrValid;
    } else if (name.rfind("op", 0) == 0) {
      role.pi_kind = InputRole::Pi::kOpBit;
      role.pi_bit = suffix_bits(2);
    } else if (name.rfind("rs1_", 0) == 0) {
      role.pi_kind = InputRole::Pi::kRs1Bit;
      role.pi_bit = suffix_bits(4);
    } else if (name.rfind("rs2_", 0) == 0) {
      role.pi_kind = InputRole::Pi::kRs2Bit;
      role.pi_bit = suffix_bits(4);
    } else if (name.rfind("rd_", 0) == 0) {
      role.pi_kind = InputRole::Pi::kRdBit;
      role.pi_bit = suffix_bits(3);
    } else {
      throw std::logic_error("ControlModelSim: unmapped primary input " +
                             name);
    }
  };
  std::vector<InputRole> roles;
  roles.reserve(net_inputs.size());
  for (sym::SignalId s : net_inputs) {
    InputRole role;
    const auto it = latch_of.find(s);
    if (it != latch_of.end()) {
      role.is_latch = true;
      role.latch_index = it->second;
    } else {
      parse_pi(pi_name[s], role);
    }
    roles.push_back(role);
  }
  return roles;
}

bool role_pi_value(const InputRole& role, const ControlInput& in,
                   bool onehot) {
  const unsigned cls_value = static_cast<unsigned>(in.cls);
  switch (role.pi_kind) {
    case InputRole::Pi::kOpBit:
      return onehot ? (role.pi_bit == cls_value)
                    : (((cls_value >> role.pi_bit) & 1u) != 0);
    case InputRole::Pi::kRs1Bit:
      return ((in.rs1 >> role.pi_bit) & 1u) != 0;
    case InputRole::Pi::kRs2Bit:
      return ((in.rs2 >> role.pi_bit) & 1u) != 0;
    case InputRole::Pi::kRdBit:
      return ((in.rd >> role.pi_bit) & 1u) != 0;
    case InputRole::Pi::kBranchOutcome:
      return in.branch_outcome;
    case InputRole::Pi::kInstrValid:
      return in.instr_valid;
  }
  return false;
}

ControlModelSim::ControlModelSim(const BuiltTestModel& model)
    : model_(model),
      roles_(classify_network_inputs(model)),
      sim_(model.circuit.net) {
  const auto& c = model_.circuit;
  for (std::size_t k = 0; k < c.outputs.size(); ++k) {
    output_index_[c.outputs[k].first] = k;
  }
  sim_.prepare(values_);
  reset();
}

void ControlModelSim::reset() {
  latches_.assign(model_.circuit.latches.size(), false);
  for (std::size_t j = 0; j < latches_.size(); ++j) {
    latches_[j] = model_.circuit.latches[j].init;
  }
  last_outputs_.assign(model_.circuit.outputs.size(), false);
}

bool ControlModelSim::input_valid(const ControlInput& in) const {
  const bool onehot = model_.options.onehot_opclass;
  for (std::size_t k = 0; k < roles_.size(); ++k) {
    const InputRole& role = roles_[k];
    values_[sim_.input_signal(k)] =
        role.is_latch ? latches_[role.latch_index]
                      : role_pi_value(role, in, onehot);
  }
  sim_.run(values_);
  const auto& valid = model_.circuit.valid;
  return !valid.has_value() || (values_[*valid] & 1u) != 0;
}

void ControlModelSim::step_fast(const ControlInput& in) {
  if (!input_valid(in)) {  // leaves this input's pass in values_
    throw std::domain_error("ControlModelSim: invalid input combination");
  }
  const auto& c = model_.circuit;
  for (std::size_t k = 0; k < c.outputs.size(); ++k) {
    last_outputs_[k] = (values_[c.outputs[k].second] & 1u) != 0;
  }
  for (std::size_t j = 0; j < latches_.size(); ++j) {
    latches_[j] = (values_[c.latches[j].next] & 1u) != 0;
  }
}

std::map<std::string, bool> ControlModelSim::step(const ControlInput& in) {
  step_fast(in);
  std::map<std::string, bool> named;
  for (const auto& [name, index] : output_index_) {
    named[name] = last_outputs_[index];
  }
  return named;
}

std::size_t ControlModelSim::output_index(const std::string& name) const {
  const auto it = output_index_.find(name);
  if (it == output_index_.end()) {
    throw std::out_of_range("ControlModelSim: no output named " + name);
  }
  return it->second;
}

bool ControlModelSim::out(const std::string& name) const {
  return last_outputs_[output_index(name)];
}

}  // namespace simcov::testmodel
