#include "validate/concretize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

namespace simcov::validate {

using dlx::Instruction;
using dlx::OpClass;
using dlx::Opcode;
using testmodel::ControlInput;

namespace {

constexpr std::uint32_t kLoadRegionBase = 0x1000;

/// Maps an abstract (reduced-width) register id to a concrete DLX register.
/// The abstract link register (top id) corresponds to concrete r31.
unsigned reg_map(unsigned abstract_reg, unsigned reg_addr_bits) {
  const unsigned top = (1u << reg_addr_bits) - 1;
  if (reg_addr_bits < 5 && abstract_reg == top) return dlx::kLinkRegister;
  return abstract_reg;
}

}  // namespace

std::vector<std::uint32_t> ConcretizedProgram::words() const {
  std::vector<std::uint32_t> w;
  w.reserve(instructions.size());
  for (const auto& ins : instructions) w.push_back(dlx::encode(ins));
  return w;
}

ConcretizedProgram concretize_tour(const testmodel::BuiltTestModel& model,
                                   const std::vector<ControlInput>& tour) {
  if (model.options.fetch_controller) {
    throw std::invalid_argument(
        "concretize_tour: use a test model without the fetch controller "
        "(instruction input feeds decode directly)");
  }
  const unsigned R = model.options.reg_addr_bits;
  testmodel::ControlModelSim sim(model);

  ConcretizedProgram out;
  // Architectural shadow of the register file (concrete register ids).
  // All-zero start: branch directions are then realizable from the first
  // instruction on, and compare-op results stay in {0, 1}.
  std::array<std::uint32_t, dlx::kNumRegisters> shadow{};
  out.initial_regs = shadow;

  std::uint32_t load_counter = 0;
  bool pending_squash = false;

  // Memory accesses cycle through a bounded window of word addresses so
  // immediates always reach them; each address is preloaded once, with a
  // unique value, and its content is tracked for the shadow.
  constexpr std::uint32_t kWindowWords = 4096;
  std::map<std::uint32_t, std::uint32_t> memory_image;
  auto fresh_data_addr = [&]() {
    return kLoadRegionBase + 4 * (load_counter % kWindowWords);
  };
  auto mem_offset_for = [&](std::uint32_t base) {
    const std::int64_t imm = static_cast<std::int64_t>(fresh_data_addr()) -
                             static_cast<std::int64_t>(base);
    if (imm < -32768 || imm > 32767) {
      throw std::invalid_argument(
          "concretize_tour: register value out of immediate reach for a "
          "memory access (tour too long or data discipline violated)");
    }
    return static_cast<std::int32_t>(imm);
  };

  const std::size_t stall_idx = sim.output_index("stall");
  const std::size_t squash_idx = sim.output_index("squash");
  for (std::size_t t = 0; t < tour.size(); ++t) {
    const ControlInput& in = tour[t];
    sim.step_fast(in);  // throws on constraint violation
    const bool stall = sim.out_at(stall_idx);
    const bool squash = sim.out_at(squash_idx);
    const bool accepted = !stall && !squash && !pending_squash;

    if (stall) {
      // The pipeline holds the stalled instruction in decode; this tour
      // input has no program-order counterpart.
      ++out.steps_dropped;
      pending_squash = false;  // squash and stall are mutually exclusive
      continue;
    }

    const std::uint32_t addr = 4 * static_cast<std::uint32_t>(
                                       out.instructions.size());
    const unsigned rs1 = reg_map(in.rs1, R);
    const unsigned rs2 = reg_map(in.rs2, R);
    const unsigned rd = reg_map(in.rd, R);
    Instruction concrete = dlx::make_nop();

    switch (in.cls) {
      case OpClass::kNop:
        break;
      case OpClass::kHalt:
        concrete = dlx::make_halt();
        break;
      case OpClass::kAlu:
        // Compare ops keep register values in {0, 1} (bounded data
        // discipline; see header).
        concrete = dlx::make_rtype(Opcode::kSne, rd, rs1, rs2);
        if (accepted && rd != 0) {
          shadow[rd] = shadow[rs1] != shadow[rs2] ? 1 : 0;
        }
        break;
      case OpClass::kAluImm:
        concrete = dlx::make_itype(Opcode::kSlti, rd, rs1, 1);
        if (accepted && rd != 0) {
          shadow[rd] =
              static_cast<std::int32_t>(shadow[rs1]) < 1 ? 1 : 0;
        }
        break;
      case OpClass::kLoad: {
        const std::int32_t imm = mem_offset_for(shadow[rs1]);
        const std::uint32_t a = fresh_data_addr();
        ++load_counter;
        if (memory_image.count(a) == 0) {
          // Recognizable unique data (Requirement 3's data selection):
          // distinct from every compare-op result and the zero start state.
          const std::uint32_t value = 100 + load_counter;
          memory_image[a] = value;
          out.memory_init.emplace_back(a, value);
        }
        concrete = dlx::make_load(Opcode::kLw, rd, rs1, imm);
        if (accepted && rd != 0) shadow[rd] = memory_image[a];
        break;
      }
      case OpClass::kStore: {
        const std::int32_t imm = mem_offset_for(shadow[rs1]);
        const std::uint32_t a = fresh_data_addr();
        ++load_counter;
        concrete = dlx::make_store(Opcode::kSw, rs1, rs2, imm);
        if (accepted) memory_image[a] = shadow[rs2];
        break;
      }
      case OpClass::kBranch: {
        // The status bit for this branch arrives on the next tour step
        // (when the branch sits in EX).
        const bool want_taken =
            accepted && t + 1 < tour.size() && tour[t + 1].branch_outcome;
        const bool reg_is_zero = shadow[rs1] == 0;
        const Opcode op = (want_taken == reg_is_zero) ? Opcode::kBeqz
                                                      : Opcode::kBnez;
        concrete = dlx::make_branch(op, rs1, 8);  // target = PC + 12
        break;
      }
      case OpClass::kJump:
        concrete = dlx::make_jump(Opcode::kJ, 8);
        break;
      case OpClass::kJumpLink:
        concrete = dlx::make_jump(Opcode::kJal, 8);
        if (accepted) shadow[dlx::kLinkRegister] = addr + 4;
        break;
      case OpClass::kJumpReg:
      case OpClass::kJumpLinkReg:
        if (accepted) {
          throw std::invalid_argument(
              "concretize_tour: committed register-indirect jump at step " +
              std::to_string(t) + " is not concretizable");
        }
        concrete = dlx::make_jump_reg(in.cls == OpClass::kJumpReg
                                          ? Opcode::kJr
                                          : Opcode::kJalr,
                                      rs1);
        break;
    }

    out.instructions.push_back(concrete);
    ++out.steps_emitted;
    pending_squash = squash;
  }

  out.instructions.push_back(dlx::make_halt());
  return out;
}

namespace {

/// The InputRole of every primary input, in PI order, from the simulators'
/// own classification: an unmapped name throws std::logic_error here as it
/// does there.
std::vector<testmodel::InputRole> pi_roles(
    const testmodel::BuiltTestModel& model) {
  const auto roles = testmodel::classify_network_inputs(model);
  const auto net_inputs = model.circuit.net.inputs();
  std::vector<testmodel::InputRole> by_pi;
  for (const sym::SignalId s : model.circuit.primary_inputs) {
    const auto k = static_cast<std::size_t>(
        std::find(net_inputs.begin(), net_inputs.end(), s) -
        net_inputs.begin());
    if (k == net_inputs.size() || roles[k].is_latch) {
      throw std::logic_error(
          "decode_control_input: primary input is not a decoded network "
          "input");
    }
    by_pi.push_back(roles[k]);
  }
  return by_pi;
}

ControlInput decode(const testmodel::BuiltTestModel& model,
                    std::span<const testmodel::InputRole> roles,
                    std::uint64_t key) {
  if (roles.size() < 64 && (key >> roles.size()) != 0) {
    throw std::invalid_argument("decode_control_input: width mismatch");
  }
  using Pi = testmodel::InputRole::Pi;
  ControlInput in;
  // Only a fetch controller reads instr_valid; without one it stays set.
  in.instr_valid = !model.options.fetch_controller;
  unsigned cls_bits = 0;
  // The set bits in ascending PI order.
  for (std::uint64_t rest = key; rest != 0; rest &= rest - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(rest));
    const unsigned bit = roles[p].pi_bit;
    switch (roles[p].pi_kind) {
      case Pi::kOpBit:  // one-hot: the index is the class id
        cls_bits = model.options.onehot_opclass ? bit : cls_bits | 1u << bit;
        break;
      case Pi::kRs1Bit: in.rs1 |= 1u << bit; break;
      case Pi::kRs2Bit: in.rs2 |= 1u << bit; break;
      case Pi::kRdBit: in.rd |= 1u << bit; break;
      case Pi::kBranchOutcome: in.branch_outcome = true; break;
      case Pi::kInstrValid: in.instr_valid = true; break;
    }
  }
  in.cls = static_cast<OpClass>(cls_bits);
  return in;
}

}  // namespace

testmodel::ControlInput decode_control_input(
    const testmodel::BuiltTestModel& model, std::uint64_t key) {
  return decode(model, pi_roles(model), key);
}

ConcretizedProgram concretize_sequence(const testmodel::BuiltTestModel& model,
                                       const model::Sequence& steps) {
  const auto roles = pi_roles(model);  // resolved once per sequence
  std::vector<testmodel::ControlInput> inputs;
  inputs.reserve(steps.size());
  for (const std::uint64_t key : steps) {
    inputs.push_back(decode(model, roles, key));
  }
  return concretize_tour(model, inputs);
}

}  // namespace simcov::validate
