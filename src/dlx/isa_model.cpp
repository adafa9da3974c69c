#include "dlx/isa_model.hpp"

#include <stdexcept>

namespace simcov::dlx {

std::uint32_t alu_eval(Opcode op, std::uint32_t a, std::uint32_t b) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kAddi:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kAnd:
    case Opcode::kAndi:
      return a & b;
    case Opcode::kOr:
    case Opcode::kOri:
      return a | b;
    case Opcode::kXor:
    case Opcode::kXori:
      return a ^ b;
    case Opcode::kSll:
    case Opcode::kSlli:
      return a << (b & 31u);
    case Opcode::kSrl:
    case Opcode::kSrli:
      return a >> (b & 31u);
    case Opcode::kSra:
    case Opcode::kSrai:
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                        (b & 31u));
    case Opcode::kSlt:
    case Opcode::kSlti:
      return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1
                                                                         : 0;
    case Opcode::kSltu:
      return a < b ? 1 : 0;
    case Opcode::kSeq:
      return a == b ? 1 : 0;
    case Opcode::kSne:
      return a != b ? 1 : 0;
    case Opcode::kLhi:
      return b << 16;
    default:
      throw std::logic_error("alu_eval: not an ALU opcode");
  }
}

IsaModel::IsaModel(std::vector<std::uint32_t> program, std::size_t data_size)
    : program_(std::move(program)), data_(data_size, 0) {
  if (data_size % 4 != 0) {
    throw std::invalid_argument("IsaModel: data size must be word-aligned");
  }
}

void IsaModel::set_reg(unsigned r, std::uint32_t value) {
  if (r >= kNumRegisters) throw std::out_of_range("set_reg: bad register");
  if (r != 0) state_.regs[r] = value;
}

void IsaModel::poke_word(std::uint32_t addr, std::uint32_t value) {
  store(addr, value, 4);
}

std::uint32_t IsaModel::peek_word(std::uint32_t addr) const {
  return load(addr, 4, false);
}

std::uint32_t IsaModel::load(std::uint32_t addr, unsigned size,
                             bool sign_extend) const {
  if (addr % size != 0) {
    throw std::domain_error("IsaModel: misaligned load");
  }
  if (std::size_t{addr} + size > data_.size()) {
    throw std::out_of_range("IsaModel: load out of data memory");
  }
  std::uint32_t v = 0;
  for (unsigned k = 0; k < size; ++k) {
    v |= static_cast<std::uint32_t>(data_[addr + k]) << (8 * k);
  }
  if (sign_extend && size < 4) {
    const std::uint32_t sign_bit = 1u << (8 * size - 1);
    if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
  }
  return v;
}

void IsaModel::store(std::uint32_t addr, std::uint32_t value, unsigned size) {
  if (addr % size != 0) {
    throw std::domain_error("IsaModel: misaligned store");
  }
  if (std::size_t{addr} + size > data_.size()) {
    throw std::out_of_range("IsaModel: store out of data memory");
  }
  for (unsigned k = 0; k < size; ++k) {
    data_[addr + k] = static_cast<std::uint8_t>(value >> (8 * k));
  }
}

std::optional<RetireInfo> IsaModel::step() {
  if (halted_) return std::nullopt;
  const std::uint32_t pc = state_.pc;
  const std::size_t index = pc / 4;
  if (pc % 4 != 0 || index >= program_.size()) return std::nullopt;
  const auto decoded = decode(program_[index]);
  if (!decoded.has_value()) {
    throw std::domain_error("IsaModel: invalid instruction word");
  }
  const Instruction ins = *decoded;

  RetireInfo info;
  info.pc = pc;
  info.ins = ins;
  std::uint32_t next_pc = pc + 4;

  auto write_reg = [&](unsigned r, std::uint32_t value) {
    if (r != 0) {
      state_.regs[r] = value;
      info.reg_write = {static_cast<std::uint8_t>(r), value};
    }
  };
  auto update_psw = [&](std::uint32_t result) {
    state_.psw.zero = result == 0;
    state_.psw.negative = (result >> 31) != 0;
  };

  const std::uint32_t a = state_.regs[ins.rs1];
  const std::uint32_t b = state_.regs[ins.rs2];
  const std::uint32_t imm = static_cast<std::uint32_t>(ins.imm);

  switch (op_class(ins.op)) {
    case OpClass::kNop:
      break;
    case OpClass::kHalt:
      halted_ = true;
      next_pc = pc;
      break;
    case OpClass::kAlu: {
      const std::uint32_t r = alu_eval(ins.op, a, b);
      write_reg(ins.rd, r);
      update_psw(r);
      break;
    }
    case OpClass::kAluImm: {
      const std::uint32_t r = alu_eval(ins.op, a, imm);
      write_reg(ins.rd, r);
      update_psw(r);
      break;
    }
    case OpClass::kLoad: {
      const std::uint32_t addr = a + imm;
      std::uint32_t v = 0;
      switch (ins.op) {
        case Opcode::kLw: v = load(addr, 4, false); break;
        case Opcode::kLh: v = load(addr, 2, true); break;
        case Opcode::kLhu: v = load(addr, 2, false); break;
        case Opcode::kLb: v = load(addr, 1, true); break;
        case Opcode::kLbu: v = load(addr, 1, false); break;
        default: break;
      }
      write_reg(ins.rd, v);
      break;
    }
    case OpClass::kStore: {
      const std::uint32_t addr = a + imm;
      const unsigned size =
          ins.op == Opcode::kSw ? 4 : (ins.op == Opcode::kSh ? 2 : 1);
      const std::uint32_t masked =
          size == 4 ? b : (b & ((1u << (8 * size)) - 1));
      store(addr, masked, size);
      info.mem_write = MemWrite{addr, masked, static_cast<std::uint8_t>(size)};
      break;
    }
    case OpClass::kBranch: {
      const bool taken = ins.op == Opcode::kBeqz ? (a == 0) : (a != 0);
      if (taken) next_pc = pc + 4 + imm;
      break;
    }
    case OpClass::kJump:
      next_pc = pc + 4 + imm;
      break;
    case OpClass::kJumpLink:
      write_reg(kLinkRegister, pc + 4);
      next_pc = pc + 4 + imm;
      break;
    case OpClass::kJumpReg:
      next_pc = a;
      break;
    case OpClass::kJumpLinkReg:
      // Read rs1 before the link write (jalr r31 semantics).
      next_pc = a;
      write_reg(kLinkRegister, pc + 4);
      break;
  }

  state_.pc = next_pc;
  info.next_pc = next_pc;
  info.psw = state_.psw;
  info.halted = halted_;
  return info;
}

std::vector<RetireInfo> IsaModel::run(std::size_t max_steps) {
  std::vector<RetireInfo> trace;
  for (std::size_t k = 0; k < max_steps; ++k) {
    auto info = step();
    if (!info.has_value()) break;
    trace.push_back(*info);
    if (info->halted) break;
  }
  return trace;
}

}  // namespace simcov::dlx
