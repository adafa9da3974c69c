#include "dlx/pipeline.hpp"

#include <stdexcept>

#include "dlx/isa_model.hpp"  // alu_eval

namespace simcov::dlx {

namespace {

bool is_load(const Instruction& ins) {
  return op_class(ins.op) == OpClass::kLoad;
}

}  // namespace

Pipeline::Pipeline(std::vector<std::uint32_t> program, PipelineConfig config,
                   std::size_t data_size)
    : program_(std::move(program)), data_(data_size, 0) {
  if (data_size % 4 != 0) {
    throw std::invalid_argument("Pipeline: data size must be word-aligned");
  }
  for (const PipelineBug bug : config.bugs) {
    bugs_ |= std::uint32_t{1} << static_cast<unsigned>(bug);
  }
}

unsigned Pipeline::effective_dest(const Instruction& ins) const {
  const OpClass cls = op_class(ins.op);
  if (cls == OpClass::kJumpLink || cls == OpClass::kJumpLinkReg) {
    return has(PipelineBug::kJalLinksR30) ? kLinkRegister - 1
                                          : kLinkRegister;
  }
  return ins.rd;
}

void Pipeline::set_reg(unsigned r, std::uint32_t value) {
  if (r >= kNumRegisters) throw std::out_of_range("set_reg: bad register");
  if (r != 0) regs_[r] = value;
}

void Pipeline::poke_word(std::uint32_t addr, std::uint32_t value) {
  mem_store(addr, value, 4);
}

std::uint32_t Pipeline::peek_word(std::uint32_t addr) const {
  return mem_load(addr, 4, false);
}

std::optional<Instruction> Pipeline::fetch(std::uint32_t pc) const {
  const std::size_t index = pc / 4;
  if (pc % 4 != 0 || index >= program_.size()) return std::nullopt;
  const auto decoded = decode(program_[index]);
  if (!decoded.has_value()) {
    throw std::domain_error("Pipeline: invalid instruction word");
  }
  return decoded;
}

std::uint32_t Pipeline::mem_load(std::uint32_t addr, unsigned size,
                                 bool sign_extend) const {
  if (addr % size != 0) throw std::domain_error("Pipeline: misaligned load");
  if (std::size_t{addr} + size > data_.size()) {
    throw std::out_of_range("Pipeline: load out of data memory");
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

void Pipeline::mem_store(std::uint32_t addr, std::uint32_t value,
                         unsigned size) {
  if (addr % size != 0) throw std::domain_error("Pipeline: misaligned store");
  if (std::size_t{addr} + size > data_.size()) {
    throw std::out_of_range("Pipeline: store out of data memory");
  }
  for (unsigned k = 0; k < size; ++k) {
    data_[addr + k] = static_cast<std::uint8_t>(value >> (8 * k));
  }
}

bool Pipeline::detect_load_use_hazard() const {
  if (has(PipelineBug::kNoLoadUseStall)) return false;
  if (!id_ex_.valid || !is_load(id_ex_.ins) || !if_id_.valid) return false;
  const unsigned dest = effective_dest(id_ex_.ins);
  if (dest == 0) return false;
  const Instruction& consumer = if_id_.ins;
  const bool rs1_hazard = reads_rs1(consumer.op) && consumer.rs1 == dest;
  const bool rs2_hazard = reads_rs2(consumer.op) && consumer.rs2 == dest;
  if (has(PipelineBug::kInterlockMissesDoubleHazard) && rs1_hazard &&
      rs2_hazard) {
    return false;  // corner case: the double-match term was dropped
  }
  if (rs1_hazard) return true;
  if (has(PipelineBug::kInterlockChecksRs1Only)) return false;
  return rs2_hazard;
}

std::uint32_t Pipeline::forward_operand(unsigned reg,
                                        std::uint32_t id_ex_value,
                                        bool allow_ex_mem,
                                        bool allow_mem_wb) const {
  // r0 is hardwired zero and never forwarded — unless the kForwardFromR0
  // corner bug drops that guard, in which case an r0-destination producer
  // wrongly feeds consumers of r0.
  if (reg == 0 && !has(PipelineBug::kForwardFromR0)) return 0;
  auto dest_of = [&](const Instruction& ins) {
    const unsigned d = effective_dest(ins);
    // Without the bug, r0 producers never match (their writes vanish).
    if (d == 0 && !has(PipelineBug::kForwardFromR0)) return ~0u;
    return d;
  };
  const bool ex_mem_hit = allow_ex_mem && ex_mem_.valid &&
                          writes_register(ex_mem_.ins.op) &&
                          !is_load(ex_mem_.ins) && dest_of(ex_mem_.ins) == reg;
  const bool mem_wb_hit = allow_mem_wb && mem_wb_.valid &&
                          writes_register(mem_wb_.ins.op) &&
                          dest_of(mem_wb_.ins) == reg;
  if (ex_mem_hit && mem_wb_hit &&
      has(PipelineBug::kForwardPriorityWrong)) {
    return mem_wb_.value;  // corner case: the OLDER producer wins
  }
  // Younger producer wins: EX/MEM (the instruction now in MEM), unless it is
  // a load whose data is not available yet (the interlock is responsible for
  // keeping that case out of here).
  if (ex_mem_hit) return ex_mem_.alu;
  if (mem_wb_hit) return mem_wb_.value;
  if (reg == 0) return 0;  // r0 with the bug but no bogus producer
  return id_ex_value;
}

ControlSnapshot Pipeline::control_snapshot() const {
  ControlSnapshot snap;
  auto fill = [&](ControlSnapshot::StageInfo& out, bool valid,
                  const Instruction& ins) {
    out.valid = valid;
    if (valid) {
      out.cls = op_class(ins.op);
      out.dest = static_cast<std::uint8_t>(
          writes_register(ins.op) ? effective_dest(ins) : 0);
    }
  };
  fill(snap.id, if_id_.valid, if_id_.ins);
  fill(snap.ex, id_ex_.valid, id_ex_.ins);
  fill(snap.mem, ex_mem_.valid, ex_mem_.ins);
  fill(snap.wb, mem_wb_.valid, mem_wb_.ins);
  snap.stall = detect_load_use_hazard();
  // Squash decision requires evaluating the EX-stage branch; recompute
  // cheaply: a valid control-transfer in EX that will be taken.
  if (id_ex_.valid) {
    const OpClass cls = op_class(id_ex_.ins.op);
    if (cls == OpClass::kJump || cls == OpClass::kJumpLink ||
        cls == OpClass::kJumpReg || cls == OpClass::kJumpLinkReg) {
      snap.squash = true;
    } else if (cls == OpClass::kBranch) {
      const std::uint32_t cond =
          has(PipelineBug::kBranchUsesStaleCondition)
              ? id_ex_.a
              : forward_operand(id_ex_.ins.rs1, id_ex_.a, true, true);
      snap.squash = id_ex_.ins.op == Opcode::kBeqz ? cond == 0 : cond != 0;
    }
  }
  return snap;
}

std::optional<RetireInfo> Pipeline::step_cycle() {
  if (halted_) return std::nullopt;
  ++cycles_;

  // Snapshot the register file before the WB write so the stale-read bug
  // (kNoIdBypass) can observe pre-writeback values.
  const std::array<std::uint32_t, kNumRegisters> regs_pre = regs_;

  // ---- WB: retire the instruction in MEM/WB --------------------------------
  std::optional<RetireInfo> retired;
  if (mem_wb_.valid) {
    RetireInfo info;
    info.pc = mem_wb_.pc;
    info.ins = mem_wb_.ins;
    info.mem_write = mem_wb_.mem_write;
    info.next_pc = mem_wb_.next_pc;
    if (writes_register(mem_wb_.ins.op)) {
      const unsigned dest = effective_dest(mem_wb_.ins);
      if (dest != 0) {
        regs_[dest] = mem_wb_.value;
        info.reg_write = {static_cast<std::uint8_t>(dest), mem_wb_.value};
      }
    }
    const OpClass cls = op_class(mem_wb_.ins.op);
    if (cls == OpClass::kAlu || cls == OpClass::kAluImm) {
      psw_.zero = mem_wb_.value == 0;
      psw_.negative = (mem_wb_.value >> 31) != 0;
    }
    if (cls == OpClass::kHalt) halted_ = true;
    info.psw = psw_;
    info.halted = halted_;
    retired = info;
    ++counters_.retired;
  }

  // ---- MEM: old EX/MEM -> new MEM/WB ---------------------------------------
  MemWb new_mem_wb;
  if (ex_mem_.valid) {
    new_mem_wb.valid = true;
    new_mem_wb.pc = ex_mem_.pc;
    new_mem_wb.ins = ex_mem_.ins;
    new_mem_wb.next_pc = ex_mem_.next_pc;
    const Instruction& ins = ex_mem_.ins;
    switch (op_class(ins.op)) {
      case OpClass::kLoad: {
        std::uint32_t v = 0;
        switch (ins.op) {
          case Opcode::kLw: v = mem_load(ex_mem_.alu, 4, false); break;
          case Opcode::kLh: v = mem_load(ex_mem_.alu, 2, true); break;
          case Opcode::kLhu: v = mem_load(ex_mem_.alu, 2, false); break;
          case Opcode::kLb: v = mem_load(ex_mem_.alu, 1, true); break;
          case Opcode::kLbu: v = mem_load(ex_mem_.alu, 1, false); break;
          default: break;
        }
        new_mem_wb.value =
            has(PipelineBug::kWritebackSelectsAluForLoad) ? ex_mem_.alu
                                                                  : v;
        break;
      }
      case OpClass::kStore: {
        const unsigned size = ins.op == Opcode::kSw
                                  ? 4
                                  : (ins.op == Opcode::kSh ? 2 : 1);
        const std::uint32_t masked =
            size == 4 ? ex_mem_.store_data
                      : (ex_mem_.store_data & ((1u << (8 * size)) - 1));
        mem_store(ex_mem_.alu, masked, size);
        new_mem_wb.mem_write =
            MemWrite{ex_mem_.alu, masked, static_cast<std::uint8_t>(size)};
        break;
      }
      default:
        new_mem_wb.value = ex_mem_.alu;
        break;
    }
  }

  // ---- EX: old ID/EX -> new EX/MEM; resolve control transfers --------------
  ExMem new_ex_mem;
  bool redirect = false;
  std::uint32_t redirect_target = 0;
  if (id_ex_.valid) {
    new_ex_mem.valid = true;
    new_ex_mem.pc = id_ex_.pc;
    new_ex_mem.ins = id_ex_.ins;
    const Instruction& ins = id_ex_.ins;
    const std::uint32_t imm = static_cast<std::uint32_t>(ins.imm);

    const std::uint32_t a = forward_operand(
        ins.rs1, id_ex_.a, !has(PipelineBug::kNoForwardExMemA),
        !has(PipelineBug::kNoForwardMemWbA));
    const std::uint32_t b = forward_operand(
        ins.rs2, id_ex_.b, !has(PipelineBug::kNoForwardExMemB),
        !has(PipelineBug::kNoForwardMemWbB));

    std::uint32_t next_pc = id_ex_.pc + 4;
    switch (op_class(ins.op)) {
      case OpClass::kNop:
        break;
      case OpClass::kHalt:
        next_pc = id_ex_.pc;
        break;
      case OpClass::kAlu:
        new_ex_mem.alu = alu_eval(ins.op, a, b);
        break;
      case OpClass::kAluImm:
        new_ex_mem.alu = alu_eval(ins.op, a, imm);
        break;
      case OpClass::kLoad:
        new_ex_mem.alu = a + imm;
        break;
      case OpClass::kStore:
        new_ex_mem.alu = a + imm;
        new_ex_mem.store_data =
            has(PipelineBug::kStoreDataStale) ? id_ex_.b : b;
        break;
      case OpClass::kBranch: {
        const std::uint32_t cond =
            has(PipelineBug::kBranchUsesStaleCondition) ? id_ex_.a : a;
        const bool taken =
            ins.op == Opcode::kBeqz ? cond == 0 : cond != 0;
        if (taken) {
          const std::uint32_t base =
              has(PipelineBug::kBranchTargetOffByFour)
                  ? id_ex_.pc
                  : id_ex_.pc + 4;
          redirect = true;
          redirect_target = base + imm;
          next_pc = redirect_target;
        }
        break;
      }
      case OpClass::kJump:
      case OpClass::kJumpLink:
        redirect = true;
        redirect_target = id_ex_.pc + 4 + imm;
        next_pc = redirect_target;
        if (op_class(ins.op) == OpClass::kJumpLink) {
          new_ex_mem.alu = id_ex_.pc + 4;  // link value
        }
        break;
      case OpClass::kJumpReg:
      case OpClass::kJumpLinkReg:
        redirect = true;
        redirect_target = a;
        next_pc = redirect_target;
        if (op_class(ins.op) == OpClass::kJumpLinkReg) {
          new_ex_mem.alu = id_ex_.pc + 4;
        }
        break;
    }
    new_ex_mem.next_pc = next_pc;
  }

  // ---- Interlock -------------------------------------------------------------
  const bool stall = detect_load_use_hazard();
  if (stall) ++counters_.stall_cycles;
  if (redirect) {
    ++counters_.squashes;
    if (!has(PipelineBug::kNoSquashOnTakenBranch)) {
      // The slot being fetched this cycle is killed; the instruction in
      // IF/ID is killed too unless the squash-only-fetch bug is active.
      counters_.squashed_slots += fetch(pc_).has_value() ? 1 : 0;
      if (!has(PipelineBug::kSquashOnlyFetch)) {
        counters_.squashed_slots += if_id_.valid ? 1 : 0;
      }
    }
  }

  // ---- ID: old IF/ID -> new ID/EX -------------------------------------------
  IdEx new_id_ex;
  const bool squash_id =
      redirect && !has(PipelineBug::kNoSquashOnTakenBranch) &&
      !has(PipelineBug::kSquashOnlyFetch);
  if (!stall && !squash_id && if_id_.valid) {
    new_id_ex.valid = true;
    new_id_ex.pc = if_id_.pc;
    new_id_ex.ins = if_id_.ins;
    const auto& read_file =
        has(PipelineBug::kNoIdBypass) ? regs_pre : regs_;
    new_id_ex.a = read_file[if_id_.ins.rs1];
    new_id_ex.b = read_file[if_id_.ins.rs2];
  }

  // ---- IF --------------------------------------------------------------------
  IfId new_if_id = if_id_;
  std::uint32_t new_pc = pc_;
  const bool squash_if =
      redirect && !has(PipelineBug::kNoSquashOnTakenBranch);
  // Freeze fetch while a HALT is in flight so nothing retires after it.
  const bool halt_pending =
      (if_id_.valid && if_id_.ins.op == Opcode::kHalt) ||
      (id_ex_.valid && id_ex_.ins.op == Opcode::kHalt) ||
      (ex_mem_.valid && ex_mem_.ins.op == Opcode::kHalt) ||
      (mem_wb_.valid && mem_wb_.ins.op == Opcode::kHalt);
  if (stall) {
    // Hold IF/ID and PC.
  } else if (squash_if) {
    new_if_id = IfId{};
    new_pc = redirect_target;
  } else {
    if (halt_pending) {
      new_if_id = IfId{};
    } else {
      const auto ins = fetch(pc_);
      if (ins.has_value()) {
        new_if_id = IfId{true, pc_, *ins};
        new_pc = pc_ + 4;
      } else {
        new_if_id = IfId{};
      }
    }
    if (redirect) new_pc = redirect_target;  // kNoSquashOnTakenBranch path
  }

  // ---- Clock edge --------------------------------------------------------------
  mem_wb_ = new_mem_wb;
  ex_mem_ = new_ex_mem;
  id_ex_ = new_id_ex;
  if_id_ = new_if_id;
  pc_ = new_pc;
  return retired;
}

std::vector<RetireInfo> Pipeline::run(std::size_t max_cycles) {
  std::vector<RetireInfo> trace;
  for (std::size_t k = 0; k < max_cycles && !halted_; ++k) {
    auto info = step_cycle();
    if (info.has_value()) trace.push_back(*info);
    if (drained()) break;
  }
  return trace;
}

bool Pipeline::drained() const {
  return !if_id_.valid && !id_ex_.valid && !ex_mem_.valid && !mem_wb_.valid &&
         fetch(pc_) == std::nullopt;
}

}  // namespace simcov::dlx
