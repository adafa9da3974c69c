#include "dlx/isa.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

namespace simcov::dlx {

namespace {

// Primary opcode values (bits [31:26]).
enum : std::uint32_t {
  kPrimRtype = 0,
  kPrimNop = 1,
  kPrimHalt = 2,
  kPrimAddi = 8,
  kPrimAndi = 9,
  kPrimOri = 10,
  kPrimXori = 11,
  kPrimSlli = 12,
  kPrimSrli = 13,
  kPrimSrai = 14,
  kPrimSlti = 15,
  kPrimLhi = 16,
  kPrimLw = 17,
  kPrimLh = 18,
  kPrimLhu = 19,
  kPrimLb = 20,
  kPrimLbu = 21,
  kPrimSw = 22,
  kPrimSh = 23,
  kPrimSb = 24,
  kPrimBeqz = 25,
  kPrimBnez = 26,
  kPrimJ = 27,
  kPrimJal = 28,
  kPrimJr = 29,
  kPrimJalr = 30,
};

// R-type function values (bits [10:0]).
enum : std::uint32_t {
  kFuncAdd = 1, kFuncSub, kFuncAnd, kFuncOr, kFuncXor, kFuncSll, kFuncSrl,
  kFuncSra, kFuncSlt, kFuncSltu, kFuncSeq, kFuncSne,
};

void check_reg(unsigned r) {
  if (r >= kNumRegisters) {
    throw std::out_of_range("dlx: register index out of range");
  }
}

std::int32_t sign_extend16(std::uint32_t v) {
  return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xffffu));
}

std::int32_t sign_extend26(std::uint32_t v) {
  const std::uint32_t m = v & 0x03ffffffu;
  return static_cast<std::int32_t>((m ^ 0x02000000u)) -
         static_cast<std::int32_t>(0x02000000);
}

}  // namespace

OpClass op_class(Opcode op) {
  switch (op) {
    case Opcode::kNop:
      return OpClass::kNop;
    case Opcode::kHalt:
      return OpClass::kHalt;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kSlt:
    case Opcode::kSltu:
    case Opcode::kSeq:
    case Opcode::kSne:
      return OpClass::kAlu;
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kSlti:
    case Opcode::kLhi:
      return OpClass::kAluImm;
    case Opcode::kLw:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLb:
    case Opcode::kLbu:
      return OpClass::kLoad;
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb:
      return OpClass::kStore;
    case Opcode::kBeqz:
    case Opcode::kBnez:
      return OpClass::kBranch;
    case Opcode::kJ:
      return OpClass::kJump;
    case Opcode::kJal:
      return OpClass::kJumpLink;
    case Opcode::kJr:
      return OpClass::kJumpReg;
    case Opcode::kJalr:
      return OpClass::kJumpLinkReg;
  }
  throw std::logic_error("op_class: unhandled opcode");
}

bool writes_register(Opcode op) {
  switch (op_class(op)) {
    case OpClass::kAlu:
    case OpClass::kAluImm:
    case OpClass::kLoad:
    case OpClass::kJumpLink:
    case OpClass::kJumpLinkReg:
      return true;
    default:
      return false;
  }
}

bool reads_rs1(Opcode op) {
  switch (op_class(op)) {
    case OpClass::kAlu:
    case OpClass::kLoad:
    case OpClass::kStore:
    case OpClass::kBranch:
    case OpClass::kJumpReg:
    case OpClass::kJumpLinkReg:
      return true;
    case OpClass::kAluImm:
      return op != Opcode::kLhi;  // LHI has no register source
    default:
      return false;
  }
}

bool reads_rs2(Opcode op) {
  switch (op_class(op)) {
    case OpClass::kAlu:
    case OpClass::kStore:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

Instruction make_nop() { return Instruction{}; }

Instruction make_halt() { return Instruction{Opcode::kHalt, 0, 0, 0, 0}; }

Instruction make_rtype(Opcode op, unsigned rd, unsigned rs1, unsigned rs2) {
  if (op_class(op) != OpClass::kAlu) {
    throw std::invalid_argument("make_rtype: not an R-type ALU opcode");
  }
  check_reg(rd);
  check_reg(rs1);
  check_reg(rs2);
  return Instruction{op, static_cast<std::uint8_t>(rd),
                     static_cast<std::uint8_t>(rs1),
                     static_cast<std::uint8_t>(rs2), 0};
}

Instruction make_itype(Opcode op, unsigned rd, unsigned rs1,
                       std::int32_t imm) {
  if (op_class(op) != OpClass::kAluImm || op == Opcode::kLhi) {
    throw std::invalid_argument("make_itype: not an immediate ALU opcode");
  }
  check_reg(rd);
  check_reg(rs1);
  return Instruction{op, static_cast<std::uint8_t>(rd),
                     static_cast<std::uint8_t>(rs1), 0, imm};
}

Instruction make_load(Opcode op, unsigned rd, unsigned rs1,
                      std::int32_t offset) {
  if (op_class(op) != OpClass::kLoad) {
    throw std::invalid_argument("make_load: not a load opcode");
  }
  check_reg(rd);
  check_reg(rs1);
  return Instruction{op, static_cast<std::uint8_t>(rd),
                     static_cast<std::uint8_t>(rs1), 0, offset};
}

Instruction make_store(Opcode op, unsigned rs1, unsigned rs2,
                       std::int32_t offset) {
  if (op_class(op) != OpClass::kStore) {
    throw std::invalid_argument("make_store: not a store opcode");
  }
  check_reg(rs1);
  check_reg(rs2);
  return Instruction{op, 0, static_cast<std::uint8_t>(rs1),
                     static_cast<std::uint8_t>(rs2), offset};
}

Instruction make_branch(Opcode op, unsigned rs1, std::int32_t offset) {
  if (op_class(op) != OpClass::kBranch) {
    throw std::invalid_argument("make_branch: not a branch opcode");
  }
  check_reg(rs1);
  return Instruction{op, 0, static_cast<std::uint8_t>(rs1), 0, offset};
}

Instruction make_jump(Opcode op, std::int32_t offset) {
  if (op != Opcode::kJ && op != Opcode::kJal) {
    throw std::invalid_argument("make_jump: not J/JAL");
  }
  return Instruction{op, 0, 0, 0, offset};
}

Instruction make_jump_reg(Opcode op, unsigned rs1) {
  if (op != Opcode::kJr && op != Opcode::kJalr) {
    throw std::invalid_argument("make_jump_reg: not JR/JALR");
  }
  check_reg(rs1);
  return Instruction{op, 0, static_cast<std::uint8_t>(rs1), 0, 0};
}

Instruction make_lhi(unsigned rd, std::uint16_t imm) {
  check_reg(rd);
  return Instruction{Opcode::kLhi, static_cast<std::uint8_t>(rd), 0, 0,
                     static_cast<std::int32_t>(imm)};
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

namespace {

struct PrimEntry {
  Opcode op;
  std::uint32_t prim;
};

constexpr std::array<PrimEntry, 24> kItypePrims{{
    {Opcode::kAddi, kPrimAddi}, {Opcode::kAndi, kPrimAndi},
    {Opcode::kOri, kPrimOri},   {Opcode::kXori, kPrimXori},
    {Opcode::kSlli, kPrimSlli}, {Opcode::kSrli, kPrimSrli},
    {Opcode::kSrai, kPrimSrai}, {Opcode::kSlti, kPrimSlti},
    {Opcode::kLhi, kPrimLhi},   {Opcode::kLw, kPrimLw},
    {Opcode::kLh, kPrimLh},     {Opcode::kLhu, kPrimLhu},
    {Opcode::kLb, kPrimLb},     {Opcode::kLbu, kPrimLbu},
    {Opcode::kSw, kPrimSw},     {Opcode::kSh, kPrimSh},
    {Opcode::kSb, kPrimSb},     {Opcode::kBeqz, kPrimBeqz},
    {Opcode::kBnez, kPrimBnez}, {Opcode::kJ, kPrimJ},
    {Opcode::kJal, kPrimJal},   {Opcode::kJr, kPrimJr},
    {Opcode::kJalr, kPrimJalr}, {Opcode::kNop, kPrimNop},
}};

std::uint32_t rtype_func(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return kFuncAdd;
    case Opcode::kSub: return kFuncSub;
    case Opcode::kAnd: return kFuncAnd;
    case Opcode::kOr: return kFuncOr;
    case Opcode::kXor: return kFuncXor;
    case Opcode::kSll: return kFuncSll;
    case Opcode::kSrl: return kFuncSrl;
    case Opcode::kSra: return kFuncSra;
    case Opcode::kSlt: return kFuncSlt;
    case Opcode::kSltu: return kFuncSltu;
    case Opcode::kSeq: return kFuncSeq;
    case Opcode::kSne: return kFuncSne;
    default:
      throw std::logic_error("rtype_func: not an R-type opcode");
  }
}

std::optional<Opcode> func_to_opcode(std::uint32_t func) {
  switch (func) {
    case kFuncAdd: return Opcode::kAdd;
    case kFuncSub: return Opcode::kSub;
    case kFuncAnd: return Opcode::kAnd;
    case kFuncOr: return Opcode::kOr;
    case kFuncXor: return Opcode::kXor;
    case kFuncSll: return Opcode::kSll;
    case kFuncSrl: return Opcode::kSrl;
    case kFuncSra: return Opcode::kSra;
    case kFuncSlt: return Opcode::kSlt;
    case kFuncSltu: return Opcode::kSltu;
    case kFuncSeq: return Opcode::kSeq;
    case kFuncSne: return Opcode::kSne;
    default: return std::nullopt;
  }
}

std::optional<Opcode> prim_to_opcode(std::uint32_t prim) {
  for (const auto& e : kItypePrims) {
    if (e.prim == prim) return e.op;
  }
  return std::nullopt;
}

/// kItypePrims indexed by opcode, for encode (the first entry wins, as a
/// front-to-back search would pick it; 0 for opcodes it does not list).
constexpr auto kPrimByOpcode = [] {
  std::array<std::uint32_t, static_cast<std::size_t>(Opcode::kJalr) + 1>
      table{};
  for (auto e = kItypePrims.rbegin(); e != kItypePrims.rend(); ++e) {
    table.at(static_cast<std::size_t>(e->op)) = e->prim;
  }
  return table;
}();

}  // namespace

std::uint32_t encode(const Instruction& ins) {
  const OpClass cls = op_class(ins.op);
  switch (cls) {
    case OpClass::kNop:
      return kPrimNop << 26;
    case OpClass::kHalt:
      return kPrimHalt << 26;
    case OpClass::kAlu:
      return (kPrimRtype << 26) | (std::uint32_t{ins.rs1} << 21) |
             (std::uint32_t{ins.rs2} << 16) | (std::uint32_t{ins.rd} << 11) |
             rtype_func(ins.op);
    case OpClass::kJump:
    case OpClass::kJumpLink: {
      std::uint32_t prim = ins.op == Opcode::kJ ? kPrimJ : kPrimJal;
      return (prim << 26) |
             (static_cast<std::uint32_t>(ins.imm) & 0x03ffffffu);
    }
    default: {
      // I-type layout: prim | rs1 | rd | imm16. Stores put the data register
      // (rs2) in the rd slot, as in real DLX encodings.
      const std::uint32_t prim =
          kPrimByOpcode[static_cast<std::size_t>(ins.op)];
      const std::uint32_t regfield =
          cls == OpClass::kStore ? ins.rs2 : ins.rd;
      return (prim << 26) | (std::uint32_t{ins.rs1} << 21) |
             (regfield << 16) | (static_cast<std::uint32_t>(ins.imm) & 0xffffu);
    }
  }
}

std::optional<Instruction> decode(std::uint32_t word) {
  const std::uint32_t prim = word >> 26;
  const std::uint32_t rs1 = (word >> 21) & 31u;
  const std::uint32_t rfield = (word >> 16) & 31u;

  if (prim == kPrimRtype) {
    const auto op = func_to_opcode(word & 0x7ffu);
    if (!op.has_value()) return std::nullopt;
    Instruction ins;
    ins.op = *op;
    ins.rs1 = static_cast<std::uint8_t>(rs1);
    ins.rs2 = static_cast<std::uint8_t>(rfield);
    ins.rd = static_cast<std::uint8_t>((word >> 11) & 31u);
    return ins;
  }
  if (prim == kPrimNop) return make_nop();
  if (prim == kPrimHalt) return make_halt();
  if (prim == kPrimJ || prim == kPrimJal) {
    Instruction ins;
    ins.op = prim == kPrimJ ? Opcode::kJ : Opcode::kJal;
    ins.imm = sign_extend26(word);
    return ins;
  }
  const auto op = prim_to_opcode(prim);
  if (!op.has_value()) return std::nullopt;
  Instruction ins;
  ins.op = *op;
  ins.rs1 = static_cast<std::uint8_t>(rs1);
  const OpClass cls = op_class(*op);
  if (cls == OpClass::kStore) {
    ins.rs2 = static_cast<std::uint8_t>(rfield);
  } else {
    ins.rd = static_cast<std::uint8_t>(rfield);
  }
  ins.imm = op == Opcode::kLhi ? static_cast<std::int32_t>(word & 0xffffu)
                               : sign_extend16(word);
  return ins;
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kSll: return "sll";
    case Opcode::kSrl: return "srl";
    case Opcode::kSra: return "sra";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kSeq: return "seq";
    case Opcode::kSne: return "sne";
    case Opcode::kAddi: return "addi";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kSlti: return "slti";
    case Opcode::kLhi: return "lhi";
    case Opcode::kLw: return "lw";
    case Opcode::kLh: return "lh";
    case Opcode::kLhu: return "lhu";
    case Opcode::kLb: return "lb";
    case Opcode::kLbu: return "lbu";
    case Opcode::kSw: return "sw";
    case Opcode::kSh: return "sh";
    case Opcode::kSb: return "sb";
    case Opcode::kBeqz: return "beqz";
    case Opcode::kBnez: return "bnez";
    case Opcode::kJ: return "j";
    case Opcode::kJal: return "jal";
    case Opcode::kJr: return "jr";
    case Opcode::kJalr: return "jalr";
  }
  return "?";
}

std::string disassemble(const Instruction& ins) {
  std::ostringstream os;
  os << opcode_name(ins.op);
  switch (op_class(ins.op)) {
    case OpClass::kNop:
    case OpClass::kHalt:
      break;
    case OpClass::kAlu:
      os << " r" << +ins.rd << ", r" << +ins.rs1 << ", r" << +ins.rs2;
      break;
    case OpClass::kAluImm:
      if (ins.op == Opcode::kLhi) {
        os << " r" << +ins.rd << ", " << ins.imm;
      } else {
        os << " r" << +ins.rd << ", r" << +ins.rs1 << ", " << ins.imm;
      }
      break;
    case OpClass::kLoad:
      os << " r" << +ins.rd << ", " << ins.imm << "(r" << +ins.rs1 << ")";
      break;
    case OpClass::kStore:
      os << " " << ins.imm << "(r" << +ins.rs1 << "), r" << +ins.rs2;
      break;
    case OpClass::kBranch:
      os << " r" << +ins.rs1 << ", " << ins.imm;
      break;
    case OpClass::kJump:
    case OpClass::kJumpLink:
      os << " " << ins.imm;
      break;
    case OpClass::kJumpReg:
    case OpClass::kJumpLinkReg:
      os << " r" << +ins.rs1;
      break;
  }
  return os.str();
}

}  // namespace simcov::dlx
