// Tests for the DLX ISA: encode/decode round-trips, field semantics, and the
// architectural (golden) simulator.
#include "dlx/isa.hpp"
#include "dlx/isa_model.hpp"

#include <gtest/gtest.h>

namespace simcov::dlx {
namespace {

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

TEST(Encoding, RoundTripAllOpcodes) {
  const std::vector<Instruction> samples{
      make_nop(),
      make_halt(),
      make_rtype(Opcode::kAdd, 3, 1, 2),
      make_rtype(Opcode::kSub, 31, 30, 29),
      make_rtype(Opcode::kAnd, 1, 2, 3),
      make_rtype(Opcode::kOr, 4, 5, 6),
      make_rtype(Opcode::kXor, 7, 8, 9),
      make_rtype(Opcode::kSll, 10, 11, 12),
      make_rtype(Opcode::kSrl, 13, 14, 15),
      make_rtype(Opcode::kSra, 16, 17, 18),
      make_rtype(Opcode::kSlt, 19, 20, 21),
      make_rtype(Opcode::kSltu, 22, 23, 24),
      make_rtype(Opcode::kSeq, 25, 26, 27),
      make_rtype(Opcode::kSne, 28, 0, 1),
      make_itype(Opcode::kAddi, 1, 2, -5),
      make_itype(Opcode::kAndi, 3, 4, 0x7fff),
      make_itype(Opcode::kOri, 5, 6, 1),
      make_itype(Opcode::kXori, 7, 8, -32768),
      make_itype(Opcode::kSlli, 9, 10, 7),
      make_itype(Opcode::kSrli, 11, 12, 31),
      make_itype(Opcode::kSrai, 13, 14, 1),
      make_itype(Opcode::kSlti, 15, 16, -1),
      make_lhi(17, 0xbeef),
      make_load(Opcode::kLw, 1, 2, 64),
      make_load(Opcode::kLh, 3, 4, -2),
      make_load(Opcode::kLhu, 5, 6, 2),
      make_load(Opcode::kLb, 7, 8, -1),
      make_load(Opcode::kLbu, 9, 10, 3),
      make_store(Opcode::kSw, 2, 1, 8),
      make_store(Opcode::kSh, 4, 3, -4),
      make_store(Opcode::kSb, 6, 5, 1),
      make_branch(Opcode::kBeqz, 1, -8),
      make_branch(Opcode::kBnez, 2, 16),
      make_jump(Opcode::kJ, 1024),
      make_jump(Opcode::kJal, -1024),
      make_jump_reg(Opcode::kJr, 9),
      make_jump_reg(Opcode::kJalr, 10),
  };
  for (const auto& ins : samples) {
    const auto back = decode(encode(ins));
    ASSERT_TRUE(back.has_value()) << disassemble(ins);
    EXPECT_EQ(*back, ins) << disassemble(ins);
  }
}

TEST(Encoding, InvalidWordsRejected) {
  // Unused primary opcode.
  EXPECT_FALSE(decode(63u << 26).has_value());
  // R-type with invalid function field.
  EXPECT_FALSE(decode(0x000007ffu).has_value());
}

TEST(Encoding, JumpOffsetsSignExtend26Bits) {
  const auto ins = make_jump(Opcode::kJ, -4);
  const auto back = decode(encode(ins));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->imm, -4);
}

TEST(Encoding, BuilderValidation) {
  EXPECT_THROW((void)make_rtype(Opcode::kAddi, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW((void)make_rtype(Opcode::kAdd, 32, 0, 0), std::out_of_range);
  EXPECT_THROW((void)make_itype(Opcode::kLhi, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)make_load(Opcode::kSw, 1, 2, 0), std::invalid_argument);
  EXPECT_THROW((void)make_branch(Opcode::kJ, 1, 0), std::invalid_argument);
}

TEST(Encoding, Disassembly) {
  EXPECT_EQ(disassemble(make_rtype(Opcode::kAdd, 3, 1, 2)), "add r3, r1, r2");
  EXPECT_EQ(disassemble(make_load(Opcode::kLw, 1, 2, 8)), "lw r1, 8(r2)");
  EXPECT_EQ(disassemble(make_store(Opcode::kSw, 2, 1, 8)), "sw 8(r2), r1");
  EXPECT_EQ(disassemble(make_branch(Opcode::kBeqz, 4, -8)), "beqz r4, -8");
  EXPECT_EQ(disassemble(make_nop()), "nop");
}

TEST(Classification, ReadWriteSets) {
  EXPECT_TRUE(writes_register(Opcode::kAdd));
  EXPECT_TRUE(writes_register(Opcode::kLw));
  EXPECT_TRUE(writes_register(Opcode::kJal));
  EXPECT_FALSE(writes_register(Opcode::kSw));
  EXPECT_FALSE(writes_register(Opcode::kBeqz));
  EXPECT_TRUE(reads_rs1(Opcode::kSw));
  EXPECT_TRUE(reads_rs2(Opcode::kSw));
  EXPECT_TRUE(reads_rs1(Opcode::kBeqz));
  EXPECT_FALSE(reads_rs2(Opcode::kBeqz));
  EXPECT_FALSE(reads_rs1(Opcode::kLhi));
  EXPECT_FALSE(reads_rs1(Opcode::kJ));
}

// ---------------------------------------------------------------------------
// ISA model semantics
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> assemble(const std::vector<Instruction>& prog) {
  std::vector<std::uint32_t> words;
  words.reserve(prog.size());
  for (const auto& ins : prog) words.push_back(encode(ins));
  return words;
}

TEST(IsaModelTest, AluArithmetic) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_itype(Opcode::kAddi, 2, 0, 7),
      make_rtype(Opcode::kAdd, 3, 1, 2),
      make_rtype(Opcode::kSub, 4, 1, 2),
      make_halt(),
  }));
  m.run();
  EXPECT_EQ(m.reg(3), 12u);
  EXPECT_EQ(m.reg(4), static_cast<std::uint32_t>(-2));
  EXPECT_TRUE(m.halted());
}

TEST(IsaModelTest, R0IsHardwiredZero) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 0, 0, 99),
      make_rtype(Opcode::kAdd, 1, 0, 0),
      make_halt(),
  }));
  m.run();
  EXPECT_EQ(m.reg(0), 0u);
  EXPECT_EQ(m.reg(1), 0u);
}

TEST(IsaModelTest, SignedVsUnsignedCompare) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 1, 0, -1),  // 0xffffffff
      make_itype(Opcode::kAddi, 2, 0, 1),
      make_rtype(Opcode::kSlt, 3, 1, 2),    // -1 < 1 signed -> 1
      make_rtype(Opcode::kSltu, 4, 1, 2),   // max > 1 unsigned -> 0
      make_halt(),
  }));
  m.run();
  EXPECT_EQ(m.reg(3), 1u);
  EXPECT_EQ(m.reg(4), 0u);
}

TEST(IsaModelTest, ShiftsAndLhi) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 1, 0, -8),
      make_itype(Opcode::kSrai, 2, 1, 1),  // arithmetic: -4
      make_itype(Opcode::kSrli, 3, 1, 1),  // logical: big positive
      make_lhi(4, 0x1234),
      make_halt(),
  }));
  m.run();
  EXPECT_EQ(m.reg(2), static_cast<std::uint32_t>(-4));
  EXPECT_EQ(m.reg(3), 0x7ffffffcu);
  EXPECT_EQ(m.reg(4), 0x12340000u);
}

TEST(IsaModelTest, LoadsAndStoresAllWidths) {
  IsaModel m(assemble({
      make_lhi(1, 0xdead),
      make_itype(Opcode::kOri, 1, 1, 0x7eef),
      make_store(Opcode::kSw, 0, 1, 0x100),
      make_load(Opcode::kLw, 2, 0, 0x100),
      make_load(Opcode::kLh, 3, 0, 0x100),   // 0x7eef sign-extended (+)
      make_load(Opcode::kLb, 4, 0, 0x101),   // 0x7e
      make_load(Opcode::kLbu, 5, 0, 0x103),  // 0xde
      make_load(Opcode::kLhu, 6, 0, 0x102),  // 0xdead
      make_halt(),
  }));
  m.run();
  EXPECT_EQ(m.reg(2), 0xdead7eefu);
  EXPECT_EQ(m.reg(3), 0x00007eefu);
  EXPECT_EQ(m.reg(4), 0x0000007eu);
  EXPECT_EQ(m.reg(5), 0x000000deu);
  EXPECT_EQ(m.reg(6), 0x0000deadu);
}

TEST(IsaModelTest, ByteStoreLeavesNeighboursIntact) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 1, 0, 0x41),
      make_store(Opcode::kSb, 0, 1, 0x201),
      make_halt(),
  }));
  m.poke_word(0x200, 0xffffffffu);
  m.run();
  EXPECT_EQ(m.peek_word(0x200), 0xffff41ffu);
}

TEST(IsaModelTest, MisalignedAccessThrows) {
  IsaModel m(assemble({
      make_load(Opcode::kLw, 1, 0, 2),
      make_halt(),
  }));
  EXPECT_THROW((void)m.run(), std::domain_error);
}

TEST(IsaModelTest, AddressNearTopOfAddressSpaceIsOutOfRange) {
  // 0xfffffffc + 4 wraps to 0 in 32 bits; the bounds check must not.
  IsaModel m(assemble({
      make_load(Opcode::kLw, 2, 1, 0),
      make_halt(),
  }));
  m.set_reg(1, 0xfffffffcu);
  EXPECT_THROW((void)m.run(), std::out_of_range);
  IsaModel s(assemble({
      make_store(Opcode::kSw, 1, 0, 0),
      make_halt(),
  }));
  s.set_reg(1, 0xfffffffcu);
  EXPECT_THROW((void)s.run(), std::out_of_range);
}

TEST(IsaModelTest, BranchesAndPsw) {
  // r1 = 0 -> beqz taken, skipping the poison instruction.
  IsaModel m(assemble({
      make_branch(Opcode::kBeqz, 1, 4),      // +4: skip one instruction
      make_itype(Opcode::kAddi, 2, 0, 99),   // skipped
      make_itype(Opcode::kAddi, 3, 0, 1),
      make_halt(),
  }));
  const auto trace = m.run();
  EXPECT_EQ(m.reg(2), 0u);
  EXPECT_EQ(m.reg(3), 1u);
  ASSERT_GE(trace.size(), 1u);
  EXPECT_EQ(trace[0].next_pc, 8u);
  // PSW reflects the last ALU result (1): not zero, not negative.
  EXPECT_FALSE(m.psw().zero);
  EXPECT_FALSE(m.psw().negative);
}

TEST(IsaModelTest, PswZeroAndNegativeFlags) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kSub, 2, 1, 1),  // 0 -> Z
      make_halt(),
  }));
  m.run();
  EXPECT_TRUE(m.psw().zero);
  EXPECT_FALSE(m.psw().negative);
  IsaModel n(assemble({
      make_itype(Opcode::kAddi, 1, 0, -5),
      make_halt(),
  }));
  n.run();
  EXPECT_FALSE(n.psw().zero);
  EXPECT_TRUE(n.psw().negative);
}

TEST(IsaModelTest, JumpAndLink) {
  IsaModel m(assemble({
      make_jump(Opcode::kJal, 4),           // to pc 8, r31 = 4
      make_halt(),                          // at 4: return point
      make_itype(Opcode::kAddi, 1, 0, 7),   // at 8
      make_jump_reg(Opcode::kJr, 31),       // back to 4
  }));
  m.run();
  EXPECT_EQ(m.reg(31), 4u);
  EXPECT_EQ(m.reg(1), 7u);
  EXPECT_TRUE(m.halted());
}

TEST(IsaModelTest, JalrReadsTargetBeforeLinking) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 31, 0, 12),  // target in r31 itself
      make_jump_reg(Opcode::kJalr, 31),      // jump to 12, link r31 = 8
      make_halt(),                           // at 8 (skipped)
      make_halt(),                           // at 12
  }));
  const auto trace = m.run();
  EXPECT_EQ(m.reg(31), 8u);
  EXPECT_EQ(trace.back().pc, 12u);
}

TEST(IsaModelTest, RetireRecordsCarryWrites) {
  IsaModel m(assemble({
      make_itype(Opcode::kAddi, 1, 0, 3),
      make_store(Opcode::kSw, 0, 1, 8),
      make_halt(),
  }));
  const auto trace = m.run();
  ASSERT_EQ(trace.size(), 3u);
  ASSERT_TRUE(trace[0].reg_write.has_value());
  EXPECT_EQ(trace[0].reg_write->first, 1);
  EXPECT_EQ(trace[0].reg_write->second, 3u);
  ASSERT_TRUE(trace[1].mem_write.has_value());
  EXPECT_EQ(trace[1].mem_write->addr, 8u);
  EXPECT_EQ(trace[1].mem_write->value, 3u);
  EXPECT_TRUE(trace[2].halted);
}

TEST(IsaModelTest, RunStopsAtProgramEnd) {
  IsaModel m(assemble({make_nop()}));
  const auto trace = m.run();
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_FALSE(m.halted());
  EXPECT_FALSE(m.step().has_value());
}

}  // namespace
}  // namespace simcov::dlx
