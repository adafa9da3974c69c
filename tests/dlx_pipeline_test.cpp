// Tests for the pipelined DLX implementation: lockstep equivalence with the
// ISA model on bug-free configs, hazard/bypass/squash mechanics, and the
// injectable control-bug catalogue (each bug must be exposable by a program
// and invisible to programs that avoid its trigger).
#include "dlx/pipeline.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "dlx/isa_model.hpp"

namespace simcov::dlx {
namespace {

std::vector<std::uint32_t> assemble(const std::vector<Instruction>& prog) {
  std::vector<std::uint32_t> words;
  words.reserve(prog.size());
  for (const auto& ins : prog) words.push_back(encode(ins));
  return words;
}

/// Runs both models on the program and expects identical retirement traces.
void expect_lockstep(const std::vector<Instruction>& prog,
                     PipelineConfig config = {}) {
  const auto words = assemble(prog);
  IsaModel spec(words);
  Pipeline impl(words, config);
  const auto spec_trace = spec.run();
  const auto impl_trace = impl.run();
  ASSERT_EQ(spec_trace.size(), impl_trace.size());
  for (std::size_t k = 0; k < spec_trace.size(); ++k) {
    EXPECT_EQ(spec_trace[k], impl_trace[k])
        << "divergence at instruction " << k << ": "
        << disassemble(spec_trace[k].ins);
  }
}

/// Expects the traces to differ somewhere (the bug is exposed).
void expect_divergence(const std::vector<Instruction>& prog,
                       PipelineConfig config) {
  const auto words = assemble(prog);
  IsaModel spec(words);
  Pipeline impl(words, config);
  const auto spec_trace = spec.run();
  const auto impl_trace = impl.run();
  const bool same = spec_trace.size() == impl_trace.size() &&
                    std::equal(spec_trace.begin(), spec_trace.end(),
                               impl_trace.begin());
  EXPECT_FALSE(same) << "bug was not exposed";
}

// ---------------------------------------------------------------------------
// Bug-free lockstep
// ---------------------------------------------------------------------------

TEST(PipelineLockstep, StraightLineAlu) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_itype(Opcode::kAddi, 2, 0, 7),
      make_rtype(Opcode::kAdd, 3, 1, 2),
      make_rtype(Opcode::kSub, 4, 3, 1),
      make_rtype(Opcode::kXor, 5, 4, 2),
      make_halt(),
  });
}

TEST(PipelineLockstep, BackToBackDependencies) {
  // Each instruction consumes the previous result: exercises EX/MEM bypass.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_rtype(Opcode::kAdd, 1, 1, 1),
      make_rtype(Opcode::kAdd, 1, 1, 1),
      make_rtype(Opcode::kAdd, 1, 1, 1),
      make_halt(),
  });
}

TEST(PipelineLockstep, DistanceTwoDependency) {
  // Producer and consumer two apart: exercises MEM/WB bypass.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 3),
      make_nop(),
      make_rtype(Opcode::kAdd, 2, 1, 1),
      make_halt(),
  });
}

TEST(PipelineLockstep, DistanceThreeDependency) {
  // Producer in WB while consumer reads in ID: regfile bypass.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 3),
      make_nop(),
      make_nop(),
      make_rtype(Opcode::kAdd, 2, 1, 1),
      make_halt(),
  });
}

TEST(PipelineLockstep, LoadUseInterlock) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 42),
      make_store(Opcode::kSw, 0, 1, 0x80),
      make_load(Opcode::kLw, 2, 0, 0x80),
      make_rtype(Opcode::kAdd, 3, 2, 2),  // load-use: needs the stall
      make_halt(),
  });
}

TEST(PipelineLockstep, LoadUseOnRs2) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 9),
      make_store(Opcode::kSw, 0, 1, 0x40),
      make_load(Opcode::kLw, 2, 0, 0x40),
      make_rtype(Opcode::kSub, 3, 1, 2),  // hazard via rs2
      make_halt(),
  });
}

TEST(PipelineLockstep, StoreDataNeedsForwarding) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_store(Opcode::kSw, 0, 1, 0x20),  // store right after producer
      make_load(Opcode::kLw, 2, 0, 0x20),
      make_halt(),
  });
}

TEST(PipelineLockstep, TakenBranchSquashesWrongPath) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBnez, 1, 8),     // taken: skip 2 instructions
      make_itype(Opcode::kAddi, 2, 0, 99),  // wrong path
      make_itype(Opcode::kAddi, 3, 0, 98),  // wrong path
      make_itype(Opcode::kAddi, 4, 0, 1),
      make_halt(),
  });
}

TEST(PipelineLockstep, UntakenBranchFallsThrough) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBeqz, 1, 8),  // not taken
      make_itype(Opcode::kAddi, 2, 0, 5),
      make_halt(),
  });
}

TEST(PipelineLockstep, BranchConditionFreshFromForwarding) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBnez, 1, 4),     // condition produced 1 cycle ago
      make_itype(Opcode::kAddi, 2, 0, 77),  // skipped if taken
      make_itype(Opcode::kAddi, 3, 0, 1),
      make_halt(),
  });
}

TEST(PipelineLockstep, JumpsAndCalls) {
  expect_lockstep({
      make_jump(Opcode::kJal, 8),           // to 12
      make_itype(Opcode::kAddi, 1, 0, 1),   // return point (4)
      make_halt(),                          // 8
      make_itype(Opcode::kAddi, 2, 0, 2),   // 12
      make_jump_reg(Opcode::kJr, 31),       // back to 4
  });
}

TEST(PipelineLockstep, LoadIntoBranchCondition) {
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_store(Opcode::kSw, 0, 1, 0x10),
      make_load(Opcode::kLw, 2, 0, 0x10),
      make_branch(Opcode::kBnez, 2, 4),     // stall + forward into branch
      make_itype(Opcode::kAddi, 3, 0, 66),  // skipped
      make_halt(),
  });
}

TEST(PipelineLockstep, CountdownLoopRunsOnBothModels) {
  const auto words = assemble({
      make_itype(Opcode::kAddi, 1, 0, 10),
      make_itype(Opcode::kAddi, 2, 0, 0),
      make_rtype(Opcode::kAdd, 2, 2, 1),    // loop (8)
      make_itype(Opcode::kAddi, 1, 1, -1),
      make_branch(Opcode::kBnez, 1, -12),   // back to 8
      make_store(Opcode::kSw, 0, 2, 0x40),
      make_halt(),
  });
  IsaModel spec(words);
  Pipeline impl(words);
  const auto st = spec.run();
  const auto it = impl.run();
  ASSERT_EQ(st.size(), it.size());
  for (std::size_t k = 0; k < st.size(); ++k) EXPECT_EQ(st[k], it[k]);
  // Sum 10+9+...+1 = 55.
  EXPECT_EQ(spec.peek_word(0x40), 55u);
  EXPECT_EQ(impl.peek_word(0x40), 55u);
}

// Property: random straight-line ALU/memory programs behave identically.
class PipelineRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineRandomProperty, RandomProgramsLockstep) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 131 + 17);
  std::vector<Instruction> prog;
  const unsigned kRegs = 8;  // work in r1..r8
  auto reg = [&]() { return 1 + rng() % kRegs; };
  for (int k = 0; k < 60; ++k) {
    switch (rng() % 8) {
      case 0:
        prog.push_back(make_itype(Opcode::kAddi, reg(), reg(),
                                  static_cast<std::int32_t>(rng() % 64)));
        break;
      case 1:
        prog.push_back(make_rtype(Opcode::kAdd, reg(), reg(), reg()));
        break;
      case 2:
        prog.push_back(make_rtype(Opcode::kSub, reg(), reg(), reg()));
        break;
      case 3:
        prog.push_back(make_rtype(Opcode::kXor, reg(), reg(), reg()));
        break;
      case 4:
        prog.push_back(make_store(Opcode::kSw, 0, reg(),
                                  static_cast<std::int32_t>(4 * (rng() % 16))));
        break;
      case 5:
        prog.push_back(make_load(Opcode::kLw, reg(), 0,
                                 static_cast<std::int32_t>(4 * (rng() % 16))));
        break;
      case 6:
        prog.push_back(make_rtype(Opcode::kSlt, reg(), reg(), reg()));
        break;
      case 7:
        prog.push_back(make_nop());
        break;
    }
  }
  prog.push_back(make_halt());
  expect_lockstep(prog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineRandomProperty,
                         ::testing::Range(0, 20));

// Property: random programs WITH control flow (forward branches/jumps only,
// so termination is guaranteed) behave identically on both models —
// exercising squash, branch-condition forwarding and link-register paths.
class PipelineControlFlowProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineControlFlowProperty, RandomBranchyProgramsLockstep) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 977 + 3);
  std::vector<Instruction> prog;
  const unsigned kLen = 50;
  auto reg = [&]() { return 1 + rng() % 6; };
  for (unsigned k = 0; k < kLen; ++k) {
    const unsigned remaining = kLen - k;  // slots before the final halt
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
        prog.push_back(make_itype(Opcode::kAddi, reg(), reg(),
                                  static_cast<std::int32_t>(rng() % 8)));
        break;
      case 3:
      case 4:
        prog.push_back(make_rtype(Opcode::kSub, reg(), reg(), reg()));
        break;
      case 5:
        prog.push_back(make_rtype(Opcode::kSne, reg(), reg(), reg()));
        break;
      case 6:
      case 7: {
        // Forward branch over 1..3 instructions (stays inside the program).
        const unsigned skip = 1 + rng() % 3;
        if (remaining > skip + 1) {
          const Opcode op = rng() % 2 == 0 ? Opcode::kBeqz : Opcode::kBnez;
          prog.push_back(
              make_branch(op, reg(), static_cast<std::int32_t>(4 * skip)));
        } else {
          prog.push_back(make_nop());
        }
        break;
      }
      case 8: {
        const unsigned skip = 1 + rng() % 2;
        if (remaining > skip + 1) {
          const Opcode op = rng() % 2 == 0 ? Opcode::kJ : Opcode::kJal;
          prog.push_back(
              make_jump(op, static_cast<std::int32_t>(4 * skip)));
        } else {
          prog.push_back(make_nop());
        }
        break;
      }
      case 9:
        prog.push_back(make_store(Opcode::kSw, 0, reg(),
                                  static_cast<std::int32_t>(4 * (rng() % 8))));
        break;
    }
  }
  prog.push_back(make_halt());
  expect_lockstep(prog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineControlFlowProperty,
                         ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Bug catalogue: each bug must be exposed by its trigger program and remain
// hidden on a program that avoids the trigger.
// ---------------------------------------------------------------------------

TEST(PipelineBugs, NoForwardExMemA) {
  PipelineConfig cfg{{PipelineBug::kNoForwardExMemA}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kAdd, 2, 1, 0),  // needs EX/MEM bypass on A
      make_halt(),
  }, cfg);
  // Independent instructions: hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_nop(),
      make_nop(),
      make_itype(Opcode::kAddi, 2, 0, 6),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, NoForwardExMemB) {
  PipelineConfig cfg{{PipelineBug::kNoForwardExMemB}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kAdd, 2, 0, 1),  // dependency through rs2
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, NoForwardMemWbA) {
  PipelineConfig cfg{{PipelineBug::kNoForwardMemWbA}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_nop(),
      make_rtype(Opcode::kAdd, 2, 1, 0),  // distance 2: MEM/WB bypass
      make_halt(),
  }, cfg);
  // Distance 1 uses EX/MEM (still intact): hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kAdd, 2, 1, 0),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, NoIdBypass) {
  PipelineConfig cfg{{PipelineBug::kNoIdBypass}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_nop(),
      make_nop(),
      make_rtype(Opcode::kAdd, 2, 1, 0),  // distance 3: WB/ID bypass
      make_halt(),
  }, cfg);
  // Distance 4: plain regfile read works.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_nop(),
      make_nop(),
      make_nop(),
      make_rtype(Opcode::kAdd, 2, 1, 0),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, NoLoadUseStall) {
  PipelineConfig cfg{{PipelineBug::kNoLoadUseStall}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_rtype(Opcode::kAdd, 3, 2, 0),  // load-use
      make_halt(),
  }, cfg);
  // One instruction of slack: hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_nop(),
      make_rtype(Opcode::kAdd, 3, 2, 0),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, HandWrittenRegressionExposesInterlockBug) {
  // A directed test in the methodology's output form: a load followed by
  // an immediate use, whose result is stored and checked.
  const auto words = assemble({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_rtype(Opcode::kAdd, 3, 2, 0),  // load-use hazard
      make_store(Opcode::kSw, 0, 3, 0x34),
      make_halt(),
  });
  IsaModel spec(words);
  Pipeline good(words);
  Pipeline buggy(words, PipelineConfig{{PipelineBug::kNoLoadUseStall}});
  const auto st = spec.run();
  const auto gt = good.run();
  (void)buggy.run();
  ASSERT_EQ(st.size(), gt.size());
  for (std::size_t k = 0; k < st.size(); ++k) EXPECT_EQ(st[k], gt[k]);
  // The buggy pipeline stores a stale value.
  EXPECT_EQ(spec.peek_word(0x34), 7u);
  EXPECT_NE(buggy.peek_word(0x34), 7u);
}

TEST(PipelineBugs, InterlockChecksRs1Only) {
  PipelineConfig cfg{{PipelineBug::kInterlockChecksRs1Only}};
  // Hazard through rs2 is missed...
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_rtype(Opcode::kAdd, 3, 0, 2),  // load-use via rs2
      make_halt(),
  }, cfg);
  // ...while the rs1 hazard is still handled.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_rtype(Opcode::kAdd, 3, 2, 0),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, NoSquashOnTakenBranch) {
  PipelineConfig cfg{{PipelineBug::kNoSquashOnTakenBranch}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBnez, 1, 8),
      make_itype(Opcode::kAddi, 2, 0, 99),  // must be squashed
      make_itype(Opcode::kAddi, 3, 0, 98),  // must be squashed
      make_itype(Opcode::kAddi, 4, 0, 1),
      make_halt(),
  }, cfg);
  // Untaken branch: no squash needed, hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBeqz, 1, 8),
      make_itype(Opcode::kAddi, 2, 0, 5),
      make_itype(Opcode::kAddi, 3, 0, 6),
      make_itype(Opcode::kAddi, 4, 0, 7),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, SquashOnlyFetch) {
  PipelineConfig cfg{{PipelineBug::kSquashOnlyFetch}};
  // The instruction directly after the branch (in ID at resolve time)
  // wrongly survives.
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBnez, 1, 8),
      make_itype(Opcode::kAddi, 2, 0, 99),
      make_itype(Opcode::kAddi, 3, 0, 98),
      make_itype(Opcode::kAddi, 4, 0, 1),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, JalLinksR30) {
  PipelineConfig cfg{{PipelineBug::kJalLinksR30}};
  expect_divergence({
      make_jump(Opcode::kJal, 0),  // to 4; link must be r31
      make_halt(),
  }, cfg);
  // Plain J doesn't link: hidden.
  expect_lockstep({
      make_jump(Opcode::kJ, 0),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, BranchTargetOffByFour) {
  PipelineConfig cfg{{PipelineBug::kBranchTargetOffByFour}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBnez, 1, 4),
      make_itype(Opcode::kAddi, 2, 0, 99),
      make_itype(Opcode::kAddi, 3, 0, 1),
      make_halt(),
  }, cfg);
  // Untaken branches unaffected.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBeqz, 1, 4),
      make_itype(Opcode::kAddi, 2, 0, 3),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, WritebackSelectsAluForLoad) {
  PipelineConfig cfg{{PipelineBug::kWritebackSelectsAluForLoad}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 42),
      make_store(Opcode::kSw, 0, 1, 0x50),
      make_load(Opcode::kLw, 2, 0, 0x50),  // rd gets 0x50 instead of 42
      make_halt(),
  }, cfg);
  // ALU-only program: hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 42),
      make_rtype(Opcode::kAdd, 2, 1, 1),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, StoreDataStale) {
  PipelineConfig cfg{{PipelineBug::kStoreDataStale}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_store(Opcode::kSw, 0, 1, 0x20),  // store data needs forwarding
      make_halt(),
  }, cfg);
  // Store with slack: hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_nop(),
      make_nop(),
      make_nop(),
      make_store(Opcode::kSw, 0, 1, 0x20),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, BranchUsesStaleCondition) {
  PipelineConfig cfg{{PipelineBug::kBranchUsesStaleCondition}};
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 1),   // r1: 0 -> 1
      make_branch(Opcode::kBnez, 1, 8),     // stale read sees 0: not taken
      make_itype(Opcode::kAddi, 2, 0, 99),
      make_itype(Opcode::kAddi, 3, 0, 98),
      make_itype(Opcode::kAddi, 4, 0, 1),
      make_halt(),
  }, cfg);
  // Condition settled long before: hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_nop(),
      make_nop(),
      make_nop(),
      make_branch(Opcode::kBnez, 1, 8),
      make_itype(Opcode::kAddi, 2, 0, 99),
      make_itype(Opcode::kAddi, 3, 0, 98),
      make_itype(Opcode::kAddi, 4, 0, 1),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, ForwardPriorityWrong) {
  PipelineConfig cfg{{PipelineBug::kForwardPriorityWrong}};
  // Two back-to-back writes to r1, then an immediate use: both bypasses
  // match and the buggy mux picks the older value.
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_itype(Opcode::kAddi, 1, 0, 9),
      make_rtype(Opcode::kAdd, 2, 1, 0),
      make_halt(),
  }, cfg);
  // A single in-flight producer: priority never comes into play.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kAdd, 2, 1, 0),
      make_nop(),
      make_itype(Opcode::kAddi, 3, 0, 9),
      make_nop(),
      make_rtype(Opcode::kAdd, 4, 3, 0),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, InterlockMissesDoubleHazard) {
  PipelineConfig cfg{{PipelineBug::kInterlockMissesDoubleHazard}};
  // Consumer reads the loaded register through BOTH operands.
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_rtype(Opcode::kAdd, 3, 2, 2),  // rs1 == rs2 == load dest
      make_halt(),
  }, cfg);
  // Single-operand hazards still stall correctly.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 7),
      make_store(Opcode::kSw, 0, 1, 0x30),
      make_load(Opcode::kLw, 2, 0, 0x30),
      make_rtype(Opcode::kAdd, 3, 2, 1),
      make_rtype(Opcode::kAdd, 4, 1, 2),
      make_halt(),
  }, cfg);
}

TEST(PipelineBugs, ForwardFromR0) {
  PipelineConfig cfg{{PipelineBug::kForwardFromR0}};
  // An r0-destination producer (its write is discarded) wrongly feeds a
  // consumer reading r0.
  expect_divergence({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kAdd, 0, 1, 1),  // writes r0: discarded
      make_rtype(Opcode::kAdd, 2, 0, 0),  // should read 0, gets 10
      make_halt(),
  }, cfg);
  // No r0-writing producer in flight: hidden.
  expect_lockstep({
      make_itype(Opcode::kAddi, 1, 0, 5),
      make_rtype(Opcode::kAdd, 2, 0, 1),
      make_rtype(Opcode::kAdd, 3, 0, 0),
      make_halt(),
  }, cfg);
}

// ---------------------------------------------------------------------------
// Structural checks
// ---------------------------------------------------------------------------

TEST(PipelineStructure, FiveStageLatency) {
  // A single instruction retires on cycle 5.
  Pipeline p(assemble({make_itype(Opcode::kAddi, 1, 0, 1), make_halt()}));
  int retire_cycle = 0;
  for (int cycle = 1; cycle <= 10; ++cycle) {
    if (p.step_cycle().has_value()) {
      retire_cycle = cycle;
      break;
    }
  }
  EXPECT_EQ(retire_cycle, 5);
}

TEST(PipelineStructure, LoadUseCostsExactlyOneCycle) {
  const auto with_hazard = assemble({
      make_load(Opcode::kLw, 1, 0, 0),
      make_rtype(Opcode::kAdd, 2, 1, 1),
      make_halt(),
  });
  const auto without_hazard = assemble({
      make_load(Opcode::kLw, 1, 0, 0),
      make_rtype(Opcode::kAdd, 2, 3, 3),
      make_halt(),
  });
  Pipeline a(with_hazard);
  Pipeline b(without_hazard);
  a.run();
  b.run();
  EXPECT_EQ(a.cycles(), b.cycles() + 1);
}

TEST(PipelineStructure, TakenBranchCostsTwoCycles) {
  const auto taken = assemble({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBnez, 1, 0),  // taken to next instruction
      make_halt(),
  });
  const auto untaken = assemble({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_branch(Opcode::kBeqz, 1, 0),
      make_halt(),
  });
  Pipeline a(taken);
  Pipeline b(untaken);
  a.run();
  b.run();
  EXPECT_EQ(a.cycles(), b.cycles() + 2);
}

TEST(PipelineStructure, ControlSnapshotTracksStages) {
  Pipeline p(assemble({
      make_load(Opcode::kLw, 1, 0, 0),
      make_rtype(Opcode::kAdd, 2, 1, 1),
      make_halt(),
  }));
  p.step_cycle();  // load in IF/ID
  auto snap = p.control_snapshot();
  EXPECT_TRUE(snap.id.valid);
  EXPECT_EQ(snap.id.cls, OpClass::kLoad);
  EXPECT_EQ(snap.id.dest, 1);
  p.step_cycle();  // load in ID/EX, add in IF/ID: load-use hazard visible
  snap = p.control_snapshot();
  EXPECT_TRUE(snap.stall);
  EXPECT_EQ(snap.ex.cls, OpClass::kLoad);
  EXPECT_EQ(snap.id.cls, OpClass::kAlu);
}

TEST(PipelineStructure, CountersTrackEvents) {
  Pipeline p(assemble({
      make_itype(Opcode::kAddi, 1, 0, 1),
      make_load(Opcode::kLw, 2, 0, 0),
      make_rtype(Opcode::kAdd, 3, 2, 0),  // load-use: 1 stall
      make_branch(Opcode::kBnez, 1, 8),   // taken: squash, 2 slots killed
      make_itype(Opcode::kAddi, 4, 0, 9),  // squashed
      make_itype(Opcode::kAddi, 5, 0, 9),  // squashed
      make_halt(),                         // branch target
  }));
  p.run();
  const auto& c = p.counters();
  EXPECT_EQ(c.retired, 5u);  // addi, lw, add, bnez, halt
  EXPECT_EQ(c.stall_cycles, 1u);
  EXPECT_EQ(c.squashes, 1u);
  EXPECT_EQ(c.squashed_slots, 2u);
  EXPECT_GT(p.cpi(), 1.0);  // stalls + squashes + fill cost
}

TEST(PipelineStructure, CpiApproachesOneOnLongStraightLineCode) {
  std::vector<Instruction> prog;
  for (int k = 0; k < 300; ++k) {
    prog.push_back(make_itype(Opcode::kAddi, 1 + (k % 4), 0, k % 17));
  }
  prog.push_back(make_halt());
  Pipeline p(assemble(prog));
  p.run();
  EXPECT_EQ(p.counters().stall_cycles, 0u);
  EXPECT_EQ(p.counters().squashes, 0u);
  EXPECT_LT(p.cpi(), 1.05);  // only the 4-cycle fill amortized over 301
}

TEST(PipelineStructure, NoRetiresAfterHalt) {
  Pipeline p(assemble({
      make_halt(),
      make_itype(Opcode::kAddi, 1, 0, 9),  // must never retire
  }));
  const auto trace = p.run();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_TRUE(trace[0].halted);
  EXPECT_EQ(p.reg(1), 0u);
}

TEST(PipelineStructure, AddressNearTopOfAddressSpaceIsOutOfRange) {
  // 0xfffffffc + 4 wraps to 0 in 32 bits; the bounds check must not.
  for (const Instruction& access : {make_load(Opcode::kLw, 2, 1, 0),
                                    make_store(Opcode::kSw, 1, 0, 0)}) {
    Pipeline p(assemble({access, make_halt()}));
    p.set_reg(1, 0xfffffffcu);
    EXPECT_THROW((void)p.run(), std::out_of_range);
  }
}

TEST(PipelineStructure, DrainedWhenNothingIsInFlightOrLeftToFetch) {
  Pipeline p(assemble({make_nop()}));
  EXPECT_FALSE(p.drained());  // the nop is still to be fetched
  std::size_t cycles = 0;
  while (!p.drained()) {
    (void)p.step_cycle();
    ++cycles;
  }
  EXPECT_EQ(cycles, 5u);  // fetched, then through ID, EX, MEM and WB
  EXPECT_EQ(p.counters().retired, 1u);
}

}  // namespace
}  // namespace simcov::dlx
