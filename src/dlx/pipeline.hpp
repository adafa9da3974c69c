// Cycle-accurate 5-stage pipelined DLX implementation.
//
// This stands in for the NCSU Verilog RTL design of the paper's case study
// (Section 7): a standard IF/ID/EX/MEM/WB pipeline with
//   * an interlock unit for the load-use hazard (1-cycle stall),
//   * full bypassing (EX/MEM and MEM/WB into EX; WB into the ID register
//     read),
//   * control transfers resolved in EX with squashing of the two
//     wrong-path instructions behind them.
//
// The `PipelineBug` catalogue injects the classes of control errors the
// methodology is meant to catch: each bug corrupts exactly one control
// mechanism (a transition/output error of the control FSM) while leaving
// the datapath intact, mirroring Section 6.4's observation that "typically
// errors creep in on the transitions".
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "dlx/arch.hpp"
#include "dlx/isa.hpp"

namespace simcov::dlx {

enum class PipelineBug : std::uint8_t {
  kNoForwardExMemA,      ///< EX/MEM -> EX operand-A bypass disabled
  kNoForwardExMemB,      ///< EX/MEM -> EX operand-B bypass disabled
  kNoForwardMemWbA,      ///< MEM/WB -> EX operand-A bypass disabled
  kNoForwardMemWbB,      ///< MEM/WB -> EX operand-B bypass disabled
  kNoIdBypass,           ///< WB -> ID register-read bypass disabled
  kNoLoadUseStall,       ///< interlock unit disabled
  kInterlockChecksRs1Only,  ///< interlock misses rs2 load-use hazards
  kNoSquashOnTakenBranch,   ///< PC redirects but wrong-path instrs retire
  kSquashOnlyFetch,         ///< only the IF/ID slot is squashed
  kJalLinksR30,             ///< JAL/JALR link into r30 instead of r31
  kBranchTargetOffByFour,   ///< target = pc + imm (missing the +4)
  kWritebackSelectsAluForLoad,  ///< WB mux returns the address for loads
  kStoreDataStale,          ///< store data skips EX forwarding
  kBranchUsesStaleCondition,  ///< branch condition skips EX forwarding
  // Corner-case bugs (the hard-to-hit class motivating coverage-driven test
  // generation in Ho et al. and Section 3):
  kForwardPriorityWrong,  ///< both bypasses match: picks the OLDER value
  kInterlockMissesDoubleHazard,  ///< stall suppressed when rs1 AND rs2 hazard
  kForwardFromR0,  ///< bypass matches r0 producers (r0 reads become garbage)
};

static_assert(static_cast<unsigned>(PipelineBug::kForwardFromR0) < 32,
              "Pipeline keeps the injected bugs in a 32-bit mask");

struct PipelineConfig {
  std::set<PipelineBug> bugs;

  [[nodiscard]] bool has(PipelineBug b) const { return bugs.count(b) != 0; }
};

/// Per-cycle snapshot of the pipeline's *control* state — the projection the
/// test model retains (Section 6.1): per-stage opcode class / destination /
/// validity plus the interlock and squash decisions of the current cycle.
struct ControlSnapshot {
  struct StageInfo {
    bool valid = false;
    OpClass cls = OpClass::kNop;
    std::uint8_t dest = 0;
  };
  StageInfo id, ex, mem, wb;
  bool stall = false;
  bool squash = false;
};

class Pipeline {
 public:
  explicit Pipeline(std::vector<std::uint32_t> program,
                    PipelineConfig config = {},
                    std::size_t data_size = 1 << 16);

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] std::uint32_t reg(unsigned r) const { return regs_[r]; }
  [[nodiscard]] const Psw& psw() const { return psw_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// Microarchitectural event counters (for CPI analyses and tests).
  struct Counters {
    std::uint64_t retired = 0;
    std::uint64_t stall_cycles = 0;    ///< load-use interlock stalls
    std::uint64_t squashes = 0;        ///< taken control transfers
    std::uint64_t squashed_slots = 0;  ///< wrong-path instructions killed
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Cycles per retired instruction so far (0 when nothing retired).
  [[nodiscard]] double cpi() const {
    return counters_.retired == 0
               ? 0.0
               : static_cast<double>(cycles_) /
                     static_cast<double>(counters_.retired);
  }

  void set_reg(unsigned r, std::uint32_t value);
  void poke_word(std::uint32_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t peek_word(std::uint32_t addr) const;

  /// Advances one clock cycle. Returns the checkpoint record if an
  /// instruction retired this cycle.
  std::optional<RetireInfo> step_cycle();

  /// Runs until halt (or cycle budget); returns the retirement trace.
  std::vector<RetireInfo> run(std::size_t max_cycles = 200000);

  /// True when nothing is in flight and nothing is left to fetch: where
  /// run() stops short of a halt. Throws like a fetch of the PC would.
  [[nodiscard]] bool drained() const;

  /// Control-state projection observed *before* the next clock edge.
  [[nodiscard]] ControlSnapshot control_snapshot() const;

 private:
  struct IfId {
    bool valid = false;
    std::uint32_t pc = 0;
    Instruction ins;
  };
  struct IdEx {
    bool valid = false;
    std::uint32_t pc = 0;
    Instruction ins;
    std::uint32_t a = 0;  ///< rs1 value read in ID
    std::uint32_t b = 0;  ///< rs2 value read in ID
  };
  struct ExMem {
    bool valid = false;
    std::uint32_t pc = 0;
    Instruction ins;
    std::uint32_t alu = 0;         ///< ALU result / mem address / link value
    std::uint32_t store_data = 0;
    std::uint32_t next_pc = 0;     ///< architecturally correct successor PC
  };
  struct MemWb {
    bool valid = false;
    std::uint32_t pc = 0;
    Instruction ins;
    std::uint32_t value = 0;  ///< writeback value
    std::optional<MemWrite> mem_write;
    std::uint32_t next_pc = 0;
  };

  /// Whether `bug` is injected (a bit test; PipelineConfig's set is not
  /// consulted per cycle).
  [[nodiscard]] bool has(PipelineBug bug) const {
    return ((bugs_ >> static_cast<unsigned>(bug)) & 1u) != 0;
  }
  /// The architectural destination register of an instruction, with the
  /// JAL-link bug applied if injected.
  [[nodiscard]] unsigned effective_dest(const Instruction& ins) const;
  [[nodiscard]] std::optional<Instruction> fetch(std::uint32_t pc) const;
  [[nodiscard]] std::uint32_t mem_load(std::uint32_t addr, unsigned size,
                                       bool sign_extend) const;
  void mem_store(std::uint32_t addr, std::uint32_t value, unsigned size);
  [[nodiscard]] bool detect_load_use_hazard() const;
  [[nodiscard]] std::uint32_t forward_operand(unsigned reg,
                                              std::uint32_t id_ex_value,
                                              bool allow_ex_mem,
                                              bool allow_mem_wb) const;

  std::vector<std::uint32_t> program_;
  std::vector<std::uint8_t> data_;
  std::uint32_t bugs_ = 0;  ///< bit b set: PipelineBug b injected

  std::uint32_t pc_ = 0;
  std::array<std::uint32_t, kNumRegisters> regs_{};
  Psw psw_;
  IfId if_id_;
  IdEx id_ex_;
  ExMem ex_mem_;
  MemWb mem_wb_;
  bool halted_ = false;
  std::uint64_t cycles_ = 0;
  Counters counters_;
};

}  // namespace simcov::dlx
