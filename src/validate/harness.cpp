#include "validate/harness.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace simcov::validate {

namespace {

constexpr std::size_t kDataSize = 1u << 16;

/// The reference model, one checkpoint at a time and at most `max_steps` of
/// them, recording how it ends into `outcome` as it goes.
class ReferenceStepper {
 public:
  ReferenceStepper(dlx::IsaModel& model, std::size_t max_steps,
                   ReferenceRun& outcome)
      : model_(model), max_steps_(max_steps), outcome_(outcome) {}

  /// The next checkpoint; nullopt once the reference has ended (halt
  /// retired, PC past the program, budget spent). A fault is recorded in
  /// the outcome and rethrown.
  std::optional<dlx::RetireInfo> next() {
    if (ended_) return std::nullopt;
    std::optional<dlx::RetireInfo> info;
    if (outcome_.retires < max_steps_) {
      try {
        info = model_.step();
      } catch (...) {
        outcome_.fault = std::current_exception();
        throw;
      }
    }
    if (!info.has_value()) {
      ended_ = true;
    } else {
      ++outcome_.retires;
      if (info->halted) outcome_.halted = ended_ = true;
    }
    return info;
  }

  void finish() {
    while (next().has_value()) {
    }
  }

 private:
  dlx::IsaModel& model_;
  std::size_t max_steps_;
  ReferenceRun& outcome_;
  bool ended_ = false;
};

/// The comparison: runs the implementation to its end and steps the
/// reference once per implementation retire. With `known` the reference
/// stops as soon as the verdict no longer needs it; without, it runs to
/// its end and `run` holds its outcome.
ValidationResult lockstep(const ConcretizedProgram& program,
                          const dlx::PipelineConfig& config,
                          std::size_t max_cycles, const ReferenceRun* known,
                          ReferenceRun& run) {
  auto words = program.words();
  dlx::IsaModel spec_model(words, kDataSize);
  dlx::Pipeline impl(std::move(words), config, kDataSize);
  for (unsigned r = 1; r < dlx::kNumRegisters; ++r) {
    spec_model.set_reg(r, program.initial_regs[r]);
    impl.set_reg(r, program.initial_regs[r]);
  }
  for (const auto& [addr, value] : program.memory_init) {
    spec_model.poke_word(addr, value);
    impl.poke_word(addr, value);
  }
  // A reference fault wins over anything the implementation does.
  if (known != nullptr && known->fault) std::rethrow_exception(known->fault);
  ReferenceStepper spec(spec_model, max_cycles, run);

  ValidationResult result;
  std::size_t retired = 0;  // implementation checkpoints so far
  bool comparing = true;    // no divergence yet and the spec not ended
  std::optional<dlx::RetireInfo> impl_extra;  // first retire past the spec
  for (std::size_t k = 0; k < max_cycles && !impl.halted(); ++k) {
    std::optional<dlx::RetireInfo> info;
    bool drained = false;
    try {
      info = impl.step_cycle();
      drained = impl.drained();
    } catch (const std::exception& e) {
      // The implementation crashed mid-run (e.g. a bug corrupted a memory
      // address): a detected error, reported directly.
      ValidationResult crash;
      crash.impl_cycles = impl.cycles();
      crash.impl_exception = e.what();
      crash.divergence = Divergence{};
      if (known == nullptr) spec.finish();
      return crash;
    }
    if (info.has_value()) {
      if (comparing) {
        const auto expected = spec.next();
        if (!expected.has_value()) {
          impl_extra = info;
          comparing = false;
        } else if (!(*expected == *info)) {
          result.checkpoints_compared = retired + 1;
          result.divergence = Divergence{retired, expected, info};
          comparing = false;
        }
      }
      ++retired;
    }
    if (drained) break;
  }
  const auto spec_extra = comparing ? spec.next() : std::nullopt;
  if (known == nullptr) spec.finish();
  const ReferenceRun& outcome = known != nullptr ? *known : run;

  // Budget exhaustion means the model consumed every cycle it was given and
  // still had work left. Running off the program end (step() returning
  // nothing with cycles to spare) is a genuine end of stream, not
  // exhaustion, and keeps its historical length-mismatch-is-divergence
  // semantics.
  const bool budget_exhausted =
      (!outcome.halted && outcome.retires >= max_cycles) ||
      (!impl.halted() && impl.cycles() >= max_cycles);
  result.impl_cycles = impl.cycles();
  result.cycle_budget_exhausted = budget_exhausted;
  if (result.divergence.has_value()) return result;
  const std::size_t n = std::min(outcome.retires, retired);
  result.checkpoints_compared = n;
  if (outcome.retires != retired) {
    if (budget_exhausted) {
      // One stream was truncated by the budget, not by a halt: a length
      // mismatch carries no information (inconclusive, not a divergence).
      return result;
    }
    result.divergence = Divergence{n, spec_extra, impl_extra};
    return result;
  }
  result.passed = !budget_exhausted;
  return result;
}

}  // namespace

ValidationResult run_validation(const ConcretizedProgram& program,
                                const dlx::PipelineConfig& config,
                                std::size_t max_cycles,
                                std::optional<ReferenceRun>& reference) {
  ReferenceRun run;
  if (reference.has_value()) {
    return lockstep(program, config, max_cycles, &*reference, run);
  }
  try {
    auto result = lockstep(program, config, max_cycles, nullptr, run);
    reference = run;
    return result;
  } catch (...) {
    if (run.fault) reference = run;
    throw;
  }
}

ValidationResult run_validation(const ConcretizedProgram& program,
                                const dlx::PipelineConfig& config,
                                std::size_t max_cycles) {
  std::optional<ReferenceRun> reference;
  return run_validation(program, config, max_cycles, reference);
}

ValidationResult run_validation(const std::vector<dlx::Instruction>& program,
                                const dlx::PipelineConfig& config,
                                std::size_t max_cycles) {
  ConcretizedProgram p;
  p.instructions = program;
  return run_validation(p, config, max_cycles);
}

std::string describe(const ValidationResult& result) {
  std::ostringstream os;
  if (result.passed) {
    os << "PASS: " << result.checkpoints_compared
       << " checkpoints compared in " << result.impl_cycles << " cycles";
    return os.str();
  }
  if (result.impl_exception.has_value()) {
    os << "FAIL: implementation crashed: " << *result.impl_exception;
    return os.str();
  }
  if (result.cycle_budget_exhausted && !result.divergence.has_value()) {
    os << "INCONCLUSIVE: cycle budget exhausted after "
       << result.checkpoints_compared << " matching checkpoints ("
       << result.impl_cycles << " cycles)";
    return os.str();
  }
  os << "FAIL at checkpoint " << (result.divergence ? result.divergence->index
                                                    : 0);
  if (result.divergence) {
    const auto& d = *result.divergence;
    if (d.spec.has_value() && d.impl.has_value()) {
      os << ": spec retired '" << dlx::disassemble(d.spec->ins)
         << "' (pc=" << d.spec->pc << "), impl retired '"
         << dlx::disassemble(d.impl->ins) << "' (pc=" << d.impl->pc << ")";
    } else if (d.spec.has_value()) {
      os << ": implementation stream ended early (spec continues with '"
         << dlx::disassemble(d.spec->ins) << "')";
    } else if (d.impl.has_value()) {
      os << ": implementation retired extra '"
         << dlx::disassemble(d.impl->ins) << "'";
    }
  }
  return os.str();
}

}  // namespace simcov::validate
