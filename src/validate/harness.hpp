// Implementation-validation harness (Figure 1 of the paper).
//
// Runs the ISA-level golden model and the pipelined implementation on the
// same program and compares the RetireInfo checkpoint streams — the
// "comparison at special checkpointing steps, e.g. at the completion of
// each instruction" of Section 2. Any mismatch (differing record or
// differing stream length) is a detected design error. The reference is
// stepped in lockstep with the implementation's retires, so neither stream
// is stored, and its outcome can be shared by every run of one program.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "dlx/isa_model.hpp"
#include "dlx/pipeline.hpp"
#include "validate/concretize.hpp"

namespace simcov::validate {

struct Divergence {
  std::size_t index = 0;  ///< checkpoint number (retired-instruction index)
  std::optional<dlx::RetireInfo> spec;  ///< nullopt: spec stream ended first
  std::optional<dlx::RetireInfo> impl;  ///< nullopt: impl stream ended first

  friend bool operator==(const Divergence&, const Divergence&) = default;
};

struct ValidationResult {
  bool passed = false;
  std::size_t checkpoints_compared = 0;
  std::uint64_t impl_cycles = 0;
  std::optional<Divergence> divergence;
  /// Set when the implementation model crashed (e.g. a corrupted address
  /// reached the memory stage). A crash counts as a detected error.
  std::optional<std::string> impl_exception;
  /// Set when either model ran out of its cycle budget before halting. The
  /// run is then *inconclusive*, not failed: the compared checkpoint prefix
  /// matched (otherwise `divergence` is set), and a stream-length mismatch
  /// is expected — the spec retires one instruction per step while the
  /// pipeline needs several cycles — so it is not reported as a divergence.
  bool cycle_budget_exhausted = false;

  /// True when the run produced positive evidence of a design error — a
  /// checkpoint divergence or an implementation crash. Campaigns must count
  /// exposure with this, not with `!passed`, or budget-limited runs get
  /// misclassified as exposed bugs.
  [[nodiscard]] bool error_detected() const {
    return divergence.has_value() || impl_exception.has_value();
  }

  friend bool operator==(const ValidationResult&,
                         const ValidationResult&) = default;
};

/// How the reference model ends on one program under one cycle budget:
/// all a verdict needs of it besides the checkpoints it compares. No trace.
struct ReferenceRun {
  std::size_t retires = 0;   ///< checkpoints within the budget
  bool halted = false;       ///< the reference retired its halt
  std::exception_ptr fault;  ///< what the reference threw, if it threw
};

/// Runs both models on `program` (with shared memory/register presets) and
/// compares checkpoints. `config` selects the implementation's injected bugs.
/// A reference fault propagates as the reference threw it.
ValidationResult run_validation(const ConcretizedProgram& program,
                                const dlx::PipelineConfig& config = {},
                                std::size_t max_cycles = 1u << 20);

/// Same result and exceptions, with `reference` carrying the program's
/// ReferenceRun under `max_cycles` from one call to the next:
///   * empty: the reference runs to its end and its outcome is stored here,
///     also when it faults;
///   * set: a fault is rethrown at once; otherwise the reference is stepped
///     no further than the verdict needs — not after an implementation
///     crash, not past the first divergence, and at most one checkpoint
///     past the implementation's last.
ValidationResult run_validation(const ConcretizedProgram& program,
                                const dlx::PipelineConfig& config,
                                std::size_t max_cycles,
                                std::optional<ReferenceRun>& reference);

/// Same, for a raw instruction vector with no presets.
ValidationResult run_validation(const std::vector<dlx::Instruction>& program,
                                const dlx::PipelineConfig& config = {},
                                std::size_t max_cycles = 1u << 20);

/// One-line human-readable summary of a result.
std::string describe(const ValidationResult& result);

}  // namespace simcov::validate
