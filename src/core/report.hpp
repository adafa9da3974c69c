// Textual reporting for campaign and requirement results — the same
// summaries the bench binaries print, available to library users.
#pragma once

#include <string>

#include "core/campaign.hpp"
#include "core/requirements.hpp"

namespace simcov::core {

/// Multi-line human-readable campaign summary.
std::string format_report(const CampaignResult& result);

/// Multi-line requirements assessment summary.
std::string format_report(const RequirementsReport& report);

/// One line per mutant-coverage run, e.g.
/// "transition-tour: 265/273 (97.1%) over 19 sequences, 40773 steps".
/// An empty sample prints "n/a" instead of a rate.
std::string format_line(TestMethod method, const MutantCoverageResult& r);

/// Short display name of a pipeline bug, e.g. "missing load-use interlock".
const char* bug_name(dlx::PipelineBug bug);

// ---------------------------------------------------------------------------
// Machine-readable reports
// ---------------------------------------------------------------------------
//
// Single JSON object per result, stable keys, no external dependencies
// (writer: core/json.hpp).
// Schema (see DESIGN.md "Structured run reports"):
//   campaign: model{backend,...}, test_set{...}, timings{...} (the
//             stage_reports' seconds),
//             clean_runs[...], exposures[...], runs_inconclusive,
//             bdd{...}?, symbolic{...}? (always present on the symbolic
//             backend)
//   mutant coverage: method, mutants, exposed, equivalent, exposure_rate
//             (null when no real mutants were sampled), timings{...}

/// JSON report of a full campaign.
std::string to_json(const CampaignResult& result);

/// JSON report of one mutant-coverage run.
std::string to_json(TestMethod method, const MutantCoverageResult& result);

/// The campaign's JSON report with its run-dependent parts erased: stage
/// seconds (the "timings" section reads all zero) and checkpoint-store
/// activity (hit, miss and write counts differ between uninterrupted and
/// resumed runs). What remains must be identical across thread counts and
/// resume. Coverage telemetry is deterministic and stays in; BDD and
/// symbolic statistics stay too (a caller comparing reorder on against off
/// erases those itself).
std::string semantic_json(CampaignResult result);

}  // namespace simcov::core
