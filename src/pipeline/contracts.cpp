#include "pipeline/contracts.hpp"

namespace simcov::pipeline {

const char* method_name(TestMethod method) {
  switch (method) {
    case TestMethod::kTransitionTourSet: return "transition-tour";
    case TestMethod::kStateTour: return "state-tour";
    case TestMethod::kRandomWalk: return "random-walk";
    case TestMethod::kWMethod: return "w-method";
  }
  return "?";
}

std::size_t CampaignResult::bugs_exposed() const {
  std::size_t n = 0;
  for (const auto& e : exposures) {
    if (e.exposed) ++n;
  }
  return n;
}

std::uint64_t CampaignResult::total_impl_cycles() const {
  std::uint64_t n = 0;
  for (const auto& r : clean_runs) n += r.impl_cycles;
  for (const auto& e : exposures) n += e.impl_cycles;
  return n;
}

namespace {

bool any_status(const std::vector<StageReport>& reports,
                obs::StageStatus status) {
  for (const auto& r : reports) {
    if (r.status == status) return true;
  }
  return false;
}

}  // namespace

bool CampaignResult::cancelled() const {
  return any_status(stage_reports, obs::StageStatus::kCancelled);
}

bool MutantCoverageResult::cancelled() const {
  return any_status(stage_reports, obs::StageStatus::kCancelled);
}

}  // namespace simcov::pipeline
