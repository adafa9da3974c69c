#include "core/campaign.hpp"

#include "pipeline/stages.hpp"
#include "pipeline/validation_pipeline.hpp"

namespace simcov::core {

CampaignResult run_campaign(const CampaignOptions& options,
                            std::span<const dlx::PipelineBug> bugs) {
  return pipeline::execute_campaign(options, bugs);
}

MutantCoverageResult evaluate_mutant_coverage(
    const model::ExplicitModel& model, const MutantCoverageOptions& options) {
  return pipeline::MutantReplayStage::run(model.machine(), model.start(),
                                          options);
}

}  // namespace simcov::core
