#include "core/campaign.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "obs/event_sink.hpp"
#include "pipeline/stages.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "store/artifact_store.hpp"

namespace simcov::core {

CampaignResult run_campaign(const CampaignOptions& options,
                            std::span<const dlx::PipelineBug> bugs) {
  CampaignResult result = pipeline::ValidationPipeline(options).run(bugs);
  // Archive the JSON report of a complete campaign under its content key.
  // The pipeline cannot do this itself — JSON emission lives up here — so
  // the store is reopened briefly; the published bytes are a record, not a
  // cache (nothing consults them to skip work), so the report's own store
  // stats predate this publish.
  if (!options.store_dir.empty() && result.report_key.has_value() &&
      !result.cancelled()) {
    store::ArtifactStore store(
        store::StoreOptions{options.store_dir, options.store_max_bytes});
    const std::string json = to_json(result);
    const std::vector<std::uint8_t> payload(json.begin(), json.end());
    obs::EventSink& sink =
        options.sink != nullptr ? *options.sink : obs::null_sink();
    store.publish(store::ArtifactKind::kReport, *result.report_key, payload,
                  obs::Stage::kCompare, sink);
  }
  return result;
}

MutantCoverageResult evaluate_mutant_coverage(
    const model::ExplicitModel& model, const MutantCoverageOptions& options) {
  return pipeline::MutantReplayStage::run(model.machine(), model.start(),
                                          options);
}

}  // namespace simcov::core
