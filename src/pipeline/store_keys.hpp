// Campaign-level artifact keys.
//
// The store addresses artifacts by content fingerprints; this helper
// defines what "content" means for each campaign artifact:
//
//   tour       — the structural circuit fingerprint plus everything that
//                shapes generation: model options, the resolved backend
//                (explicit and symbolic generators emit different tours),
//                the method and its knobs (step cap, walk length, seed),
//                and the full generator spec (family + every parameter) —
//                warm hits must never cross generator strategies.
//   symbolic   — the circuit plus the snapshot trigger (backend / the
//                collect flag): the BDD statistics are a pure function of
//                the circuit and of which path computed them.
//   checkpoint — the tour key plus the simulation cycle budget: a resumed
//                campaign must replay the same tour AND the same per-run
//                budget for the restored verdicts to be valid.
//   report     — the checkpoint key plus the injected bug list: the full
//                report additionally depends on which bugs were compared.
//
// Keys deliberately exclude runtime-only knobs (threads, window size,
// sinks): results are bit-identical across those, so artifacts stay
// shareable across them.
#pragma once

#include <span>

#include "pipeline/contracts.hpp"
#include "store/fingerprint.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::pipeline {

struct CampaignStoreKeys {
  store::Fingerprint tour;
  store::Fingerprint symbolic;
  store::Fingerprint checkpoint;
  store::Fingerprint report;
};

[[nodiscard]] CampaignStoreKeys campaign_store_keys(
    const CampaignOptions& options, const sym::SequentialCircuit& circuit,
    model::Backend backend, std::span<const dlx::PipelineBug> bugs);

}  // namespace simcov::pipeline
