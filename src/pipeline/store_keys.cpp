#include "pipeline/store_keys.hpp"

namespace simcov::pipeline {

CampaignStoreKeys campaign_store_keys(const CampaignOptions& options,
                                      const sym::SequentialCircuit& circuit,
                                      model::Backend backend,
                                      std::span<const dlx::PipelineBug> bugs) {
  const store::Fingerprint circuit_fp = store::fingerprint_circuit(circuit);
  const store::Fingerprint options_fp =
      store::fingerprint_options(options.model_options);

  // Runtime-only knobs (threads, reorder) are deliberately absent
  // from every key below: they change how answers are computed, never what
  // the answers are, so cached artifacts stay shareable across them.
  CampaignStoreKeys keys;
  {
    // v2: the generator spec joined the key when sequence generation
    // became pluggable — every sequence-shaping knob must be inside this
    // fingerprint so warm hits never replay a test set generated under a
    // different strategy or parameterization.
    store::Hasher h;
    h.str("simcov.key.tour.v2");
    h.fp(circuit_fp).fp(options_fp);
    h.u8(static_cast<std::uint8_t>(backend));
    h.u8(static_cast<std::uint8_t>(options.method));
    h.u64(options.max_tour_steps);
    h.u64(options.random_length);
    h.u64(options.seed);
    h.u8(static_cast<std::uint8_t>(options.generator.kind));
    h.u64(options.generator.sequence_length);
    h.u64(options.generator.max_walk_steps);
    h.u64(options.generator.bias_strength);
    h.u64(options.generator.hybrid_tour_steps);
    keys.tour = h.digest();
  }
  {
    store::Hasher h;
    h.str("simcov.key.symstats.v1");
    h.fp(circuit_fp);
    h.u8(static_cast<std::uint8_t>(backend));
    h.boolean(options.collect_symbolic_stats);
    keys.symbolic = h.digest();
  }
  {
    store::Hasher h;
    h.str("simcov.key.checkpoint.v1");
    h.fp(keys.tour);
    h.u64(options.max_cycles);
    keys.checkpoint = h.digest();
  }
  {
    store::Hasher h;
    h.str("simcov.key.report.v1");
    h.fp(keys.checkpoint);
    h.u64(bugs.size());
    for (const dlx::PipelineBug bug : bugs) {
      h.u8(static_cast<std::uint8_t>(bug));
    }
    keys.report = h.digest();
  }
  return keys;
}

}  // namespace simcov::pipeline
