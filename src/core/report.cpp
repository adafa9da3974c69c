#include "core/report.hpp"

#include <sstream>

#include "core/json.hpp"
#include "model/test_model.hpp"

namespace simcov::core {

const char* bug_name(dlx::PipelineBug bug) {
  using dlx::PipelineBug;
  switch (bug) {
    case PipelineBug::kNoForwardExMemA: return "no EX/MEM bypass (A)";
    case PipelineBug::kNoForwardExMemB: return "no EX/MEM bypass (B)";
    case PipelineBug::kNoForwardMemWbA: return "no MEM/WB bypass (A)";
    case PipelineBug::kNoForwardMemWbB: return "no MEM/WB bypass (B)";
    case PipelineBug::kNoIdBypass: return "no WB->ID bypass";
    case PipelineBug::kNoLoadUseStall: return "missing load-use interlock";
    case PipelineBug::kInterlockChecksRs1Only:
      return "interlock checks rs1 only";
    case PipelineBug::kNoSquashOnTakenBranch:
      return "no squash on taken branch";
    case PipelineBug::kSquashOnlyFetch: return "squash only in fetch";
    case PipelineBug::kJalLinksR30: return "JAL links r30";
    case PipelineBug::kBranchTargetOffByFour: return "branch target off by 4";
    case PipelineBug::kWritebackSelectsAluForLoad:
      return "WB selects address for load";
    case PipelineBug::kStoreDataStale: return "store data not bypassed";
    case PipelineBug::kBranchUsesStaleCondition:
      return "stale branch condition";
    case PipelineBug::kForwardPriorityWrong:
      return "bypass priority inverted";
    case PipelineBug::kInterlockMissesDoubleHazard:
      return "interlock misses double hazard";
    case PipelineBug::kForwardFromR0: return "bypass matches r0 producers";
  }
  return "?";
}

std::string format_report(const CampaignResult& result) {
  std::ostringstream os;
  os << "validation campaign\n";
  os << "  test model: " << result.latches << " latches, "
     << result.primary_inputs << " primary inputs\n";
  os << "  state space: " << result.model_states << " states, "
     << result.model_transitions << " transitions ("
     << model::backend_name(result.backend) << " backend)\n";
  os << "  test set: " << result.sequences << " sequences, "
     << result.test_length << " steps, " << result.total_instructions
     << " instructions\n";
  os << "  coverage: " << 100.0 * result.state_coverage << "% states, "
     << 100.0 * result.transition_coverage << "% transitions\n";
  os << "  clean implementation: "
     << (result.clean_pass ? "PASS" : "FAIL") << "\n";
  os << "  bugs exposed: " << result.bugs_exposed() << "/"
     << result.exposures.size() << "\n";
  for (const auto& e : result.exposures) {
    os << "    " << (e.exposed ? "EXPOSED " : "missed  ") << bug_name(e.bug);
    if (e.exposing_sequence.has_value()) {
      os << " (sequence " << *e.exposing_sequence << ", " << e.programs_run
         << " runs)";
    }
    if (e.budget_exhausted) os << " [cycle budget hit]";
    os << "\n";
  }
  if (result.runs_inconclusive > 0) {
    os << "  inconclusive runs (cycle budget): " << result.runs_inconclusive
       << "\n";
  }
  os.precision(3);
  os << "  wall time: " << result.timings.total_seconds << "s (model "
     << result.timings.model_build_seconds << "s, tour "
     << result.timings.tour_seconds << "s, concretize "
     << result.timings.concretize_seconds << "s, simulate "
     << result.timings.simulate_seconds << "s), "
     << result.total_impl_cycles() << " impl cycles\n";
  return os.str();
}

std::string format_report(const RequirementsReport& report) {
  std::ostringstream os;
  os << "requirements assessment\n";
  os << "  Def. 5 forall-k: ";
  if (report.forall_k.has_value()) {
    os << "all reachable pairs are forall-" << *report.forall_k
       << "-distinguishable\n";
  } else {
    os << "NOT satisfied for any checked k (Theorem 1 hypothesis fails)\n";
  }
  os << "  Req. 1 (uniform output errors): "
     << (report.r1_deterministic_outputs ? "holds (deterministic model)"
                                         : "VIOLATED")
     << "\n";
  os << "  Req. 4 (no masking), sampled masked fraction: "
     << 100.0 * report.r4_masked_fraction << "%\n";
  os << "  Req. 5 (interaction state observable): "
     << (report.r5_interaction_state_observable ? "yes" : "NO") << "\n";
  return os.str();
}

std::string format_line(TestMethod method, const MutantCoverageResult& r) {
  std::ostringstream os;
  os << method_name(method) << ": " << r.exposed << "/" << r.mutants;
  os.precision(3);
  const auto rate = r.exposure_rate();
  if (rate.has_value()) {
    os << " (" << 100.0 * *rate << "%)";
  } else {
    os << " (n/a: no real mutants sampled)";
  }
  os << " over " << r.sequences << " sequences, " << r.test_length
     << " steps";
  if (r.equivalent > 0) {
    os << " [" << r.equivalent << " equivalent mutants excluded]";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

namespace {

/// Fixed-width lowercase hex rendering of the variable-order fingerprint —
/// a stable string token consumers can diff across runs and thread counts.
std::string fingerprint_hex(std::uint64_t fp) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[fp & 0xfu];
    fp >>= 4;
  }
  return out;
}

void emit_timings(JsonWriter& w, const PhaseTimings& t) {
  w.begin_object("timings")
      .field("model_build_seconds", t.model_build_seconds)
      .field("symbolic_seconds", t.symbolic_seconds)
      .field("tour_seconds", t.tour_seconds)
      .field("concretize_seconds", t.concretize_seconds)
      .field("simulate_seconds", t.simulate_seconds)
      .field("total_seconds", t.total_seconds)
      .end_object();
}

/// The "metrics" section: histogram summaries plus flat counters/gauges.
/// Wall-clock derived — consumers needing determinism erase it, exactly
/// like "timings". Bucket arrays stay out of the report (the Prometheus
/// export carries them); the summary quantiles are what a human reads.
void emit_metrics(JsonWriter& w, const obs::MetricsSummary& m) {
  w.begin_object("metrics");
  w.begin_array("counters");
  for (const auto& c : m.counters) {
    w.element_object()
        .field("stage", obs::stage_name(c.stage))
        .field("name", c.name)
        .field("value", c.value)
        .end_object();
  }
  w.end_array();
  w.begin_array("gauges");
  for (const auto& g : m.gauges) {
    w.element_object()
        .field("stage", obs::stage_name(g.stage))
        .field("name", g.name)
        .field("value", g.value)
        .end_object();
  }
  w.end_array();
  w.begin_array("histograms");
  for (const auto& h : m.histograms) {
    w.element_object()
        .field("stage", obs::stage_name(h.stage))
        .field("name", h.name)
        .field("count", h.value.count)
        .field("sum", h.value.sum)
        .field("p50", h.value.p50)
        .field("p90", h.value.p90)
        .field("p99", h.value.p99)
        .field("max", h.value.max)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

/// The "coverage_telemetry" section. Every value is an exact integer (the
/// JsonWriter prints doubles at 6 significant digits — integers round-trip,
/// which the bit-identity contract depends on).
void emit_coverage_telemetry(JsonWriter& w, const obs::CoverageTelemetry& t) {
  w.begin_object("coverage_telemetry");
  w.field("curve_budget", t.curve_budget);
  w.begin_array("convergence");
  for (const auto& p : t.convergence) {
    w.element_object()
        .field("sequence", p.sequence)
        .field("states_visited", p.states_visited)
        .field("transitions_covered", p.transitions_covered)
        .end_object();
  }
  w.end_array();
  w.begin_object("transition_hits")
      .field("distinct", t.distinct_transitions)
      .field("max_hits", t.max_transition_hits);
  // Log2 hit-count buckets, trailing zeros trimmed (bucket i holds the
  // transitions hit between 2^(i-1) and 2^i - 1 times).
  std::size_t last = t.transition_hits.size();
  while (last > 0 && t.transition_hits[last - 1] == 0) --last;
  w.begin_array("histogram");
  for (std::size_t i = 0; i < last; ++i) w.element(t.transition_hits[i]);
  w.end_array();
  w.end_object();
  w.begin_array("bug_exposure_latency");
  for (const auto& lat : t.bug_exposure_latency) {
    w.element_object().field("exposed", lat.exposed);
    if (lat.exposed) {
      w.field("sequences", lat.sequences);
    } else {
      w.null_field("sequences");
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string to_json(const CampaignResult& result) {
  JsonWriter w;
  w.begin_object();
  w.field("report", "campaign");
  w.begin_object("model")
      .field("backend", model::backend_name(result.backend))
      .field("latches", result.latches)
      .field("primary_inputs", result.primary_inputs)
      .field("states", result.model_states)
      .field("transitions", result.model_transitions);
  if (result.backend == model::Backend::kSymbolic &&
      result.bdd_stats.has_value()) {
    // Ordering/housekeeping summary of the live symbolic engine: the final
    // variable order (fingerprint of the level->var map), collection and
    // sifting pass counts, and the peak live-node high-water mark. Gated on
    // the symbolic backend so explicit-backend reports stay byte-identical.
    const auto& b = *result.bdd_stats;
    w.field("bdd_order", fingerprint_hex(b.order_fingerprint))
        .field("bdd_gc_runs", b.gc_runs)
        .field("bdd_reorders", b.reorders)
        .field("bdd_peak_nodes", b.peak_live_nodes);
  }
  w.end_object();
  w.begin_object("test_set")
      .field("sequences", result.sequences)
      .field("steps", result.test_length)
      .field("instructions", result.total_instructions)
      .field("state_coverage", result.state_coverage)
      .field("transition_coverage", result.transition_coverage)
      .end_object();
  w.field("clean_pass", result.clean_pass);
  w.field("bugs_exposed", result.bugs_exposed());
  w.field("runs_inconclusive", result.runs_inconclusive);
  w.field("total_impl_cycles", result.total_impl_cycles());
  w.begin_array("clean_runs");
  for (const auto& r : result.clean_runs) {
    w.element_object()
        .field("sequence", r.sequence)
        .field("impl_cycles", r.impl_cycles)
        .field("checkpoints", r.checkpoints)
        .field("passed", r.passed)
        .field("budget_exhausted", r.budget_exhausted)
        .end_object();
  }
  w.end_array();
  w.begin_array("exposures");
  for (const auto& e : result.exposures) {
    w.element_object()
        .field("bug", bug_name(e.bug))
        .field("exposed", e.exposed)
        .field("programs_run", e.programs_run)
        .field("impl_cycles", e.impl_cycles)
        .field("budget_exhausted", e.budget_exhausted);
    if (e.exposing_sequence.has_value()) {
      w.field("exposing_sequence", *e.exposing_sequence);
    } else {
      w.null_field("exposing_sequence");
    }
    w.end_object();
  }
  w.end_array();
  emit_timings(w, result.timings);
  // Optional sections append after "timings" — the default-spec campaign
  // report must stay a byte-identical prefix of a non-default one (pinned
  // by report_json_test's OptionalSectionsOmittedNotNull). The default
  // transition-tour spec emits no section, keeping pre-generator-layer
  // reports byte-identical.
  if (!model::is_default_generator(result.generator)) {
    const auto& g = result.generator;
    w.begin_object("generator")
        .field("kind", model::generator_kind_name(g.kind))
        .field("sequence_length", g.sequence_length)
        .field("max_walk_steps", g.max_walk_steps)
        .field("bias_strength", g.bias_strength)
        .field("hybrid_tour_steps", g.hybrid_tour_steps)
        .end_object();
  }
  if (result.symbolic_stats.has_value()) {
    const auto& s = *result.symbolic_stats;
    w.begin_object("symbolic")
        .field("transition_relation_nodes", s.transition_relation_nodes)
        .field("reachability_iterations", s.reachability_iterations)
        .field("reachable_states", s.reachable_states)
        .field("transitions", s.transitions)
        .field("valid_input_combinations", s.valid_input_combinations)
        .end_object();
  }
  if (result.bdd_stats.has_value()) {
    const auto& b = *result.bdd_stats;
    w.begin_object("bdd")
        .field("allocated_nodes", b.allocated_nodes)
        .field("live_nodes", b.live_nodes)
        .field("unique_lookups", b.unique_lookups)
        .field("unique_hits", b.unique_hits)
        .field("cache_lookups", b.cache_lookups)
        .field("cache_hits", b.cache_hits)
        .field("gc_runs", b.gc_runs)
        .end_object();
  }
  if (result.store_stats.has_value()) {
    const auto& s = *result.store_stats;
    w.begin_object("store")
        .field("hits", s.hits)
        .field("misses", s.misses)
        .field("evictions", s.evictions)
        .field("checkpoint_writes", s.checkpoint_writes)
        .field("bytes_read", s.bytes_read)
        .field("bytes_written", s.bytes_written)
        .field("resumed_sequences", s.resumed_sequences)
        .end_object();
  }
  if (result.metrics.has_value()) emit_metrics(w, *result.metrics);
  if (result.coverage_telemetry.has_value()) {
    emit_coverage_telemetry(w, *result.coverage_telemetry);
  }
  w.end_object();
  return w.str();
}

std::string to_json(TestMethod method, const MutantCoverageResult& result) {
  JsonWriter w;
  w.begin_object();
  w.field("report", "mutant_coverage");
  w.field("method", method_name(method));
  w.field("mutants", result.mutants);
  w.field("exposed", result.exposed);
  w.field("equivalent", result.equivalent);
  const auto rate = result.exposure_rate();
  if (rate.has_value()) {
    w.field("exposure_rate", *rate);
  } else {
    w.null_field("exposure_rate");
  }
  w.field("sequences", result.sequences);
  w.field("test_length", result.test_length);
  // Per real mutant, in sample order. Never-exposed mutants carry an
  // explicit "exposed":false with the latency omitted — not 0, which
  // would read as a real (and impossibly early) exposure index.
  w.begin_array("exposure_latency");
  for (const auto& m : result.mutant_exposures) {
    w.element_object().field("exposed", m.exposed);
    if (m.exposed) w.field("sequences", m.sequences);
    w.end_object();
  }
  w.end_array();
  emit_timings(w, result.timings);
  w.end_object();
  return w.str();
}

}  // namespace simcov::core
