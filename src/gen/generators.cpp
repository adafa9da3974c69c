#include "gen/generators.hpp"

#include <stdexcept>

#include "runtime/rng.hpp"

namespace simcov::gen {

// ---------------------------------------------------------------------------
// BiasedRandomSource
// ---------------------------------------------------------------------------

BiasedRandomSource::BiasedRandomSource(model::TestModel& model,
                                       const model::GeneratorSpec& spec,
                                       std::uint64_t seed)
    : model_(&model),
      spec_(spec),
      rng_base_(
          runtime::derive_stream(seed, runtime::Stream::kGeneratorStream)) {
  tracker_.set_totals(model.count_reachable_states(),
                      model.count_reachable_transitions());
}

std::uint64_t BiasedRandomSource::next_u64() {
  return runtime::splitmix64(rng_base_ + draws_++ * runtime::kGolden);
}

bool BiasedRandomSource::coverage_complete() const {
  return tracker_.stats().complete();
}

void BiasedRandomSource::absorb_sequence(const model::Sequence& steps) {
  std::uint64_t at = model_->reset_state();
  tracker_.visit_state(at);
  for (const std::uint64_t input : steps) {
    const auto next = model_->step(at, input);
    if (!next) {
      throw std::domain_error(
          "BiasedRandomSource: absorbed sequence takes an invalid input");
    }
    tracker_.cover_transition(at, input);
    at = *next;
    tracker_.visit_state(at);
  }
}

std::optional<model::Sequence> BiasedRandomSource::next_sequence() {
  if (done_) return std::nullopt;
  if (steps_ >= spec_.max_walk_steps || coverage_complete()) {
    done_ = true;
    return std::nullopt;
  }

  model::Sequence seq;
  std::uint64_t at = model_->reset_state();
  tracker_.visit_state(at);
  while (seq.size() < spec_.sequence_length &&
         steps_ < spec_.max_walk_steps) {
    const auto edges = model_->edges(at);
    if (edges.empty()) break;  // dead end — restart from reset

    // Integer-weighted choice toward rarely-hit edges: weight
    // 1 + bias_strength * (h_max - h) over the state's edges (sorted by
    // input key, the edges() contract, so the cumulative scan is
    // deterministic).
    std::uint64_t h_max = 0;
    for (const auto& e : edges) {
      const std::uint64_t h = tracker_.hits(at, e.input);
      if (h > h_max) h_max = h;
    }
    std::uint64_t total = 0;
    for (const auto& e : edges) {
      total += 1 + spec_.bias_strength * (h_max - tracker_.hits(at, e.input));
    }
    std::uint64_t r = next_u64() % total;
    const model::TestModel::Edge* chosen = &edges.back();
    for (const auto& e : edges) {
      const std::uint64_t w =
          1 + spec_.bias_strength * (h_max - tracker_.hits(at, e.input));
      if (r < w) {
        chosen = &e;
        break;
      }
      r -= w;
    }

    seq.push_back(chosen->input);
    tracker_.cover_transition(at, chosen->input);
    at = chosen->next;
    tracker_.visit_state(at);
    ++steps_;
    if (coverage_complete()) break;
  }

  if (seq.empty()) {
    // Reset state is a dead end or the sequence budget is 0 — nothing more
    // to generate.
    done_ = true;
    return std::nullopt;
  }
  ++yielded_;
  return seq;
}

model::TourResult BiasedRandomSource::summary() {
  model::TourResult out;
  out.coverage = tracker_.stats();
  out.steps = steps_;
  out.restarts = yielded_ == 0 ? 0 : yielded_ - 1;
  out.complete = out.coverage.complete();
  return out;
}

// ---------------------------------------------------------------------------
// HybridSource
// ---------------------------------------------------------------------------

HybridSource::HybridSource(model::TestModel& model,
                           const model::GeneratorSpec& spec,
                           std::uint64_t seed,
                           const model::TourOptions& tour_options)
    : spec_(spec),
      inner_(model.tour_source(tour_options)),
      walker_(model, spec, seed),
      seed_done_(spec.hybrid_tour_steps == 0) {}

std::optional<model::Sequence> HybridSource::next_sequence() {
  while (!seed_done_) {
    auto seq = inner_->next_sequence();
    if (!seq) {
      seed_done_ = true;  // tour ended under budget — switch to the walk
      break;
    }
    const std::size_t budget = spec_.hybrid_tour_steps - seed_steps_;
    if (seq->size() >= budget) {
      seq->resize(budget);
      seed_done_ = true;
    }
    if (seq->empty()) continue;
    seed_steps_ += seq->size();
    ++seed_sequences_;
    walker_.absorb_sequence(*seq);
    return seq;
  }
  return walker_.next_sequence();
}

model::TourResult HybridSource::summary() {
  // The walker's tracker holds the union coverage: every seed step was
  // absorbed into it before the walk phase began.
  model::TourResult out = walker_.summary();
  out.steps += seed_steps_;
  const std::size_t walk_sequences =
      out.restarts + (out.steps > seed_steps_ ? 1 : 0);
  const std::size_t sequences = seed_sequences_ + walk_sequences;
  out.restarts = sequences == 0 ? 0 : sequences - 1;
  return out;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<model::SequenceSource> open_sequence_source(
    model::TestModel& model, const model::GeneratorSpec& spec,
    std::uint64_t seed, const model::TourOptions& tour_options) {
  switch (spec.kind) {
    case model::GeneratorKind::kTransitionTour:
      return model.tour_source(tour_options);
    case model::GeneratorKind::kBiasedRandom:
      return std::make_unique<BiasedRandomSource>(model, spec, seed);
    case model::GeneratorKind::kHybrid:
      return std::make_unique<HybridSource>(model, spec, seed, tour_options);
  }
  throw std::invalid_argument("open_sequence_source: unknown generator kind");
}

}  // namespace simcov::gen
