#include "store/codec.hpp"

#include <bit>

namespace simcov::store {

void ByteWriter::u32(std::uint32_t v) {
  for (unsigned i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::raw(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), p, p + n);
}

std::uint8_t ByteReader::u8() {
  if (at_ >= data_.size()) {
    throw CodecError("codec: read past end of payload");
  }
  return data_[at_++];
}

std::uint32_t ByteReader::u32() {
  const auto p = raw(4);
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  const auto p = raw(8);
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::span<const std::uint8_t> ByteReader::raw(std::size_t n) {
  if (n > data_.size() - at_ || at_ > data_.size()) {
    throw CodecError("codec: read past end of payload");
  }
  const auto out = data_.subspan(at_, n);
  at_ += n;
  return out;
}

void ByteReader::expect_done() const {
  if (!done()) {
    throw CodecError("codec: trailing bytes after payload");
  }
}

namespace {

/// Encoded bytes per step; a width beyond the 63-bit key limit is a
/// malformed payload.
std::size_t step_bytes(unsigned input_bits) {
  if (input_bits > 63) {
    throw CodecError("codec: input width beyond the 63-bit key limit");
  }
  return (input_bits + 7) / 8;
}

}  // namespace

void encode_sequence(ByteWriter& w, const model::Sequence& sequence,
                     unsigned input_bits) {
  const std::size_t bytes_per_step = step_bytes(input_bits);
  w.u64(sequence.size());
  for (const std::uint64_t key : sequence) {
    if ((key >> input_bits) != 0) {
      throw CodecError("codec: step key wider than the model input width");
    }
    for (std::size_t byte = 0; byte < bytes_per_step; ++byte) {
      w.u8(static_cast<std::uint8_t>(key >> (8 * byte)));
    }
  }
}

model::Sequence decode_sequence(ByteReader& r, unsigned input_bits,
                                std::uint64_t max_steps) {
  const std::size_t bytes_per_step = step_bytes(input_bits);
  const std::uint64_t steps = r.u64();
  // Checked before reserving: a forged count must not size an allocation,
  // nor, at zero width, push empty steps until memory runs out.
  if (bytes_per_step == 0 && steps > max_steps) {
    throw CodecError("codec: zero-width step count exceeds the tour's steps");
  }
  if (bytes_per_step != 0 && steps > r.remaining() / bytes_per_step) {
    throw CodecError("codec: step count exceeds the payload");
  }
  const std::uint64_t mask = (std::uint64_t{1} << input_bits) - 1;
  model::Sequence out;
  if (bytes_per_step != 0) out.reserve(steps);
  for (std::uint64_t s = 0; s < steps; ++s) {
    const auto packed = r.raw(bytes_per_step);
    std::uint64_t key = 0;
    for (std::size_t byte = 0; byte < bytes_per_step; ++byte) {
      key |= std::uint64_t{packed[byte]} << (8 * byte);
    }
    out.push_back(key & mask);
  }
  return out;
}

void encode_tour_summary(ByteWriter& w, const model::TourResult& summary) {
  w.f64(summary.coverage.states_visited);
  w.f64(summary.coverage.states_total);
  w.f64(summary.coverage.transitions_covered);
  w.f64(summary.coverage.transitions_total);
  w.u64(summary.steps);
  w.u64(summary.restarts);
  w.boolean(summary.complete);
}

model::TourResult decode_tour_summary(ByteReader& r) {
  model::TourResult out;
  out.coverage.states_visited = r.f64();
  out.coverage.states_total = r.f64();
  out.coverage.transitions_covered = r.f64();
  out.coverage.transitions_total = r.f64();
  out.steps = r.u64();
  out.restarts = r.u64();
  out.complete = r.boolean();
  return out;
}

void encode_symbolic_snapshot(ByteWriter& w, const SymbolicSnapshot& snap) {
  w.u32(snap.fsm.num_latches);
  w.u32(snap.fsm.num_primary_inputs);
  w.u32(snap.fsm.num_outputs);
  w.u64(snap.fsm.transition_relation_nodes);
  w.u32(snap.fsm.reachability_iterations);
  w.f64(snap.fsm.reachable_states);
  w.f64(snap.fsm.transitions);
  w.f64(snap.fsm.valid_input_combinations);
  w.u64(snap.bdd.allocated_nodes);
  w.u64(snap.bdd.live_nodes);
  w.u64(snap.bdd.free_nodes);
  w.u64(snap.bdd.unique_lookups);
  w.u64(snap.bdd.unique_hits);
  w.u64(snap.bdd.cache_lookups);
  w.u64(snap.bdd.cache_hits);
  w.u64(snap.bdd.gc_runs);
  // v2 tail: reordering telemetry. Appended so the field order mirrors the
  // BddStats declaration; readers of v1 payloads never reach this point
  // because the store drops entries whose kind version mismatches.
  w.u64(snap.bdd.reorders);
  w.u64(snap.bdd.level_swaps);
  w.u64(snap.bdd.peak_live_nodes);
  w.u64(snap.bdd.order_fingerprint);
}

SymbolicSnapshot decode_symbolic_snapshot(ByteReader& r) {
  SymbolicSnapshot snap;
  snap.fsm.num_latches = r.u32();
  snap.fsm.num_primary_inputs = r.u32();
  snap.fsm.num_outputs = r.u32();
  snap.fsm.transition_relation_nodes = r.u64();
  snap.fsm.reachability_iterations = r.u32();
  snap.fsm.reachable_states = r.f64();
  snap.fsm.transitions = r.f64();
  snap.fsm.valid_input_combinations = r.f64();
  snap.bdd.allocated_nodes = r.u64();
  snap.bdd.live_nodes = r.u64();
  snap.bdd.free_nodes = r.u64();
  snap.bdd.unique_lookups = r.u64();
  snap.bdd.unique_hits = r.u64();
  snap.bdd.cache_lookups = r.u64();
  snap.bdd.cache_hits = r.u64();
  snap.bdd.gc_runs = r.u64();
  snap.bdd.reorders = r.u64();
  snap.bdd.level_swaps = r.u64();
  snap.bdd.peak_live_nodes = r.u64();
  snap.bdd.order_fingerprint = r.u64();
  return snap;
}

void encode_checkpoint(ByteWriter& w, const CampaignCheckpoint& ckpt) {
  w.u64(ckpt.clean_runs.size());
  for (const CheckpointRun& run : ckpt.clean_runs) {
    w.u64(run.sequence);
    w.u64(run.impl_cycles);
    w.u64(run.checkpoints);
    w.boolean(run.passed);
    w.boolean(run.budget_exhausted);
  }
}

std::vector<std::uint8_t> to_payload(const SymbolicSnapshot& snap) {
  ByteWriter w;
  encode_symbolic_snapshot(w, snap);
  return w.take();
}

SymbolicSnapshot snapshot_from_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  SymbolicSnapshot snap = decode_symbolic_snapshot(r);
  r.expect_done();
  return snap;
}

CampaignCheckpoint decode_checkpoint(ByteReader& r) {
  // One encoded run: three u64 fields and two u8 flags.
  constexpr std::size_t kRunBytes = 3 * 8 + 2;
  CampaignCheckpoint ckpt;
  const std::uint64_t count = r.u64();
  // Checked before reserving: a forged count must be a CodecError, not a
  // std::length_error or std::bad_alloc from sizing the run vector.
  if (count > r.remaining() / kRunBytes) {
    throw CodecError("codec: checkpoint run count exceeds the payload");
  }
  ckpt.clean_runs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointRun run;
    run.sequence = r.u64();
    run.impl_cycles = r.u64();
    run.checkpoints = r.u64();
    run.passed = r.boolean();
    run.budget_exhausted = r.boolean();
    ckpt.clean_runs.push_back(run);
  }
  return ckpt;
}

std::vector<std::uint8_t> to_payload(const CampaignCheckpoint& ckpt) {
  ByteWriter w;
  encode_checkpoint(w, ckpt);
  return w.take();
}

CampaignCheckpoint checkpoint_from_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  CampaignCheckpoint ckpt = decode_checkpoint(r);
  r.expect_done();
  return ckpt;
}

}  // namespace simcov::store
