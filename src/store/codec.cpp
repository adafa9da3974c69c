#include "store/codec.hpp"

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

std::vector<std::uint8_t> to_payload(const CampaignCheckpoint& ckpt) {
  ByteWriter w;
  w.u64(ckpt.clean_runs.size());
  for (const CheckpointRun& run : ckpt.clean_runs) {
    w.u64(run.sequence);
    w.u64(run.impl_cycles);
    w.u64(run.checkpoints);
    w.boolean(run.passed);
    w.boolean(run.budget_exhausted);
  }
  return w.take();
}

CampaignCheckpoint checkpoint_from_payload(
    std::span<const std::uint8_t> payload) {
  // One encoded run: three u64 fields and two u8 flags.
  constexpr std::size_t kRunBytes = 3 * 8 + 2;
  ByteReader r(payload);
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
  r.expect_done();
  return ckpt;
}

}  // namespace simcov::store
