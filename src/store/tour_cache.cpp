#include "store/tour_cache.hpp"

#include <stdexcept>
#include <utility>

namespace simcov::store {

RecordingTourStream::RecordingTourStream(
    std::unique_ptr<model::SequenceSource> inner, unsigned input_bits)
    : inner_(std::move(inner)), input_bits_(input_bits) {}

std::optional<model::Sequence> RecordingTourStream::next_sequence() {
  auto seq = inner_->next_sequence();
  if (!seq.has_value()) {
    exhausted_ = true;
    return std::nullopt;
  }
  encode_sequence(sequences_, *seq, input_bits_);
  ++sequence_count_;
  return seq;
}

model::TourResult RecordingTourStream::summary() { return inner_->summary(); }

std::vector<std::uint8_t> RecordingTourStream::artifact() {
  if (!exhausted_) {
    throw std::logic_error(
        "RecordingTourStream: artifact() before the stream was exhausted");
  }
  ByteWriter w;
  w.u32(input_bits_);
  encode_tour_summary(w, inner_->summary());
  w.u64(sequence_count_);
  w.raw(sequences_.data().data(), sequences_.size());
  return w.take();
}

StoredTourStream::StoredTourStream(std::vector<std::uint8_t> payload)
    : payload_(std::move(payload)), reader_(payload_) {
  input_bits_ = reader_.u32();
  if (input_bits_ > 63) {
    throw CodecError("tour payload: input width beyond the 63-bit key limit");
  }
  summary_ = decode_tour_summary(reader_);
  remaining_ = reader_.u64();
}

std::optional<model::Sequence> StoredTourStream::next_sequence() {
  if (remaining_ == 0) {
    reader_.expect_done();
    return std::nullopt;
  }
  --remaining_;
  return decode_sequence(reader_, input_bits_);
}

}  // namespace simcov::store
