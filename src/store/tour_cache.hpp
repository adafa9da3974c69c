// Tour-stream recording and replay over the artifact store.
//
// Tour generation is the expensive front of the pipeline (a BDD walk or a
// greedy Eulerian construction), and it is a pure function of (model,
// tour options). These two adapters make it cacheable without giving up
// the streaming memory bound:
//
//  * RecordingTourStream wraps a live SequenceSource and tees every yielded
//    sequence into an incrementally encoded byte buffer (the low
//    ceil(input_bits/8) bytes of each step's input key — at most the 8
//    bytes of the key it mirrors). After the inner stream is exhausted
//    with a clean status, artifact() assembles the versioned tour payload
//    (summary first, then sequences) for ArtifactStore::publish. A
//    truncated (cancelled) stream must not be published: the
//    caller gates on exhausted() plus its own status.
//
//  * StoredTourStream replays a tour payload as a SequenceSource: the summary
//    decodes eagerly (it leads the payload), sequences decode lazily one
//    next_sequence() call at a time, so a warm campaign holds at most the
//    payload bytes plus one window of decoded sequences — the same shape
//    as a cold run, minus the generation cost.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "model/test_model.hpp"
#include "store/codec.hpp"

namespace simcov::store {

/// Tees a live tour stream into an incrementally encoded tour payload.
class RecordingTourStream final : public model::SequenceSource {
 public:
  RecordingTourStream(std::unique_ptr<model::SequenceSource> inner,
                      unsigned input_bits);

  std::optional<model::Sequence> next_sequence() override;
  model::TourResult summary() override;

  /// True once the inner stream has returned nullopt.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

  /// Assembles the complete tour payload. Call only after exhausted() —
  /// throws std::logic_error otherwise (a partial tour must never be
  /// published).
  [[nodiscard]] std::vector<std::uint8_t> artifact();

 private:
  std::unique_ptr<model::SequenceSource> inner_;
  unsigned input_bits_;
  ByteWriter sequences_;
  std::uint64_t sequence_count_ = 0;
  bool exhausted_ = false;
};

/// Replays a stored tour payload as a SequenceSource.
class StoredTourStream final : public model::SequenceSource {
 public:
  /// Decodes the header and summary eagerly; throws CodecError on a
  /// malformed payload, including a header input width above 63 (the
  /// packed-key limit). next_sequence() throws CodecError on a zero-width
  /// sequence longer than the summary's steps still allow (every
  /// SequenceSource yields exactly summary().steps steps).
  explicit StoredTourStream(std::vector<std::uint8_t> payload);

  std::optional<model::Sequence> next_sequence() override;
  model::TourResult summary() override { return summary_; }

 private:
  std::vector<std::uint8_t> payload_;
  ByteReader reader_;
  model::TourResult summary_;
  unsigned input_bits_ = 0;
  std::uint64_t remaining_ = 0;   ///< sequences not yet decoded
  std::uint64_t steps_left_ = 0;  ///< summary steps not yet decoded
};

}  // namespace simcov::store
