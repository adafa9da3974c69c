// Versioned binary codec for checkpoint payloads.
//
// Payloads are byte streams in explicit little-endian with a
// length-prefixed run list — platform-independent. Bounds are checked on
// every read; a malformed payload throws CodecError, which the pipeline
// treats as "nothing to resume" (a full re-run), never as corrupt campaign
// state.
//
// Payload schema (the version lives in the file header, written by
// ArtifactStore; bumping it invalidates every stored checkpoint — see
// DESIGN.md §7):
//
//   checkpoint:  u64 run_count, then per committed sequence the RunMetrics
//                quintuple (u64 sequence, u64 impl_cycles, u64 checkpoints,
//                u8 passed, u8 budget_exhausted).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace simcov::store {

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian byte assembler.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void raw(const void* data, std::size_t n);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian byte cursor over a payload.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::span<const std::uint8_t> raw(std::size_t n);

  [[nodiscard]] bool done() const { return at_ == data_.size(); }
  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - at_; }
  /// Throws CodecError unless every byte was consumed.
  void expect_done() const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t at_ = 0;
};

// ---- Campaign checkpoint ---------------------------------------------------

/// One committed clean run, mirroring pipeline::RunMetrics (the store sits
/// below the pipeline in the dependency order, so the quintuple is restated
/// here; the pipeline converts).
struct CheckpointRun {
  std::uint64_t sequence = 0;
  std::uint64_t impl_cycles = 0;
  std::uint64_t checkpoints = 0;
  bool passed = false;
  bool budget_exhausted = false;
};

/// The committed prefix of a streaming campaign: the clean-run metrics of
/// every sequence simulated so far, in order. Everything else about the
/// prefix (the sequences themselves, their concretizations, coverage) is
/// regenerated deterministically on resume; only the expensive simulation
/// verdicts are persisted.
struct CampaignCheckpoint {
  std::vector<CheckpointRun> clean_runs;
};

[[nodiscard]] std::vector<std::uint8_t> to_payload(
    const CampaignCheckpoint& ckpt);
/// Throws CodecError on a truncated or padded payload, or on a run count
/// the payload cannot hold.
[[nodiscard]] CampaignCheckpoint checkpoint_from_payload(
    std::span<const std::uint8_t> payload);

}  // namespace simcov::store
