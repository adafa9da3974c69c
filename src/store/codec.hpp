// Versioned binary codecs for store artifacts.
//
// All artifact payloads are byte streams in explicit little-endian with
// length-prefixed containers — platform-independent and append-friendly
// (tour sequences are encoded one at a time as the stream yields them).
// Bounds are checked on every read; a malformed payload throws CodecError,
// which the store surfaces as a cache miss, never as corrupt campaign
// state.
//
// Payload schemas (versions live in the artifact header, written by
// ArtifactStore; bumping a kind's version invalidates every stored artifact
// of that kind — see DESIGN.md §7):
//
//   tour:        u32 input_bits, the summary (4×f64 coverage, u64 steps,
//                u64 restarts, u8 complete), u64 sequence_count, then each
//                sequence as u64 step_count plus ceil(input_bits/8) bytes
//                per step: the low bytes of the step's input key,
//                little-endian. Summary first so a stored stream can
//                report it without scanning the sequences. These are the
//                bytes the earlier bit-vector steps packed to, so the
//                move to key steps (model::Sequence) kept the version and
//                older stores keep hitting.
//   symstats:    the SymbolicFsmStats and BddStats fields, in declaration
//                order.
//   checkpoint:  u64 run_count, then per committed sequence the RunMetrics
//                quintuple (u64 sequence, u64 impl_cycles, u64 checkpoints,
//                u8 passed, u8 budget_exhausted).
//   report:      the campaign report JSON, verbatim UTF-8 bytes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "model/test_model.hpp"
#include "sym/symbolic_fsm.hpp"

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
  void f64(double v);
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
  [[nodiscard]] double f64();
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

// ---- Tour sequences --------------------------------------------------------

/// Encodes one reset-separated sequence: u64 step count, then the low
/// ceil(input_bits/8) bytes of each step's key, little-endian. Throws
/// CodecError on a key with a bit set at or above `input_bits`, or when
/// `input_bits` exceeds 63 (the packed-key limit).
void encode_sequence(ByteWriter& w, const model::Sequence& sequence,
                     unsigned input_bits);

/// Decodes one sequence written by encode_sequence; padding bits above
/// `input_bits` are masked off. Throws CodecError on a step count the
/// remaining bytes cannot hold (input_bits >= 1), a truncated step, or
/// `input_bits` above 63.
[[nodiscard]] model::Sequence decode_sequence(ByteReader& r,
                                              unsigned input_bits);

/// Encodes the tour summary (coverage + step/restart totals + completeness).
void encode_tour_summary(ByteWriter& w, const model::TourResult& summary);
[[nodiscard]] model::TourResult decode_tour_summary(ByteReader& r);

// ---- Symbolic snapshot -----------------------------------------------------

struct SymbolicSnapshot {
  sym::SymbolicFsmStats fsm;
  bdd::BddStats bdd;
};

void encode_symbolic_snapshot(ByteWriter& w, const SymbolicSnapshot& snap);
[[nodiscard]] SymbolicSnapshot decode_symbolic_snapshot(ByteReader& r);

[[nodiscard]] std::vector<std::uint8_t> to_payload(
    const SymbolicSnapshot& snap);
[[nodiscard]] SymbolicSnapshot snapshot_from_payload(
    std::span<const std::uint8_t> payload);

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

void encode_checkpoint(ByteWriter& w, const CampaignCheckpoint& ckpt);
[[nodiscard]] CampaignCheckpoint decode_checkpoint(ByteReader& r);

[[nodiscard]] std::vector<std::uint8_t> to_payload(
    const CampaignCheckpoint& ckpt);
[[nodiscard]] CampaignCheckpoint checkpoint_from_payload(
    std::span<const std::uint8_t> payload);

}  // namespace simcov::store
