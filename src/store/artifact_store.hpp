// Directory-backed checkpoint store: the committed prefix a killed campaign
// resumes from.
//
// A campaign's checkpoint lives at `<dir>/checkpoint-<32 hex digits>.art`,
// named by the campaign's checkpoint key (pipeline::checkpoint_key). The key
// is recomputed from the campaign's inputs, so a resume needs no manifest —
// the file either exists under the derived name or there is nothing to
// resume.
//
// Durability and integrity:
//  * Atomic publish. Payloads are written to a temp file in the store
//    directory and renamed into place, so a reader never observes a
//    half-written checkpoint and concurrent publishers of the same key
//    converge on one complete file.
//  * Verified reads. Every file carries a fixed header (magic, kind tag,
//    schema version, payload size, 128-bit payload checksum). Any mismatch
//    — truncation, bit rot, a schema bump, a foreign file — makes load()
//    delete the file and report a miss; corruption costs a full re-run but
//    never a wrong report.
//  * Erase on completion. A campaign that ran to its end removes its
//    checkpoint; nothing else ever removes a file. Files an older build
//    left behind under other prefixes (`tour-`, `symstats-`, `report-`,
//    `baseline-`) are never read and never swept.
//
// Observability: hits, misses and checkpoint writes are counted in
// StoreStats; each write also emits a `checkpoint.write` counter event
// through the obs::EventSink passed to publish(), tagged with the stage
// that wrote it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "obs/event_sink.hpp"
#include "store/fingerprint.hpp"

namespace simcov::store {

/// Kind tag and payload schema version written into every checkpoint
/// header. Bumping the version orphans (and on next load deletes) every
/// checkpoint written by older code. Tags 1–3 and 5 belonged to retired
/// kinds and are never reused.
inline constexpr std::uint32_t kCheckpointKind = 4;
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Aggregate store activity of one campaign — surfaced in the campaign
/// report JSON under "store".
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Sequences restored from a checkpoint instead of simulated (set by the
  /// pipeline, not the store).
  std::uint64_t resumed_sequences = 0;
};

class ArtifactStore {
 public:
  /// Creates the store directory if needed. Throws std::runtime_error when
  /// the directory cannot be created.
  explicit ArtifactStore(std::filesystem::path dir);

  /// Returns the verified checkpoint payload under `key`, or nullopt on
  /// miss. A file that fails verification (bad magic/kind/version/size/
  /// checksum) is deleted and reported as a miss.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      const Fingerprint& key);

  /// Atomically publishes the checkpoint payload under `key` (temp file +
  /// rename) and emits `checkpoint.write`. Throws std::runtime_error on
  /// I/O failure.
  void publish(const Fingerprint& key, std::span<const std::uint8_t> payload,
               obs::Stage stage, obs::EventSink& sink);

  /// Removes the checkpoint under `key` if present (a campaign that ran to
  /// completion no longer needs it).
  void erase(const Fingerprint& key);

  /// Path the checkpoint under `key` lives at — exposed for tests and
  /// diagnostics.
  [[nodiscard]] std::filesystem::path path_for(const Fingerprint& key) const;

  [[nodiscard]] StoreStats stats() const;
  /// Adds pipeline-attributed activity (resumed sequences) into the stats.
  void add_resumed_sequences(std::uint64_t n);

 private:
  std::filesystem::path dir_;
  mutable std::mutex mutex_;
  StoreStats stats_;
  std::uint64_t temp_counter_ = 0;
};

}  // namespace simcov::store
