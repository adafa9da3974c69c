// Directory-backed, content-addressed artifact store.
//
// Artifacts are opaque byte payloads filed under (kind, fingerprint):
// `<dir>/<kind>-<32 hex digits>.art`. The fingerprint is recomputed from
// the producing inputs (see store/fingerprint.hpp), so lookups need no
// manifest — a file either exists under the derived name or the artifact
// must be rebuilt.
//
// Durability and integrity:
//  * Atomic publish. Payloads are written to a temp file in the store
//    directory and renamed into place, so a reader never observes a
//    half-written artifact and concurrent publishers of the same key
//    converge on one complete file.
//  * Verified reads. Every file carries a fixed header (magic, kind tag,
//    schema version, payload size, 128-bit payload checksum). Any mismatch
//    — truncation, bit rot, a schema bump, a foreign file — makes load()
//    delete the file and report a miss; corruption can cost a rebuild but
//    never poisons a campaign.
//  * Size-capped LRU eviction. When `max_bytes > 0`, publishing sweeps the
//    directory and removes least-recently-used artifacts (by file mtime,
//    which load() bumps on every hit) until the store fits. Checkpoints
//    are exempt: evicting one would silently discard resumable progress.
//
// Observability: hits, misses, evictions and checkpoint writes are counted
// in StoreStats and emitted as `store.hit` / `store.miss` / `store.evict` /
// `checkpoint.write` counter events through the obs::EventSink passed per
// call, tagged with the pipeline stage the store is serving (the store has
// no stage of its own — its time and events belong to whichever stage would
// otherwise have recomputed the artifact).
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

/// Kind values are written into artifact headers, so they never change.
/// Value 5 is retired: older stores may still hold `baseline-*.art` files,
/// which no load asks for and LRU eviction removes like any other artifact.
enum class ArtifactKind : std::uint32_t {
  kTour = 1,              ///< recorded tour stream + summary
  kSymbolicSnapshot = 2,  ///< SymbolicFsmStats + BddStats pair
  kReport = 3,            ///< campaign report JSON bytes
  kCheckpoint = 4,        ///< committed campaign prefix (eviction-exempt)
};

/// The filename prefix of a kind ("tour", "symstats", "report",
/// "checkpoint").
[[nodiscard]] const char* kind_name(ArtifactKind kind);

/// Current payload schema version of a kind. Stored in the artifact header;
/// bumping it orphans (and on next load deletes) every artifact of that
/// kind written by older code.
[[nodiscard]] std::uint32_t schema_version(ArtifactKind kind);

struct StoreOptions {
  std::filesystem::path dir;
  /// LRU size cap over non-checkpoint artifacts in bytes; 0 = unlimited.
  std::uint64_t max_bytes = 0;
};

/// Aggregate store activity of one campaign — surfaced in the campaign
/// report JSON under "store".
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
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
  explicit ArtifactStore(StoreOptions options);

  /// Returns the verified payload of (kind, key), or nullopt on miss.
  /// A file that fails verification (bad magic/kind/version/size/checksum)
  /// is deleted and reported as a miss. Hits bump the file's mtime (the
  /// LRU clock) and emit `store.hit`; misses emit `store.miss`.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      ArtifactKind kind, const Fingerprint& key, obs::Stage stage,
      obs::EventSink& sink);

  /// Atomically publishes the payload under (kind, key): temp file +
  /// rename, then an LRU sweep when a size cap is set. Checkpoint publishes
  /// emit `checkpoint.write`. Throws std::runtime_error on I/O failure.
  void publish(ArtifactKind kind, const Fingerprint& key,
               std::span<const std::uint8_t> payload, obs::Stage stage,
               obs::EventSink& sink);

  /// Removes (kind, key) if present (e.g. the checkpoint of a campaign that
  /// ran to completion). Not counted as an eviction.
  void erase(ArtifactKind kind, const Fingerprint& key);

  /// Path an artifact would live at — exposed for tests and diagnostics.
  [[nodiscard]] std::filesystem::path path_for(ArtifactKind kind,
                                               const Fingerprint& key) const;

  [[nodiscard]] StoreStats stats() const;
  /// Adds pipeline-attributed activity (resumed sequences) into the stats.
  void add_resumed_sequences(std::uint64_t n);

 private:
  void evict_lru(obs::Stage stage, obs::EventSink& sink);

  StoreOptions options_;
  mutable std::mutex mutex_;
  StoreStats stats_;
  std::uint64_t temp_counter_ = 0;
};

}  // namespace simcov::store
