// The instrumentation seam of the validation pipeline.
//
// Every pipeline stage reports through one interface — obs::EventSink —
// instead of hand-rolled per-phase stopwatch plumbing:
//
//   * span(stage, seconds):   a completed timing slice of a stage. Stages
//     run in interleaved batches (the tour streams while earlier sequences
//     simulate), so a stage emits many spans; consumers accumulate.
//   * counter(stage, name, value): one occurrence worth `value` of a named
//     event-like quantity (store.hit, checkpoint.write). Consumers SUM
//     counter emissions — snapshot-style values must use gauge instead.
//   * gauge(stage, name, value):  a named level snapshot (e.g. the peak
//     number of in-flight sequences). Consumers keep the MAX over
//     emissions, so re-emitting a gauge is never wrong by construction.
//   * item(stage, kind, id, value): one unit of work finishing (a sequence
//     generated, a program concretized, a clean run simulated). Item events
//     may arrive from worker threads; implementations must be thread-safe.
//   * latency(stage, kind, id, seconds): wall-clock latency of one unit of
//     work (a sequence pulled, a program concretized, a clean run
//     simulated, an index' queue wait). Like item, may arrive from worker
//     threads concurrently.
//   * status(stage, status):  how the stage ended (ok / budget / cancelled).
//
// SpanRecorder folds spans back into the legacy PhaseTimings view;
// MetricsRegistry (obs/metrics.hpp) turns the full event flow into
// counters (summed), gauges (max) and latency histograms; JsonlTraceSink
// streams every event as one JSON object per line (the bench binaries'
// --trace output);
// PerfettoTraceSink (obs/exporters.hpp) writes Chrome trace-event JSON;
// MultiSink fans out to any combination.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace simcov::obs {

/// The stages of the Figure-1 flow (plus the Theorem-3 mutant replay).
enum class Stage : std::uint8_t {
  kModelBuild,    ///< circuit build + backend selection + reachable counts
  kSymbolic,      ///< optional BDD reachability snapshot
  kTour,          ///< test-sequence generation (streamed or materialized)
  kConcretize,    ///< tour sequence -> DLX program
  kSimulate,      ///< clean spec-vs-impl runs
  kCompare,       ///< per-bug exposure runs
  kMutantReplay,  ///< Theorem-3 model-level mutant replay
};
inline constexpr std::size_t kStageCount = 7;

[[nodiscard]] const char* stage_name(Stage stage);

/// How a stage ended.
enum class StageStatus : std::uint8_t {
  kOk,
  kBudgetExhausted,  ///< deadline or max-items budget hit; output truncated
  kCancelled,        ///< cancellation token observed; output truncated
};

[[nodiscard]] const char* status_name(StageStatus status);

/// Pipeline instrumentation interface. Every method has a no-op default so
/// sinks override only what they consume. span/counter/status arrive from
/// the coordinating thread; item may arrive from pool workers concurrently.
class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void span(Stage stage, double seconds) {
    (void)stage;
    (void)seconds;
  }
  virtual void counter(Stage stage, std::string_view name,
                       std::uint64_t value) {
    (void)stage;
    (void)name;
    (void)value;
  }
  virtual void gauge(Stage stage, std::string_view name,
                     std::uint64_t value) {
    (void)stage;
    (void)name;
    (void)value;
  }
  virtual void item(Stage stage, std::string_view kind, std::uint64_t id,
                    std::uint64_t value) {
    (void)stage;
    (void)kind;
    (void)id;
    (void)value;
  }
  virtual void latency(Stage stage, std::string_view kind, std::uint64_t id,
                       double seconds) {
    (void)stage;
    (void)kind;
    (void)id;
    (void)seconds;
  }
  virtual void status(Stage stage, StageStatus status) {
    (void)stage;
    (void)status;
  }
};

/// Shared do-nothing sink: lets stages call `sink.span(...)` unconditionally.
[[nodiscard]] EventSink& null_sink();

/// Accumulates per-stage span seconds and final statuses — the source the
/// legacy PhaseTimings view is computed from (pipeline::timings_from_spans).
class SpanRecorder final : public EventSink {
 public:
  void span(Stage stage, double seconds) override;
  void status(Stage stage, StageStatus status) override;

  /// Accumulated seconds of one stage.
  [[nodiscard]] double seconds(Stage stage) const;
  /// Sum over every stage — the pipeline's total instrumented time.
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] StageStatus stage_status(Stage stage) const;

 private:
  mutable std::mutex mutex_;
  std::array<double, kStageCount> seconds_{};
  std::array<StageStatus, kStageCount> status_{};
};

/// Forwards every event to each registered sink, in order.
class MultiSink final : public EventSink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<EventSink*> sinks);
  /// Ignores null pointers, so callers can pass optional sinks directly.
  void add(EventSink* sink);

  void span(Stage stage, double seconds) override;
  void counter(Stage stage, std::string_view name,
               std::uint64_t value) override;
  void gauge(Stage stage, std::string_view name,
             std::uint64_t value) override;
  void item(Stage stage, std::string_view kind, std::uint64_t id,
            std::uint64_t value) override;
  void latency(Stage stage, std::string_view kind, std::uint64_t id,
               double seconds) override;
  void status(Stage stage, StageStatus status) override;

 private:
  std::vector<EventSink*> sinks_;
};

/// RAII span: measures from construction to destruction and emits one
/// span event. Stages open one per batch, so accumulation is the sink's job.
class ScopedSpan {
 public:
  ScopedSpan(EventSink& sink, Stage stage);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds elapsed so far (the span is still emitted at destruction).
  [[nodiscard]] double elapsed() const;

 private:
  EventSink& sink_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
};

/// Streams events as JSON Lines — one object per event, e.g.
///   {"event":"span","stage":"tour","seconds":0.0123}
///   {"event":"item","stage":"simulate","kind":"clean_run","id":3,"value":6}
/// Writes are mutex-serialized; worker-thread item events may interleave
/// with coordinator events in file order, which is fine for a trace.
///
/// The stream flushes on every status event (stage boundaries are exactly
/// where a killed campaign wants its trace intact — pairs with the
/// checkpoint/resume story) and on explicit flush(); everything else is
/// buffered for throughput.
///
/// Long campaigns can emit per-item events for millions of sequences, so
/// the sink optionally rotates: when a write would push the current file
/// past `max_bytes`, the file is closed and renamed to `<path>.1` (an
/// existing `.1` shifts to `.2`, and so on up to `max_rotated` files, the
/// oldest falling off the end) and a fresh `<path>` is opened. Rotation
/// happens at line boundaries only — every file is valid JSONL on its own.
class JsonlTraceSink final : public EventSink {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  /// `max_bytes` 0 disables rotation (the pre-rotation behaviour);
  /// `max_rotated` is the number of `.N` files kept besides the live one.
  explicit JsonlTraceSink(const std::string& path,
                          std::uint64_t max_bytes = 0,
                          std::size_t max_rotated = 2);

  void span(Stage stage, double seconds) override;
  void counter(Stage stage, std::string_view name,
               std::uint64_t value) override;
  void gauge(Stage stage, std::string_view name,
             std::uint64_t value) override;
  void item(Stage stage, std::string_view kind, std::uint64_t id,
            std::uint64_t value) override;
  void latency(Stage stage, std::string_view kind, std::uint64_t id,
               double seconds) override;
  void status(Stage stage, StageStatus status) override;

  /// Pushes everything buffered so far to the file.
  void flush();

 private:
  void write_line(const std::string& line);
  /// Shifts path -> .1 -> .2 -> … (dropping the oldest) and reopens path.
  /// Caller holds the mutex.
  void rotate_locked();

  std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
  std::uint64_t max_bytes_ = 0;    ///< 0: rotation off
  std::size_t max_rotated_ = 2;
  std::uint64_t bytes_written_ = 0;  ///< bytes in the current file
};

}  // namespace simcov::obs
