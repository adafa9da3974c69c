// The instrumentation seam of the validation pipeline.
//
// Every pipeline stage reports through one interface — obs::EventSink —
// instead of hand-rolled per-phase stopwatch plumbing:
//
//   * span(stage, seconds):   a completed timing slice of a stage. Stages
//     run in interleaved batches (the tour streams while earlier sequences
//     simulate), so a stage emits many spans; consumers accumulate.
//   * counter(stage, name, value): one occurrence worth `value` of a named
//     event-like quantity (checkpoint.write, bdd.gc). Consumers SUM
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
//   * status(stage, status):  how the stage ended (ok / cancelled).
//
// SpanRecorder accumulates span seconds and statuses per stage — the
// source of the pipeline's StageReports; MetricsRegistry (obs/metrics.hpp)
// turns counters, gauges, items and latencies into counters (summed),
// gauges (max) and histograms; PerfettoTraceSink (obs/exporters.hpp)
// writes every event as Chrome trace-event JSON (the bench binaries'
// --perfetto output); MultiSink fans out to any combination.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
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
  kCancelled,  ///< cancellation token observed; output truncated
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

/// Accumulates per-stage span seconds and final statuses — the source of
/// the pipeline's StageReports.
class SpanRecorder final : public EventSink {
 public:
  void span(Stage stage, double seconds) override;
  void status(Stage stage, StageStatus status) override;

  /// Accumulated seconds of one stage.
  [[nodiscard]] double seconds(Stage stage) const;
  [[nodiscard]] StageStatus stage_status(Stage stage) const;

 private:
  mutable std::mutex mutex_;
  std::array<double, kStageCount> seconds_{};
  std::array<StageStatus, kStageCount> status_{};
};

/// Forwards every event to each registered sink, in order.
class MultiSink final : public EventSink {
 public:
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

 private:
  EventSink& sink_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace simcov::obs
