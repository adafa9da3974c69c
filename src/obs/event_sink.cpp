#include "obs/event_sink.hpp"

namespace simcov::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kModelBuild: return "model_build";
    case Stage::kSymbolic: return "symbolic";
    case Stage::kTour: return "tour";
    case Stage::kConcretize: return "concretize";
    case Stage::kSimulate: return "simulate";
    case Stage::kCompare: return "compare";
    case Stage::kMutantReplay: return "mutant_replay";
  }
  return "?";
}

const char* status_name(StageStatus status) {
  switch (status) {
    case StageStatus::kOk: return "ok";
    case StageStatus::kCancelled: return "cancelled";
  }
  return "?";
}

EventSink& null_sink() {
  static EventSink sink;
  return sink;
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

void SpanRecorder::span(Stage stage, double seconds) {
  std::lock_guard lock(mutex_);
  seconds_[static_cast<std::size_t>(stage)] += seconds;
}

void SpanRecorder::status(Stage stage, StageStatus status) {
  std::lock_guard lock(mutex_);
  status_[static_cast<std::size_t>(stage)] = status;
}

double SpanRecorder::seconds(Stage stage) const {
  std::lock_guard lock(mutex_);
  return seconds_[static_cast<std::size_t>(stage)];
}

StageStatus SpanRecorder::stage_status(Stage stage) const {
  std::lock_guard lock(mutex_);
  return status_[static_cast<std::size_t>(stage)];
}

// ---------------------------------------------------------------------------
// MultiSink
// ---------------------------------------------------------------------------

void MultiSink::add(EventSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void MultiSink::span(Stage stage, double seconds) {
  for (EventSink* sink : sinks_) sink->span(stage, seconds);
}

void MultiSink::counter(Stage stage, std::string_view name,
                        std::uint64_t value) {
  for (EventSink* sink : sinks_) sink->counter(stage, name, value);
}

void MultiSink::gauge(Stage stage, std::string_view name,
                      std::uint64_t value) {
  for (EventSink* sink : sinks_) sink->gauge(stage, name, value);
}

void MultiSink::item(Stage stage, std::string_view kind, std::uint64_t id,
                     std::uint64_t value) {
  for (EventSink* sink : sinks_) sink->item(stage, kind, id, value);
}

void MultiSink::latency(Stage stage, std::string_view kind, std::uint64_t id,
                        double seconds) {
  for (EventSink* sink : sinks_) sink->latency(stage, kind, id, seconds);
}

void MultiSink::status(Stage stage, StageStatus status) {
  for (EventSink* sink : sinks_) sink->status(stage, status);
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(EventSink& sink, Stage stage)
    : sink_(sink), stage_(stage), start_(std::chrono::steady_clock::now()) {}

ScopedSpan::~ScopedSpan() {
  sink_.span(stage_, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
}

}  // namespace simcov::obs
