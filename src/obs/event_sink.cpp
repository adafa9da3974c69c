#include "obs/event_sink.hpp"

#include <stdexcept>

#include "core/json.hpp"

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
    case StageStatus::kBudgetExhausted: return "budget_exhausted";
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

double SpanRecorder::total_seconds() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const double s : seconds_) total += s;
  return total;
}

StageStatus SpanRecorder::stage_status(Stage stage) const {
  std::lock_guard lock(mutex_);
  return status_[static_cast<std::size_t>(stage)];
}

// ---------------------------------------------------------------------------
// MultiSink
// ---------------------------------------------------------------------------

MultiSink::MultiSink(std::vector<EventSink*> sinks) {
  for (EventSink* sink : sinks) add(sink);
}

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

double ScopedSpan::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

ScopedSpan::~ScopedSpan() { sink_.span(stage_, elapsed()); }

// ---------------------------------------------------------------------------
// JsonlTraceSink
// ---------------------------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string& path) : out_(path) {
  if (!out_) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path);
  }
}

void JsonlTraceSink::write_line(const std::string& line) {
  std::lock_guard lock(mutex_);
  out_ << line << '\n';
}

void JsonlTraceSink::span(Stage stage, double seconds) {
  core::JsonWriter w;
  w.begin_object()
      .field("event", "span")
      .field("stage", stage_name(stage))
      .field("seconds", seconds)
      .end_object();
  write_line(w.str());
}

void JsonlTraceSink::counter(Stage stage, std::string_view name,
                             std::uint64_t value) {
  core::JsonWriter w;
  w.begin_object()
      .field("event", "counter")
      .field("stage", stage_name(stage))
      .field("name", std::string(name))
      .field("value", value)
      .end_object();
  write_line(w.str());
}

void JsonlTraceSink::gauge(Stage stage, std::string_view name,
                           std::uint64_t value) {
  core::JsonWriter w;
  w.begin_object()
      .field("event", "gauge")
      .field("stage", stage_name(stage))
      .field("name", std::string(name))
      .field("value", value)
      .end_object();
  write_line(w.str());
}

void JsonlTraceSink::item(Stage stage, std::string_view kind,
                          std::uint64_t id, std::uint64_t value) {
  core::JsonWriter w;
  w.begin_object()
      .field("event", "item")
      .field("stage", stage_name(stage))
      .field("kind", std::string(kind))
      .field("id", id)
      .field("value", value)
      .end_object();
  write_line(w.str());
}

void JsonlTraceSink::latency(Stage stage, std::string_view kind,
                             std::uint64_t id, double seconds) {
  core::JsonWriter w;
  w.begin_object()
      .field("event", "latency")
      .field("stage", stage_name(stage))
      .field("kind", std::string(kind))
      .field("id", id)
      .field("seconds", seconds)
      .end_object();
  write_line(w.str());
}

void JsonlTraceSink::status(Stage stage, StageStatus status) {
  core::JsonWriter w;
  w.begin_object()
      .field("event", "status")
      .field("stage", stage_name(stage))
      .field("status", status_name(status))
      .end_object();
  write_line(w.str());
  // Stage boundaries are where a killed campaign wants its trace intact:
  // everything before the last status survives even an abrupt exit.
  flush();
}

void JsonlTraceSink::flush() {
  std::lock_guard lock(mutex_);
  out_.flush();
}

}  // namespace simcov::obs
