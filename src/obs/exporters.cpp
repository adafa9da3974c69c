#include "obs/exporters.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/json.hpp"

namespace simcov::obs {

namespace {

std::uint64_t seconds_to_us(double seconds) {
  if (!(seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(seconds * 1e6);
}

}  // namespace

// ---------------------------------------------------------------------------
// PerfettoTraceSink
// ---------------------------------------------------------------------------

PerfettoTraceSink::PerfettoTraceSink(const std::string& path)
    : out_(path), start_(std::chrono::steady_clock::now()) {
  if (!out_) {
    throw std::runtime_error("PerfettoTraceSink: cannot open " + path);
  }
  out_ << "[";
  // Name the per-stage tracks up front ("M" metadata events), so the
  // Perfetto timeline reads as stage names instead of bare tids.
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const auto stage = static_cast<Stage>(s);
    core::JsonWriter w;
    w.begin_object()
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", s)
        .field("name", "thread_name")
        .begin_object("args")
        .field("name", stage_name(stage))
        .end_object()
        .end_object();
    write_event(w.str());
    core::JsonWriter wi;
    wi.begin_object()
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", 100 + s)
        .field("name", "thread_name")
        .begin_object("args")
        .field("name", std::string(stage_name(stage)) + " items")
        .end_object()
        .end_object();
    write_event(wi.str());
  }
}

PerfettoTraceSink::~PerfettoTraceSink() {
  std::lock_guard lock(mutex_);
  out_ << "\n]\n";
}

std::uint64_t PerfettoTraceSink::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void PerfettoTraceSink::write_event(const std::string& json) {
  std::lock_guard lock(mutex_);
  if (!first_) out_ << ',';
  first_ = false;
  out_ << '\n' << json;
}

void PerfettoTraceSink::span(Stage stage, double seconds) {
  // Spans arrive when they close; back-date the slice start so the timeline
  // shows it where it actually ran.
  const std::uint64_t dur = seconds_to_us(seconds);
  const std::uint64_t end = now_us();
  core::JsonWriter w;
  w.begin_object()
      .field("ph", "X")
      .field("pid", 1)
      .field("tid", static_cast<std::uint64_t>(stage))
      .field("ts", end > dur ? end - dur : 0)
      .field("dur", dur)
      .field("name", stage_name(stage))
      .end_object();
  write_event(w.str());
}

void PerfettoTraceSink::counter(Stage stage, std::string_view name,
                                std::uint64_t value) {
  // Counter events are increments; a Perfetto counter track wants levels.
  // Accumulate per (stage, name) so the track plots the running total.
  const std::string key =
      std::string(stage_name(stage)) + "." + std::string(name);
  std::uint64_t total = 0;
  {
    std::lock_guard lock(mutex_);
    total = (counter_totals_[key] += value);
  }
  core::JsonWriter w;
  w.begin_object()
      .field("ph", "C")
      .field("pid", 1)
      .field("ts", now_us())
      .field("name", key)
      .begin_object("args")
      .field("value", total)
      .end_object()
      .end_object();
  write_event(w.str());
}

void PerfettoTraceSink::gauge(Stage stage, std::string_view name,
                              std::uint64_t value) {
  core::JsonWriter w;
  w.begin_object()
      .field("ph", "C")
      .field("pid", 1)
      .field("ts", now_us())
      .field("name", std::string(stage_name(stage)) + "." + std::string(name))
      .begin_object("args")
      .field("value", value)
      .end_object()
      .end_object();
  write_event(w.str());
}

void PerfettoTraceSink::item(Stage stage, std::string_view kind,
                             std::uint64_t id, std::uint64_t value) {
  core::JsonWriter w;
  w.begin_object()
      .field("ph", "i")
      .field("s", "t")
      .field("pid", 1)
      .field("tid", static_cast<std::uint64_t>(stage))
      .field("ts", now_us())
      .field("name", std::string(kind))
      .begin_object("args")
      .field("id", id)
      .field("value", value)
      .end_object()
      .end_object();
  write_event(w.str());
}

void PerfettoTraceSink::latency(Stage stage, std::string_view kind,
                                std::uint64_t id, double seconds) {
  const std::uint64_t dur = seconds_to_us(seconds);
  const std::uint64_t end = now_us();
  core::JsonWriter w;
  w.begin_object()
      .field("ph", "X")
      .field("pid", 1)
      .field("tid", 100 + static_cast<std::uint64_t>(stage))
      .field("ts", end > dur ? end - dur : 0)
      .field("dur", dur)
      .field("name", std::string(kind))
      .begin_object("args")
      .field("id", id)
      .end_object()
      .end_object();
  write_event(w.str());
}

void PerfettoTraceSink::status(Stage stage, StageStatus status) {
  core::JsonWriter w;
  w.begin_object()
      .field("ph", "i")
      .field("s", "g")
      .field("pid", 1)
      .field("tid", static_cast<std::uint64_t>(stage))
      .field("ts", now_us())
      .field("name", std::string("status:") + status_name(status))
      .end_object();
  write_event(w.str());
  std::lock_guard lock(mutex_);
  out_.flush();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

namespace {

/// Prometheus metric names admit [a-zA-Z0-9_:] only.
std::string sanitize_metric_name(std::string_view name) {
  std::string out = "simcov_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Series of one family, re-grouped by metric name (summaries arrive
/// sorted by (stage, name); exposition wants one TYPE line per name).
template <typename Value>
std::vector<std::vector<const MetricEntry<Value>*>> group_by_name(
    const std::vector<MetricEntry<Value>>& entries) {
  std::vector<const MetricEntry<Value>*> sorted;
  sorted.reserve(entries.size());
  for (const auto& e : entries) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto* a, const auto* b) {
                     if (a->name != b->name) return a->name < b->name;
                     return a->stage < b->stage;
                   });
  std::vector<std::vector<const MetricEntry<Value>*>> groups;
  for (const auto* e : sorted) {
    if (groups.empty() || groups.back().front()->name != e->name) {
      groups.emplace_back();
    }
    groups.back().push_back(e);
  }
  return groups;
}

/// HELP text is a single line: escape backslash and newline per the
/// exposition format so arbitrary text cannot break the frame.
std::string escape_help_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string prometheus_help_text(std::string_view name) {
  struct Entry {
    std::string_view name;
    std::string_view help;
  };
  // The event vocabulary the pipeline emits today. New names fall through
  // to the generic line below, so HELP coverage never regresses to absent.
  static constexpr Entry kKnown[] = {
      {"sequence", "Tour sequence lengths in steps."},
      {"sequence.latency_ns", "Per-sequence tour pull latency, nanoseconds."},
      {"program", "Concretized program lengths in instructions."},
      {"program.latency_ns",
       "Per-program concretization latency, nanoseconds."},
      {"clean_run", "Implementation cycles per committed clean run."},
      {"clean_run.latency_ns",
       "Per-run clean simulation latency, nanoseconds."},
      {"queue_wait.latency_ns",
       "Worker-pool scheduling delay per claimed index, nanoseconds."},
      {"checkpoint.write", "Campaign checkpoints written."},
      {"states", "Reachable states of the campaign model."},
      {"transitions", "Reachable transitions of the campaign model."},
      {"bdd.gc", "Garbage-collection passes of the live BDD manager."},
      {"bdd.reorder", "Variable-reordering passes of the live BDD manager."},
      {"bdd_live_nodes", "Live BDD nodes of the symbolic backend."},
      {"bdd_peak_nodes", "Peak live BDD nodes of the symbolic backend."},
      {"sequences_in_flight_peak",
       "Peak sequences held in the streaming window."},
  };
  for (const Entry& e : kKnown) {
    if (e.name == name) return std::string(e.help);
  }
  return "simcov metric '" + std::string(name) +
         "', aggregated per pipeline stage.";
}

std::string write_prometheus_text(const MetricsSummary& summary) {
  std::ostringstream os;
  // Prometheus text values must survive a parse back into float64. Today's
  // summaries are all integers (unaffected by stream precision), but any
  // floating-point series added later would otherwise be silently rounded
  // to ostream's default 6 significant digits.
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& group : group_by_name(summary.counters)) {
    const std::string name = sanitize_metric_name(group.front()->name);
    os << "# HELP " << name << "_total "
       << escape_help_text(prometheus_help_text(group.front()->name)) << "\n";
    os << "# TYPE " << name << "_total counter\n";
    for (const auto* e : group) {
      os << name << "_total{stage=\""
         << prometheus_escape_label(stage_name(e->stage)) << "\"} "
         << e->value << "\n";
    }
  }
  for (const auto& group : group_by_name(summary.gauges)) {
    const std::string name = sanitize_metric_name(group.front()->name);
    os << "# HELP " << name << " "
       << escape_help_text(prometheus_help_text(group.front()->name)) << "\n";
    os << "# TYPE " << name << " gauge\n";
    for (const auto* e : group) {
      os << name << "{stage=\""
         << prometheus_escape_label(stage_name(e->stage)) << "\"} "
         << e->value << "\n";
    }
  }
  for (const auto& group : group_by_name(summary.histograms)) {
    const std::string name = sanitize_metric_name(group.front()->name);
    os << "# HELP " << name << " "
       << escape_help_text(prometheus_help_text(group.front()->name)) << "\n";
    os << "# TYPE " << name << " histogram\n";
    for (const auto* e : group) {
      const std::string stage = prometheus_escape_label(stage_name(e->stage));
      const HistogramSummary& h = e->value;
      // Cumulative buckets; skip the le's where nothing changed to keep the
      // dump readable — cumulative semantics stay exact, and the mandatory
      // +Inf bucket always closes the series.
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
        if (h.buckets[i] == 0) continue;
        cumulative += h.buckets[i];
        os << name << "_bucket{stage=\"" << stage << "\",le=\""
           << histogram_bucket_upper_bound(i) << "\"} " << cumulative << "\n";
      }
      os << name << "_bucket{stage=\"" << stage << "\",le=\"+Inf\"} "
         << h.count << "\n";
      os << name << "_sum{stage=\"" << stage << "\"} " << h.sum << "\n";
      os << name << "_count{stage=\"" << stage << "\"} " << h.count << "\n";
    }
  }
  return os.str();
}

std::string write_prometheus_text(const MetricsRegistry& registry) {
  return write_prometheus_text(registry.summary());
}

}  // namespace simcov::obs
