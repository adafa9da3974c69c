// Exporters: the obs event flow and MetricsRegistry rendered in the two
// formats the outside tooling world actually speaks.
//
//   * PerfettoTraceSink — Chrome trace-event JSON (the legacy array
//     format), loadable in https://ui.perfetto.dev or chrome://tracing.
//     Spans and per-item latencies appear as complete ("X") slices on
//     per-stage tracks, counters and gauges as counter ("C") tracks,
//     items and statuses as instants ("i").
//   * write_prometheus_text — the text exposition format: counters as
//     `<name>_total`, gauges as gauges, histograms as cumulative
//     `_bucket{le=...}` series plus `_sum`/`_count`. Every metric is
//     prefixed `simcov_` and labelled by stage.
//
// Both are presentation only: they add no event semantics of their own, so
// attaching them cannot change what a campaign computes.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"

namespace simcov::obs {

/// Streams events as Chrome trace-event JSON. Timestamps are microseconds
/// since sink construction on the steady clock. Each stage gets its own
/// track (tid = stage), with per-item latency slices on a parallel track
/// (tid = stage + 100) so worker-thread slices don't visually nest into the
/// coordinator's batch spans.
///
/// The file is a JSON array; the closing bracket lands in the destructor.
/// (The trace-event spec also permits the unterminated form, so even a
/// killed campaign leaves a loadable trace. The stream flushes on every
/// status event: everything up to the last stage boundary survives.)
class PerfettoTraceSink final : public EventSink {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  explicit PerfettoTraceSink(const std::string& path);
  ~PerfettoTraceSink() override;

  void span(Stage stage, double seconds) override;
  void counter(Stage stage, std::string_view name,
               std::uint64_t value) override;
  void gauge(Stage stage, std::string_view name, std::uint64_t value) override;
  void item(Stage stage, std::string_view kind, std::uint64_t id,
            std::uint64_t value) override;
  void latency(Stage stage, std::string_view kind, std::uint64_t id,
               double seconds) override;
  void status(Stage stage, StageStatus status) override;

 private:
  /// Microseconds since construction, saturating at 0.
  [[nodiscard]] std::uint64_t now_us() const;
  void write_event(const std::string& json);

  std::mutex mutex_;
  std::ofstream out_;
  std::chrono::steady_clock::time_point start_;
  bool first_ = true;
  /// Counter events are increments; the "C" track plots running totals.
  std::map<std::string, std::uint64_t> counter_totals_;
};

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and newline become \\, \" and \n. Exposed for
/// the exporter's golden tests.
[[nodiscard]] std::string prometheus_escape_label(std::string_view value);

/// One-line HELP text of a metric family, looked up by its *raw* event
/// name (before `simcov_` sanitization); unknown names get a generic
/// derived line, so every exposed family always carries HELP metadata.
[[nodiscard]] std::string prometheus_help_text(std::string_view name);

/// Renders a registry snapshot in the Prometheus text exposition format.
/// Each family carries `# HELP` and `# TYPE` metadata, and every label
/// value is escaped per the format.
[[nodiscard]] std::string write_prometheus_text(const MetricsSummary& summary);
[[nodiscard]] std::string write_prometheus_text(const MetricsRegistry& registry);

}  // namespace simcov::obs
