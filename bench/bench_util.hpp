// Shared formatting helpers for the reproduction benches. Each bench binary
// regenerates one table/figure of the paper and prints paper-vs-measured
// rows so EXPERIMENTS.md can be filled from the output directly.
//
// Every bench accepts `--json <path>`: init() parses it, header()/row()
// mirror what they print into section records, and finish() writes them as
// one machine-readable JSON document (core/json.hpp emitter). Benches can
// also splice full core::to_json reports in via attach_json().
//
// `--trace <path>` opens an obs::JsonlTraceSink, `--perfetto <path>` an
// obs::PerfettoTraceSink (Chrome trace-event JSON, loadable in
// ui.perfetto.dev), and `--metrics <path>` an obs::MetricsRegistry whose
// Prometheus text dump finish() writes to the path. Benches pass sink() —
// the fan-out over whichever of the three were requested — as
// CampaignOptions::sink.
//
// `--store <dir>` and `--resume` expose the artifact store: benches pass
// store_dir() / resume() into CampaignOptions so repeated invocations
// reuse cached tours and checkpoints across processes.
//
// `--generator tour|biased|hybrid` selects the sequence-generation
// strategy (model/generator_spec.hpp): benches pass generator() into
// CampaignOptions::generator / MutantCoverageOptions::generator.
//
// `--reorder on|off` toggles dynamic BDD variable reordering: benches
// pass reorder() into CampaignOptions::reorder or set the
// BddManager reorder policy directly.
//
// `--circuit <file.blif>` points campaigns at an external BLIF netlist and
// `--vcd <path>` requests a VCD waveform of the committed test set:
// benches pass circuit() / vcd() into CampaignOptions::circuit_path /
// vcd_path (the src/io frontend).
//
// `--monitor <port>` starts an obs::CampaignMonitor (embedded /metrics +
// /progress HTTP endpoint; port 0 picks an ephemeral one, printed at
// startup) and `--watchdog <seconds>` arms its stall watchdog: benches
// pass monitor() into CampaignOptions::monitor. `--monitor-dump <prefix>`
// makes finish() self-scrape the endpoints into <prefix>.progress.json /
// <prefix>.metrics.prom / <prefix>.healthz.txt.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "model/generator_spec.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor_server.hpp"

namespace simcov::bench {

namespace detail {

struct Section {
  std::string title;
  std::vector<std::pair<std::string, std::string>> rows;
};

struct Recorder {
  std::string binary = "bench";
  std::string json_path;
  std::string store_dir;
  std::string circuit_path;
  std::string vcd_path;
  bool resume = false;
  bool reorder = false;
  model::GeneratorSpec generator;
  std::vector<Section> sections;
  /// (key, raw JSON document) pairs embedded verbatim by finish().
  std::vector<std::pair<std::string, std::string>> attachments;
  /// Open when --trace was given; campaigns stream pipeline events here.
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  /// Open when --perfetto was given; Chrome trace-event JSON.
  std::unique_ptr<obs::PerfettoTraceSink> perfetto_sink;
  /// Allocated when --metrics was given; finish() writes the Prometheus
  /// text dump to metrics_path.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::string metrics_path;
  /// Live monitor (--monitor / --watchdog); campaigns attach it via
  /// CampaignOptions::monitor.
  std::unique_ptr<obs::CampaignMonitor> monitor;
  /// When non-empty, finish() self-scrapes the monitor endpoints into
  /// <prefix>.progress.json / <prefix>.metrics.prom / <prefix>.healthz.txt.
  std::string monitor_dump_prefix;
  /// Lazy fan-out over the requested sinks (see bench::sink()).
  obs::MultiSink combined;
  bool combined_ready = false;

  static Recorder& instance() {
    static Recorder recorder;
    return recorder;
  }

  void add_row(std::string label, std::string value) {
    if (sections.empty()) sections.push_back(Section{});
    sections.back().rows.emplace_back(std::move(label), std::move(value));
  }
};

}  // namespace detail

/// Parses bench command-line flags (`--json <path>`, `--trace <path>`,
/// `--perfetto <path>`, `--metrics <path>`, `--store <dir>`, `--resume`,
/// `--circuit <file.blif>`, `--vcd <path>`, `--reorder on|off`,
/// `--generator tour|biased|hybrid`, `--monitor <port>`,
/// `--watchdog <seconds>`, `--monitor-dump <prefix>`).
/// Exits with status 2 on anything unrecognized or an unopenable trace.
inline void init(int argc, char** argv) {
  auto& rec = detail::Recorder::instance();
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path(argv[0]);
    const auto slash = path.find_last_of('/');
    rec.binary = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  bool monitor_requested = false;
  int monitor_port = -1;  // no HTTP server unless --monitor was given
  double watchdog_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      rec.json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      try {
        rec.trace_sink = std::make_unique<obs::JsonlTraceSink>(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", rec.binary.c_str(), e.what());
        std::exit(2);
      }
    } else if (arg == "--perfetto" && i + 1 < argc) {
      try {
        rec.perfetto_sink = std::make_unique<obs::PerfettoTraceSink>(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", rec.binary.c_str(), e.what());
        std::exit(2);
      }
    } else if (arg == "--metrics" && i + 1 < argc) {
      rec.metrics_path = argv[++i];
      rec.metrics = std::make_unique<obs::MetricsRegistry>();
    } else if (arg == "--store" && i + 1 < argc) {
      rec.store_dir = argv[++i];
    } else if (arg == "--circuit" && i + 1 < argc) {
      rec.circuit_path = argv[++i];
    } else if (arg == "--vcd" && i + 1 < argc) {
      rec.vcd_path = argv[++i];
    } else if (arg == "--monitor" && i + 1 < argc) {
      const std::string value(argv[++i]);
      char* end = nullptr;
      const long port = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr, "%s: --monitor expects a port (0-65535, 0 = "
                             "ephemeral), got '%s'\n",
                     rec.binary.c_str(), value.c_str());
        std::exit(2);
      }
      monitor_requested = true;
      monitor_port = static_cast<int>(port);
    } else if (arg == "--watchdog" && i + 1 < argc) {
      const std::string value(argv[++i]);
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || seconds <= 0.0) {
        std::fprintf(stderr,
                     "%s: --watchdog expects seconds > 0, got '%s'\n",
                     rec.binary.c_str(), value.c_str());
        std::exit(2);
      }
      monitor_requested = true;
      watchdog_seconds = seconds;
    } else if (arg == "--monitor-dump" && i + 1 < argc) {
      monitor_requested = true;
      rec.monitor_dump_prefix = argv[++i];
    } else if (arg == "--resume") {
      rec.resume = true;
    } else if (arg == "--reorder" && i + 1 < argc) {
      const std::string value(argv[++i]);
      if (value != "on" && value != "off") {
        std::fprintf(stderr, "%s: --reorder expects on|off, got '%s'\n",
                     rec.binary.c_str(), value.c_str());
        std::exit(2);
      }
      rec.reorder = value == "on";
    } else if (arg == "--generator" && i + 1 < argc) {
      const std::string value(argv[++i]);
      const auto kind = model::parse_generator_kind(value);
      if (!kind.has_value()) {
        std::fprintf(stderr,
                     "%s: --generator expects tour|biased|hybrid, got '%s'\n",
                     rec.binary.c_str(), value.c_str());
        std::exit(2);
      }
      rec.generator.kind = *kind;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--trace <path>] "
                   "[--perfetto <path>] [--metrics <path>] "
                   "[--store <dir>] [--circuit <file.blif>] "
                   "[--vcd <path>] [--resume] [--reorder on|off] "
                   "[--generator tour|biased|hybrid] "
                   "[--monitor <port>] [--watchdog <seconds>] "
                   "[--monitor-dump <prefix>]\n",
                   rec.binary.c_str());
      std::exit(2);
    }
  }
  if (monitor_requested) {
    obs::MonitorOptions mon;
    mon.port = monitor_port;
    mon.watchdog_seconds = watchdog_seconds;
    try {
      rec.monitor = std::make_unique<obs::CampaignMonitor>(mon);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", rec.binary.c_str(), e.what());
      std::exit(2);
    }
    if (rec.monitor->port() != 0) {
      std::printf("monitor: listening on http://127.0.0.1:%u "
                  "(/metrics /progress /healthz)\n",
                  static_cast<unsigned>(rec.monitor->port()));
    }
  }
}

/// The --trace sink, or nullptr when tracing is off — plugs directly into
/// CampaignOptions::sink / MutantCoverageOptions::sink.
[[nodiscard]] inline obs::EventSink* trace() {
  return detail::Recorder::instance().trace_sink.get();
}

/// Fan-out over every requested observability sink (--trace JSONL,
/// --perfetto trace-event JSON, --metrics registry), or nullptr when none
/// was requested — THE sink benches should pass as CampaignOptions::sink /
/// MutantCoverageOptions::sink.
[[nodiscard]] inline obs::EventSink* sink() {
  auto& rec = detail::Recorder::instance();
  if (!rec.combined_ready) {
    rec.combined.add(rec.trace_sink.get());
    rec.combined.add(rec.perfetto_sink.get());
    rec.combined.add(rec.metrics.get());
    rec.combined_ready = true;
  }
  if (rec.trace_sink == nullptr && rec.perfetto_sink == nullptr &&
      rec.metrics == nullptr) {
    return nullptr;
  }
  return &rec.combined;
}

/// The --store directory (empty when the flag was not given) — plugs into
/// CampaignOptions::store_dir.
[[nodiscard]] inline const std::string& store_dir() {
  return detail::Recorder::instance().store_dir;
}

/// The --circuit BLIF path (empty when the flag was not given) — plugs
/// into CampaignOptions::circuit_path (the src/io real-circuit frontend).
[[nodiscard]] inline const std::string& circuit() {
  return detail::Recorder::instance().circuit_path;
}

/// The --vcd output path (empty when the flag was not given) — plugs into
/// CampaignOptions::vcd_path (waveform export of the committed test set).
[[nodiscard]] inline const std::string& vcd() {
  return detail::Recorder::instance().vcd_path;
}

/// True when --resume was given — plugs into CampaignOptions::resume.
[[nodiscard]] inline bool resume() {
  return detail::Recorder::instance().resume;
}

/// The live monitor (--monitor / --watchdog / --monitor-dump), or nullptr
/// when none was requested — plugs into CampaignOptions::monitor.
[[nodiscard]] inline obs::CampaignMonitor* monitor() {
  return detail::Recorder::instance().monitor.get();
}

/// True when `--reorder on` was given — plugs into CampaignOptions::reorder
/// (dynamic BDD variable reordering via sifting).
[[nodiscard]] inline bool reorder() {
  return detail::Recorder::instance().reorder;
}

/// The `--generator` spec (default: transition tour, the paper's method) —
/// plugs into CampaignOptions::generator / MutantCoverageOptions::generator.
[[nodiscard]] inline const model::GeneratorSpec& generator() {
  return detail::Recorder::instance().generator;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  detail::Recorder::instance().sections.push_back(detail::Section{title, {}});
}

inline void row(const std::string& label, const std::string& value) {
  std::printf("  %-52s %s\n", label.c_str(), value.c_str());
  detail::Recorder::instance().add_row(label, value);
}

inline void row(const std::string& label, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  row(label, std::string(buf));
}

inline void row(const std::string& label, std::size_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%zu", value);
  row(label, std::string(buf));
}

/// Embeds an already-serialized JSON report (e.g. core::to_json output)
/// under `key` in the --json document.
inline void attach_json(const std::string& key, std::string raw_json) {
  detail::Recorder::instance().attachments.emplace_back(key,
                                                        std::move(raw_json));
}

/// Writes the recorded sections to the --json path (when given) and returns
/// `code` so mains can `return bench::finish(code);`. A write failure turns
/// a clean exit into a failing one.
inline int finish(int code = 0) {
  const auto& rec = detail::Recorder::instance();
  if (rec.monitor != nullptr && !rec.monitor_dump_prefix.empty()) {
    // Self-scrape through the real HTTP endpoint when the server is up
    // (exercising the socket path a curl would take); fall back to the
    // in-process views when --monitor was not given.
    const auto fetch = [&](const std::string& path,
                           const std::string& fallback) {
      if (rec.monitor->port() != 0) {
        if (auto got = obs::http_get(rec.monitor->port(), path)) {
          return got->body;
        }
      }
      return fallback;
    };
    const std::pair<const char*, std::string> dumps[] = {
        {".progress.json", fetch("/progress", rec.monitor->progress_json())},
        {".metrics.prom", fetch("/metrics", rec.monitor->metrics_text())},
        {".healthz.txt", fetch("/healthz", rec.monitor->health_text())},
    };
    for (const auto& [suffix, body] : dumps) {
      const std::string path = rec.monitor_dump_prefix + suffix;
      std::ofstream out(path);
      out << body;
      if (!out) {
        std::fprintf(stderr, "%s: failed to write %s\n", rec.binary.c_str(),
                     path.c_str());
        if (code == 0) code = 1;
      }
    }
  }
  if (!rec.metrics_path.empty() && rec.metrics != nullptr) {
    std::ofstream mout(rec.metrics_path);
    mout << obs::write_prometheus_text(*rec.metrics);
    if (!mout) {
      std::fprintf(stderr, "%s: failed to write %s\n", rec.binary.c_str(),
                   rec.metrics_path.c_str());
      if (code == 0) code = 1;
    }
  }
  if (rec.json_path.empty()) return code;
  core::JsonWriter w;
  w.begin_object()
      .field("report", "bench")
      .field("binary", rec.binary)
      .field("exit_code", code);
  w.begin_array("sections");
  for (const auto& section : rec.sections) {
    w.element_object().field("title", section.title);
    w.begin_array("rows");
    for (const auto& [label, value] : section.rows) {
      w.element_object()
          .field("label", label)
          .field("value", value)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();
  for (const auto& [key, raw] : rec.attachments) {
    w.raw_field(key.c_str(), raw);
  }
  w.end_object();
  std::ofstream out(rec.json_path);
  out << w.str() << '\n';
  if (!out) {
    std::fprintf(stderr, "%s: failed to write %s\n", rec.binary.c_str(),
                 rec.json_path.c_str());
    return code != 0 ? code : 1;
  }
  return code;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace simcov::bench
