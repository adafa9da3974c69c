// Shared formatting helpers for the reproduction benches. Each bench binary
// regenerates one table/figure of the paper and prints paper-vs-measured
// rows so EXPERIMENTS.md can be filled from the output directly.
//
// Every bench accepts `--json <path>`: init() parses it, header()/row()
// mirror what they print into section records, and finish() writes them as
// one machine-readable JSON document (core/json.hpp emitter). Benches can
// also splice full core::to_json reports in via attach_json().
//
// `--perfetto <path>` opens an obs::PerfettoTraceSink (Chrome trace-event
// JSON, loadable in ui.perfetto.dev), and `--metrics <path>` an
// obs::MetricsRegistry whose Prometheus text dump finish() writes to the
// path. Benches pass sink() — the fan-out over whichever of the two were
// requested — as CampaignOptions::sink.
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
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "model/generator_spec.hpp"
#include "obs/event_sink.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "store/fingerprint.hpp"

namespace simcov::bench {

namespace detail {

struct Section {
  std::string title;
  std::vector<std::pair<std::string, std::string>> rows;
};

struct Recorder {
  std::string binary = "bench";
  std::string json_path;
  std::string circuit_path;
  std::string vcd_path;
  bool reorder = false;
  model::GeneratorSpec generator;
  std::vector<Section> sections;
  /// (key, raw JSON document) pairs embedded verbatim by finish().
  std::vector<std::pair<std::string, std::string>> attachments;
  /// Open when --perfetto was given; Chrome trace-event JSON.
  std::unique_ptr<obs::PerfettoTraceSink> perfetto_sink;
  /// Allocated when --metrics was given; finish() writes the Prometheus
  /// text dump to metrics_path.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::string metrics_path;
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

/// Prints `message` and exits with status 2, the benches' usage error.
[[noreturn]] inline void exit_usage(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

}  // namespace detail

/// The optional flag groups of init(): a bench passes the ones it reads,
/// and every other flag is a usage error. `--json` is always accepted.
enum Flag : unsigned {
  kSinks = 1u << 0,      ///< --perfetto, --metrics (read through sink())
  kCircuit = 1u << 1,    ///< --circuit (circuit())
  kVcd = 1u << 2,        ///< --vcd (vcd())
  kReorder = 1u << 3,    ///< --reorder (reorder())
  kGenerator = 1u << 4,  ///< --generator (generator())
};

/// Parses bench command-line flags: `--json <path>` plus the groups named
/// in `flags` (`--perfetto <path>`, `--metrics <path>`, `--circuit
/// <file.blif>`, `--vcd <path>`, `--reorder on|off`, `--generator
/// tour|biased|hybrid`). Exits with status 2 on a flag the bench does not
/// read, anything unrecognized or an unopenable trace.
inline void init(int argc, char** argv, unsigned flags = 0) {
  auto& rec = detail::Recorder::instance();
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path(argv[0]);
    const auto slash = path.find_last_of('/');
    rec.binary = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  const auto reads = [flags](Flag flag) { return (flags & flag) != 0; };
  std::string usage = "usage: " + rec.binary + " [--json <path>]";
  if (reads(kSinks)) usage += " [--perfetto <path>] [--metrics <path>]";
  if (reads(kCircuit)) usage += " [--circuit <file.blif>]";
  if (reads(kVcd)) usage += " [--vcd <path>]";
  if (reads(kReorder)) usage += " [--reorder on|off]";
  if (reads(kGenerator)) usage += " [--generator tour|biased|hybrid]";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (i + 1 >= argc) detail::exit_usage(usage);  // every flag takes a value
    const std::string value(argv[++i]);
    if (arg == "--json") {
      rec.json_path = value;
    } else if (arg == "--perfetto" && reads(kSinks)) {
      try {
        rec.perfetto_sink = std::make_unique<obs::PerfettoTraceSink>(value);
      } catch (const std::exception& e) {
        detail::exit_usage(rec.binary + ": " + e.what());
      }
    } else if (arg == "--metrics" && reads(kSinks)) {
      rec.metrics_path = value;
      rec.metrics = std::make_unique<obs::MetricsRegistry>();
    } else if (arg == "--circuit" && reads(kCircuit)) {
      rec.circuit_path = value;
    } else if (arg == "--vcd" && reads(kVcd)) {
      rec.vcd_path = value;
    } else if (arg == "--reorder" && reads(kReorder)) {
      if (value != "on" && value != "off") {
        detail::exit_usage(rec.binary + ": --reorder expects on|off, got '" +
                           value + "'");
      }
      rec.reorder = value == "on";
    } else if (arg == "--generator" && reads(kGenerator)) {
      const auto kind = model::parse_generator_kind(value);
      if (!kind.has_value()) {
        detail::exit_usage(rec.binary +
                           ": --generator expects tour|biased|hybrid, got '" +
                           value + "'");
      }
      rec.generator.kind = *kind;
    } else {
      detail::exit_usage(usage);
    }
  }
}

/// Fan-out over every requested observability sink (--perfetto trace-event
/// JSON, --metrics registry), or nullptr when none was requested — THE sink
/// benches should pass as CampaignOptions::sink / MutantCoverageOptions::sink.
[[nodiscard]] inline obs::EventSink* sink() {
  auto& rec = detail::Recorder::instance();
  if (!rec.combined_ready) {
    rec.combined.add(rec.perfetto_sink.get());
    rec.combined.add(rec.metrics.get());
    rec.combined_ready = true;
  }
  if (rec.perfetto_sink == nullptr && rec.metrics == nullptr) {
    return nullptr;
  }
  return &rec.combined;
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

/// Content hash of a report, as 32 hex digits: CI compares this one value
/// across invocations (two runs, reorder on against off).
[[nodiscard]] inline std::string report_hash(std::string_view json) {
  store::Hasher h;
  h.str(json);
  return h.digest().hex();
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
