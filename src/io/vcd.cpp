#include "io/vcd.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace simcov::io {

namespace {

/// VCD identifier codes: base-94 over the printable ASCII range '!'..'~'.
std::string id_code(std::size_t index) {
  std::string code;
  do {
    code.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index != 0);
  return code;
}

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (std::isspace(static_cast<unsigned char>(c)) ||
        !std::isprint(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  if (out.empty()) out.push_back('_');
  return out;
}

/// Bit `k` of a packed key as a VCD scalar.
char bit(std::uint64_t key, std::size_t k) {
  return ((key >> k) & 1u) != 0 ? '1' : '0';
}

/// Tracks the last emitted value per var so only changes are written, and
/// owns the `#time` markers so each timestamp appears at most once no
/// matter how many emission sites touch it. VCD scalars: '0', '1', 'x'.
class ChangeBuffer {
 public:
  ChangeBuffer(std::size_t num_vars, std::ostream& out)
      : out_(out), last_(num_vars, '?') {}

  void at_time(std::size_t time) { time_ = time; }

  void set(std::size_t var, char value) {
    if (last_[var] == value) return;
    last_[var] = value;
    if (emitted_time_ != static_cast<long long>(time_)) {
      out_ << '#' << time_ << '\n';
      emitted_time_ = static_cast<long long>(time_);
    }
    out_ << value << id_code(var) << '\n';
  }

 private:
  std::ostream& out_;
  std::string last_;
  std::size_t time_ = 0;
  long long emitted_time_ = -1;
};

}  // namespace

VcdWriter::VcdWriter(const sym::SequentialCircuit& circuit,
                     std::string_view module_name, std::size_t max_cycles)
    : module_name_(sanitize(module_name)), max_cycles_(max_cycles) {
  if (circuit.primary_inputs.size() > 63 || circuit.latches.size() > 63 ||
      circuit.outputs.size() > 63) {
    throw std::invalid_argument(
        "VcdWriter: more than 63 signals for packed 64-bit keys");
  }
  const auto& net = circuit.net;
  std::map<sym::SignalId, std::size_t> input_index;
  for (std::size_t k = 0; k < net.num_inputs(); ++k) {
    input_index.emplace(net.inputs()[k], k);
  }
  for (const sym::SignalId pi : circuit.primary_inputs) {
    const auto it = input_index.find(pi);
    if (it == input_index.end()) {
      throw std::invalid_argument(
          "VcdWriter: primary input is not a network input");
    }
    pi_names_.push_back(sanitize(net.input_name(it->second)));
  }
  for (const auto& latch : circuit.latches) {
    latch_names_.push_back(sanitize(latch.name));
  }
  for (const auto& [name, signal] : circuit.outputs) {
    (void)signal;
    out_names_.push_back(sanitize(name));
  }
}

void VcdWriter::add_sequence(std::string_view name,
                             std::span<const std::uint64_t> states,
                             std::span<const std::uint64_t> inputs,
                             std::span<const std::uint64_t> outputs) {
  if (states.size() != inputs.size() + 1 ||
      outputs.size() != inputs.size()) {
    throw std::invalid_argument("VcdWriter: inconsistent trace shape");
  }
  const std::size_t steps = std::min(inputs.size(), max_cycles_);
  Trace trace{{states.begin(), states.begin() + steps + 1},
              {inputs.begin(), inputs.begin() + steps},
              {outputs.begin(), outputs.begin() + steps}};
  // Widths are at most 63 (constructor), so every shift is defined.
  const auto check = [](const std::vector<std::uint64_t>& keys,
                        std::size_t width, const char* what) {
    for (const std::uint64_t key : keys) {
      if ((key >> width) != 0) {
        throw std::invalid_argument(std::string("VcdWriter: trace ") + what +
                                    " width mismatch");
      }
    }
  };
  check(trace.states, latch_names_.size(), "latch");
  check(trace.inputs, pi_names_.size(), "input");
  check(trace.outputs, out_names_.size(), "output");
  seq_names_.push_back(sanitize(name));
  traces_.push_back(std::move(trace));
}

void VcdWriter::write(std::ostream& out) const {
  const std::size_t vars_per_seq =
      pi_names_.size() + latch_names_.size() + out_names_.size();

  out << "$comment simcov campaign waveform $end\n";
  out << "$timescale 1 ns $end\n";
  out << "$scope module " << module_name_ << " $end\n";
  for (std::size_t s = 0; s < traces_.size(); ++s) {
    out << "$scope module " << seq_names_[s] << " $end\n";
    std::size_t var = s * vars_per_seq;
    for (const auto& n : pi_names_) {
      out << "$var wire 1 " << id_code(var++) << ' ' << n << " $end\n";
    }
    for (const auto& n : latch_names_) {
      out << "$var wire 1 " << id_code(var++) << ' ' << n << " $end\n";
    }
    for (const auto& n : out_names_) {
      out << "$var wire 1 " << id_code(var++) << ' ' << n << " $end\n";
    }
    out << "$upscope $end\n";
  }
  out << "$upscope $end\n";
  out << "$enddefinitions $end\n";

  // Initial snapshot: everything unknown until its sequence starts.
  out << "$dumpvars\n";
  for (std::size_t v = 0; v < traces_.size() * vars_per_seq; ++v) {
    out << 'x' << id_code(v) << '\n';
  }
  out << "$end\n";

  ChangeBuffer buffer(traces_.size() * vars_per_seq, out);
  std::size_t time = 0;
  for (std::size_t s = 0; s < traces_.size(); ++s) {
    const Trace& trace = traces_[s];
    const std::size_t base = s * vars_per_seq;
    const std::size_t latch_base = base + pi_names_.size();
    const std::size_t out_base = latch_base + latch_names_.size();
    for (std::size_t cycle = 0; cycle < trace.inputs.size(); ++cycle) {
      buffer.at_time(time);
      for (std::size_t k = 0; k < pi_names_.size(); ++k) {
        buffer.set(base + k, bit(trace.inputs[cycle], k));
      }
      for (std::size_t j = 0; j < latch_names_.size(); ++j) {
        buffer.set(latch_base + j, bit(trace.states[cycle], j));
      }
      for (std::size_t o = 0; o < out_names_.size(); ++o) {
        buffer.set(out_base + o, bit(trace.outputs[cycle], o));
      }
      ++time;
    }
    // Trailing tick: final latch state becomes visible, inputs/outputs of
    // this sequence park at x so back-to-back sequences stay separable.
    buffer.at_time(time);
    for (std::size_t k = 0; k < pi_names_.size(); ++k) {
      buffer.set(base + k, 'x');
    }
    for (std::size_t j = 0; j < latch_names_.size(); ++j) {
      buffer.set(latch_base + j, bit(trace.states.back(), j));
    }
    for (std::size_t o = 0; o < out_names_.size(); ++o) {
      buffer.set(out_base + o, 'x');
    }
    ++time;
    // Park the latches too; this shares its timestamp with the next
    // sequence's first cycle, so the marker is emitted exactly once.
    if (s + 1 < traces_.size()) {
      buffer.at_time(time);
      for (std::size_t j = 0; j < latch_names_.size(); ++j) {
        buffer.set(latch_base + j, 'x');
      }
    }
  }
  out << '#' << time << '\n';
}

std::string VcdWriter::to_string() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void VcdWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("VcdWriter: cannot open '" + path +
                             "' for writing");
  }
  write(out);
  if (!out) {
    throw std::runtime_error("VcdWriter: write to '" + path + "' failed");
  }
}

}  // namespace simcov::io
