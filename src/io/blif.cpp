#include "io/blif.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace simcov::io {

namespace {

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One `.names` definition: the cover table as written, plus lowering state.
struct Cover {
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::string> rows;  ///< input planes; empty strings for k = 0
  bool on_set = true;             ///< the (single, consistent) output plane
  bool has_rows = false;
  std::size_t line = 0;
  // Lowering state (depth-first, file order).
  bool lowered = false;
  bool lowering = false;
  sym::SignalId signal = 0;
};

struct LatchDecl {
  std::string input;   ///< next-state signal name
  std::string output;  ///< latch (current-state) signal name
  bool init = false;
  std::size_t line = 0;
};

struct NameRef {
  std::string name;
  std::size_t line = 0;
};

class Parser {
 public:
  Parser(std::istream& in, std::string_view source_name)
      : in_(in), source_(source_name) {}

  BlifCircuit run() {
    parse();
    validate();
    return lower();
  }

 private:
  [[noreturn]] void fail(std::size_t line, const std::string& message) const {
    std::ostringstream os;
    os << source_ << ": line " << line << ": " << message;
    throw std::invalid_argument(os.str());
  }

  /// Next logical line: comments stripped, `\` continuations joined,
  /// blank lines skipped. Returns false at EOF. `line_` holds the number
  /// of the first physical line.
  bool next_line(std::string& out) {
    out.clear();
    std::string physical;
    bool in_logical = false;
    while (std::getline(in_, physical)) {
      ++physical_line_;
      if (!in_logical) line_ = physical_line_;
      if (!physical.empty() && physical.back() == '\r') physical.pop_back();
      if (const auto hash = physical.find('#'); hash != std::string::npos) {
        physical.erase(hash);
      }
      // Trailing backslash continues the logical line.
      std::size_t end = physical.size();
      while (end > 0 && std::isspace(static_cast<unsigned char>(
                            physical[end - 1]))) {
        --end;
      }
      const bool continues = end > 0 && physical[end - 1] == '\\';
      if (continues) --end;
      out.append(physical, 0, end);
      out.push_back(' ');
      if (continues) {
        in_logical = true;
        continue;
      }
      if (out.find_first_not_of(' ') == std::string::npos) {
        out.clear();
        in_logical = false;
        continue;  // blank / comment-only line
      }
      return true;
    }
    if (in_logical && out.find_first_not_of(' ') != std::string::npos) {
      return true;  // file ended inside a continuation; use what we have
    }
    return false;
  }

  static std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token) tokens.push_back(std::move(token));
    return tokens;
  }

  void parse() {
    std::string line;
    while (next_line(line)) {
      const auto tokens = tokenize(line);
      if (tokens.empty()) continue;
      if (tokens[0][0] != '.') {
        parse_cover_row(tokens);
        continue;
      }
      open_cover_ = nullptr;  // any command ends the open cover table
      const std::string& cmd = tokens[0];
      if (cmd == ".model") {
        if (seen_model_) fail(line_, "second .model (one model per file)");
        seen_model_ = true;
        if (tokens.size() > 2) fail(line_, ".model takes at most one name");
        if (tokens.size() == 2) model_name_ = tokens[1];
      } else if (cmd == ".inputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          inputs_.push_back(NameRef{tokens[i], line_});
        }
      } else if (cmd == ".outputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          outputs_.push_back(NameRef{tokens[i], line_});
        }
      } else if (cmd == ".names") {
        if (tokens.size() < 2) fail(line_, ".names needs an output signal");
        Cover cover;
        cover.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
        cover.output = tokens.back();
        cover.line = line_;
        covers_.push_back(std::move(cover));
        open_cover_ = &covers_.back();
      } else if (cmd == ".latch") {
        parse_latch(tokens);
      } else if (cmd == ".end") {
        return;  // anything after .end is ignored
      } else {
        fail(line_, "unsupported construct '" + cmd + "'");
      }
    }
  }

  void parse_latch(const std::vector<std::string>& tokens) {
    // .latch <input> <output> [<type> <control>] [<init>]
    LatchDecl latch;
    latch.line = line_;
    if (tokens.size() < 3 || tokens.size() > 6) {
      fail(line_, ".latch expects <input> <output> [<type> <control>] "
                  "[<init-val>]");
    }
    latch.input = tokens[1];
    latch.output = tokens[2];
    std::size_t next = 3;
    if (tokens.size() >= 5) {
      // A 2-token clocking spec: edge/level type plus control signal. The
      // subset has one implicit clock, so both are accepted and ignored.
      static const char* kTypes[] = {"fe", "re", "ah", "al", "as"};
      const bool known = std::any_of(
          std::begin(kTypes), std::end(kTypes),
          [&](const char* t) { return tokens[3] == t; });
      if (!known) {
        fail(line_, ".latch type must be fe|re|ah|al|as, got '" + tokens[3] +
                        "'");
      }
      next = 5;
    }
    if (next < tokens.size()) {
      const std::string& init = tokens[next];
      if (init == "0") {
        latch.init = false;
      } else if (init == "1") {
        latch.init = true;
      } else if (init == "2" || init == "3") {
        latch.init = false;  // don't-care / unknown reset resolves to 0
      } else {
        fail(line_, ".latch init value must be 0|1|2|3, got '" + init + "'");
      }
      if (next + 1 != tokens.size()) fail(line_, ".latch has trailing tokens");
    }
    latches_.push_back(std::move(latch));
  }

  void parse_cover_row(const std::vector<std::string>& tokens) {
    if (open_cover_ == nullptr) {
      fail(line_, "cover row outside a .names table");
    }
    Cover& cover = *open_cover_;
    std::string plane;
    char out_char = 0;
    if (cover.inputs.empty()) {
      if (tokens.size() != 1 || tokens[0].size() != 1) {
        fail(line_, "constant cover row must be a single 0 or 1");
      }
      out_char = tokens[0][0];
    } else {
      if (tokens.size() != 2) {
        fail(line_, "cover row must be <input-plane> <output>");
      }
      plane = tokens[0];
      if (plane.size() != cover.inputs.size()) {
        std::ostringstream os;
        os << "truncated cover row: " << plane.size() << " literals for "
           << cover.inputs.size() << " inputs of '" << cover.output << "'";
        fail(line_, os.str());
      }
      for (const char c : plane) {
        if (c != '0' && c != '1' && c != '-') {
          fail(line_, std::string("invalid cover literal '") + c + "'");
        }
      }
      if (tokens[1].size() != 1) {
        fail(line_, "multi-bit output plane '" + tokens[1] +
                        "' (single-output .names only)");
      }
      out_char = tokens[1][0];
    }
    if (out_char != '0' && out_char != '1') {
      fail(line_, std::string("output plane must be 0 or 1, got '") +
                      out_char + "'");
    }
    const bool on = out_char == '1';
    if (cover.has_rows && on != cover.on_set) {
      fail(line_, "mixed ON-set/OFF-set cover for '" + cover.output + "'");
    }
    cover.on_set = on;
    cover.has_rows = true;
    cover.rows.push_back(std::move(plane));
  }

  // ---- Post-parse validation ----------------------------------------------

  void declare_driver(const std::string& name, std::size_t line,
                      const char* kind) {
    const auto [it, inserted] = drivers_.emplace(name, line);
    if (!inserted) {
      std::ostringstream os;
      os << "duplicate driver for '" << name << "' (" << kind
         << "; first driven at line " << it->second << ")";
      fail(line, os.str());
    }
  }

  void require_driven(const std::string& name, std::size_t line,
                      const std::string& what) const {
    if (drivers_.count(name) == 0) {
      fail(line, "undriven signal '" + name + "' (" + what + ")");
    }
  }

  void validate() {
    for (const auto& pi : inputs_) {
      declare_driver(pi.name, pi.line, "primary input");
    }
    for (const auto& latch : latches_) {
      declare_driver(latch.output, latch.line, "latch output");
    }
    for (const auto& cover : covers_) {
      declare_driver(cover.output, cover.line, ".names output");
    }
    for (const auto& latch : latches_) {
      require_driven(latch.input, latch.line, "latch input");
    }
    for (const auto& cover : covers_) {
      for (const auto& in : cover.inputs) {
        require_driven(in, cover.line, "input of cover '" + cover.output +
                                           "'");
      }
    }
    std::map<std::string, std::size_t> seen_outputs;
    for (const auto& out : outputs_) {
      require_driven(out.name, out.line, "declared output");
      if (!seen_outputs.emplace(out.name, out.line).second) {
        fail(out.line, "duplicate output '" + out.name + "'");
      }
    }
  }

  // ---- Lowering -----------------------------------------------------------

  sym::SignalId signal_of(const std::string& name) {
    const auto it = signals_.find(name);
    if (it != signals_.end()) return it->second;
    // validate() guarantees a driver exists; the only unlowered driver kind
    // at this point is a cover.
    return lower_cover(*cover_by_output_.at(name));
  }

  sym::SignalId lower_cover(Cover& cover) {
    if (cover.lowered) return cover.signal;
    if (cover.lowering) {
      fail(cover.line, "combinational cycle through '" + cover.output + "'");
    }
    cover.lowering = true;
    std::vector<sym::SignalId> operands;
    operands.reserve(cover.inputs.size());
    for (const auto& in : cover.inputs) operands.push_back(signal_of(in));
    cover.signal = lower_table(cover, operands);
    cover.lowering = false;
    cover.lowered = true;
    signals_.emplace(cover.output, cover.signal);
    return cover.signal;
  }

  /// Lowers one cover table over resolved operand signals. Canonical covers
  /// map to single gates; everything else to a sum-of-products. Every
  /// mapping preserves the cover's function, so the special cases are pure
  /// canonicalization.
  sym::SignalId lower_table(const Cover& cover,
                            std::span<const sym::SignalId> xs) {
    sym::LogicNetwork& net = net_;
    if (xs.empty()) {
      return net.constant(cover.rows.empty() ? false : cover.on_set);
    }
    if (cover.on_set) {
      std::vector<std::string> sorted = cover.rows;
      std::sort(sorted.begin(), sorted.end());
      if (xs.size() == 1 && sorted == std::vector<std::string>{"0"}) {
        return net.make_not(xs[0]);
      }
      if (xs.size() == 1 && sorted == std::vector<std::string>{"1"}) {
        return xs[0];  // buffer: an alias, no gate
      }
      if (xs.size() == 2 && sorted == std::vector<std::string>{"11"}) {
        return net.make_and(xs[0], xs[1]);
      }
      if (xs.size() == 2 && sorted == std::vector<std::string>{"-1", "1-"}) {
        return net.make_or(xs[0], xs[1]);
      }
      if (xs.size() == 2 && sorted == std::vector<std::string>{"01", "10"}) {
        return net.make_xor(xs[0], xs[1]);
      }
      if (xs.size() == 3 && sorted == std::vector<std::string>{"0-1", "11-"}) {
        return net.make_mux(xs[0], xs[1], xs[2]);
      }
    }
    // Generic sum-of-products. Folds are seeded with the first term instead
    // of a neutral constant so lowering never injects constant gates.
    std::optional<sym::SignalId> sum;
    for (const std::string& row : cover.rows) {
      std::optional<sym::SignalId> product;
      for (std::size_t k = 0; k < row.size(); ++k) {
        if (row[k] == '-') continue;
        const sym::SignalId literal =
            row[k] == '1' ? xs[k] : net.make_not(xs[k]);
        product = product.has_value() ? net.make_and(*product, literal)
                                      : literal;
      }
      if (!product.has_value()) product = net.constant(true);
      sum = sum.has_value() ? net.make_or(*sum, *product) : *product;
    }
    if (!sum.has_value()) sum = net.constant(false);
    return cover.on_set ? *sum : net.make_not(*sum);
  }

  BlifCircuit lower() {
    BlifCircuit result;
    result.name = model_name_;
    sym::SequentialCircuit& circuit = result.circuit;

    // Network inputs in canonical order: primary inputs in declaration
    // order, then one per latch (named after the latch output) in
    // declaration order, so equal texts give fingerprint-equal circuits.
    for (const auto& pi : inputs_) {
      const sym::SignalId s = net_.add_input(pi.name);
      signals_.emplace(pi.name, s);
      circuit.primary_inputs.push_back(s);
    }
    for (const auto& latch : latches_) {
      const sym::SignalId s = net_.add_input(latch.output);
      signals_.emplace(latch.output, s);
    }
    for (auto& cover : covers_) {
      cover_by_output_.emplace(cover.output, &cover);
    }
    // Lower every cover in file order (dependencies depth-first) — unused
    // tables are still validated and preserved, like dead code.
    for (auto& cover : covers_) lower_cover(cover);

    for (const auto& latch : latches_) {
      circuit.latches.push_back(sym::SequentialCircuit::Latch{
          signals_.at(latch.output), signal_of(latch.input), latch.init,
          latch.output});
    }
    for (const auto& out : outputs_) {
      circuit.outputs.emplace_back(out.name, signals_.at(out.name));
    }
    circuit.net = std::move(net_);
    return result;
  }

  std::istream& in_;
  std::string source_;
  std::size_t physical_line_ = 0;
  std::size_t line_ = 0;

  bool seen_model_ = false;
  std::string model_name_;
  std::vector<NameRef> inputs_;
  std::vector<NameRef> outputs_;
  std::vector<LatchDecl> latches_;
  std::vector<Cover> covers_;
  Cover* open_cover_ = nullptr;

  std::map<std::string, std::size_t> drivers_;  // name -> declaring line
  std::map<std::string, sym::SignalId> signals_;
  std::map<std::string, Cover*> cover_by_output_;
  sym::LogicNetwork net_;
};

}  // namespace

BlifCircuit BlifReader::read(std::istream& in,
                             std::string_view source_name) const {
  return Parser(in, source_name).run();
}

BlifCircuit BlifReader::read_string(std::string_view text,
                                    std::string_view source_name) const {
  std::istringstream is{std::string(text)};
  return read(is, source_name);
}

BlifCircuit BlifReader::read_file(const std::string& path) const {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("BlifReader: cannot open '" + path + "'");
  }
  return read(in, path);
}

}  // namespace simcov::io
