// Tests for io::VcdWriter: header/declaration structure, per-sequence
// scopes, initial-x dumpvars, change-only emission with strictly
// increasing timestamps, value agreement with the replayed trace, the
// cycle budget's cut, name sanitization, shape and width validation, and
// byte determinism.
#include "io/vcd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/blif.hpp"
#include "sym/packed_logic_sim.hpp"

namespace simcov::io {
namespace {

sym::SequentialCircuit toggle_circuit() {
  // One input, one latch (t' = en ^ t), outputs q (the latch) and en's
  // complement — enough to see input, state and output columns move.
  return BlifReader()
      .read_string(
          ".model toggle\n"
          ".inputs en\n"
          ".outputs q nen\n"
          ".latch nt q 0\n"
          ".names en q nt\n01 1\n10 1\n"
          ".names en nen\n0 1\n"
          ".end\n")
      .circuit;
}

/// One packed input key per step (bit k = primary input k).
using Keys = std::vector<std::uint64_t>;

/// A sequence replayed from reset as packed keys: the state path (one
/// longer than the inputs), the inputs and the outputs.
struct KeyTrace {
  Keys states, inputs, outputs;
};

/// Replays `inputs` on `circuit` one lane-0 step at a time.
KeyTrace replay(const sym::SequentialCircuit& circuit, const Keys& inputs) {
  const sym::PackedCircuitSim sim(circuit);
  std::uint64_t state = 0;
  for (std::size_t j = 0; j < circuit.latches.size(); ++j) {
    if (circuit.latches[j].init) state |= std::uint64_t{1} << j;
  }
  KeyTrace trace{{state}, inputs, {}};
  for (const std::uint64_t input : inputs) {
    std::uint64_t next = 0, out = 0;
    EXPECT_EQ(sim.step({&state, 1}, {&input, 1}, {&next, 1}, {&out, 1}), 1u)
        << "invalid step";
    trace.outputs.push_back(out);
    trace.states.push_back(state = next);
  }
  return trace;
}

void add(VcdWriter& vcd, std::string_view name, const KeyTrace& trace) {
  vcd.add_sequence(name, trace.states, trace.inputs, trace.outputs);
}

/// Minimal structural VCD check: every declared id is unique per scope,
/// every value change refers to a declared id, timestamps strictly
/// increase, and `$dumpvars` covers every id with 'x'.
struct ParsedVcd {
  std::set<std::string> ids;
  std::vector<std::string> scopes;
  std::size_t num_changes = 0;
  std::map<std::string, char> final_value;
};

ParsedVcd parse_vcd(const std::string& text) {
  ParsedVcd parsed;
  std::istringstream in(text);
  std::string line;
  long last_time = -1;
  bool in_dump = false;
  std::set<std::string> dumped;
  bool definitions_done = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream tok(line);
    std::string first;
    tok >> first;
    if (first == "$scope") {
      std::string kind, name;
      tok >> kind >> name;
      EXPECT_EQ(kind, "module") << line;
      parsed.scopes.push_back(name);
    } else if (first == "$var") {
      std::string kind, width, id, name;
      tok >> kind >> width >> id >> name;
      EXPECT_EQ(kind, "wire") << line;
      EXPECT_EQ(width, "1") << line;
      EXPECT_FALSE(id.empty()) << line;
      parsed.ids.insert(id);
    } else if (first == "$enddefinitions") {
      definitions_done = true;
    } else if (first == "$dumpvars") {
      in_dump = true;
    } else if (first == "$end" && in_dump) {
      in_dump = false;
      EXPECT_EQ(dumped, parsed.ids) << "$dumpvars must cover every $var";
    } else if (first[0] == '#') {
      const long t = std::stol(first.substr(1));
      EXPECT_GT(t, last_time) << "timestamps must strictly increase";
      last_time = t;
    } else if (first[0] == '0' || first[0] == '1' || first[0] == 'x') {
      EXPECT_TRUE(definitions_done || in_dump) << line;
      const std::string id = first.substr(1);
      EXPECT_TRUE(parsed.ids.count(id)) << "undeclared id in: " << line;
      if (in_dump) {
        EXPECT_EQ(first[0], 'x') << "$dumpvars must initialize to x";
        dumped.insert(id);
      } else {
        ++parsed.num_changes;
      }
      parsed.final_value[id] = first[0];
    }
  }
  EXPECT_TRUE(definitions_done);
  return parsed;
}

TEST(VcdWriterTest, DeclaresOneScopePerSequenceWithAllSignals) {
  const auto circuit = toggle_circuit();
  VcdWriter vcd(circuit, "toggle");
  add(vcd, "seq0", replay(circuit, Keys{1, 1, 0}));
  add(vcd, "seq1", replay(circuit, Keys{0, 1}));
  EXPECT_EQ(vcd.num_sequences(), 2u);

  const std::string text = vcd.to_string();
  const auto parsed = parse_vcd(text);
  ASSERT_EQ(parsed.scopes.size(), 3u);  // top module + one per sequence
  EXPECT_EQ(parsed.scopes[0], "toggle");
  EXPECT_EQ(parsed.scopes[1], "seq0");
  EXPECT_EQ(parsed.scopes[2], "seq1");
  // 2 sequences x (1 PI + 1 latch + 2 outputs) distinct ids.
  EXPECT_EQ(parsed.ids.size(), 8u);
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1"), std::string::npos);
  EXPECT_NE(text.find(" en "), std::string::npos);
  EXPECT_NE(text.find(" q "), std::string::npos);
  EXPECT_NE(text.find(" nen "), std::string::npos);
}

TEST(VcdWriterTest, ValuesMatchTheReplayedTrace) {
  const auto circuit = toggle_circuit();
  const auto trace = replay(circuit, Keys{1, 1, 1});
  // q toggles 0,1,0 across the three cycles and ends at 1.
  EXPECT_EQ(trace.states, (Keys{0, 1, 0, 1}));

  VcdWriter vcd(circuit);
  add(vcd, "s", trace);
  const std::string text = vcd.to_string();
  const auto parsed = parse_vcd(text);
  // The final sample of every signal is parked at x except the latch,
  // whose trailing tick exposes the final state... which is itself parked
  // after the sequence ends — but this is the last sequence, so the final
  // latch value (1) survives as the last change before the closing time.
  // There must be at least one change per signal beyond the dump.
  EXPECT_GE(parsed.num_changes, 8u);
  // Timeline: 3 cycles + trailing tick => final timestamp is 4.
  EXPECT_NE(text.find("\n#4\n"), std::string::npos);
}

TEST(VcdWriterTest, SequencesPlayBackToBackOnOneTimeline) {
  const auto circuit = toggle_circuit();
  VcdWriter vcd(circuit);
  add(vcd, "a", replay(circuit, Keys{1, 0}));
  add(vcd, "b", replay(circuit, Keys{1}));
  const std::string text = vcd.to_string();
  // seq a occupies [0,3) (2 cycles + trailing tick), seq b starts at 3.
  EXPECT_NE(text.find("\n#3\n"), std::string::npos);
  EXPECT_NE(text.find("\n#5\n"), std::string::npos);
  (void)parse_vcd(text);  // structural checks (monotonic time, ids)
}

TEST(VcdWriterTest, SanitizesScopeAndSignalNames) {
  const auto circuit = toggle_circuit();
  VcdWriter vcd(circuit, "my top");
  add(vcd, "seq one", replay(circuit, Keys{1}));
  const std::string text = vcd.to_string();
  EXPECT_NE(text.find("$scope module my_top"), std::string::npos);
  EXPECT_NE(text.find("$scope module seq_one"), std::string::npos);
}

// The cycle budget keeps the first cycles of a sequence and the state
// they reach, exactly as a trace of that length would.
TEST(VcdWriterTest, CutsEverySequenceAtTheCycleBudget) {
  const auto circuit = toggle_circuit();
  VcdWriter cut(circuit, "t", 2);
  add(cut, "s", replay(circuit, Keys{1, 1, 1}));
  VcdWriter whole(circuit, "t");
  add(whole, "s", replay(circuit, Keys{1, 1}));
  EXPECT_EQ(cut.to_string(), whole.to_string());
}

TEST(VcdWriterTest, RejectsTracesWithMismatchedShape) {
  const auto circuit = toggle_circuit();
  VcdWriter vcd(circuit);
  const auto good = replay(circuit, Keys{1});
  // The state path must be one longer than the inputs, the outputs as long.
  EXPECT_THROW(vcd.add_sequence("bad", good.inputs, good.inputs, good.outputs),
               std::invalid_argument);
  EXPECT_THROW(vcd.add_sequence("bad", good.states, good.inputs, good.states),
               std::invalid_argument);
  // A key with a bit beyond the circuit's one input, one latch or two
  // outputs.
  EXPECT_THROW(vcd.add_sequence("bad", good.states, Keys{0b10}, good.outputs),
               std::invalid_argument);
  EXPECT_THROW(vcd.add_sequence("bad", Keys{0, 2}, good.inputs, good.outputs),
               std::invalid_argument);
  EXPECT_THROW(vcd.add_sequence("bad", good.states, good.inputs, Keys{4}),
               std::invalid_argument);
  // A well-shaped trace is still accepted afterwards.
  add(vcd, "good", good);
  EXPECT_EQ(vcd.num_sequences(), 1u);
}

TEST(VcdWriterTest, OutputIsByteDeterministic) {
  const auto circuit = toggle_circuit();
  const auto make = [&] {
    VcdWriter vcd(circuit, "det");
    add(vcd, "s0", replay(circuit, Keys{1, 0, 1}));
    add(vcd, "s1", replay(circuit, Keys{0, 0}));
    return vcd.to_string();
  };
  EXPECT_EQ(make(), make());
  // No wall-clock leakage: a VCD $date section would break cold/warm diffs.
  EXPECT_EQ(make().find("$date"), std::string::npos);
}

TEST(VcdWriterTest, WriteFileFailsOnUnwritablePath) {
  const auto circuit = toggle_circuit();
  VcdWriter vcd(circuit);
  add(vcd, "s", replay(circuit, Keys{1}));
  EXPECT_THROW(vcd.write_file("/nonexistent-dir/x.vcd"), std::runtime_error);
}

}  // namespace
}  // namespace simcov::io
