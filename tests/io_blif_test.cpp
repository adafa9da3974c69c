// Tests for the BLIF frontend (io::BlifReader / io::BlifWriter): subset
// parsing, canonical-cover recognition, generic sum-of-products and
// OFF-set lowering semantics, the malformed-input rejection table
// (line-numbered std::invalid_argument), and the round-trip guarantee —
// write(read(x)) re-reads to an identical store::Fingerprint for the
// bundled example circuits and a randomized generated-netlist corpus.
#include "io/blif.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/test_model.hpp"
#include "store/fingerprint.hpp"
#include "sym/packed_logic_sim.hpp"

namespace simcov::io {
namespace {

BlifCircuit parse(const std::string& text) {
  return BlifReader().read_string(text, "test.blif");
}

/// Evaluates a latch-free circuit on one input vector: one step of lane 0.
std::vector<bool> eval_comb(const sym::SequentialCircuit& circuit,
                            const std::vector<bool>& inputs) {
  const std::uint64_t state = 0;
  const std::uint64_t step = model::TestModel::pack_bits(inputs);
  std::uint64_t next = 0, out = 0;
  EXPECT_EQ(sym::PackedCircuitSim(circuit).step({&state, 1}, {&step, 1},
                                                 {&next, 1}, {&out, 1}),
            1u);
  return model::TestModel::unpack_bits(
      out, static_cast<unsigned>(circuit.outputs.size()));
}

// ---- Positive parsing ------------------------------------------------------

TEST(BlifReaderTest, ParsesModelInputsOutputsLatches) {
  const auto parsed = parse(
      ".model demo\n"
      ".inputs a b\n"
      ".outputs y q\n"
      ".latch ny q 1\n"
      ".names a b y\n11 1\n"
      ".names y ny\n1 1\n"
      ".end\n");
  EXPECT_EQ(parsed.name, "demo");
  EXPECT_EQ(parsed.circuit.primary_inputs.size(), 2u);
  EXPECT_EQ(parsed.circuit.latches.size(), 1u);
  EXPECT_EQ(parsed.circuit.outputs.size(), 2u);
  EXPECT_TRUE(parsed.circuit.latches[0].init);
  EXPECT_EQ(parsed.circuit.latches[0].name, "q");
  EXPECT_FALSE(parsed.circuit.valid.has_value());
}

TEST(BlifReaderTest, CommentsContinuationsAndRepeatedDeclarations) {
  const auto parsed = parse(
      "# leading comment\n"
      ".model demo # trailing comment\n"
      ".inputs a \\\n"
      "  b\n"
      ".inputs c\n"
      "\n"
      ".outputs y\n"
      ".names a b \\\n  c y\n"
      "11- 1\n"
      "--1 1\n"
      ".end\n"
      "garbage after .end is ignored\n");
  EXPECT_EQ(parsed.circuit.primary_inputs.size(), 3u);
  // y = a&b | c
  EXPECT_TRUE(eval_comb(parsed.circuit, {true, true, false}).at(0));
  EXPECT_TRUE(eval_comb(parsed.circuit, {false, false, true}).at(0));
  EXPECT_FALSE(eval_comb(parsed.circuit, {true, false, false}).at(0));
}

TEST(BlifReaderTest, LatchFormsAndInitValues) {
  const auto parsed = parse(
      ".inputs a\n"
      ".outputs q0 q1 q2 q3\n"
      ".latch a q0\n"          // no init: defaults to 0
      ".latch a q1 3\n"        // unknown: resolves to 0
      ".latch a q2 re clk\n"   // clocking spec, no init
      ".latch a q3 fe clk 1\n" // clocking spec + init
      ".end\n");
  ASSERT_EQ(parsed.circuit.latches.size(), 4u);
  EXPECT_FALSE(parsed.circuit.latches[0].init);
  EXPECT_FALSE(parsed.circuit.latches[1].init);
  EXPECT_FALSE(parsed.circuit.latches[2].init);
  EXPECT_TRUE(parsed.circuit.latches[3].init);
}

TEST(BlifReaderTest, MissingModelDirectiveIsAllowed) {
  const auto parsed = parse(".inputs a\n.outputs a\n.end\n");
  EXPECT_TRUE(parsed.name.empty());
  EXPECT_EQ(parsed.circuit.outputs.size(), 1u);
}

// ---- Canonical-cover recognition -------------------------------------------

TEST(BlifReaderTest, CanonicalCoversLowerToSingleGates) {
  // 2 inputs + exactly one gate per canonical cover; the buffer adds none.
  const auto parsed = parse(
      ".inputs a b c\n"
      ".outputs n x o m y\n"
      ".names a n\n0 1\n"            // NOT
      ".names a b x\n01 1\n10 1\n"   // XOR
      ".names a b o\n1- 1\n-1 1\n"   // OR
      ".names a b c m\n11- 1\n0-1 1\n"  // MUX(a, b, c)
      ".names a y\n1 1\n"            // buffer: alias, no gate
      ".end\n");
  EXPECT_EQ(parsed.circuit.net.num_signals(), 3u + 4u);
  // MUX truth: a ? b : c.
  EXPECT_TRUE(eval_comb(parsed.circuit, {true, true, false}).at(3));
  EXPECT_FALSE(eval_comb(parsed.circuit, {true, false, true}).at(3));
  EXPECT_TRUE(eval_comb(parsed.circuit, {false, false, true}).at(3));
  // Buffer output tracks its source.
  EXPECT_TRUE(eval_comb(parsed.circuit, {true, false, false}).at(4));
}

TEST(BlifReaderTest, ConstantCovers) {
  const auto parsed = parse(
      ".outputs one zero empty\n"
      ".names one\n1\n"
      ".names zero\n0\n"
      ".names empty\n"  // no rows: constant 0
      ".end\n");
  const auto out = eval_comb(parsed.circuit, {});
  EXPECT_TRUE(out.at(0));
  EXPECT_FALSE(out.at(1));
  EXPECT_FALSE(out.at(2));
}

TEST(BlifReaderTest, GenericSumOfProducts) {
  // y = a&!b | !a&b&c — not a canonical shape.
  const auto parsed = parse(
      ".inputs a b c\n.outputs y\n"
      ".names a b c y\n10- 1\n011 1\n.end\n");
  for (int mask = 0; mask < 8; ++mask) {
    const bool a = (mask & 1) != 0;
    const bool b = (mask & 2) != 0;
    const bool c = (mask & 4) != 0;
    const bool expect = (a && !b) || (!a && b && c);
    EXPECT_EQ(eval_comb(parsed.circuit, {a, b, c}).at(0), expect)
        << "mask=" << mask;
  }
}

TEST(BlifReaderTest, OffSetCoverComplementsTheSum) {
  // zero = NOT(q1 | q0), written as an OFF-set cover.
  const auto parsed = parse(
      ".inputs q1 q0\n.outputs zero\n"
      ".names q1 q0 zero\n1- 0\n-1 0\n.end\n");
  EXPECT_TRUE(eval_comb(parsed.circuit, {false, false}).at(0));
  EXPECT_FALSE(eval_comb(parsed.circuit, {true, false}).at(0));
  EXPECT_FALSE(eval_comb(parsed.circuit, {false, true}).at(0));
}

TEST(BlifReaderTest, CoversLowerInFileOrderWithDepthFirstDependencies) {
  // t is used before its .names appears; the DFS must resolve it.
  const auto parsed = parse(
      ".inputs a b\n.outputs y\n"
      ".names t a y\n11 1\n"
      ".names a b t\n01 1\n10 1\n"
      ".end\n");
  EXPECT_TRUE(eval_comb(parsed.circuit, {true, false}).at(0));
  EXPECT_FALSE(eval_comb(parsed.circuit, {true, true}).at(0));
}

// ---- Malformed-input rejection table ---------------------------------------

struct NegativeCase {
  const char* label;
  const char* text;
  const char* expected;  ///< substring of the invalid_argument message
};

TEST(BlifReaderTest, NegativeInputTable) {
  const std::vector<NegativeCase> cases{
      {"truncated cover row",
       ".inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n",
       "line 4: truncated cover row"},
      {"bad cover literal",
       ".inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
       "line 4: invalid cover literal '2'"},
      {"multi-output names",
       ".inputs a b\n.outputs y\n.names a b y\n11 11\n.end\n",
       "line 4: multi-bit output plane"},
      {"bad output plane",
       ".inputs a\n.outputs y\n.names a y\n1 x\n.end\n",
       "line 4: output plane must be 0 or 1"},
      {"mixed on/off cover",
       ".inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n",
       "line 5: mixed ON-set/OFF-set cover"},
      {"bad constant row",
       ".outputs y\n.names y\nx\n.end\n",
       "line 3: output plane must be 0 or 1"},
      {"row outside a table",
       ".inputs a\n.outputs a\n11 1\n.end\n",
       "line 3: cover row outside a .names table"},
      {"duplicate cover driver",
       ".inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n",
       "line 5: duplicate driver for 'y'"},
      {"cover redefines an input",
       ".inputs a\n.outputs a\n.names a\n1\n.end\n",
       "line 3: duplicate driver for 'a'"},
      {"duplicate primary input",
       ".inputs a a\n.outputs a\n.end\n",
       "line 1: duplicate driver for 'a'"},
      {"duplicate latch output",
       ".inputs a\n.outputs q\n.latch a q 0\n.latch a q 0\n.end\n",
       "line 4: duplicate driver for 'q'"},
      {"undriven output",
       ".inputs a\n.outputs y\n.end\n",
       "line 2: undriven signal 'y' (declared output)"},
      {"duplicate output",
       ".inputs a\n.outputs a a\n.end\n",
       "line 2: duplicate output 'a'"},
      {"undriven latch input",
       ".outputs q\n.latch d q 0\n.end\n",
       "line 2: undriven signal 'd' (latch input)"},
      {"undriven cover input",
       ".inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n",
       "line 3: undriven signal 'ghost'"},
      {"combinational cycle",
       ".inputs a\n.outputs x\n.names y a x\n11 1\n.names x a y\n11 1\n"
       ".end\n",
       "combinational cycle"},
      {"self cycle",
       ".inputs a\n.outputs x\n.names x a x\n11 1\n.end\n",
       "line 3: combinational cycle through 'x'"},
      {"unsupported .subckt",
       ".inputs a\n.outputs a\n.subckt sub x=a\n.end\n",
       "line 3: unsupported construct '.subckt'"},
      {"unsupported .exdc",
       ".inputs a\n.outputs a\n.exdc\n.end\n",
       "line 3: unsupported construct '.exdc'"},
      {"second model",
       ".model a\n.model b\n.end\n",
       "line 2: second .model"},
      {"names without output",
       ".inputs a\n.outputs a\n.names\n.end\n",
       "line 3: .names needs an output signal"},
      {"latch arity",
       ".inputs a\n.outputs a\n.latch a\n.end\n",
       "line 3: .latch expects"},
      {"latch bad type",
       ".inputs a\n.outputs q\n.latch a q xx clk 0\n.end\n",
       "line 3: .latch type must be"},
      {"latch bad init",
       ".inputs a\n.outputs q\n.latch a q 7\n.end\n",
       "line 3: .latch init value must be"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse(c.text);
      FAIL() << c.label << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expected), std::string::npos)
          << c.label << ": message was: " << e.what();
      EXPECT_NE(std::string(e.what()).find("test.blif"), std::string::npos)
          << c.label << ": message lacks the source name: " << e.what();
    }
  }
}

TEST(BlifReaderTest, UnopenableFileIsRuntimeError) {
  EXPECT_THROW((void)BlifReader().read_file("/nonexistent/x.blif"),
               std::runtime_error);
}

// ---- Writer ----------------------------------------------------------------

TEST(BlifWriterTest, RejectsValidityConstrainedCircuits) {
  auto parsed = parse(".inputs a\n.outputs a\n.end\n");
  parsed.circuit.valid = parsed.circuit.primary_inputs[0];
  EXPECT_THROW((void)BlifWriter().to_string(parsed.circuit, "m"),
               std::invalid_argument);
}

TEST(BlifWriterTest, EmitsAliasedOutputsAsBufferCovers) {
  // Output name differs from the driving signal's own name.
  const auto parsed = parse(
      ".inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
  sym::SequentialCircuit renamed = parsed.circuit;
  renamed.outputs[0].first = "result";
  const std::string text = BlifWriter().to_string(renamed, "m");
  EXPECT_NE(text.find("result"), std::string::npos);
  const auto again = BlifReader().read_string(text);
  EXPECT_EQ(again.circuit.outputs[0].first, "result");
  EXPECT_TRUE(eval_comb(again.circuit, {true, true}).at(0));
}

// ---- Round-trip fingerprints -----------------------------------------------

void expect_roundtrip_identical(const BlifCircuit& parsed,
                                const std::string& label) {
  const std::string emitted = BlifWriter().to_string(parsed.circuit,
                                                     parsed.name);
  const auto again = BlifReader().read_string(emitted, "roundtrip.blif");
  EXPECT_EQ(store::fingerprint_circuit(parsed.circuit),
            store::fingerprint_circuit(again.circuit))
      << label << ": round-trip changed the structural fingerprint.\n"
      << emitted;
  EXPECT_EQ(again.name, parsed.name) << label;
}

TEST(BlifRoundTripTest, BundledCircuitsRoundTripToIdenticalFingerprints) {
  const std::string dir = SIMCOV_CIRCUITS_DIR;
  for (const char* name :
       {"count3.blif", "tlc.blif", "shift4.blif", "updown2.blif"}) {
    const auto parsed = BlifReader().read_file(dir + "/" + name);
    expect_roundtrip_identical(parsed, name);
  }
}

/// Randomized canonical-corpus netlist: declared signals only, covers in
/// dependency order, random shapes (canonical, generic ON/OFF, constants,
/// buffers), random latches and outputs.
std::string random_netlist(std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::string text = ".model rand\n.inputs";
  const std::size_t num_pi = 1 + pick(4);
  std::vector<std::string> driven;
  for (std::size_t k = 0; k < num_pi; ++k) {
    driven.push_back("p" + std::to_string(k));
    text += " " + driven.back();
  }
  text += "\n";
  const std::size_t num_latch = pick(4);
  for (std::size_t j = 0; j < num_latch; ++j) {
    driven.push_back("q" + std::to_string(j));
  }
  const std::size_t num_gates = 3 + pick(12);
  for (std::size_t g = 0; g < num_gates; ++g) {
    const std::string out = "g" + std::to_string(g);
    const std::size_t arity = pick(4);  // 0..3 inputs
    text += ".names";
    for (std::size_t k = 0; k < arity; ++k) {
      text += " " + driven[pick(driven.size())];
    }
    text += " " + out + "\n";
    const std::size_t rows = arity == 0 ? pick(2) : 1 + pick(3);
    const char plane = pick(4) == 0 ? '0' : '1';  // occasional OFF-set
    for (std::size_t r = 0; r < rows; ++r) {
      std::string row;
      for (std::size_t k = 0; k < arity; ++k) {
        row += "01-"[pick(3)];
      }
      if (arity == 0) {
        text += std::string(1, plane) + "\n";
      } else {
        text += row + " " + plane + "\n";
      }
    }
    driven.push_back(out);
  }
  // Latch inputs may be any driven signal, including other latches.
  for (std::size_t j = 0; j < num_latch; ++j) {
    text += ".latch " + driven[pick(driven.size())] + " q" +
            std::to_string(j) + " " + (pick(2) == 0 ? "0" : "1") + "\n";
  }
  std::set<std::string> outs;
  const std::size_t num_outputs = 1 + pick(3);
  for (std::size_t o = 0; o < num_outputs; ++o) {
    outs.insert(driven[pick(driven.size())]);
  }
  text += ".outputs";
  for (const auto& o : outs) text += " " + o;
  text += "\n.end\n";
  return text;
}

TEST(BlifRoundTripTest, RandomizedCorpusRoundTripsToIdenticalFingerprints) {
  std::mt19937_64 rng(0xb11fu);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string text = random_netlist(rng);
    const auto parsed = BlifReader().read_string(text, "rand.blif");
    expect_roundtrip_identical(parsed,
                               "trial " + std::to_string(trial) + ":\n" +
                                   text);
  }
}

TEST(BlifRoundTripTest, EditedNetlistChangesTheFingerprint) {
  const std::string base =
      ".inputs a b\n.outputs y q\n.latch y q 0\n.names a b y\n11 1\n.end\n";
  const auto fp = [&](const std::string& text) {
    return store::fingerprint_circuit(
        BlifReader().read_string(text).circuit);
  };
  // Gate change, latch-init change, output change: all must move the key.
  EXPECT_NE(fp(base),
            fp(".inputs a b\n.outputs y q\n.latch y q 0\n"
               ".names a b y\n1- 1\n-1 1\n.end\n"));
  EXPECT_NE(fp(base),
            fp(".inputs a b\n.outputs y q\n.latch y q 1\n"
               ".names a b y\n11 1\n.end\n"));
  EXPECT_NE(fp(base), fp(".inputs a b\n.outputs y\n.latch y q 0\n"
                         ".names a b y\n11 1\n.end\n"));
}

}  // namespace
}  // namespace simcov::io
