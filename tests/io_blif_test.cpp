// Tests for the BLIF reader (io::BlifReader): subset parsing,
// canonical-cover recognition, generic sum-of-products and OFF-set
// lowering semantics, the malformed-input rejection table (line-numbered
// std::invalid_argument), structural fingerprints, the round trip through
// a test-local canonical-cover printer, and a deterministic mutation fuzzer
// over the bundled circuits and a generated corpus.
#include "io/blif.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "draws.hpp"
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

// ---- Fingerprints ----------------------------------------------------------

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

// ---- Reader fuzz -----------------------------------------------------------
//
// Deterministic mutation fuzzing of the reader. Seeds are the bundled
// circuits and a generated corpus; mutants are byte flips, truncations,
// deletions, duplications and splices drawn from a counter-indexed
// splitmix64 stream. The budget is fixed, so every run (the sanitizer
// job's included) sees the same mutants.

/// Generated netlist: declared signals only, covers in dependency order,
/// random shapes (canonical, generic ON/OFF, constants, buffers), random
/// latches and outputs.
std::string random_netlist(Draws& draws) {
  auto name = [](char prefix, std::size_t k) {
    std::string n(1, prefix);
    n += std::to_string(k);
    return n;
  };
  std::string text = ".model rand\n.inputs";
  const std::size_t num_pi = 1 + draws.below(4);
  std::vector<std::string> driven;
  for (std::size_t k = 0; k < num_pi; ++k) {
    driven.push_back(name('p', k));
    text += " " + driven.back();
  }
  text += "\n";
  const std::size_t num_latch = draws.below(4);
  for (std::size_t j = 0; j < num_latch; ++j) driven.push_back(name('q', j));
  const std::size_t num_gates = 3 + draws.below(12);
  for (std::size_t g = 0; g < num_gates; ++g) {
    const std::size_t arity = draws.below(4);  // 0..3 inputs
    text += ".names";
    for (std::size_t k = 0; k < arity; ++k) {
      text += " " + driven[draws.below(driven.size())];
    }
    driven.push_back(name('g', g));
    text += " " + driven.back() + "\n";
    const std::size_t rows = arity == 0 ? draws.below(2) : 1 + draws.below(3);
    const char plane = draws.below(4) == 0 ? '0' : '1';  // occasional OFF-set
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = 0; k < arity; ++k) text += "01-"[draws.below(3)];
      if (arity != 0) text += ' ';
      text += plane;
      text += '\n';
    }
  }
  // Latch inputs may be any driven signal, including other latches.
  for (std::size_t j = 0; j < num_latch; ++j) {
    text += ".latch " + driven[draws.below(driven.size())] + " " +
            name('q', j) + (draws.below(2) == 0 ? " 0\n" : " 1\n");
  }
  std::set<std::string> outs;
  for (std::size_t o = 1 + draws.below(3); o > 0; --o) {
    outs.insert(driven[draws.below(driven.size())]);
  }
  text += ".outputs";
  for (const auto& o : outs) text += " " + o;
  text += "\n.end\n";
  return text;
}

/// The bundled circuits (in file-name order), then 16 generated netlists.
std::vector<std::string> seed_corpus() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SIMCOV_CIRCUITS_DIR)) {
    if (entry.path().extension() == ".blif") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> corpus;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  Draws draws(0xb11fu);
  for (int k = 0; k < 16; ++k) corpus.push_back(random_netlist(draws));
  return corpus;
}

// ---- Round trip through canonical covers -----------------------------------
//
// The library emits no netlists; this test-local printer spells a lowered
// circuit back out as the canonical covers the reader maps to single gates.
// Re-reading that text must give the same structural fingerprint, which
// pins the reader's canonical-cover recognition and its input ordering.

/// Canonical BLIF for a reader-produced circuit. Primary inputs and latches
/// keep their names, other signals become `g<id>` (suffixed with '_' to
/// dodge output names), and an output whose name is not its driver's is a
/// buffer cover.
std::string canonical_blif(const BlifCircuit& parsed) {
  const sym::SequentialCircuit& circuit = parsed.circuit;
  const sym::LogicNetwork& net = circuit.net;
  std::set<std::string> taken;
  for (const auto& output : circuit.outputs) taken.insert(output.first);
  std::vector<std::string> names(net.num_signals());
  for (std::size_t k = 0; k < circuit.primary_inputs.size(); ++k) {
    names[net.inputs()[k]] = net.input_name(k);
  }
  for (const auto& latch : circuit.latches) names[latch.current] = latch.name;
  for (const auto& name : names) taken.insert(name);
  for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
    if (!names[s].empty()) continue;
    names[s] = "g" + std::to_string(s);
    while (!taken.insert(names[s]).second) names[s] += '_';
  }

  std::string text = parsed.name.empty() ? "" : ".model " + parsed.name + "\n";
  text += ".inputs";
  for (const sym::SignalId pi : circuit.primary_inputs) text += " " + names[pi];
  text += "\n.outputs";
  for (const auto& output : circuit.outputs) text += " " + output.first;
  text += "\n";
  for (const auto& latch : circuit.latches) {
    text += ".latch " + names[latch.next] + " " + names[latch.current] +
            (latch.init ? " 1\n" : " 0\n");
  }
  for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
    const auto g = net.gate(s);
    const std::string head = ".names ";
    switch (g.op) {
      case sym::GateOp::kInput:
        break;
      case sym::GateOp::kConst:
        text += head + names[s] + (g.a != 0 ? "\n1\n" : "\n");
        break;
      case sym::GateOp::kNot:
        text += head + names[g.a] + " " + names[s] + "\n0 1\n";
        break;
      case sym::GateOp::kAnd:
        text += head + names[g.a] + " " + names[g.b] + " " + names[s] +
                "\n11 1\n";
        break;
      case sym::GateOp::kOr:
        text += head + names[g.a] + " " + names[g.b] + " " + names[s] +
                "\n1- 1\n-1 1\n";
        break;
      case sym::GateOp::kXor:
        text += head + names[g.a] + " " + names[g.b] + " " + names[s] +
                "\n01 1\n10 1\n";
        break;
      case sym::GateOp::kMux:
        text += head + names[g.a] + " " + names[g.b] + " " + names[g.c] +
                " " + names[s] + "\n11- 1\n0-1 1\n";
        break;
    }
  }
  for (const auto& [name, signal] : circuit.outputs) {
    if (names[signal] != name) {
      text += ".names " + names[signal] + " " + name + "\n1 1\n";
    }
  }
  return text + ".end\n";
}

void expect_roundtrip_identical(const BlifCircuit& parsed,
                                const std::string& label) {
  const std::string emitted = canonical_blif(parsed);
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

TEST(BlifRoundTripTest, RandomizedCorpusRoundTripsToIdenticalFingerprints) {
  Draws draws(0xb11fu);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string text = random_netlist(draws);
    const auto parsed = BlifReader().read_string(text, "rand.blif");
    expect_roundtrip_identical(parsed,
                               "trial " + std::to_string(trial) + ":\n" +
                                   text);
  }
}

/// One mutant of corpus[seed]: one to four edits, each a bit flip, a
/// truncation, a deleted span, a duplicated span or a span spliced in from
/// another corpus text.
std::string mutate(const std::vector<std::string>& corpus, std::size_t seed,
                   Draws& draws) {
  std::string text = corpus[seed];
  for (std::size_t edits = 1 + draws.below(4); edits > 0; --edits) {
    const std::size_t at = draws.below(text.size() + 1);
    const std::size_t span = 1 + draws.below(16);
    switch (draws.below(5)) {
      case 0:
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1u << draws.below(8)));
        }
        break;
      case 1:
        text.resize(at);
        break;
      case 2:
        text.erase(at, span);
        break;
      case 3:
        text.insert(at, text.substr(draws.below(text.size() + 1), span));
        break;
      default: {
        const std::string& donor = corpus[draws.below(corpus.size())];
        text.insert(at, donor.substr(draws.below(donor.size() + 1), span));
      }
    }
  }
  return text;
}

/// Parses `text` twice; true when it parsed. A parse must give the same
/// circuit both times, and a rejection must be a std::invalid_argument
/// naming a line.
bool parse_is_deterministic(const std::string& text, const std::string& label) {
  try {
    const auto first = BlifReader().read_string(text, "fuzz.blif");
    const auto second = BlifReader().read_string(text, "fuzz.blif");
    EXPECT_EQ(store::fingerprint_circuit(first.circuit),
              store::fingerprint_circuit(second.circuit))
        << label;
    EXPECT_EQ(first.name, second.name) << label;
    return true;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
        << label << ": rejection names no line: " << e.what();
    return false;
  }
}

TEST(BlifReaderFuzz, SeedCorpusParses) {
  const auto corpus = seed_corpus();
  ASSERT_EQ(corpus.size(), 20u);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    EXPECT_TRUE(parse_is_deterministic(corpus[k], "seed " + std::to_string(k)))
        << corpus[k];
  }
}

TEST(BlifReaderFuzz, MutantsParseOrNameTheLine) {
  const auto corpus = seed_corpus();
  Draws draws(0x66757a7a);  // "fuzz"
  std::size_t parsed = 0;
  constexpr int kMutants = 4096;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(corpus, draws.below(corpus.size()), draws);
    try {
      if (parse_is_deterministic(text, "mutant " + std::to_string(i))) {
        ++parsed;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << ":\n"
                    << text;
    }
  }
  // Both outcomes are exercised: the budget is not all rejections.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<std::size_t>(kMutants));
}

}  // namespace
}  // namespace simcov::io
