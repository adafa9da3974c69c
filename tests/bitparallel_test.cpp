// Differential tests for the bit-parallel (64-lane) simulation paths.
//
// Every packed component here has a scalar twin; the contract is always
// the same — lane L of the packed run must equal the scalar run of lane L's
// inputs, bit for bit. The suites below pin that contract with randomized
// differentials (including partial final blocks of fewer than 64 lanes)
// for:
//
//   * sym::PackedLogicSim            vs the scalar gate interpreter the
//                                    library no longer has (scalar_eval.hpp)
//   * sym::PackedCircuitSim::step    vs the same interpreter, lane by lane
//   * model step_batch/output_batch  vs scalar step/output (both backends)
//   * testmodel::ControlModelSim (one lane of the same kernel) vs a
//                                    scalar control simulator kept here
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "scalar_eval.hpp"
#include "sym/packed_logic_sim.hpp"
#include "testmodel/control_sim.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov {
namespace {

// ---------------------------------------------------------------------------
// PackedLogicSim vs a scalar interpreter
// ---------------------------------------------------------------------------

/// Random gate soup: `num_gates` gates drawn over the growing signal pool,
/// so deep and wide structures both occur.
sym::LogicNetwork random_network(std::mt19937_64& rng, std::size_t num_inputs,
                                 std::size_t num_gates) {
  sym::LogicNetwork net;
  std::vector<sym::SignalId> pool;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    pool.push_back(net.add_input("in" + std::to_string(i)));
  }
  pool.push_back(net.constant(false));
  pool.push_back(net.constant(true));
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  for (std::size_t g = 0; g < num_gates; ++g) {
    sym::SignalId s = 0;
    switch (rng() % 5) {
      case 0: s = net.make_not(pick()); break;
      case 1: s = net.make_and(pick(), pick()); break;
      case 2: s = net.make_or(pick(), pick()); break;
      case 3: s = net.make_xor(pick(), pick()); break;
      default: s = net.make_mux(pick(), pick(), pick()); break;
    }
    pool.push_back(s);
  }
  return net;
}

TEST(PackedLogicSim, MatchesScalarEvalOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const auto net = random_network(rng, 3 + rng() % 8, 64 + rng() % 256);
    const sym::PackedLogicSim packed(net);

    // 64 random scalar input vectors, one per lane.
    std::vector<std::vector<bool>> lane_inputs(sym::PackedLogicSim::kLanes);
    for (auto& in : lane_inputs) {
      in.resize(net.num_inputs());
      for (std::size_t k = 0; k < in.size(); ++k) in[k] = (rng() & 1) != 0;
    }
    std::vector<std::uint64_t> input_words(net.num_inputs(), 0);
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
      for (std::size_t l = 0; l < lane_inputs.size(); ++l) {
        if (lane_inputs[l][k]) input_words[k] |= std::uint64_t{1} << l;
      }
    }

    std::vector<std::uint64_t> packed_values;
    packed.eval_into(input_words, packed_values);

    std::vector<bool> scalar_values;
    for (std::size_t l = 0; l < lane_inputs.size(); ++l) {
      scalar_eval_into(net, lane_inputs[l], scalar_values);
      for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
        ASSERT_EQ(((packed_values[s] >> l) & 1u) != 0, scalar_values[s])
            << "seed=" << seed << " lane=" << l << " signal=" << s;
      }
    }
  }
}

TEST(PackedLogicSim, LevelizationIsTopological) {
  std::mt19937_64 rng(99);
  const auto net = random_network(rng, 5, 200);
  const sym::PackedLogicSim packed(net);
  for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
    const auto g = net.gate(s);
    switch (g.op) {
      case sym::GateOp::kInput:
      case sym::GateOp::kConst:
        EXPECT_EQ(packed.level(s), 0u);
        break;
      case sym::GateOp::kNot:
        EXPECT_GT(packed.level(s), packed.level(g.a));
        break;
      case sym::GateOp::kAnd:
      case sym::GateOp::kOr:
      case sym::GateOp::kXor:
        EXPECT_GT(packed.level(s), packed.level(g.a));
        EXPECT_GT(packed.level(s), packed.level(g.b));
        break;
      case sym::GateOp::kMux:
        EXPECT_GT(packed.level(s), packed.level(g.a));
        EXPECT_GT(packed.level(s), packed.level(g.b));
        EXPECT_GT(packed.level(s), packed.level(g.c));
        break;
    }
    EXPECT_LE(packed.level(s), packed.num_levels());
  }
}

TEST(PackedLogicSim, PackLanesRoundTrips) {
  const bool lanes[]{true, false, true, true, false};
  const std::uint64_t word = sym::PackedLogicSim::pack_lanes(lanes);
  EXPECT_EQ(word, 0b01101u);
}

// ---------------------------------------------------------------------------
// PackedCircuitSim::step (word-parallel transposes) vs a per-lane reference
// ---------------------------------------------------------------------------

TEST(Transpose64, MatchesBitByBitDefinition) {
  std::mt19937_64 rng(31);
  std::array<std::uint64_t, 64> rows;
  for (auto& r : rows) r = rng();
  auto t = rows;
  sym::transpose64(t);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      ASSERT_EQ((t[c] >> r) & 1u, (rows[r] >> c) & 1u) << r << "," << c;
    }
  }
  sym::transpose64(t);
  EXPECT_EQ(t, rows);
}

/// A random sequential circuit over the gate soup of random_network, with
/// latch and primary-input signals interleaved in network-input order.
sym::SequentialCircuit random_sequential(std::mt19937_64& rng,
                                         std::size_t num_latches,
                                         std::size_t num_pis,
                                         std::size_t num_outputs,
                                         bool with_valid) {
  sym::SequentialCircuit c;
  c.net = random_network(rng, num_latches + num_pis, 300);
  const auto ins = c.net.inputs();
  std::vector<sym::SignalId> order(ins.begin(), ins.end());
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const auto pick = [&] {
    return static_cast<sym::SignalId>(rng() % c.net.num_signals());
  };
  for (std::size_t j = 0; j < num_latches; ++j) {
    c.latches.push_back({order[j], pick(), false, "q" + std::to_string(j)});
  }
  c.primary_inputs.assign(order.begin() + static_cast<long>(num_latches),
                          order.end());
  for (std::size_t o = 0; o < num_outputs; ++o) {
    c.outputs.emplace_back("o" + std::to_string(o), pick());
  }
  if (with_valid) c.valid = pick();
  return c;
}

TEST(PackedCircuitSim, StepMatchesPerLaneReference) {
  std::mt19937_64 rng(47);
  struct Shape {
    std::size_t latches, pis, outputs;
    bool valid;
  };
  for (const Shape& shape : {Shape{63, 5, 63, true}, Shape{7, 63, 3, false},
                             Shape{30, 30, 20, true}}) {
    const auto c = random_sequential(rng, shape.latches, shape.pis,
                                     shape.outputs, shape.valid);
    const auto sources = sym::input_sources(c);
    const sym::PackedCircuitSim sim(c);
    for (const std::size_t lanes : {1, 37, 64}) {
      for (const bool with_outputs : {false, true}) {
        SCOPED_TRACE(testing::Message() << shape.latches << " latches, "
                                        << lanes << " lanes, outputs "
                                        << with_outputs);
        // Full 64-bit keys: bits past the latch/input count are ignored.
        std::vector<std::uint64_t> states(lanes), inputs(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
          states[l] = rng();
          inputs[l] = rng();
        }
        std::vector<std::uint64_t> next(lanes), outputs;
        if (with_outputs) outputs.resize(lanes);
        const std::uint64_t valid = sim.step(states, inputs, next, outputs);
        for (std::size_t l = 0; l < lanes; ++l) {
          std::vector<bool> in(sources.size());
          for (std::size_t k = 0; k < sources.size(); ++k) {
            const std::uint64_t key =
                sources[k].is_latch ? states[l] : inputs[l];
            in[k] = ((key >> sources[k].index) & 1u) != 0;
          }
          std::vector<bool> val;
          scalar_eval_into(c.net, in, val);
          const bool lane_valid = !c.valid.has_value() || val[*c.valid];
          ASSERT_EQ(((valid >> l) & 1u) != 0, lane_valid) << "lane " << l;
          if (!lane_valid) continue;
          std::uint64_t want_next = 0;
          for (std::size_t j = 0; j < c.latches.size(); ++j) {
            want_next |= std::uint64_t{val[c.latches[j].next]} << j;
          }
          ASSERT_EQ(next[l], want_next) << "lane " << l;
          if (!with_outputs) continue;
          std::uint64_t want_out = 0;
          for (std::size_t j = 0; j < c.outputs.size(); ++j) {
            want_out |= std::uint64_t{val[c.outputs[j].second]} << j;
          }
          ASSERT_EQ(outputs[l], want_out) << "lane " << l;
        }
        if (lanes == 64) {
          EXPECT_NE(valid, 0u);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch model stepping vs scalar step/output
// ---------------------------------------------------------------------------

testmodel::TestModelOptions tiny_model_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

/// Random (state, input) key pairs covering valid and invalid
/// combinations, deliberately NOT a multiple of 64 so the final packed
/// block is partial.
void random_keys(std::mt19937_64& rng, unsigned state_bits,
                 unsigned input_bits, std::size_t count,
                 std::vector<std::uint64_t>& states,
                 std::vector<std::uint64_t>& inputs) {
  const std::uint64_t smask = (std::uint64_t{1} << state_bits) - 1;
  const std::uint64_t imask = (std::uint64_t{1} << input_bits) - 1;
  states.resize(count);
  inputs.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    states[i] = rng() & smask;
    inputs[i] = rng() & imask;
  }
}

void expect_batch_matches_scalar(model::TestModel& model, std::size_t count,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> states, inputs;
  random_keys(rng, model.state_bits(), model.input_bits(), count, states,
              inputs);

  std::vector<std::optional<std::uint64_t>> next(count), out(count);
  model.step_batch(states, inputs, next);
  model.output_batch(states, inputs, out);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(next[i], model.step(states[i], inputs[i])) << "pair " << i;
    ASSERT_EQ(out[i], model.output(states[i], inputs[i])) << "pair " << i;
  }
}

TEST(BatchStepping, SymbolicModelMatchesScalarIncludingPartialBlock) {
  const auto built = testmodel::build_dlx_control_model(tiny_model_options());
  model::SymbolicModel model(built.circuit);
  // 3 full blocks plus a 21-lane partial one.
  expect_batch_matches_scalar(model, 3 * 64 + 21, 11);
}

TEST(BatchStepping, SymbolicModelHandlesTinySpans) {
  const auto built = testmodel::build_dlx_control_model(tiny_model_options());
  model::SymbolicModel model(built.circuit);
  expect_batch_matches_scalar(model, 1, 12);
  expect_batch_matches_scalar(model, 63, 13);
}

TEST(BatchStepping, ExplicitModelMatchesScalar) {
  const auto m = fsm::random_connected_machine(24, 3, 4, 17);
  model::ExplicitModel model(m, 0);
  expect_batch_matches_scalar(model, 150, 18);
}

TEST(BatchStepping, MismatchedSpansThrow) {
  const auto m = fsm::random_connected_machine(8, 2, 2, 5);
  model::ExplicitModel model(m, 0);
  std::vector<std::uint64_t> states(4, 0), inputs(3, 0);
  std::vector<std::optional<std::uint64_t>> next(4);
  EXPECT_THROW(model.step_batch(states, inputs, next), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ControlModelSim vs a scalar control simulator
// ---------------------------------------------------------------------------

/// The scalar loop ControlModelSim ran before it moved onto the word-level
/// kernel: network inputs filled into a std::vector<bool> from the shared
/// InputRole table, then one scalar_eval_into per cycle.
class ScalarControlSim {
 public:
  explicit ScalarControlSim(const testmodel::BuiltTestModel& model)
      : model_(&model), roles_(testmodel::classify_network_inputs(model)) {
    for (const auto& latch : model.circuit.latches) {
      latches_.push_back(latch.init);
    }
    outputs_.assign(model.circuit.outputs.size(), false);
  }

  bool input_valid(const testmodel::ControlInput& in) {
    evaluate(in);
    const auto& valid = model_->circuit.valid;
    return !valid.has_value() || values_[*valid];
  }

  /// One cycle; the caller has checked input_valid(in).
  void step(const testmodel::ControlInput& in) {
    evaluate(in);
    const auto& c = model_->circuit;
    for (std::size_t k = 0; k < c.outputs.size(); ++k) {
      outputs_[k] = values_[c.outputs[k].second];
    }
    for (std::size_t j = 0; j < latches_.size(); ++j) {
      latches_[j] = values_[c.latches[j].next];
    }
  }

  [[nodiscard]] const std::vector<bool>& latches() const { return latches_; }
  [[nodiscard]] bool out_at(std::size_t k) const { return outputs_[k]; }

 private:
  void evaluate(const testmodel::ControlInput& in) {
    std::vector<bool> net_in(roles_.size());
    for (std::size_t k = 0; k < roles_.size(); ++k) {
      const auto& role = roles_[k];
      net_in[k] = role.is_latch
                      ? static_cast<bool>(latches_[role.latch_index])
                      : testmodel::role_pi_value(
                            role, in, model_->options.onehot_opclass);
    }
    scalar_eval_into(model_->circuit.net, net_in, values_);
  }

  const testmodel::BuiltTestModel* model_;
  std::vector<testmodel::InputRole> roles_;
  std::vector<bool> latches_, outputs_, values_;
};

testmodel::ControlInput random_control_input(std::mt19937_64& rng,
                                             unsigned reg_addr_bits) {
  static constexpr dlx::OpClass kClasses[] = {
      dlx::OpClass::kNop,  dlx::OpClass::kAlu,    dlx::OpClass::kAluImm,
      dlx::OpClass::kLoad, dlx::OpClass::kStore,  dlx::OpClass::kBranch,
  };
  testmodel::ControlInput in;
  in.cls = kClasses[rng() % std::size(kClasses)];
  const unsigned mask = (1u << reg_addr_bits) - 1;
  in.rs1 = static_cast<unsigned>(rng()) & mask;
  in.rs2 = static_cast<unsigned>(rng()) & mask;
  in.rd = static_cast<unsigned>(rng()) & mask;
  in.branch_outcome = (rng() & 1) != 0;
  in.instr_valid = true;
  return in;
}

TEST(PackedControlSim, MatchesScalarControlSimLaneForLane) {
  const auto opt = tiny_model_options();
  const auto built = testmodel::build_dlx_control_model(opt);
  constexpr std::size_t kTestLanes = 37;  // independent random walks
  constexpr std::size_t kSteps = 40;

  std::vector<ScalarControlSim> scalars;
  std::vector<testmodel::ControlModelSim> one_lane;
  scalars.reserve(kTestLanes);
  one_lane.reserve(kTestLanes);
  for (std::size_t l = 0; l < kTestLanes; ++l) {
    scalars.emplace_back(built);
    one_lane.emplace_back(built);
  }

  std::mt19937_64 rng(23);
  std::vector<testmodel::ControlInput> lane_inputs(kTestLanes);
  for (std::size_t step = 0; step < kSteps; ++step) {
    for (std::size_t l = 0; l < kTestLanes; ++l) {
      // Draw until valid for this lane's current state, so no simulator
      // throws and the walks stay in lockstep. Every rejected draw must be
      // rejected by ControlModelSim too.
      for (;;) {
        lane_inputs[l] = random_control_input(rng, opt.reg_addr_bits);
        const bool valid = scalars[l].input_valid(lane_inputs[l]);
        ASSERT_EQ(one_lane[l].input_valid(lane_inputs[l]), valid)
            << "step=" << step << " lane=" << l;
        if (valid) break;
      }
    }
    for (std::size_t l = 0; l < kTestLanes; ++l) {
      scalars[l].step(lane_inputs[l]);
      one_lane[l].step_fast(lane_inputs[l]);
      ASSERT_EQ(one_lane[l].latch_values(), scalars[l].latches())
          << "step=" << step << " lane=" << l;
    }
  }
  // Outputs agree with the scalar sims' last outputs, by index.
  const std::size_t num_outputs = built.num_outputs;
  for (std::size_t k = 0; k < num_outputs; ++k) {
    for (std::size_t l = 0; l < kTestLanes; ++l) {
      ASSERT_EQ(one_lane[l].out_at(k), scalars[l].out_at(k))
          << "lane=" << l << " output=" << k;
    }
  }
}

}  // namespace
}  // namespace simcov
