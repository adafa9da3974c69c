// Fast paths vs scalar simulation throughput.
//
// Two hot loops have a fast path in this repo — a word-level (64-lane)
// simulator and a site-indexed mutant replay; this bench measures both
// against their scalar twins on synthetic models sized well past the DLX
// control netlist, and fails (non-zero exit) if either path stops
// producing bit-identical results:
//
//   1. Simulate — gate-level sequence replay. Scalar: one pass of lane 0
//      of the word-level kernel (sym::PackedLogicSim) per (sequence, step),
//      the way concretize and circuit replay run. Packed: one
//      sym::PackedCircuitSim::step per 64 sequences per step, the way the
//      symbolic walk enumerates successors and
//      SymbolicModel::transition_batch (model::replay_lockstep) steps.
//      Metric: sequences/s.
//   2. MutantReplay — Theorem 3 fault simulation. Scalar: one
//      errmodel::exposes walk per (mutant, sequence). Indexed: one
//      errmodel::MutantReplay index of the test set (built inside the
//      timed region), then one first_exposing_sequence per mutant, which
//      steps the mutant only from its mutated transition until it
//      exposes or rejoins the spec. Metric: mutant-sequences/s, counting
//      the scalar path's (mutant, sequence) walks for both.
//
// The target the CI smoke asserts: >= 8x on both loops on the largest
// synthetic model (the simulate win is typically 20-60x, the indexed
// replay's several hundred x; 8x leaves headroom for loaded runners).
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "sym/packed_logic_sim.hpp"
#include "sym/symbolic_fsm.hpp"

namespace {

using namespace simcov;

/// `prefix` followed by `n`, e.g. "q3". Built by appending: GCC 12 flags
/// the "lit" + std::string prepend with a false -Wrestrict.
std::string numbered(const char* prefix, std::size_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

/// Random synthetic sequential circuit: `num_latches` latches and
/// `num_pis` primary inputs feeding a gate soup of `num_gates` gates;
/// next-state functions are drawn from the deepest half of the soup so the
/// latch logic actually spans the network. No validity constraint — every
/// input combination steps.
sym::SequentialCircuit random_circuit(std::uint64_t seed,
                                      std::size_t num_latches,
                                      std::size_t num_pis,
                                      std::size_t num_gates) {
  std::mt19937_64 rng(seed);
  sym::SequentialCircuit circuit;
  sym::LogicNetwork& net = circuit.net;
  std::vector<sym::SignalId> pool;
  for (std::size_t j = 0; j < num_latches; ++j) {
    const auto s = net.add_input(numbered("l", j));
    pool.push_back(s);
    circuit.latches.push_back(
        sym::SequentialCircuit::Latch{s, 0, false, numbered("l", j)});
  }
  for (std::size_t k = 0; k < num_pis; ++k) {
    const auto s = net.add_input(numbered("pi", k));
    pool.push_back(s);
    circuit.primary_inputs.push_back(s);
  }
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
  for (auto& latch : circuit.latches) {
    latch.next = pool[pool.size() / 2 + rng() % (pool.size() / 2)];
  }
  return circuit;
}

struct SimulateResult {
  double scalar_seconds = 0;
  double packed_seconds = 0;
  bool identical = false;
};

/// Replays `num_seqs` random input sequences of `steps` cycles each from
/// the all-zero state, scalar then packed, and cross-checks the final
/// state keys.
SimulateResult run_simulate(const sym::SequentialCircuit& circuit,
                            std::size_t num_seqs, std::size_t steps,
                            std::uint64_t seed) {
  const sym::LogicNetwork& net = circuit.net;
  const std::size_t num_latches = circuit.latches.size();
  const std::size_t num_pis = circuit.primary_inputs.size();
  std::mt19937_64 rng(seed);
  // Pre-draw every PI key so both paths consume identical stimuli.
  std::vector<std::vector<std::uint64_t>> stimuli(num_seqs);
  const std::uint64_t pi_mask = (std::uint64_t{1} << num_pis) - 1;
  for (auto& seq : stimuli) {
    seq.resize(steps);
    for (auto& key : seq) key = rng() & pi_mask;
  }

  SimulateResult result;
  std::vector<std::uint64_t> scalar_final(num_seqs, 0);
  {
    // Scalar: one sequence per kernel pass, in lane 0. The circuit's net
    // inputs are latches then PIs, in declaration order (random_circuit
    // builds them that way).
    bench::Timer timer;
    const sym::PackedLogicSim sim(net);
    std::vector<std::uint64_t> values;
    sim.prepare(values);
    for (std::size_t q = 0; q < num_seqs; ++q) {
      std::uint64_t state = 0;
      for (const std::uint64_t key : stimuli[q]) {
        for (std::size_t j = 0; j < num_latches; ++j) {
          values[sim.input_signal(j)] = (state >> j) & 1u;
        }
        for (std::size_t k = 0; k < num_pis; ++k) {
          values[sim.input_signal(num_latches + k)] = (key >> k) & 1u;
        }
        sim.run(values);
        std::uint64_t next = 0;
        for (std::size_t j = 0; j < num_latches; ++j) {
          next |= (values[circuit.latches[j].next] & 1u) << j;
        }
        state = next;
      }
      scalar_final[q] = state;
    }
    result.scalar_seconds = timer.seconds();
  }

  std::vector<std::uint64_t> packed_final(num_seqs, 0);
  {
    bench::Timer timer;
    const sym::PackedCircuitSim packed(circuit);
    constexpr std::size_t kLanes = sym::PackedCircuitSim::kLanes;
    std::vector<std::uint64_t> states(kLanes), inputs(kLanes), next(kLanes);
    for (std::size_t base = 0; base < num_seqs; base += kLanes) {
      const std::size_t lanes = std::min(kLanes, num_seqs - base);
      for (std::size_t l = 0; l < lanes; ++l) states[l] = 0;
      for (std::size_t step = 0; step < steps; ++step) {
        for (std::size_t l = 0; l < lanes; ++l) {
          inputs[l] = stimuli[base + l][step];
        }
        packed.step(std::span(states).first(lanes),
                    std::span(inputs).first(lanes),
                    std::span(next).first(lanes));
        std::swap(states, next);
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        packed_final[base + l] = states[l];
      }
    }
    result.packed_seconds = timer.seconds();
  }
  result.identical = scalar_final == packed_final;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);

  bench::header("Simulate: packed (64-lane) vs scalar gate-level replay");
  constexpr std::size_t kSeqs = 256;
  constexpr std::size_t kSteps = 64;
  bench::row("sequences x steps",
             std::to_string(kSeqs) + " x " + std::to_string(kSteps));
  struct Size { const char* label; std::size_t gates; };
  constexpr Size kSizes[] = {
      {"small (2k gates)", 2000},
      {"medium (10k gates)", 10000},
      {"large (40k gates)", 40000},
  };
  std::printf("\n  %-20s %14s %14s %10s %10s\n", "model", "scalar seq/s",
              "packed seq/s", "speedup", "identical");
  bool all_identical = true;
  double simulate_speedup_large = 0;
  for (const auto& size : kSizes) {
    const auto circuit = random_circuit(42, 16, 12, size.gates);
    const auto r = run_simulate(circuit, kSeqs, kSteps, 7);
    const double speedup = r.scalar_seconds / r.packed_seconds;
    simulate_speedup_large = speedup;  // last row is the largest model
    all_identical = all_identical && r.identical;
    std::printf("  %-20s %14.0f %14.0f %9.1fx %10s\n", size.label,
                kSeqs / r.scalar_seconds, kSeqs / r.packed_seconds, speedup,
                r.identical ? "yes" : "NO");
  }
  bench::row("speedup on largest model", simulate_speedup_large);

  bench::header("MutantReplay: site-indexed replay vs scalar walks");
  // Indexed replay pays off when reaching a mutation site takes many
  // sequences — on a large state space most (mutant, sequence) walks never
  // excite the mutant, and the index skips them without a step. 1024
  // states x 8 inputs puts the workload in that regime (the DLX control
  // model is in the hundreds-to-thousands of states).
  const auto m = fsm::random_connected_machine(1024, 8, 5, 11);
  // A transition-tour-style test set: many reset-separated random walks
  // (the machine is complete, so every walk is fully defined).
  std::vector<std::vector<fsm::InputId>> sequences(64);
  {
    std::mt19937_64 seq_rng(3);
    for (auto& seq : sequences) {
      seq.resize(160);
      for (auto& in : seq) {
        in = static_cast<fsm::InputId>(seq_rng() % m.num_inputs());
      }
    }
  }
  const auto mutants = errmodel::sample_mutations(
      m, 0, m.output_alphabet_size(), 2048, 13);
  bench::row("model states",
             static_cast<std::size_t>(m.num_states()));
  bench::row("test sequences", sequences.size());
  bench::row("mutants", mutants.size());

  // Scalar reference: first exposing sequence per mutant (0 = unexposed).
  std::vector<std::uint64_t> scalar_verdicts(mutants.size(), 0);
  std::size_t replays = 0;  // (mutant, sequence) walks — same for both paths
  bench::Timer scalar_timer;
  for (std::size_t k = 0; k < mutants.size(); ++k) {
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      ++replays;
      if (errmodel::exposes(m, mutants[k], 0, sequences[s])) {
        scalar_verdicts[k] = s + 1;
        break;
      }
    }
  }
  const double mr_scalar_seconds = scalar_timer.seconds();

  std::vector<std::uint64_t> indexed_verdicts(mutants.size(), 0);
  bench::Timer indexed_timer;
  const errmodel::MutantReplay replay(m, 0, sequences);
  for (std::size_t k = 0; k < mutants.size(); ++k) {
    const auto v = replay.first_exposing_sequence(mutants[k]);
    if (v.sequence.has_value()) indexed_verdicts[k] = *v.sequence + 1;
  }
  const double mr_indexed_seconds = indexed_timer.seconds();

  const bool mr_identical = indexed_verdicts == scalar_verdicts;
  all_identical = all_identical && mr_identical;
  const double mr_speedup = mr_scalar_seconds / mr_indexed_seconds;
  std::printf("\n  %-20s %18s %18s %10s\n", "", "mutant-seq/s", "seconds",
              "identical");
  std::printf("  %-20s %18.0f %18.3f %10s\n", "scalar",
              replays / mr_scalar_seconds, mr_scalar_seconds, "reference");
  std::printf("  %-20s %18.0f %18.3f %10s\n", "indexed",
              replays / mr_indexed_seconds, mr_indexed_seconds,
              mr_identical ? "yes" : "NO");
  bench::row("mutant replay speedup", mr_speedup);

  bench::header("Verdict");
  const bool meets_target =
      simulate_speedup_large >= 8.0 && mr_speedup >= 8.0;
  bench::row("fast-path results identical to scalar",
             all_identical ? "yes" : "NO");
  bench::row("meets 8x target on both loops", meets_target ? "yes" : "NO");
  return bench::finish(all_identical && meets_target ? 0 : 1);
}
