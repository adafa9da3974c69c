#include "sym/symbolic_fsm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "runtime/rng.hpp"
#include "sym/packed_logic_sim.hpp"

namespace simcov::sym {

std::vector<InputSource> input_sources(const SequentialCircuit& c) {
  std::map<SignalId, InputSource> by_signal;
  for (std::size_t j = 0; j < c.latches.size(); ++j) {
    by_signal[c.latches[j].current] = {true, static_cast<std::uint32_t>(j)};
  }
  for (std::size_t k = 0; k < c.primary_inputs.size(); ++k) {
    if (by_signal.count(c.primary_inputs[k]) != 0) {
      throw std::invalid_argument(
          "SequentialCircuit: signal is both latch and primary input");
    }
    by_signal[c.primary_inputs[k]] = {false, static_cast<std::uint32_t>(k)};
  }
  std::vector<InputSource> sources;
  sources.reserve(c.net.num_inputs());
  for (const SignalId s : c.net.inputs()) {
    const auto it = by_signal.find(s);
    if (it == by_signal.end()) {
      throw std::invalid_argument(
          "SequentialCircuit: undeclared network input (neither latch nor "
          "primary input)");
    }
    sources.push_back(it->second);
  }
  return sources;
}

SymbolicFsm::SymbolicFsm(bdd::BddManager& mgr, const SequentialCircuit& c)
    : mgr_(mgr) {
  const auto sources = input_sources(c);
  const std::size_t num_pi = c.primary_inputs.size();
  const std::size_t num_latch = c.latches.size();

  // Initial variable order: PIs first, then ps/ns interleaved per latch.
  // These are stable var ids — sifting may later move their levels, but the
  // ids recorded here stay valid for the life of the manager.
  pi_vars_.resize(num_pi);
  for (std::size_t k = 0; k < num_pi; ++k) pi_vars_[k] = static_cast<unsigned>(k);
  ps_vars_.resize(num_latch);
  ns_vars_.resize(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) {
    ps_vars_[j] = static_cast<unsigned>(num_pi + 2 * j);
    ns_vars_[j] = static_cast<unsigned>(num_pi + 2 * j + 1);
  }

  // Symbolic inputs for the network.
  std::vector<bdd::Bdd> input_funcs;
  input_funcs.reserve(sources.size());
  for (const auto& [is_latch, index] : sources) {
    input_funcs.push_back(
        mgr_.var(is_latch ? ps_vars_[index] : pi_vars_[index]));
  }
  const std::vector<bdd::Bdd> sig = c.net.eval_bdd(mgr_, input_funcs);

  valid_ = c.valid.has_value() ? sig[*c.valid] : mgr_.one();

  next_funcs_.reserve(num_latch);
  for (const auto& latch : c.latches) next_funcs_.push_back(sig[latch.next]);
  out_funcs_.reserve(c.outputs.size());
  for (const auto& [name, s] : c.outputs) out_funcs_.push_back(sig[s]);

  // Transition relation.
  tr_ = valid_;
  for (std::size_t j = 0; j < num_latch; ++j) {
    tr_ &= mgr_.var(ns_vars_[j]).iff(next_funcs_[j]);
  }

  // Initial state.
  init_bits_.resize(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) {
    init_bits_[j] = c.latches[j].init;
  }
  init_ = mgr_.minterm(ps_vars_, init_bits_);

  // Quantification cubes and the ns -> ps renaming.
  std::vector<unsigned> ps_pi(ps_vars_);
  ps_pi.insert(ps_pi.end(), pi_vars_.begin(), pi_vars_.end());
  ps_pi_cube_ = mgr_.cube(ps_pi);
  pi_cube_ = mgr_.cube(pi_vars_);
  ps_cube_ = mgr_.cube(ps_vars_);
  std::vector<unsigned> ns_pi(ns_vars_);
  ns_pi.insert(ns_pi.end(), pi_vars_.begin(), pi_vars_.end());
  ns_pi_cube_ = mgr_.cube(ns_pi);
  const unsigned max_var = static_cast<unsigned>(num_pi + 2 * num_latch);
  ns_to_ps_.assign(max_var, -1);
  ps_to_ns_.assign(max_var, -1);
  for (unsigned v = 0; v < max_var; ++v) {
    ns_to_ps_[v] = static_cast<int>(v);
    ps_to_ns_[v] = static_cast<int>(v);
  }
  for (std::size_t j = 0; j < num_latch; ++j) {
    ns_to_ps_[ns_vars_[j]] = static_cast<int>(ps_vars_[j]);
    ps_to_ns_[ps_vars_[j]] = static_cast<int>(ns_vars_[j]);
  }
}

std::vector<bool> SymbolicFsm::initial_state_bits() const {
  return init_bits_;
}

bdd::Bdd SymbolicFsm::image(const bdd::Bdd& states) {
  const bdd::Bdd next = mgr_.and_exists(tr_, states, ps_pi_cube_);
  return mgr_.permute(next, ns_to_ps_);
}

bdd::Bdd SymbolicFsm::preimage(const bdd::Bdd& states) {
  const bdd::Bdd over_ns = mgr_.permute(states, ps_to_ns_);
  return mgr_.and_exists(tr_, over_ns, ns_pi_cube_);
}

const bdd::Bdd& SymbolicFsm::reachable_states() {
  if (reached_valid_) return reached_;
  bdd::Bdd reached = init_;
  bdd::Bdd frontier = init_;
  iters_ = 0;
  while (!frontier.is_zero()) {
    ++iters_;
    const bdd::Bdd next = image(frontier);
    frontier = next & !reached;
    reached |= next;
  }
  reached_ = reached;
  reached_valid_ = true;
  return reached_;
}

double SymbolicFsm::count_states(const bdd::Bdd& states) const {
  // States live on ps vars; PI vars may appear below them in the order but
  // are absent from state predicates, so count over latch count only.
  // sat_count over all vars then divide by the share of non-ps vars:
  // simpler: count minterms over the ps variables only.
  // sat_count(f, num_vars) counts over "num_vars" total variables assuming
  // f's support is within them; our ps vars are not a prefix, so normalize:
  // count over ALL variables then divide by 2^(#non-ps).
  const unsigned total = static_cast<unsigned>(pi_vars_.size()) +
                         2 * static_cast<unsigned>(ps_vars_.size());
  const double all = mgr_.sat_count(states, total);
  const double non_ps = static_cast<double>(total - ps_vars_.size());
  return all / std::exp2(non_ps);
}

double SymbolicFsm::count_transitions(const bdd::Bdd& states) const {
  const bdd::Bdd pairs = mgr_.apply_and(states, valid_);
  const unsigned total = static_cast<unsigned>(pi_vars_.size()) +
                         2 * static_cast<unsigned>(ps_vars_.size());
  const double all = mgr_.sat_count(pairs, total);
  // Support is within ps ∪ pi; divide away the ns share.
  return all / std::exp2(static_cast<double>(ps_vars_.size()));
}

double SymbolicFsm::count_valid_input_combinations() {
  const bdd::Bdd over_pi = mgr_.exists(valid_, ps_cube_);
  const unsigned total = static_cast<unsigned>(pi_vars_.size()) +
                         2 * static_cast<unsigned>(ps_vars_.size());
  const double all = mgr_.sat_count(over_pi, total);
  return all / std::exp2(static_cast<double>(2 * ps_vars_.size()));
}

SymbolicFsmStats SymbolicFsm::stats() {
  SymbolicFsmStats s;
  s.num_latches = num_latches();
  s.num_primary_inputs = num_inputs();
  s.num_outputs = static_cast<unsigned>(out_funcs_.size());
  s.transition_relation_nodes = mgr_.node_count(tr_);
  const bdd::Bdd& reached = reachable_states();
  s.reachability_iterations = iters_;
  s.reachable_states = count_states(reached);
  s.transitions = count_transitions(reached);
  s.valid_input_combinations = count_valid_input_combinations();
  return s;
}

SymbolicFsm::InvariantResult SymbolicFsm::check_invariant(
    const bdd::Bdd& good) {
  InvariantResult result;
  const bdd::Bdd bad = !good;

  // Layered forward search so counterexamples are shortest.
  std::vector<bdd::Bdd> layers{init_};
  bdd::Bdd reached = init_;
  std::size_t bad_layer = 0;
  bool violated = mgr_.intersects(init_, bad);
  while (!violated) {
    const bdd::Bdd next = image(layers.back());
    const bdd::Bdd frontier = next & !reached;
    if (frontier.is_zero()) {
      result.holds = true;
      return result;  // fixpoint: every reachable state is good
    }
    reached |= frontier;
    layers.push_back(frontier);
    if (mgr_.intersects(frontier, bad)) {
      violated = true;
      bad_layer = layers.size() - 1;
    }
  }

  // Walk the layers backwards picking one concrete state per step.
  Trace trace;
  trace.states.resize(bad_layer + 1);
  trace.inputs.resize(bad_layer);
  bdd::Bdd at = layers[bad_layer] & bad;
  auto pick_state = [&](const bdd::Bdd& set) {
    return *mgr_.pick_minterm(set, ps_vars_);
  };
  trace.states[bad_layer] = pick_state(at);
  for (std::size_t k = bad_layer; k-- > 0;) {
    const bdd::Bdd succ =
        mgr_.minterm(ps_vars_, trace.states[k + 1]);
    const bdd::Bdd pred = preimage(succ) & layers[k];
    trace.states[k] = pick_state(pred);
    // The input taken: any PI assignment consistent with this step.
    const bdd::Bdd step = tr_ & mgr_.minterm(ps_vars_, trace.states[k]) &
                          mgr_.permute(succ, ps_to_ns_);
    trace.inputs[k] = *mgr_.pick_minterm(step, pi_vars_);
  }
  result.counterexample = std::move(trace);
  return result;
}

// ---------------------------------------------------------------------------
// Explicit extraction
// ---------------------------------------------------------------------------

ExplicitModel extract_explicit(const SequentialCircuit& c,
                               std::size_t max_states) {
  const auto sources = input_sources(c);
  const std::size_t num_pi = c.primary_inputs.size();
  const std::size_t num_latch = c.latches.size();
  if (num_pi > 24) {
    throw std::invalid_argument(
        "extract_explicit: too many primary inputs for explicit enumeration");
  }
  if (c.outputs.size() > 31) {
    throw std::invalid_argument(
        "extract_explicit: too many outputs to pack into an OutputId");
  }

  // Pass 1 (symbolic): the global valid input alphabet = PI combinations
  // valid in at least one state.
  ExplicitModel model;
  {
    bdd::BddManager mgr;
    SymbolicFsm sym(mgr, c);
    std::vector<unsigned> pi_vars(num_pi);
    for (std::size_t k = 0; k < num_pi; ++k) pi_vars[k] = sym.pi_var(k);
    std::vector<unsigned> ps_vars(num_latch);
    for (std::size_t j = 0; j < num_latch; ++j) ps_vars[j] = sym.ps_var(j);
    const bdd::Bdd over_pi = mgr.exists(sym.valid_inputs(), mgr.cube(ps_vars));
    mgr.for_each_minterm(over_pi, pi_vars, [&](const std::vector<bool>& v) {
      model.input_bits.push_back(v);
      return true;
    });
  }
  const std::size_t num_symbols = model.input_bits.size();

  // Pass 2 (concrete, word-level): BFS over latch-value vectors. One kernel
  // pass evaluates a state against a block of up to 64 alphabet symbols,
  // one per lane: a latch's word is its state bit broadcast to every lane,
  // a primary input's word holds its bit of each symbol of the block.
  constexpr std::size_t kLanes = PackedLogicSim::kLanes;
  const std::size_t num_blocks = (num_symbols + kLanes - 1) / kLanes;
  std::vector<std::uint64_t> pi_words(num_blocks * num_pi, 0);
  for (std::size_t sym_id = 0; sym_id < num_symbols; ++sym_id) {
    for (std::size_t k = 0; k < num_pi; ++k) {
      pi_words[sym_id / kLanes * num_pi + k] |=
          std::uint64_t{model.input_bits[sym_id][k]} << (sym_id % kLanes);
    }
  }
  const PackedLogicSim sim(c.net);
  std::vector<std::uint64_t> values;
  sim.prepare(values);

  // States are indexed by their latch bits, packed 64 to a word, so every
  // latch count takes the same path.
  struct KeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const {
      std::uint64_t h = 0;
      for (const std::uint64_t w : key) h = runtime::splitmix64(h ^ w);
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::vector<std::uint64_t>, fsm::StateId, KeyHash>
      state_id;
  std::vector<std::uint64_t> key((num_latch + 63) / 64);
  struct PendingTransition {
    fsm::StateId from;
    fsm::InputId input;
    fsm::StateId to;
    fsm::OutputId output;
  };
  std::vector<PendingTransition> transitions;

  std::vector<bool> init(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) {
    init[j] = c.latches[j].init;
    key[j / 64] |= std::uint64_t{init[j]} << (j % 64);
  }
  state_id.emplace(key, 0);
  model.state_bits.push_back(init);

  // Ids are handed out in discovery order, so the BFS queue is simply the
  // id sequence.
  for (fsm::StateId sid = 0; sid < model.state_bits.size(); ++sid) {
    for (std::size_t k = 0; k < sources.size(); ++k) {
      if (sources[k].is_latch) {
        values[sim.input_signal(k)] =
            model.state_bits[sid][sources[k].index] ? ~std::uint64_t{0} : 0;
      }
    }
    for (std::size_t block = 0; block < num_blocks; ++block) {
      for (std::size_t k = 0; k < sources.size(); ++k) {
        if (!sources[k].is_latch) {
          values[sim.input_signal(k)] =
              pi_words[block * num_pi + sources[k].index];
        }
      }
      sim.run(values);
      const std::size_t lanes = std::min(kLanes, num_symbols - block * kLanes);
      std::uint64_t valid =
          lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
      if (c.valid.has_value()) valid &= values[*c.valid];  // invalid lanes
      for (; valid != 0; valid &= valid - 1) {
        const int lane = std::countr_zero(valid);
        const auto bit = [&](SignalId s) { return (values[s] >> lane) & 1u; };
        std::fill(key.begin(), key.end(), 0);
        for (std::size_t j = 0; j < num_latch; ++j) {
          key[j / 64] |= bit(c.latches[j].next) << (j % 64);
        }
        fsm::OutputId out = 0;
        for (std::size_t b = 0; b < c.outputs.size(); ++b) {
          out |= static_cast<fsm::OutputId>(bit(c.outputs[b].second)) << b;
        }
        const auto [it, inserted] = state_id.try_emplace(
            key, static_cast<fsm::StateId>(state_id.size()));
        if (inserted) {
          if (state_id.size() > max_states) {
            model.truncated = true;
            state_id.erase(it);
            continue;
          }
          std::vector<bool> next(num_latch);
          for (std::size_t j = 0; j < num_latch; ++j) {
            next[j] = ((key[j / 64] >> (j % 64)) & 1u) != 0;
          }
          model.state_bits.push_back(std::move(next));
        }
        transitions.push_back(
            {sid, static_cast<fsm::InputId>(block * kLanes + lane), it->second,
             out});
      }
    }
  }

  fsm::MealyMachine machine(static_cast<fsm::StateId>(model.state_bits.size()),
                            static_cast<fsm::InputId>(std::max<std::size_t>(
                                num_symbols, 1)));
  machine.set_initial_state(0);
  for (const auto& t : transitions) {
    machine.set_transition(t.from, t.input, t.to, t.output);
  }
  model.machine = std::move(machine);
  return model;
}

}  // namespace simcov::sym
