// Symbolic (BDD-based) finite state machines over latch netlists.
//
// This is the implicit state-space machinery of Section 2/7.2: the test
// model's transition relation is represented as a BDD, reachable states are
// computed by an image-computation fixpoint [Touati+90], and the counts the
// paper reports (valid input combinations, reachable states, transitions)
// are satisfying-assignment counts of the corresponding BDDs.
//
// Initial variable order: primary inputs first (they are quantified
// innermost-first during image computation), then present/next-state
// variables interleaved. This is only the order variables are *created* in;
// dynamic reordering (BddManager sifting) may move levels afterwards. All
// code here addresses variables by their stable ids (ps_var/ns_var/pi_var),
// which reordering never changes, so the FSM is reorder-safe by
// construction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "fsm/mealy.hpp"
#include "sym/logic_network.hpp"

namespace simcov::sym {

/// A sequential circuit: a combinational network plus latches.
/// Every network input must be either a latch's current-state signal or a
/// declared primary input.
struct SequentialCircuit {
  struct Latch {
    SignalId current;  ///< network input signal carrying the latch value
    SignalId next;     ///< network signal computing the next value
    bool init = false; ///< reset value
    std::string name;
  };

  LogicNetwork net;
  std::vector<Latch> latches;
  std::vector<SignalId> primary_inputs;
  std::vector<std::pair<std::string, SignalId>> outputs;
  /// Input-constraint signal over latches + primary inputs; combinations
  /// where it evaluates 0 are invalid (the paper's input don't-cares).
  /// Default: none (all combinations valid).
  std::optional<SignalId> valid;
};

/// Where one network input of a SequentialCircuit is driven from: latch
/// `index` (its current-state signal) or primary input `index`.
struct InputSource {
  bool is_latch = false;
  std::uint32_t index = 0;
};

/// The source of every network input, in network-input order. Throws
/// std::invalid_argument when a signal is both a latch and a primary input,
/// or a network input is neither (the SequentialCircuit contract).
[[nodiscard]] std::vector<InputSource> input_sources(
    const SequentialCircuit& circuit);

struct SymbolicFsmStats {
  unsigned num_latches = 0;
  unsigned num_primary_inputs = 0;
  unsigned num_outputs = 0;
  std::size_t transition_relation_nodes = 0;
  unsigned reachability_iterations = 0;
  double reachable_states = 0.0;
  double transitions = 0.0;              ///< valid (state, input) pairs from reachable states
  double valid_input_combinations = 0.0; ///< over primary inputs, any state
};

/// BDD-backed view of a SequentialCircuit.
class SymbolicFsm {
 public:
  SymbolicFsm(bdd::BddManager& mgr, const SequentialCircuit& circuit);

  [[nodiscard]] unsigned num_latches() const {
    return static_cast<unsigned>(ps_vars_.size());
  }
  [[nodiscard]] unsigned num_inputs() const {
    return static_cast<unsigned>(pi_vars_.size());
  }

  /// T(ps, pi, ns) = valid(ps, pi) ∧ ∧_j (ns_j ↔ f_j(ps, pi)).
  [[nodiscard]] const bdd::Bdd& transition_relation() const { return tr_; }
  /// Characteristic function of the reset state (over present-state vars).
  [[nodiscard]] const bdd::Bdd& initial_states() const { return init_; }
  /// Constraint over (ps, pi); one() when the circuit declares none.
  [[nodiscard]] const bdd::Bdd& valid_inputs() const { return valid_; }
  /// Output functions over (ps, pi), in declaration order.
  [[nodiscard]] const std::vector<bdd::Bdd>& output_functions() const {
    return out_funcs_;
  }

  /// Image: states reachable in one step from `states` (over ps vars).
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& states);
  /// Pre-image: states with a valid transition into `states` (over ps vars).
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& states);
  /// Least fixpoint of image from the initial state. Cached after first call.
  const bdd::Bdd& reachable_states();
  [[nodiscard]] unsigned reachability_iterations() const { return iters_; }

  /// Satisfying-state count of a present-state predicate.
  [[nodiscard]] double count_states(const bdd::Bdd& states) const;
  /// Number of valid (state, input) pairs with state in `states`.
  [[nodiscard]] double count_transitions(const bdd::Bdd& states) const;
  /// Number of primary-input combinations valid in at least one state.
  [[nodiscard]] double count_valid_input_combinations();

  /// Full statistics snapshot (forces reachability).
  SymbolicFsmStats stats();

  /// A concrete execution trace: latch values per step, and the
  /// primary-input values taken between consecutive steps.
  struct Trace {
    std::vector<std::vector<bool>> states;  ///< size k+1
    std::vector<std::vector<bool>> inputs;  ///< size k
  };

  struct InvariantResult {
    bool holds = false;
    /// When violated: a shortest trace from reset to a bad state.
    std::optional<Trace> counterexample;
  };

  /// Symbolic safety check: do all reachable states satisfy `good`
  /// (a predicate over present-state variables)?
  InvariantResult check_invariant(const bdd::Bdd& good);

  [[nodiscard]] unsigned ps_var(std::size_t latch) const {
    return ps_vars_[latch];
  }
  [[nodiscard]] unsigned ns_var(std::size_t latch) const {
    return ns_vars_[latch];
  }
  [[nodiscard]] unsigned pi_var(std::size_t input) const {
    return pi_vars_[input];
  }
  [[nodiscard]] std::span<const unsigned> ps_vars() const { return ps_vars_; }
  [[nodiscard]] std::span<const unsigned> pi_vars() const { return pi_vars_; }
  [[nodiscard]] bdd::BddManager& manager() { return mgr_; }
  /// Next-state functions over (ps, pi), one per latch.
  [[nodiscard]] const std::vector<bdd::Bdd>& next_functions() const {
    return next_funcs_;
  }
  /// Reset-state latch values.
  [[nodiscard]] std::vector<bool> initial_state_bits() const;

 private:
  bdd::BddManager& mgr_;
  std::vector<unsigned> pi_vars_, ps_vars_, ns_vars_;
  bdd::Bdd tr_, init_, valid_;
  std::vector<bdd::Bdd> next_funcs_, out_funcs_;
  bdd::Bdd ps_pi_cube_, pi_cube_, ps_cube_, ns_pi_cube_;
  std::vector<int> ns_to_ps_;  // permutation for image computation
  std::vector<int> ps_to_ns_;  // permutation for pre-image computation
  bdd::Bdd reached_;
  bool reached_valid_ = false;
  unsigned iters_ = 0;
  std::vector<bool> init_bits_;
};

/// Explicit extraction of the (reachable part of the) circuit as a Mealy
/// machine. The input alphabet is the set of primary-input combinations that
/// are valid in at least one state (paper Section 7.2 counts exactly these);
/// transitions invalid in a particular state stay undefined. The output
/// symbol packs the output bits little-endian.
struct ExplicitModel {
  fsm::MealyMachine machine;
  /// Latch values of each explicit state (index = state id).
  std::vector<std::vector<bool>> state_bits;
  /// Primary-input values of each input symbol (index = input id).
  std::vector<std::vector<bool>> input_bits;
  /// True when extraction stopped at max_states before exhausting the space.
  bool truncated = false;
};

ExplicitModel extract_explicit(const SequentialCircuit& circuit,
                               std::size_t max_states);

}  // namespace simcov::sym
