// Reduced Ordered Binary Decision Diagram (ROBDD) package.
//
// This is the implicit-representation substrate used throughout simcov for
// symbolic FSM traversal (transition relations, image computation, reachable
// state counting), in the style of the BDD engines inside SIS/VIS that the
// paper uses for its test-model traversal [Bryant86, Touati+90].
//
// Design notes:
//  * Nodes are hash-consed in a unique table, so structural equality of
//    functions is pointer (index) equality.
//  * Variable identifiers are decoupled from ordering levels: every manager
//    maintains an explicit var->level / level->var bijection. Newly created
//    variables append at the bottom of the order, so until the first reorder
//    the id sequence IS the order (variable 0 on top). Rudell-style sifting
//    (`try_reorder`, or automatic via `ReorderPolicy::kAuto`) permutes
//    levels in place; variable ids, node indices, and external handles all
//    stay valid across a reorder.
//  * `Bdd` is an RAII external handle. Externally referenced nodes (and
//    everything below them) survive mark-and-sweep garbage collection
//    (`collect_garbage`, auto-triggered on table growth); all other nodes
//    are reclaimed onto a free list.
//  * No complement edges: simpler invariants, negligible cost at the sizes
//    this library targets (tens of state bits).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace simcov::bdd {

class BddManager;

/// Index of a node inside a BddManager. 0 and 1 are the constant leaves.
using NodeIndex = std::uint32_t;

/// Dynamic variable reordering policy of a manager.
///  * kNone: the order only changes via explicit `try_reorder`/`set_order`
///    calls (default; matches the historical static-order behaviour).
///  * kAuto: public operation entry points additionally trigger sifting when
///    the live node count crosses an adaptive threshold.
enum class ReorderPolicy : std::uint8_t { kNone = 0, kAuto = 1 };

/// RAII handle to a BDD node. Copying bumps the external reference count;
/// destruction releases it. A default-constructed handle is "null" and may
/// only be assigned to or destroyed.
class Bdd {
 public:
  Bdd() noexcept = default;
  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True when the handle refers to a node (including constants).
  [[nodiscard]] bool valid() const noexcept { return mgr_ != nullptr; }
  [[nodiscard]] BddManager* manager() const noexcept { return mgr_; }
  [[nodiscard]] NodeIndex index() const noexcept { return idx_; }

  [[nodiscard]] bool is_zero() const noexcept { return valid() && idx_ == 0; }
  [[nodiscard]] bool is_one() const noexcept { return valid() && idx_ == 1; }
  [[nodiscard]] bool is_constant() const noexcept {
    return valid() && idx_ <= 1;
  }

  /// Variable id of the root node (the topmost-ordered variable in the
  /// function's support). Precondition: non-constant node.
  [[nodiscard]] unsigned top_var() const;
  /// Negative/positive cofactor children. Precondition: non-constant node.
  [[nodiscard]] Bdd low() const;
  [[nodiscard]] Bdd high() const;

  /// Canonicity makes structural equality function equality.
  friend bool operator==(const Bdd& a, const Bdd& b) noexcept {
    return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
  }

  // Logical operators (convenience wrappers over BddManager ops).
  [[nodiscard]] Bdd operator!() const;
  [[nodiscard]] Bdd operator&(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator|(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator^(const Bdd& rhs) const;
  Bdd& operator&=(const Bdd& rhs);
  Bdd& operator|=(const Bdd& rhs);
  Bdd& operator^=(const Bdd& rhs);
  /// Logical implication (!this | rhs).
  [[nodiscard]] Bdd implies(const Bdd& rhs) const;
  /// Boolean equivalence (XNOR).
  [[nodiscard]] Bdd iff(const Bdd& rhs) const;

  /// Number of distinct DAG nodes reachable from this function
  /// (including the constant leaves).
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, NodeIndex idx) noexcept;

  BddManager* mgr_ = nullptr;
  NodeIndex idx_ = 0;
};

/// Statistics snapshot of a manager, for benches and regression checks.
struct BddStats {
  std::size_t allocated_nodes = 0;  ///< Slots ever allocated (incl. free).
  std::size_t live_nodes = 0;       ///< Nodes reachable from external refs.
  std::size_t free_nodes = 0;       ///< Slots currently on the free list.
  std::size_t unique_lookups = 0;
  std::size_t unique_hits = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  std::size_t gc_runs = 0;
  std::size_t reorders = 0;          ///< Completed try_reorder passes.
  std::size_t level_swaps = 0;       ///< Adjacent-level swap primitives run.
  std::size_t peak_live_nodes = 0;   ///< High-water mark of live node slots.
  std::uint64_t order_fingerprint = 0;  ///< Hash of the level->var map.
};

/// The BDD node store and operation engine.
///
/// All `Bdd` handles returned by a manager must not outlive it.
class BddManager {
 public:
  /// @param cache_bits  log2 of the operation-cache size (entries).
  explicit BddManager(unsigned cache_bits = 18);
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // ---- Constants and variables ------------------------------------------
  [[nodiscard]] Bdd zero();
  [[nodiscard]] Bdd one();
  /// The projection function of variable `var`. Creates all variables up to
  /// `var` on demand. New variables join at the bottom of the current order,
  /// so with no reorders variable ids coincide with levels (0 = top).
  [[nodiscard]] Bdd var(unsigned var_id);
  /// Literal: the variable if `positive`, else its negation.
  [[nodiscard]] Bdd literal(unsigned var_id, bool positive);
  [[nodiscard]] unsigned var_count() const noexcept { return num_vars_; }

  // ---- Core operations ---------------------------------------------------
  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  [[nodiscard]] Bdd apply_not(const Bdd& f);
  [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);

  /// Existential quantification of every variable in `cube` (a positive
  /// product of variables, as built by cube()).
  [[nodiscard]] Bdd exists(const Bdd& f, const Bdd& cube);
  /// Relational product: exists(cube, f & g) computed without building the
  /// intermediate conjunction. This is the workhorse of image computation.
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// Cofactor of f with respect to the literal (var_id, value).
  [[nodiscard]] Bdd cofactor(const Bdd& f, unsigned var_id, bool value);

  /// Coudert-Madre generalized cofactor (constrain): a function agreeing
  /// with f on the care set c, typically smaller than f. Satisfies
  /// constrain(f, c) & c == f & c. Precondition: c != 0.
  [[nodiscard]] Bdd constrain(const Bdd& f, const Bdd& c);

  /// Rename variables: `perm[v]` is the new variable for old variable `v`.
  /// `perm` must be defined (>=0) for every variable in the support of `f`;
  /// the mapping must be injective on that support.
  [[nodiscard]] Bdd permute(const Bdd& f, std::span<const int> perm);

  /// Positive cube (conjunction) of the given variables. Duplicate entries
  /// are deduplicated (the conjunction is idempotent).
  [[nodiscard]] Bdd cube(std::span<const unsigned> vars);
  /// Minterm over `vars`: conjunction of literals with the given values.
  /// Duplicate (var, value) pairs are deduplicated; conflicting values for
  /// the same variable throw std::invalid_argument.
  [[nodiscard]] Bdd minterm(std::span<const unsigned> vars,
                            const std::vector<bool>& values);

  // ---- Inspection ---------------------------------------------------------
  /// Variables in the support of f, ascending by id.
  [[nodiscard]] std::vector<unsigned> support(const Bdd& f);
  /// Number of satisfying assignments of f over `num_vars` variables.
  /// Exact for counts below 2^53; larger counts lose low-order precision.
  [[nodiscard]] double sat_count(const Bdd& f, unsigned num_vars);
  /// One satisfying assignment restricted to `vars`: the lexicographically
  /// smallest over the listed variables in list order (don't-care positions
  /// are forced to false). Independent of the current variable order.
  /// Empty optional iff f is the zero function.
  [[nodiscard]] std::optional<std::vector<bool>> pick_minterm(
      const Bdd& f, std::span<const unsigned> vars);
  /// Invoke `fn` for every satisfying assignment of f over `vars`.
  /// Stops early (returning false) once `fn` returns false.
  /// Returns true when the enumeration ran to completion.
  bool for_each_minterm(const Bdd& f, std::span<const unsigned> vars,
                        const std::function<bool(const std::vector<bool>&)>& fn);
  /// Evaluates f at a point: values_by_var[v] is the value of variable v
  /// (variables beyond the vector evaluate false). O(path length).
  [[nodiscard]] bool eval(const Bdd& f,
                          const std::vector<bool>& values_by_var) const;

  /// True iff the conjunction f & g is satisfiable (no result node built
  /// beyond the AND; convenience used by containment checks).
  [[nodiscard]] bool intersects(const Bdd& f, const Bdd& g);
  /// True iff f implies g (f & !g == 0).
  [[nodiscard]] bool leq(const Bdd& f, const Bdd& g);

  [[nodiscard]] std::size_t node_count(const Bdd& f) const;

  // ---- Memory management ---------------------------------------------------
  /// Run a mark/sweep collection now. Nodes reachable from live handles
  /// keep their indices; everything else is reclaimed.
  void collect_garbage();
  [[nodiscard]] BddStats stats() const;

  // ---- Variable ordering ---------------------------------------------------
  /// Ordering level currently assigned to `var_id` (0 = top).
  /// Throws std::out_of_range for unknown variables.
  [[nodiscard]] unsigned level_of(unsigned var_id) const {
    return var2level_.at(var_id);
  }
  /// Variable id sitting at ordering level `level`.
  [[nodiscard]] unsigned var_at_level(unsigned level) const {
    return level2var_.at(level);
  }
  /// The full level->var map, top level first.
  [[nodiscard]] std::vector<unsigned> level_order() const {
    return level2var_;
  }
  /// Deterministic hash of the level->var map; equal orders hash equal.
  [[nodiscard]] std::uint64_t order_fingerprint() const noexcept;

  /// Install an explicit order: `level2var[l]` is the variable at level l.
  /// Must be a permutation of all current variables. Applied as a sequence
  /// of adjacent-level swaps, so handles and node indices stay valid.
  /// Invalidates the operation cache.
  void set_order(std::span<const unsigned> level2var);

  /// Run one deterministic Rudell sifting pass: garbage-collect, sift
  /// variables (largest subtable first) through all levels keeping the best
  /// position, abort a sift leg when the table grows past the max-growth
  /// factor, then collect intermediates and invalidate the operation cache.
  /// Returns the number of live nodes reclaimed by the pass.
  std::size_t try_reorder();

  void set_reorder_policy(ReorderPolicy policy) noexcept {
    reorder_policy_ = policy;
  }
  [[nodiscard]] ReorderPolicy reorder_policy() const noexcept {
    return reorder_policy_;
  }
  /// Live-node count beyond which kAuto triggers sifting (adapts upward
  /// after every automatic pass so reordering cannot thrash).
  void set_reorder_threshold(std::size_t nodes) noexcept {
    reorder_threshold_ = nodes;
  }

 private:
  friend class Bdd;

  struct Node {
    unsigned var;      // variable id; kInvalidVar for constants / free slots
    NodeIndex low;     // also: next free slot when on the free list
    NodeIndex high;
    NodeIndex next;    // unique-table bucket chain
  };
  static_assert(sizeof(unsigned) == 4, "Node must stay 16 bytes");

  // Per-variable unique subtable. Since var<->level is a bijection this is
  // exactly a per-level subtable, but keying by the stable id means a level
  // swap only touches the two participating tables and never rehashes the
  // rest of the order.
  struct SubTable {
    std::vector<NodeIndex> buckets;  // size is a power of two
    std::size_t count = 0;           // labelled nodes currently chained
  };

  struct CacheEntry {
    std::uint64_t key = ~0ull;  // packed op tag (valid entries never ~0)
    NodeIndex a = 0, b = 0, c = 0;
    NodeIndex result = 0;
  };

  static constexpr unsigned kInvalidVar = 0xffffffffu;
  /// Ordering level reported for the constant leaves: below every variable,
  /// so `std::min` over levels picks the recursion's true top variable.
  static constexpr unsigned kConstLevel = 0xffffffffu;

  void ref(NodeIndex idx) noexcept;
  void deref(NodeIndex idx) noexcept;

  void ensure_var(unsigned var_id);
  NodeIndex make_node(unsigned var, NodeIndex low, NodeIndex high);
  NodeIndex alloc_slot();
  void grow_subtable(SubTable& table);
  void maybe_housekeep();
  std::size_t swap_adjacent_levels(unsigned level);
  void sift_var(unsigned var_id);

  // Reorder-scoped exact liveness. While `in_reorder_`, every node carries
  // an in-degree count and a node whose last reference disappears is
  // unchained and freed immediately. This keeps `allocated - free` equal to
  // the true live size mid-sift (the metric steering sift_var) and
  // guarantees swaps never leave dead nodes in the unique table.
  void rebuild_reorder_indeg();
  NodeIndex reorder_make(unsigned var, NodeIndex low, NodeIndex high);
  void reorder_acquire(NodeIndex n) noexcept;
  void reorder_release(NodeIndex n);

  NodeIndex ite_rec(NodeIndex f, NodeIndex g, NodeIndex h);
  NodeIndex not_rec(NodeIndex f);
  NodeIndex and_rec(NodeIndex f, NodeIndex g);
  NodeIndex or_rec(NodeIndex f, NodeIndex g);
  NodeIndex xor_rec(NodeIndex f, NodeIndex g);
  NodeIndex exists_rec(NodeIndex f, NodeIndex cube);
  NodeIndex and_exists_rec(NodeIndex f, NodeIndex g, NodeIndex cube);
  NodeIndex permute_rec(NodeIndex f, std::span<const int> perm,
                        std::uint32_t perm_tag);
  NodeIndex cofactor_rec(NodeIndex f, unsigned var_id, bool value);
  NodeIndex constrain_rec(NodeIndex f, NodeIndex c);

  [[nodiscard]] unsigned var_of(NodeIndex n) const noexcept {
    return nodes_[n].var;
  }
  [[nodiscard]] bool is_const(NodeIndex n) const noexcept { return n <= 1; }
  /// Ordering level of a node (kConstLevel for the constant leaves).
  [[nodiscard]] unsigned level_of_node(NodeIndex n) const noexcept {
    return is_const(n) ? kConstLevel : var2level_[nodes_[n].var];
  }

  // Operation cache.
  enum class Op : std::uint8_t {
    kIte = 1, kNot, kAnd, kOr, kXor, kExists, kAndExists, kPermute, kCofactor,
    kConstrain,
  };
  [[nodiscard]] std::size_t cache_slot(std::uint64_t key, NodeIndex a,
                                       NodeIndex b, NodeIndex c) const noexcept;
  bool cache_find(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                  NodeIndex& out);
  void cache_insert(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                    NodeIndex result);
  void clear_cache();

  // GC and reordering never run mid-operation: both are only triggered from
  // the public entry points (maybe_housekeep) before an operation starts,
  // so recursive construction never loses partial results and cached
  // subresults of the running operation stay valid.
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> ext_refs_;  // external refcount per slot
  NodeIndex free_list_ = 0;              // 0 = empty (0 is a constant)
  std::size_t free_count_ = 0;

  std::vector<SubTable> subtables_;  // unique table, split per variable id
  std::size_t live_estimate_ = 0;    // nodes allocated since last gc baseline
  std::size_t gc_threshold_ = 1u << 16;

  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;

  unsigned num_vars_ = 0;
  std::vector<unsigned> var2level_;  // variable id -> ordering level
  std::vector<unsigned> level2var_;  // ordering level -> variable id
  ReorderPolicy reorder_policy_ = ReorderPolicy::kNone;
  std::size_t reorder_threshold_ = 1u << 13;
  /// Abort factor for one sift leg: a variable stops moving in a direction
  /// once the table exceeds this many times its size at sift start.
  static constexpr double kMaxGrowth = 1.2;
  bool in_reorder_ = false;
  std::size_t peak_live_ = 0;
  std::vector<std::uint32_t> reorder_indeg_;  // live only while in_reorder_

  std::uint32_t perm_counter_ = 0;  // tags permutations for the cache

  mutable BddStats stats_{};
};

}  // namespace simcov::bdd
