#include "bdd/bdd.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace simcov::bdd {

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  // splitmix64 finalizer: cheap and well-distributed.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash3(std::uint64_t a, std::uint64_t b,
                              std::uint64_t c) noexcept {
  return mix64(a * 0x100000001b3ull + mix64(b) * 31 + mix64(c));
}

// Unique-subtable key: the variable is implied by the table, so only the
// children hash. Both operands are 32-bit, so the packing is injective.
constexpr std::uint64_t hash2(std::uint64_t low, std::uint64_t high) noexcept {
  return mix64((low << 32) | high);
}

}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(BddManager* mgr, NodeIndex idx) noexcept : mgr_(mgr), idx_(idx) {
  if (mgr_ != nullptr) mgr_->ref(idx_);
}

Bdd::Bdd(const Bdd& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
  if (mgr_ != nullptr) mgr_->ref(idx_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
  other.mgr_ = nullptr;
  other.idx_ = 0;
}

Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->ref(other.idx_);
  if (mgr_ != nullptr) mgr_->deref(idx_);
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->deref(idx_);
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  other.mgr_ = nullptr;
  other.idx_ = 0;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->deref(idx_);
}

unsigned Bdd::top_var() const {
  assert(valid() && !is_constant());
  return mgr_->var_of(idx_);
}

Bdd Bdd::low() const {
  assert(valid() && !is_constant());
  return Bdd(mgr_, mgr_->nodes_[idx_].low);
}

Bdd Bdd::high() const {
  assert(valid() && !is_constant());
  return Bdd(mgr_, mgr_->nodes_[idx_].high);
}

Bdd Bdd::operator!() const { return mgr_->apply_not(*this); }
Bdd Bdd::operator&(const Bdd& rhs) const { return mgr_->apply_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr_->apply_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr_->apply_xor(*this, rhs); }
Bdd& Bdd::operator&=(const Bdd& rhs) { return *this = *this & rhs; }
Bdd& Bdd::operator|=(const Bdd& rhs) { return *this = *this | rhs; }
Bdd& Bdd::operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }
Bdd Bdd::implies(const Bdd& rhs) const { return (!*this) | rhs; }
Bdd Bdd::iff(const Bdd& rhs) const { return !(*this ^ rhs); }

std::size_t Bdd::node_count() const { return mgr_->node_count(*this); }

// ---------------------------------------------------------------------------
// BddManager: construction, node store, unique table
// ---------------------------------------------------------------------------

BddManager::BddManager(unsigned cache_bits) {
  nodes_.reserve(1u << 12);
  // Slots 0 and 1 are the constant leaves.
  nodes_.push_back(Node{kInvalidVar, 0, 0, 0});
  nodes_.push_back(Node{kInvalidVar, 1, 1, 0});
  ext_refs_.assign(2, 0);
  peak_live_ = 2;

  cache_.assign(std::size_t{1} << cache_bits, CacheEntry{});
  cache_mask_ = cache_.size() - 1;
}

BddManager::~BddManager() = default;

void BddManager::ref(NodeIndex idx) noexcept { ++ext_refs_[idx]; }

void BddManager::deref(NodeIndex idx) noexcept {
  assert(ext_refs_[idx] > 0);
  --ext_refs_[idx];
}

std::size_t BddManager::cache_slot(std::uint64_t key, NodeIndex a, NodeIndex b,
                                   NodeIndex c) const noexcept {
  return static_cast<std::size_t>(
             hash3((key << 32) | a, b, c)) &
         cache_mask_;
}

bool BddManager::cache_find(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                            NodeIndex& out) {
  ++stats_.cache_lookups;
  const std::uint64_t key = static_cast<std::uint64_t>(op);
  const CacheEntry& e = cache_[cache_slot(key, a, b, c)];
  if (e.key == key && e.a == a && e.b == b && e.c == c) {
    ++stats_.cache_hits;
    out = e.result;
    return true;
  }
  return false;
}

void BddManager::cache_insert(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                              NodeIndex result) {
  const std::uint64_t key = static_cast<std::uint64_t>(op);
  CacheEntry& e = cache_[cache_slot(key, a, b, c)];
  e = CacheEntry{key, a, b, c, result};
}

void BddManager::clear_cache() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
}

void BddManager::ensure_var(unsigned var_id) {
  if (var_id < num_vars_) return;
  if (var_id >= kInvalidVar) {
    throw std::invalid_argument("bdd: variable id out of range");
  }
  for (unsigned v = num_vars_; v <= var_id; ++v) {
    // New variables join at the bottom of the current order, so creation
    // order defines the initial order and reorders never shift ids.
    var2level_.push_back(v);
    level2var_.push_back(v);
    subtables_.emplace_back();
    subtables_.back().buckets.assign(8, 0);
  }
  num_vars_ = var_id + 1;
}

NodeIndex BddManager::alloc_slot() {
  if (free_list_ != 0) {
    const NodeIndex idx = free_list_;
    free_list_ = nodes_[idx].low;
    --free_count_;
    return idx;
  }
  nodes_.push_back(Node{});
  ext_refs_.push_back(0);
  return static_cast<NodeIndex>(nodes_.size() - 1);
}

void BddManager::grow_subtable(SubTable& table) {
  std::vector<NodeIndex> old = std::move(table.buckets);
  table.buckets.assign(old.size() * 2, 0);
  const std::size_t mask = table.buckets.size() - 1;
  for (const NodeIndex head : old) {
    NodeIndex n = head;
    while (n != 0) {
      const NodeIndex next = nodes_[n].next;
      const std::size_t slot =
          static_cast<std::size_t>(hash2(nodes_[n].low, nodes_[n].high)) &
          mask;
      nodes_[n].next = table.buckets[slot];
      table.buckets[slot] = n;
      n = next;
    }
  }
}

NodeIndex BddManager::make_node(unsigned var, NodeIndex low, NodeIndex high) {
  if (low == high) return low;  // reduction rule
  assert(var < num_vars_);
  assert(level_of_node(low) > var2level_[var]);
  assert(level_of_node(high) > var2level_[var]);
  ++stats_.unique_lookups;
  SubTable& table = subtables_[var];
  const std::size_t slot = static_cast<std::size_t>(hash2(low, high)) &
                           (table.buckets.size() - 1);
  for (NodeIndex n = table.buckets[slot]; n != 0; n = nodes_[n].next) {
    const Node& nd = nodes_[n];
    if (nd.low == low && nd.high == high) {
      ++stats_.unique_hits;
      return n;
    }
  }
  const NodeIndex idx = alloc_slot();
  nodes_[idx] = Node{var, low, high, table.buckets[slot]};
  table.buckets[slot] = idx;
  ++table.count;
  ++live_estimate_;
  const std::size_t live = nodes_.size() - free_count_;
  if (live > peak_live_) peak_live_ = live;
  if (table.count > table.buckets.size()) grow_subtable(table);
  return idx;
}

void BddManager::maybe_housekeep() {
  if (live_estimate_ >= gc_threshold_) {
    const std::size_t before = nodes_.size() - free_count_;
    collect_garbage();
    const std::size_t after = nodes_.size() - free_count_;
    // If little was reclaimed, raise the threshold so we don't thrash.
    if (after * 4 > before * 3) gc_threshold_ *= 2;
    live_estimate_ = 0;
  }
  if (reorder_policy_ == ReorderPolicy::kAuto && !in_reorder_ &&
      nodes_.size() - free_count_ >= reorder_threshold_) {
    try_reorder();
    // Back off so the next automatic pass only fires after real growth.
    reorder_threshold_ = std::max(reorder_threshold_ * 2,
                                  2 * (nodes_.size() - free_count_));
  }
}

void BddManager::collect_garbage() {
  ++stats_.gc_runs;
  std::vector<bool> marked(nodes_.size(), false);
  marked[0] = marked[1] = true;
  // Iterative DFS from every externally referenced node.
  std::vector<NodeIndex> stack;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (ext_refs_[i] > 0 && !marked[i]) stack.push_back(i);
  }
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (marked[n]) continue;
    marked[n] = true;
    const Node& nd = nodes_[n];
    if (nd.var == kInvalidVar) continue;  // constant or free
    if (!marked[nd.low]) stack.push_back(nd.low);
    if (!marked[nd.high]) stack.push_back(nd.high);
  }
  // Sweep, rebuilding each per-variable subtable. Chains are relinked from
  // the highest index down, so every bucket chain ends up ascending by node
  // index and lookups stream forward through the (level-major) node array.
  for (SubTable& table : subtables_) {
    std::fill(table.buckets.begin(), table.buckets.end(), 0);
    table.count = 0;
  }
  for (NodeIndex i = static_cast<NodeIndex>(nodes_.size() - 1); i >= 2; --i) {
    if (!marked[i]) continue;
    Node& nd = nodes_[i];
    SubTable& table = subtables_[nd.var];
    const std::size_t slot = static_cast<std::size_t>(
                                 hash2(nd.low, nd.high)) &
                             (table.buckets.size() - 1);
    nd.next = table.buckets[slot];
    table.buckets[slot] = i;
    ++table.count;
  }
  // Rebuild the free list ascending, so the head (served first) is the
  // highest index and low slots stay densely packed with long-lived nodes.
  free_list_ = 0;
  free_count_ = 0;
  for (NodeIndex i = 2; i < nodes_.size(); ++i) {
    if (marked[i]) continue;
    Node& nd = nodes_[i];
    nd.var = kInvalidVar;
    nd.low = free_list_;
    free_list_ = i;
    ++free_count_;
  }
  // The cache may reference dead nodes: drop it wholesale.
  clear_cache();
}

BddStats BddManager::stats() const {
  BddStats s = stats_;
  s.allocated_nodes = nodes_.size();
  s.free_nodes = free_count_;
  s.live_nodes = nodes_.size() - free_count_;
  s.peak_live_nodes = std::max(peak_live_, s.live_nodes);
  s.order_fingerprint = order_fingerprint();
  return s;
}

// ---------------------------------------------------------------------------
// Variable ordering: adjacent swap primitive, sifting, explicit orders
// ---------------------------------------------------------------------------

std::uint64_t BddManager::order_fingerprint() const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ num_vars_;
  for (const unsigned v : level2var_) h = mix64(h ^ v);
  return h;
}

void BddManager::rebuild_reorder_indeg() {
  reorder_indeg_.assign(nodes_.size(), 0);
  for (NodeIndex i = 2; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    if (nd.var == kInvalidVar) continue;  // free slot
    if (!is_const(nd.low)) ++reorder_indeg_[nd.low];
    if (!is_const(nd.high)) ++reorder_indeg_[nd.high];
  }
}

NodeIndex BddManager::reorder_make(unsigned var, NodeIndex low,
                                   NodeIndex high) {
  const std::size_t live_before = nodes_.size() - free_count_;
  const NodeIndex r = make_node(var, low, high);
  if (reorder_indeg_.size() < nodes_.size()) {
    reorder_indeg_.resize(nodes_.size(), 0);
  }
  if (nodes_.size() - free_count_ > live_before) {
    // Fresh node: it newly references its children. (A hash-cons hit or a
    // reduction-rule return adds no edges; the caller accounts for its own
    // reference separately.)
    assert(reorder_indeg_[r] == 0);
    reorder_acquire(low);
    reorder_acquire(high);
  }
  return r;
}

void BddManager::reorder_acquire(NodeIndex n) noexcept {
  if (!is_const(n)) ++reorder_indeg_[n];
}

void BddManager::reorder_release(NodeIndex n) {
  if (is_const(n)) return;
  assert(reorder_indeg_[n] > 0);
  if (--reorder_indeg_[n] > 0 || ext_refs_[n] > 0) return;
  // Last reference gone: unchain and free now. Eager freeing keeps the
  // sift metric exact and makes it impossible for a later hash-cons lookup
  // to resurrect a node whose label/level relationship went stale.
  Node& nd = nodes_[n];
  SubTable& table = subtables_[nd.var];
  const std::size_t slot = static_cast<std::size_t>(hash2(nd.low, nd.high)) &
                           (table.buckets.size() - 1);
  NodeIndex* link = &table.buckets[slot];
  while (*link != n) link = &nodes_[*link].next;
  *link = nd.next;
  --table.count;
  const NodeIndex lo = nd.low;
  const NodeIndex hi = nd.high;
  nd.var = kInvalidVar;
  nd.low = free_list_;
  free_list_ = n;
  ++free_count_;
  reorder_release(lo);
  reorder_release(hi);
}

std::size_t BddManager::swap_adjacent_levels(unsigned level) {
  assert(level + 1 < num_vars_);
  const unsigned x = level2var_[level];
  const unsigned y = level2var_[level + 1];
  ++stats_.level_swaps;
  // Flip the maps first: make_node below must see x at level+1 already.
  level2var_[level] = y;
  level2var_[level + 1] = x;
  var2level_[x] = level + 1;
  var2level_[y] = level;

  SubTable& tx = subtables_[x];
  // Partition x's nodes: a node whose children don't test y keeps its
  // structure (its level changed implicitly); a node testing y below must
  // be rewritten so y comes first.
  std::vector<NodeIndex> keep;
  std::vector<NodeIndex> rewrite;
  for (const NodeIndex head : tx.buckets) {
    for (NodeIndex n = head; n != 0; n = nodes_[n].next) {
      const Node& nd = nodes_[n];
      const bool tests_y = (!is_const(nd.low) && nodes_[nd.low].var == y) ||
                           (!is_const(nd.high) && nodes_[nd.high].var == y);
      (tests_y ? rewrite : keep).push_back(n);
    }
  }
  if (!rewrite.empty()) {
    // Rebuild x's table with only the keepers: lookups during the rewrite
    // loop must not find a node that is about to change its label.
    std::fill(tx.buckets.begin(), tx.buckets.end(), 0);
    tx.count = keep.size();
    const std::size_t x_mask = tx.buckets.size() - 1;
    for (const NodeIndex n : keep) {
      const std::size_t slot =
          static_cast<std::size_t>(hash2(nodes_[n].low, nodes_[n].high)) &
          x_mask;
      nodes_[n].next = tx.buckets[slot];
      tx.buckets[slot] = n;
    }
    for (const NodeIndex n : rewrite) {
      // (x, F0, F1) becomes (y, (x, F00, F10), (x, F01, F11)) in place:
      // index n keeps denoting the same function, so external handles,
      // other nodes' child pointers and cached results all stay correct.
      const Node nd = nodes_[n];  // copy: make_node may reallocate nodes_
      NodeIndex f00 = nd.low;
      NodeIndex f01 = nd.low;
      if (!is_const(nd.low) && nodes_[nd.low].var == y) {
        f00 = nodes_[nd.low].low;
        f01 = nodes_[nd.low].high;
      }
      NodeIndex f10 = nd.high;
      NodeIndex f11 = nd.high;
      if (!is_const(nd.high) && nodes_[nd.high].var == y) {
        f10 = nodes_[nd.high].low;
        f11 = nodes_[nd.high].high;
      }
      const NodeIndex g0 = in_reorder_ ? reorder_make(x, f00, f10)
                                       : make_node(x, f00, f10);
      const NodeIndex g1 = in_reorder_ ? reorder_make(x, f01, f11)
                                       : make_node(x, f01, f11);
      // A rewrite node depends on y, so its two y-cofactors differ and the
      // relabelled node never collapses via the reduction rule.
      assert(g0 != g1);
      if (in_reorder_) {
        reorder_acquire(g0);
        reorder_acquire(g1);
      }
      Node& relabel = nodes_[n];
      relabel.var = y;
      relabel.low = g0;
      relabel.high = g1;
      SubTable& ty = subtables_[y];
      const std::size_t slot = static_cast<std::size_t>(hash2(g0, g1)) &
                               (ty.buckets.size() - 1);
      relabel.next = ty.buckets[slot];
      ty.buckets[slot] = n;
      ++ty.count;
      if (ty.count > ty.buckets.size()) grow_subtable(ty);
      if (in_reorder_) {
        // Drop the old child references last: the cascade can free stale
        // y-intermediates but never reaches the x/y tables above it.
        reorder_release(nd.low);
        reorder_release(nd.high);
      }
    }
  }
  return nodes_.size() - free_count_;
}

void BddManager::sift_var(unsigned var_id) {
  if (num_vars_ < 2) return;
  const std::size_t start = nodes_.size() - free_count_;
  const std::size_t limit =
      static_cast<std::size_t>(static_cast<double>(start) * kMaxGrowth) + 16;
  const unsigned start_level = var2level_[var_id];
  unsigned cur = start_level;
  unsigned best = start_level;
  std::size_t best_size = start;
  // Visit the nearer end of the order first: fewer swaps on the way back.
  const bool down_first = (num_vars_ - 1 - start_level) <= start_level;
  for (int leg = 0; leg < 2; ++leg) {
    const bool down = (leg == 0) == down_first;
    if (down) {
      while (cur + 1 < num_vars_) {
        const std::size_t size = swap_adjacent_levels(cur);
        ++cur;
        if (size < best_size) {
          best_size = size;
          best = cur;
        }
        if (size > limit) break;  // max-growth abort for this leg
      }
    } else {
      while (cur > 0) {
        const std::size_t size = swap_adjacent_levels(cur - 1);
        --cur;
        if (size < best_size) {
          best_size = size;
          best = cur;
        }
        if (size > limit) break;
      }
    }
  }
  // Park the variable at the best level seen.
  while (cur < best) swap_adjacent_levels(cur++);
  while (cur > best) swap_adjacent_levels(--cur);
}

std::size_t BddManager::try_reorder() {
  if (in_reorder_ || num_vars_ < 2) return 0;
  in_reorder_ = true;
  collect_garbage();  // exact live set before measuring table sizes
  rebuild_reorder_indeg();
  const std::size_t before = nodes_.size() - free_count_;
  // Deterministic Rudell schedule: largest subtable first, ties by id.
  std::vector<std::pair<std::size_t, unsigned>> schedule;
  schedule.reserve(num_vars_);
  for (unsigned v = 0; v < num_vars_; ++v) {
    schedule.emplace_back(subtables_[v].count, v);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [count, v] : schedule) {
    if (count == 0) continue;
    // Eager freeing keeps the arena tight, but a pathological sift can
    // still balloon allocation; collect and resync the in-degrees if so.
    if (nodes_.size() - free_count_ > before * 4) {
      collect_garbage();
      rebuild_reorder_indeg();
    }
    sift_var(v);
  }
  collect_garbage();  // drop anything ext-pinned-but-dead that sifting kept
  clear_cache();      // full op-cache invalidation on reorder
  ++stats_.reorders;
  const std::size_t after = nodes_.size() - free_count_;
  in_reorder_ = false;
  reorder_indeg_.clear();
  reorder_indeg_.shrink_to_fit();
  return before > after ? before - after : 0;
}

void BddManager::set_order(std::span<const unsigned> level2var) {
  if (level2var.size() != num_vars_) {
    throw std::invalid_argument("set_order: order must list every variable");
  }
  std::vector<bool> seen(num_vars_, false);
  for (const unsigned v : level2var) {
    if (v >= num_vars_ || seen[v]) {
      throw std::invalid_argument("set_order: not a permutation of variables");
    }
    seen[v] = true;
  }
  // Selection-style bubble: pull each target variable up to its level via
  // adjacent swaps. Handles and node indices stay valid throughout.
  for (unsigned target = 0; target < num_vars_; ++target) {
    const unsigned v = level2var[target];
    for (unsigned cur = var2level_[v]; cur > target; --cur) {
      swap_adjacent_levels(cur - 1);
    }
  }
  clear_cache();  // full op-cache invalidation on reorder
}

// ---------------------------------------------------------------------------
// Constants, variables, cubes
// ---------------------------------------------------------------------------

Bdd BddManager::zero() { return Bdd(this, 0); }
Bdd BddManager::one() { return Bdd(this, 1); }

Bdd BddManager::var(unsigned var_id) {
  ensure_var(var_id);
  return Bdd(this, make_node(var_id, 0, 1));
}

Bdd BddManager::literal(unsigned var_id, bool positive) {
  ensure_var(var_id);
  return positive ? Bdd(this, make_node(var_id, 0, 1))
                  : Bdd(this, make_node(var_id, 1, 0));
}

Bdd BddManager::cube(std::span<const unsigned> vars) {
  std::vector<unsigned> sorted(vars.begin(), vars.end());
  for (const unsigned v : sorted) ensure_var(v);
  // Build bottom-up: deepest level first. Sorting by level keeps the build
  // valid under any variable order; duplicates land adjacent and are
  // dropped (conjunction is idempotent).
  std::sort(sorted.begin(), sorted.end(), [this](unsigned a, unsigned b) {
    return var2level_[a] > var2level_[b];
  });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  NodeIndex acc = 1;
  for (const unsigned v : sorted) {
    acc = make_node(v, 0, acc);
  }
  return Bdd(this, acc);
}

Bdd BddManager::minterm(std::span<const unsigned> vars,
                        const std::vector<bool>& values) {
  if (vars.size() != values.size()) {
    throw std::invalid_argument("minterm: vars/values size mismatch");
  }
  std::vector<std::pair<unsigned, bool>> lits;
  lits.reserve(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    ensure_var(vars[i]);
    lits.emplace_back(vars[i], values[i]);
  }
  std::stable_sort(lits.begin(), lits.end(),
                   [this](const auto& a, const auto& b) {
                     return var2level_[a.first] > var2level_[b.first];
                   });
  NodeIndex acc = 1;
  unsigned prev_var = kInvalidVar;
  bool prev_val = false;
  for (const auto& [v, val] : lits) {
    if (v == prev_var) {
      if (val != prev_val) {
        throw std::invalid_argument(
            "minterm: conflicting values for variable " + std::to_string(v));
      }
      continue;  // duplicate literal: conjunction is idempotent
    }
    prev_var = v;
    prev_val = val;
    acc = val ? make_node(v, 0, acc) : make_node(v, acc, 0);
  }
  return Bdd(this, acc);
}

// ---------------------------------------------------------------------------
// Core recursive operations
// ---------------------------------------------------------------------------
// Every ordering decision below goes through levels (level_of_node /
// var2level_), never raw variable ids: after a reorder the id sequence says
// nothing about the order.

NodeIndex BddManager::not_rec(NodeIndex f) {
  if (f == 0) return 1;
  if (f == 1) return 0;
  NodeIndex cached;
  if (cache_find(Op::kNot, f, 0, 0, cached)) return cached;
  const Node nd = nodes_[f];
  const NodeIndex r = make_node(nd.var, not_rec(nd.low), not_rec(nd.high));
  cache_insert(Op::kNot, f, 0, 0, r);
  return r;
}

NodeIndex BddManager::and_rec(NodeIndex f, NodeIndex g) {
  if (f == 0 || g == 0) return 0;
  if (f == 1) return g;
  if (g == 1) return f;
  if (f == g) return f;
  if (f > g) std::swap(f, g);  // commutative: normalize operand order
  NodeIndex cached;
  if (cache_find(Op::kAnd, f, g, 0, cached)) return cached;
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const unsigned lf = var2level_[nf.var];
  const unsigned lg = var2level_[ng.var];
  const unsigned v = lf <= lg ? nf.var : ng.var;
  const NodeIndex f0 = lf <= lg ? nf.low : f;
  const NodeIndex f1 = lf <= lg ? nf.high : f;
  const NodeIndex g0 = lg <= lf ? ng.low : g;
  const NodeIndex g1 = lg <= lf ? ng.high : g;
  const NodeIndex r = make_node(v, and_rec(f0, g0), and_rec(f1, g1));
  cache_insert(Op::kAnd, f, g, 0, r);
  return r;
}

NodeIndex BddManager::or_rec(NodeIndex f, NodeIndex g) {
  if (f == 1 || g == 1) return 1;
  if (f == 0) return g;
  if (g == 0) return f;
  if (f == g) return f;
  if (f > g) std::swap(f, g);
  NodeIndex cached;
  if (cache_find(Op::kOr, f, g, 0, cached)) return cached;
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const unsigned lf = var2level_[nf.var];
  const unsigned lg = var2level_[ng.var];
  const unsigned v = lf <= lg ? nf.var : ng.var;
  const NodeIndex f0 = lf <= lg ? nf.low : f;
  const NodeIndex f1 = lf <= lg ? nf.high : f;
  const NodeIndex g0 = lg <= lf ? ng.low : g;
  const NodeIndex g1 = lg <= lf ? ng.high : g;
  const NodeIndex r = make_node(v, or_rec(f0, g0), or_rec(f1, g1));
  cache_insert(Op::kOr, f, g, 0, r);
  return r;
}

NodeIndex BddManager::xor_rec(NodeIndex f, NodeIndex g) {
  if (f == g) return 0;
  if (f == 0) return g;
  if (g == 0) return f;
  if (f == 1) return not_rec(g);
  if (g == 1) return not_rec(f);
  if (f > g) std::swap(f, g);
  NodeIndex cached;
  if (cache_find(Op::kXor, f, g, 0, cached)) return cached;
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const unsigned lf = var2level_[nf.var];
  const unsigned lg = var2level_[ng.var];
  const unsigned v = lf <= lg ? nf.var : ng.var;
  const NodeIndex f0 = lf <= lg ? nf.low : f;
  const NodeIndex f1 = lf <= lg ? nf.high : f;
  const NodeIndex g0 = lg <= lf ? ng.low : g;
  const NodeIndex g1 = lg <= lf ? ng.high : g;
  const NodeIndex r = make_node(v, xor_rec(f0, g0), xor_rec(f1, g1));
  cache_insert(Op::kXor, f, g, 0, r);
  return r;
}

NodeIndex BddManager::ite_rec(NodeIndex f, NodeIndex g, NodeIndex h) {
  if (f == 1) return g;
  if (f == 0) return h;
  if (g == h) return g;
  if (g == 1 && h == 0) return f;
  if (g == 0 && h == 1) return not_rec(f);
  NodeIndex cached;
  if (cache_find(Op::kIte, f, g, h, cached)) return cached;
  unsigned lv = var2level_[nodes_[f].var];
  if (!is_const(g)) lv = std::min(lv, var2level_[nodes_[g].var]);
  if (!is_const(h)) lv = std::min(lv, var2level_[nodes_[h].var]);
  const unsigned v = level2var_[lv];
  auto cof = [this, lv](NodeIndex x, bool hi) -> NodeIndex {
    if (is_const(x) || var2level_[nodes_[x].var] != lv) return x;
    return hi ? nodes_[x].high : nodes_[x].low;
  };
  const NodeIndex r = make_node(
      v, ite_rec(cof(f, false), cof(g, false), cof(h, false)),
      ite_rec(cof(f, true), cof(g, true), cof(h, true)));
  cache_insert(Op::kIte, f, g, h, r);
  return r;
}

NodeIndex BddManager::exists_rec(NodeIndex f, NodeIndex cube) {
  if (is_const(f)) return f;
  // Skip cube variables ordered above f's top variable.
  while (!is_const(cube) &&
         var2level_[nodes_[cube].var] < var2level_[nodes_[f].var]) {
    cube = nodes_[cube].high;
  }
  if (is_const(cube)) return f;
  NodeIndex cached;
  if (cache_find(Op::kExists, f, cube, 0, cached)) return cached;
  // Copy fields before recursing: make_node may reallocate nodes_.
  const Node nf = nodes_[f];
  const Node ncube = nodes_[cube];
  NodeIndex r;
  if (nf.var == ncube.var) {
    const NodeIndex lo = exists_rec(nf.low, ncube.high);
    if (lo == 1) {
      r = 1;  // early termination: disjunction already true
    } else {
      const NodeIndex hi = exists_rec(nf.high, ncube.high);
      r = or_rec(lo, hi);
    }
  } else {
    const NodeIndex lo = exists_rec(nf.low, cube);
    const NodeIndex hi = exists_rec(nf.high, cube);
    r = make_node(nf.var, lo, hi);
  }
  cache_insert(Op::kExists, f, cube, 0, r);
  return r;
}

NodeIndex BddManager::and_exists_rec(NodeIndex f, NodeIndex g,
                                     NodeIndex cube) {
  if (f == 0 || g == 0) return 0;
  if (cube == 1) return and_rec(f, g);
  if (f == 1 && g == 1) return 1;
  if (f > g) std::swap(f, g);  // AND is commutative
  NodeIndex cached;
  if (cache_find(Op::kAndExists, f, g, cube, cached)) return cached;
  const unsigned lf = level_of_node(f);
  const unsigned lg = level_of_node(g);
  const unsigned lv = std::min(lf, lg);
  // Drop quantified variables ordered above the top of f & g: vacuous.
  NodeIndex cb = cube;
  while (!is_const(cb) && var2level_[nodes_[cb].var] < lv) {
    cb = nodes_[cb].high;
  }
  if (is_const(cb)) {
    const NodeIndex r = and_rec(f, g);
    cache_insert(Op::kAndExists, f, g, cube, r);
    return r;
  }
  const NodeIndex f0 = (lf == lv) ? nodes_[f].low : f;
  const NodeIndex f1 = (lf == lv) ? nodes_[f].high : f;
  const NodeIndex g0 = (lg == lv) ? nodes_[g].low : g;
  const NodeIndex g1 = (lg == lv) ? nodes_[g].high : g;
  NodeIndex r;
  if (var2level_[nodes_[cb].var] == lv) {
    const NodeIndex lo = and_exists_rec(f0, g0, nodes_[cb].high);
    if (lo == 1) {
      r = 1;
    } else {
      const NodeIndex hi = and_exists_rec(f1, g1, nodes_[cb].high);
      r = or_rec(lo, hi);
    }
  } else {
    r = make_node(level2var_[lv], and_exists_rec(f0, g0, cb),
                  and_exists_rec(f1, g1, cb));
  }
  cache_insert(Op::kAndExists, f, g, cube, r);
  return r;
}

NodeIndex BddManager::cofactor_rec(NodeIndex f, unsigned var_id, bool value) {
  if (is_const(f)) return f;
  const unsigned lf = var2level_[nodes_[f].var];
  const unsigned lv = var2level_[var_id];
  if (lf > lv) return f;  // var_id is ordered above f's entire support
  if (nodes_[f].var == var_id) return value ? nodes_[f].high : nodes_[f].low;
  NodeIndex cached;
  const NodeIndex tag = (var_id << 1) | static_cast<NodeIndex>(value);
  if (cache_find(Op::kCofactor, f, tag, 0, cached)) return cached;
  // Copy fields before recursing: make_node may reallocate nodes_.
  const Node nf = nodes_[f];
  const NodeIndex lo = cofactor_rec(nf.low, var_id, value);
  const NodeIndex hi = cofactor_rec(nf.high, var_id, value);
  const NodeIndex r = make_node(nf.var, lo, hi);
  cache_insert(Op::kCofactor, f, tag, 0, r);
  return r;
}

NodeIndex BddManager::constrain_rec(NodeIndex f, NodeIndex c) {
  assert(c != 0);
  if (c == 1 || is_const(f)) return f;
  NodeIndex cached;
  if (cache_find(Op::kConstrain, f, c, 0, cached)) return cached;
  const unsigned lfv = var2level_[nodes_[f].var];
  const unsigned lcv = var2level_[nodes_[c].var];
  const unsigned lv = std::min(lfv, lcv);
  const NodeIndex f0 = (lfv == lv) ? nodes_[f].low : f;
  const NodeIndex f1 = (lfv == lv) ? nodes_[f].high : f;
  const NodeIndex c0 = (lcv == lv) ? nodes_[c].low : c;
  const NodeIndex c1 = (lcv == lv) ? nodes_[c].high : c;
  NodeIndex r;
  if (c0 == 0) {
    r = constrain_rec(f1, c1);
  } else if (c1 == 0) {
    r = constrain_rec(f0, c0);
  } else {
    r = make_node(level2var_[lv], constrain_rec(f0, c0),
                  constrain_rec(f1, c1));
  }
  cache_insert(Op::kConstrain, f, c, 0, r);
  return r;
}

NodeIndex BddManager::permute_rec(NodeIndex f, std::span<const int> perm,
                                  std::uint32_t perm_tag) {
  if (is_const(f)) return f;
  NodeIndex cached;
  if (cache_find(Op::kPermute, f, perm_tag, 0, cached)) return cached;
  // Copy fields before recursing: make_node may reallocate nodes_.
  const Node nf = nodes_[f];
  const NodeIndex lo = permute_rec(nf.low, perm, perm_tag);
  const NodeIndex hi = permute_rec(nf.high, perm, perm_tag);
  const int nv = nf.var < perm.size() ? perm[nf.var] : static_cast<int>(nf.var);
  if (nv < 0) {
    throw std::invalid_argument(
        "permute: support variable has no mapping (perm[v] < 0)");
  }
  ensure_var(static_cast<unsigned>(nv));
  // The renamed variable may land anywhere in the order, so rebuild with ITE.
  const NodeIndex vnode = make_node(static_cast<unsigned>(nv), 0, 1);
  const NodeIndex r = ite_rec(vnode, hi, lo);
  cache_insert(Op::kPermute, f, perm_tag, 0, r);
  return r;
}

// ---------------------------------------------------------------------------
// Public operation wrappers
// ---------------------------------------------------------------------------

namespace {
void check_same_manager(const BddManager* mgr, const Bdd& x) {
  if (!x.valid() || x.manager() != mgr) {
    throw std::invalid_argument("Bdd operand belongs to another manager");
  }
}
}  // namespace

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  check_same_manager(this, h);
  maybe_housekeep();
  return Bdd(this, ite_rec(f.index(), g.index(), h.index()));
}

Bdd BddManager::apply_not(const Bdd& f) {
  check_same_manager(this, f);
  maybe_housekeep();
  return Bdd(this, not_rec(f.index()));
}

Bdd BddManager::apply_and(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  maybe_housekeep();
  return Bdd(this, and_rec(f.index(), g.index()));
}

Bdd BddManager::apply_or(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  maybe_housekeep();
  return Bdd(this, or_rec(f.index(), g.index()));
}

Bdd BddManager::apply_xor(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  maybe_housekeep();
  return Bdd(this, xor_rec(f.index(), g.index()));
}

Bdd BddManager::exists(const Bdd& f, const Bdd& cube) {
  check_same_manager(this, f);
  check_same_manager(this, cube);
  maybe_housekeep();
  return Bdd(this, exists_rec(f.index(), cube.index()));
}

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  check_same_manager(this, cube);
  maybe_housekeep();
  return Bdd(this, and_exists_rec(f.index(), g.index(), cube.index()));
}

Bdd BddManager::cofactor(const Bdd& f, unsigned var_id, bool value) {
  check_same_manager(this, f);
  ensure_var(var_id);
  maybe_housekeep();
  return Bdd(this, cofactor_rec(f.index(), var_id, value));
}

Bdd BddManager::constrain(const Bdd& f, const Bdd& c) {
  check_same_manager(this, f);
  check_same_manager(this, c);
  if (c.is_zero()) {
    throw std::invalid_argument("constrain: care set must be non-empty");
  }
  maybe_housekeep();
  return Bdd(this, constrain_rec(f.index(), c.index()));
}

Bdd BddManager::permute(const Bdd& f, std::span<const int> perm) {
  check_same_manager(this, f);
  maybe_housekeep();
  // Exact-match registry of permutations, so repeated applications of the
  // same renaming (e.g. next-state -> present-state in every image step)
  // share cache entries without any risk of hash collisions.
  static thread_local std::map<std::vector<int>, std::uint32_t> registry;
  const std::vector<int> key(perm.begin(), perm.end());
  auto [it, inserted] = registry.try_emplace(key, perm_counter_);
  if (inserted) ++perm_counter_;
  return Bdd(this, permute_rec(f.index(), perm, it->second));
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

std::vector<unsigned> BddManager::support(const Bdd& f) {
  check_same_manager(this, f);
  std::vector<bool> in_support(num_vars_, false);
  std::vector<NodeIndex> stack{f.index()};
  std::unordered_map<NodeIndex, bool> visited;
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (is_const(n) || visited[n]) continue;
    visited[n] = true;
    in_support[nodes_[n].var] = true;
    stack.push_back(nodes_[n].low);
    stack.push_back(nodes_[n].high);
  }
  std::vector<unsigned> result;
  for (unsigned v = 0; v < num_vars_; ++v) {
    if (in_support[v]) result.push_back(v);
  }
  return result;
}

double BddManager::sat_count(const Bdd& f, unsigned num_vars) {
  check_same_manager(this, f);
  // density(n) = fraction of the full space satisfying n. Each node halves
  // the weight of its children regardless of its level, so the result is
  // independent of the current variable order.
  std::unordered_map<NodeIndex, double> memo;
  auto density = [this, &memo](auto&& self, NodeIndex n) -> double {
    if (n == 0) return 0.0;
    if (n == 1) return 1.0;
    auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const Node& nd = nodes_[n];
    const double d = 0.5 * self(self, nd.low) + 0.5 * self(self, nd.high);
    memo.emplace(n, d);
    return d;
  };
  return density(density, f.index()) * std::exp2(static_cast<double>(num_vars));
}

std::optional<std::vector<bool>> BddManager::pick_minterm(
    const Bdd& f, std::span<const unsigned> vars) {
  check_same_manager(this, f);
  if (f.index() == 0) return std::nullopt;
  for (const unsigned v : vars) ensure_var(v);
  // Lexicographically smallest assignment over `vars` in list order: take
  // false at each position unless that cofactor is unsatisfiable. The
  // cofactors are by variable id, so the answer does not depend on the
  // current variable order (a plain graph walk would).
  std::vector<bool> values(vars.size(), false);
  NodeIndex n = f.index();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const NodeIndex lo = cofactor_rec(n, vars[i], false);
    if (lo != 0) {
      n = lo;
    } else {
      values[i] = true;
      n = cofactor_rec(n, vars[i], true);
    }
  }
  return values;
}

bool BddManager::for_each_minterm(
    const Bdd& f, std::span<const unsigned> vars,
    const std::function<bool(const std::vector<bool>&)>& fn) {
  check_same_manager(this, f);
  for (const unsigned v : vars) ensure_var(v);
  std::vector<bool> values(vars.size(), false);
  // Recursive enumeration: split on each listed variable in order.
  auto rec = [this, &vars, &values, &fn](auto&& self, NodeIndex n,
                                         std::size_t pos) -> bool {
    if (n == 0) return true;
    if (pos == vars.size()) {
      // All listed variables assigned; n must not depend on them anymore.
      return n == 0 ? true : fn(values);
    }
    const unsigned v = vars[pos];
    for (const bool b : {false, true}) {
      values[pos] = b;
      if (!self(self, cofactor_rec(n, v, b), pos + 1)) return false;
    }
    return true;
  };
  return rec(rec, f.index(), 0);
}

bool BddManager::eval(const Bdd& f,
                      const std::vector<bool>& values_by_var) const {
  NodeIndex n = f.index();
  while (!is_const(n)) {
    const Node& nd = nodes_[n];
    const bool v = nd.var < values_by_var.size() && values_by_var[nd.var];
    n = v ? nd.high : nd.low;
  }
  return n == 1;
}

bool BddManager::intersects(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  maybe_housekeep();
  return and_rec(f.index(), g.index()) != 0;
}

bool BddManager::leq(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f);
  check_same_manager(this, g);
  maybe_housekeep();
  return and_rec(f.index(), not_rec(g.index())) == 0;
}

std::size_t BddManager::node_count(const Bdd& f) const {
  std::unordered_map<NodeIndex, bool> visited;
  std::vector<NodeIndex> stack{f.index()};
  std::size_t count = 0;
  bool seen_const[2] = {false, false};
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (is_const(n)) {
      if (!seen_const[n]) {
        seen_const[n] = true;
        ++count;
      }
      continue;
    }
    if (visited[n]) continue;
    visited[n] = true;
    ++count;
    stack.push_back(nodes_[n].low);
    stack.push_back(nodes_[n].high);
  }
  return count;
}

}  // namespace simcov::bdd
