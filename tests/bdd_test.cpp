// Unit and property tests for the ROBDD package.
#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace simcov::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager mgr;
};

TEST_F(BddTest, ConstantsAreDistinctAndCanonical) {
  EXPECT_TRUE(mgr.zero().is_zero());
  EXPECT_TRUE(mgr.one().is_one());
  EXPECT_NE(mgr.zero(), mgr.one());
  EXPECT_EQ(mgr.zero(), mgr.zero());
  EXPECT_TRUE(mgr.zero().is_constant());
  EXPECT_TRUE(mgr.one().is_constant());
}

TEST_F(BddTest, VariablesAreHashConsed) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, mgr.var(1));
  EXPECT_EQ(mgr.var_count(), 2u);
}

TEST_F(BddTest, LiteralPolarity) {
  const Bdd a = mgr.literal(0, true);
  const Bdd na = mgr.literal(0, false);
  EXPECT_EQ(na, !a);
  EXPECT_EQ(a & na, mgr.zero());
  EXPECT_EQ(a | na, mgr.one());
}

TEST_F(BddTest, BasicBooleanIdentities) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  EXPECT_EQ(a & mgr.one(), a);
  EXPECT_EQ(a & mgr.zero(), mgr.zero());
  EXPECT_EQ(a | mgr.zero(), a);
  EXPECT_EQ(a | mgr.one(), mgr.one());
  EXPECT_EQ(a ^ a, mgr.zero());
  EXPECT_EQ(a ^ !a, mgr.one());
  EXPECT_EQ(!(!a), a);
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ(a | b, b | a);
  // De Morgan.
  EXPECT_EQ(!(a & b), (!a) | (!b));
  EXPECT_EQ(!(a | b), (!a) & (!b));
}

TEST_F(BddTest, IteAgainstTruthTable) {
  const Bdd f = mgr.var(0);
  const Bdd g = mgr.var(1);
  const Bdd h = mgr.var(2);
  const Bdd r = mgr.ite(f, g, h);
  // ite(f,g,h) == (f & g) | (!f & h)
  EXPECT_EQ(r, (f & g) | ((!f) & h));
}

TEST_F(BddTest, ImpliesAndIff) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  EXPECT_EQ(a.implies(b), (!a) | b);
  EXPECT_EQ(a.iff(b), (a & b) | ((!a) & (!b)));
  EXPECT_TRUE(mgr.leq(a & b, a));
  EXPECT_TRUE(mgr.leq(a, a | b));
  EXPECT_FALSE(mgr.leq(a, a & b));
}

TEST_F(BddTest, ReductionRuleCollapsesRedundantTests) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  // (a & b) | (!a & b) must reduce to b exactly.
  EXPECT_EQ((a & b) | ((!a) & b), b);
}

TEST_F(BddTest, ExistentialQuantification) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  const Bdd c = mgr.var(2);
  const std::vector<unsigned> vs{0};
  const Bdd cube_a = mgr.cube(vs);
  // exists a. (a & b) == b
  EXPECT_EQ(mgr.exists(a & b, cube_a), b);
  // exists a. (a | b) == 1
  EXPECT_EQ(mgr.exists(a | b, cube_a), mgr.one());
  // exists a. (b & c) == b & c (a not in support)
  EXPECT_EQ(mgr.exists(b & c, cube_a), b & c);
}

TEST_F(BddTest, AndExistsEqualsComposition) {
  // Property: and_exists(f, g, cube) == exists(f & g, cube) on random inputs.
  std::mt19937 rng(7);
  const unsigned kVars = 8;
  auto random_function = [&]() {
    Bdd f = mgr.zero();
    for (int m = 0; m < 6; ++m) {
      Bdd term = mgr.one();
      for (unsigned v = 0; v < kVars; ++v) {
        const int pick = static_cast<int>(rng() % 3);
        if (pick == 0) term &= mgr.var(v);
        if (pick == 1) term &= !mgr.var(v);
      }
      f |= term;
    }
    return f;
  };
  const std::vector<unsigned> qvars{1, 3, 5};
  const Bdd cube = mgr.cube(qvars);
  for (int trial = 0; trial < 25; ++trial) {
    const Bdd f = random_function();
    const Bdd g = random_function();
    EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
  }
}

TEST_F(BddTest, CofactorShannonExpansion) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Bdd f = mgr.zero();
    for (int m = 0; m < 5; ++m) {
      Bdd term = mgr.one();
      for (unsigned v = 0; v < 6; ++v) {
        const int pick = static_cast<int>(rng() % 3);
        if (pick == 0) term &= mgr.var(v);
        if (pick == 1) term &= !mgr.var(v);
      }
      f |= term;
    }
    for (unsigned v = 0; v < 6; ++v) {
      const Bdd lo = mgr.cofactor(f, v, false);
      const Bdd hi = mgr.cofactor(f, v, true);
      EXPECT_EQ(f, mgr.ite(mgr.var(v), hi, lo));
      // Cofactors are independent of v.
      auto sup_lo = mgr.support(lo);
      EXPECT_EQ(std::count(sup_lo.begin(), sup_lo.end(), v), 0);
    }
  }
}

TEST_F(BddTest, PermuteRenamesSupport) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  const Bdd f = a & !b;
  // Map 0 -> 2, 1 -> 3.
  const std::vector<int> perm{2, 3};
  const Bdd g = mgr.permute(f, perm);
  EXPECT_EQ(g, mgr.var(2) & !mgr.var(3));
  const auto sup = mgr.support(g);
  EXPECT_EQ(sup, (std::vector<unsigned>{2, 3}));
}

TEST_F(BddTest, PermuteSwapRoundTrips) {
  const Bdd f = (mgr.var(0) & mgr.var(2)) | ((!mgr.var(1)) & mgr.var(3));
  const std::vector<int> swap01{1, 0, 3, 2};
  const Bdd g = mgr.permute(f, swap01);
  EXPECT_NE(f, g);
  EXPECT_EQ(mgr.permute(g, swap01), f);
}

TEST_F(BddTest, CubeAndMinterm) {
  const std::vector<unsigned> vars{0, 2, 4};
  const Bdd c = mgr.cube(vars);
  EXPECT_EQ(c, mgr.var(0) & mgr.var(2) & mgr.var(4));
  const std::vector<bool> vals{true, false, true};
  const Bdd m = mgr.minterm(vars, vals);
  EXPECT_EQ(m, mgr.var(0) & !mgr.var(2) & mgr.var(4));
}

TEST_F(BddTest, MintermSizeMismatchThrows) {
  const std::vector<unsigned> vars{0, 1};
  const std::vector<bool> vals{true};
  EXPECT_THROW((void)mgr.minterm(vars, vals), std::invalid_argument);
}

TEST_F(BddTest, SatCountSmallFunctions) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.zero(), 3), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.one(), 3), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(a, 3), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(a & b, 3), 2.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(a | b, 3), 6.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(a ^ b, 2), 2.0);
}

TEST_F(BddTest, SatCountMatchesEnumeration) {
  std::mt19937 rng(3);
  const unsigned kVars = 7;
  std::vector<unsigned> vars(kVars);
  for (unsigned v = 0; v < kVars; ++v) vars[v] = v;
  for (int trial = 0; trial < 10; ++trial) {
    Bdd f = mgr.zero();
    for (int m = 0; m < 8; ++m) {
      Bdd term = mgr.one();
      for (unsigned v = 0; v < kVars; ++v) {
        const int pick = static_cast<int>(rng() % 3);
        if (pick == 0) term &= mgr.var(v);
        if (pick == 1) term &= !mgr.var(v);
      }
      f |= term;
    }
    std::size_t enumerated = 0;
    mgr.for_each_minterm(f, vars, [&](const std::vector<bool>&) {
      ++enumerated;
      return true;
    });
    EXPECT_DOUBLE_EQ(mgr.sat_count(f, kVars),
                     static_cast<double>(enumerated));
  }
}

TEST_F(BddTest, PickMintermSatisfiesFunction) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  const Bdd c = mgr.var(2);
  const Bdd f = (a & !b) | (b & c);
  const std::vector<unsigned> vars{0, 1, 2};
  const auto m = mgr.pick_minterm(f, vars);
  ASSERT_TRUE(m.has_value());
  const Bdd point = mgr.minterm(vars, *m);
  EXPECT_TRUE(mgr.leq(point, f));
  EXPECT_FALSE(mgr.pick_minterm(mgr.zero(), vars).has_value());
}

TEST_F(BddTest, ForEachMintermEnumeratesAll) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  const Bdd f = a ^ b;
  const std::vector<unsigned> vars{0, 1};
  std::vector<std::vector<bool>> seen;
  mgr.for_each_minterm(f, vars, [&](const std::vector<bool>& v) {
    seen.push_back(v);
    return true;
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::vector<bool>{false, true}));
  EXPECT_EQ(seen[1], (std::vector<bool>{true, false}));
}

TEST_F(BddTest, ForEachMintermEarlyStop) {
  const Bdd f = mgr.one();
  const std::vector<unsigned> vars{0, 1, 2};
  int count = 0;
  const bool completed = mgr.for_each_minterm(f, vars, [&](const auto&) {
    ++count;
    return count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST_F(BddTest, SupportComputation) {
  const Bdd f = (mgr.var(1) & mgr.var(4)) | mgr.var(2);
  EXPECT_EQ(mgr.support(f), (std::vector<unsigned>{1, 2, 4}));
  EXPECT_TRUE(mgr.support(mgr.one()).empty());
  EXPECT_TRUE(mgr.support(mgr.zero()).empty());
}

TEST_F(BddTest, Intersects) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  EXPECT_TRUE(mgr.intersects(a, b));
  EXPECT_FALSE(mgr.intersects(a, !a));
  EXPECT_FALSE(mgr.intersects(a & b, !a));
}

TEST_F(BddTest, NodeCountOfSimpleFunctions) {
  EXPECT_EQ(mgr.zero().node_count(), 1u);
  EXPECT_EQ(mgr.one().node_count(), 1u);
  // A single variable: the node plus both constants.
  EXPECT_EQ(mgr.var(0).node_count(), 3u);
}

TEST_F(BddTest, GarbageCollectionPreservesLiveHandles) {
  const Bdd keep = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const auto keep_idx = keep.index();
  {
    // Create and drop a pile of temporaries.
    Bdd junk = mgr.zero();
    for (unsigned v = 3; v < 14; ++v) junk |= mgr.var(v) & mgr.var(v - 1);
  }
  mgr.collect_garbage();
  EXPECT_EQ(keep.index(), keep_idx);  // index stability across GC
  // The function is still intact and operable.
  EXPECT_EQ(keep & mgr.one(), keep);
  EXPECT_TRUE(mgr.leq(mgr.var(0) & mgr.var(1), keep));
  const auto s = mgr.stats();
  EXPECT_GE(s.gc_runs, 1u);
}

TEST_F(BddTest, GarbageCollectionReclaimsDeadNodes) {
  {
    Bdd junk = mgr.zero();
    for (unsigned v = 0; v < 16; ++v) junk ^= mgr.var(v);
  }
  const auto before = mgr.stats();
  mgr.collect_garbage();
  const auto after = mgr.stats();
  EXPECT_GT(after.free_nodes, before.free_nodes);
  // Recreating the same function after GC works and is canonical.
  Bdd f = mgr.zero();
  for (unsigned v = 0; v < 16; ++v) f ^= mgr.var(v);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, 16), 32768.0);
}

TEST_F(BddTest, CrossManagerOperandThrows) {
  BddManager other;
  const Bdd a = mgr.var(0);
  const Bdd b = other.var(0);
  EXPECT_THROW((void)mgr.apply_and(a, b), std::invalid_argument);
}

TEST_F(BddTest, PermuteMissingMappingThrows) {
  const Bdd f = mgr.var(0) & mgr.var(1);
  const std::vector<int> bad{2, -1};
  EXPECT_THROW((void)mgr.permute(f, bad), std::invalid_argument);
}

TEST_F(BddTest, ConstrainAgreesOnCareSet) {
  std::mt19937 rng(21);
  const unsigned kVars = 6;
  auto random_function = [&]() {
    Bdd f = mgr.zero();
    for (int m = 0; m < 5; ++m) {
      Bdd term = mgr.one();
      for (unsigned v = 0; v < kVars; ++v) {
        const int pick = static_cast<int>(rng() % 3);
        if (pick == 0) term &= mgr.var(v);
        if (pick == 1) term &= !mgr.var(v);
      }
      f |= term;
    }
    return f;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const Bdd f = random_function();
    Bdd c = random_function();
    if (c.is_zero()) c = mgr.one();
    const Bdd g = mgr.constrain(f, c);
    // Defining property: g & c == f & c.
    EXPECT_EQ(g & c, f & c);
  }
}

TEST_F(BddTest, ConstrainSimplifies) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  // Under care set a, f = a & b collapses to b.
  EXPECT_EQ(mgr.constrain(a & b, a), b);
  // Constraining by itself yields one.
  EXPECT_EQ(mgr.constrain(a & b, a & b), mgr.one());
  EXPECT_THROW((void)mgr.constrain(a, mgr.zero()), std::invalid_argument);
}

TEST_F(BddTest, PointEvaluation) {
  const Bdd f = (mgr.var(0) & mgr.var(2)) | ((!mgr.var(1)) & mgr.var(3));
  for (unsigned a = 0; a < 16; ++a) {
    std::vector<bool> point(4);
    for (unsigned v = 0; v < 4; ++v) point[v] = (a >> v) & 1u;
    const bool expected =
        (point[0] && point[2]) || (!point[1] && point[3]);
    EXPECT_EQ(mgr.eval(f, point), expected) << "assignment " << a;
  }
  // Variables beyond the vector default to false.
  const std::vector<bool> kShort{true};
  EXPECT_FALSE(mgr.eval(mgr.var(7), kShort));
  EXPECT_TRUE(mgr.eval(mgr.one(), kShort));
  EXPECT_FALSE(mgr.eval(mgr.zero(), kShort));
}

// Property sweep: random 3-term DNFs over n variables evaluated against a
// brute-force truth table.
class BddSemanticsProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddSemanticsProperty, RandomDnfMatchesTruthTable) {
  BddManager mgr;
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const unsigned n = 6;
  // Build a random DNF both as a BDD and as an evaluatable description.
  struct Term {
    unsigned pos_mask, neg_mask;
  };
  std::vector<Term> terms;
  Bdd f = mgr.zero();
  for (int t = 0; t < 4; ++t) {
    Term term{0, 0};
    Bdd tb = mgr.one();
    for (unsigned v = 0; v < n; ++v) {
      const int pick = static_cast<int>(rng() % 3);
      if (pick == 0) {
        term.pos_mask |= 1u << v;
        tb &= mgr.var(v);
      } else if (pick == 1) {
        term.neg_mask |= 1u << v;
        tb &= !mgr.var(v);
      }
    }
    terms.push_back(term);
    f |= tb;
  }
  auto eval = [&terms](unsigned assignment) {
    for (const Term& t : terms) {
      if ((assignment & t.pos_mask) == t.pos_mask &&
          (assignment & t.neg_mask) == 0) {
        return true;
      }
    }
    return false;
  };
  std::vector<unsigned> vars(n);
  for (unsigned v = 0; v < n; ++v) vars[v] = v;
  for (unsigned a = 0; a < (1u << n); ++a) {
    std::vector<bool> vals(n);
    for (unsigned v = 0; v < n; ++v) vals[v] = (a >> v) & 1u;
    const Bdd point = mgr.minterm(vars, vals);
    EXPECT_EQ(mgr.leq(point, f), eval(a)) << "assignment " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddSemanticsProperty,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Variable ordering: id/level decoupling, set_order, sifting
// ---------------------------------------------------------------------------

class BddReorderTest : public ::testing::Test {
 protected:
  BddManager mgr;

  /// Random 5-term DNF over `n` variables (deterministic per seed).
  Bdd random_dnf(unsigned n, unsigned seed) {
    std::mt19937 rng(seed);
    Bdd f = mgr.zero();
    for (int m = 0; m < 5; ++m) {
      Bdd term = mgr.one();
      for (unsigned v = 0; v < n; ++v) {
        const int pick = static_cast<int>(rng() % 3);
        if (pick == 0) term &= mgr.var(v);
        if (pick == 1) term &= !mgr.var(v);
      }
      f |= term;
    }
    return f;
  }

  /// Truth table of f over variables 0..n-1 as a bitset-by-assignment.
  std::vector<bool> truth_table(const Bdd& f, unsigned n) {
    std::vector<bool> table(std::size_t{1} << n);
    for (unsigned a = 0; a < (1u << n); ++a) {
      std::vector<bool> point(n);
      for (unsigned v = 0; v < n; ++v) point[v] = (a >> v) & 1u;
      table[a] = mgr.eval(f, point);
    }
    return table;
  }
};

TEST_F(BddReorderTest, InitialOrderMatchesVariableIds) {
  (void)mgr.var(3);  // creates vars 0..3
  for (unsigned v = 0; v < 4; ++v) {
    EXPECT_EQ(mgr.level_of(v), v);
    EXPECT_EQ(mgr.var_at_level(v), v);
  }
  EXPECT_EQ(mgr.level_order(), (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST_F(BddReorderTest, SetOrderPreservesSemantics) {
  const unsigned n = 6;
  const Bdd f = random_dnf(n, 42);
  const auto before = truth_table(f, n);
  const auto support_before = mgr.support(f);

  const std::vector<unsigned> reversed{5, 4, 3, 2, 1, 0};
  mgr.set_order(reversed);

  EXPECT_EQ(mgr.level_order(), reversed);
  for (unsigned v = 0; v < n; ++v) {
    EXPECT_EQ(mgr.var_at_level(mgr.level_of(v)), v);  // maps stay bijective
  }
  EXPECT_EQ(truth_table(f, n), before);
  EXPECT_EQ(mgr.support(f), support_before);  // support is id-based
}

TEST_F(BddReorderTest, SetOrderKeepsHandlesIndicesAndCanonicity) {
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const NodeIndex idx = f.index();

  mgr.set_order(std::vector<unsigned>{2, 1, 0});

  // The handle still points at the same slot and the slot still holds the
  // same function: rebuilding it hash-conses onto the identical index.
  EXPECT_EQ(f.index(), idx);
  const Bdd rebuilt = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  EXPECT_EQ(rebuilt, f);
  EXPECT_EQ(rebuilt.index(), idx);
}

TEST_F(BddReorderTest, SetOrderRoundTripRestoresFingerprint) {
  const Bdd f = random_dnf(5, 7);
  const std::uint64_t fp0 = mgr.order_fingerprint();
  const auto table = truth_table(f, 5);

  mgr.set_order(std::vector<unsigned>{4, 2, 0, 3, 1});
  EXPECT_NE(mgr.order_fingerprint(), fp0);
  mgr.set_order(std::vector<unsigned>{0, 1, 2, 3, 4});
  EXPECT_EQ(mgr.order_fingerprint(), fp0);
  EXPECT_EQ(truth_table(f, 5), table);
}

TEST_F(BddReorderTest, SetOrderRejectsNonPermutations) {
  (void)mgr.var(2);  // three variables
  EXPECT_THROW(mgr.set_order(std::vector<unsigned>{0, 1}),
               std::invalid_argument);
  EXPECT_THROW(mgr.set_order(std::vector<unsigned>{0, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(mgr.set_order(std::vector<unsigned>{0, 1, 3}),
               std::invalid_argument);
}

TEST_F(BddReorderTest, SiftingShrinksAdversarialOrder) {
  // (x0&x1) | (x2&x3) | (x4&x5) is linear under the pairing order but
  // exponential when the ands are split across the order. Force the bad
  // interleaving, then let sifting find its way back.
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (mgr.var(2) & mgr.var(3)) |
                (mgr.var(4) & mgr.var(5));
  const auto table = truth_table(f, 6);

  mgr.set_order(std::vector<unsigned>{0, 2, 4, 1, 3, 5});
  const std::size_t bad = f.node_count();

  (void)mgr.try_reorder();
  const std::size_t sifted = f.node_count();

  EXPECT_LE(sifted * 2, bad);  // at least a 2x reduction on this family
  EXPECT_EQ(truth_table(f, 6), table);
  const auto s = mgr.stats();
  EXPECT_GE(s.reorders, 1u);
  EXPECT_GT(s.level_swaps, 0u);
}

TEST_F(BddReorderTest, SiftingIsDeterministicAcrossManagers) {
  auto run = [](BddManager& m) {
    const Bdd f = (m.var(0) & m.var(1)) | (m.var(2) & m.var(3)) |
                  (m.var(4) & m.var(5));
    m.set_order(std::vector<unsigned>{0, 2, 4, 1, 3, 5});
    (void)m.try_reorder();
    return std::make_pair(m.level_order(), m.stats());
  };
  BddManager a, b;
  const auto [order_a, stats_a] = run(a);
  const auto [order_b, stats_b] = run(b);
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(stats_a.order_fingerprint, stats_b.order_fingerprint);
  EXPECT_EQ(stats_a.level_swaps, stats_b.level_swaps);
  EXPECT_EQ(stats_a.live_nodes, stats_b.live_nodes);
}

TEST_F(BddReorderTest, OperationsAgreeAcrossReorder) {
  // Results computed before a reorder keep working as operands after it,
  // and post-reorder recomputation reaches the same canonical nodes.
  const Bdd f = random_dnf(6, 1);
  const Bdd g = random_dnf(6, 2);
  const Bdd pre_and = f & g;
  const Bdd pre_exists = mgr.exists(f, mgr.cube(std::vector<unsigned>{1, 3}));

  mgr.set_order(std::vector<unsigned>{5, 3, 1, 4, 2, 0});
  (void)mgr.try_reorder();

  EXPECT_EQ(f & g, pre_and);
  EXPECT_EQ(mgr.exists(f, mgr.cube(std::vector<unsigned>{1, 3})), pre_exists);
  EXPECT_EQ(mgr.ite(f, g, !g), (f & g) | ((!f) & !g));
  for (unsigned v = 0; v < 6; ++v) {
    EXPECT_EQ(f, mgr.ite(mgr.var(v), mgr.cofactor(f, v, true),
                         mgr.cofactor(f, v, false)));
  }
}

TEST_F(BddReorderTest, AutoPolicyTriggersSifting) {
  mgr.set_reorder_policy(ReorderPolicy::kAuto);
  mgr.set_reorder_threshold(64);
  EXPECT_EQ(mgr.reorder_policy(), ReorderPolicy::kAuto);

  std::mt19937 rng(13);
  Bdd acc = mgr.zero();
  for (int round = 0; round < 40; ++round) {
    Bdd term = mgr.one();
    for (unsigned v = 0; v < 12; ++v) {
      const int pick = static_cast<int>(rng() % 3);
      if (pick == 0) term &= mgr.var(v);
      if (pick == 1) term &= !mgr.var(v);
    }
    acc |= term;
  }
  EXPECT_GE(mgr.stats().reorders, 1u);
  // The accumulated function still evaluates consistently.
  const auto m = mgr.pick_minterm(acc, std::vector<unsigned>{0, 1, 2, 3, 4, 5,
                                                             6, 7, 8, 9, 10,
                                                             11});
  ASSERT_TRUE(m.has_value());
  std::vector<bool> point(*m);
  EXPECT_TRUE(mgr.eval(acc, point));
}

TEST_F(BddReorderTest, PeakLiveNodesIsMonotoneHighWaterMark) {
  const auto s0 = mgr.stats();
  { const Bdd junk = random_dnf(10, 99); (void)junk; }
  const auto s1 = mgr.stats();
  mgr.collect_garbage();
  const auto s2 = mgr.stats();
  EXPECT_GE(s1.peak_live_nodes, s0.peak_live_nodes);
  EXPECT_GE(s2.peak_live_nodes, s1.peak_live_nodes);  // GC cannot lower it
  EXPECT_LE(s2.live_nodes, s2.peak_live_nodes);
}

// ---------------------------------------------------------------------------
// cube()/minterm() argument hygiene
// ---------------------------------------------------------------------------

TEST_F(BddTest, CubeDeduplicatesVariables) {
  const Bdd deduped = mgr.cube(std::vector<unsigned>{0, 2, 0, 2, 2});
  EXPECT_EQ(deduped, mgr.var(0) & mgr.var(2));
  EXPECT_EQ(deduped, mgr.cube(std::vector<unsigned>{0, 2}));
}

TEST_F(BddTest, MintermDeduplicatesConsistentRepeats) {
  const std::vector<unsigned> vars{0, 1, 0};
  const std::vector<bool> vals{true, false, true};
  EXPECT_EQ(mgr.minterm(vars, vals), mgr.var(0) & !mgr.var(1));
}

TEST_F(BddTest, MintermConflictingValuesThrow) {
  const std::vector<unsigned> vars{0, 1, 0};
  const std::vector<bool> vals{true, false, false};
  EXPECT_THROW((void)mgr.minterm(vars, vals), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GC invariants
// ---------------------------------------------------------------------------

TEST_F(BddTest, GcRetainsExactlyTheReachableNodes) {
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (mgr.var(2) ^ mgr.var(3));
  {
    Bdd junk = mgr.zero();
    for (unsigned v = 4; v < 20; ++v) junk ^= mgr.var(v);
  }
  mgr.collect_garbage();
  const auto s = mgr.stats();
  // Everything not on the free list is reachable from the one live handle.
  EXPECT_EQ(s.live_nodes, mgr.node_count(f));
  EXPECT_EQ(s.allocated_nodes, s.live_nodes + s.free_nodes);
}

TEST_F(BddTest, GcPreservesCofactorStructure) {
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const Bdd lo = f.low();
  const Bdd hi = f.high();
  mgr.collect_garbage();
  // Child handles survive and still stitch back into the parent.
  EXPECT_EQ(mgr.ite(mgr.var(f.top_var()), hi, lo), f);
}

TEST_F(BddTest, NoStaleCacheAcrossGc) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  const Bdd before = a & b;  // populates the op cache
  mgr.collect_garbage();     // must not leave entries for reclaimed slots
  {
    Bdd churn = mgr.zero();
    for (unsigned v = 2; v < 10; ++v) churn |= mgr.var(v) & mgr.var(v - 1);
  }
  mgr.collect_garbage();
  EXPECT_EQ(a & b, before);           // recomputed or validly cached
  EXPECT_EQ(!(!(a & b)), before);     // derived ops agree too
  EXPECT_DOUBLE_EQ(mgr.sat_count(a & b, 2), 1.0);
}

TEST_F(BddTest, FreeSlotsAreReusedAfterGc) {
  {
    Bdd junk = mgr.zero();
    for (unsigned v = 0; v < 12; ++v) junk ^= mgr.var(v);
  }
  mgr.collect_garbage();
  const auto after_gc = mgr.stats();
  ASSERT_GT(after_gc.free_nodes, 0u);
  // Rebuilding fills freed slots instead of growing the arena.
  Bdd f = mgr.zero();
  for (unsigned v = 0; v < 12; ++v) f ^= mgr.var(v);
  EXPECT_EQ(mgr.stats().allocated_nodes, after_gc.allocated_nodes);
}

// ---------------------------------------------------------------------------
// pick_minterm: lexicographic-in-list-order, reorder-invariant
// ---------------------------------------------------------------------------

TEST_F(BddTest, PickMintermIsLexSmallestInListOrder) {
  const Bdd f = mgr.var(0) | mgr.var(1);
  // Over {0, 1}: var0=false works (f|_{!x0} = x1 != 0), then var1 is forced.
  const auto m01 = mgr.pick_minterm(f, std::vector<unsigned>{0, 1});
  ASSERT_TRUE(m01.has_value());
  EXPECT_EQ(*m01, (std::vector<bool>{false, true}));
  // Over {1, 0}: var1=false first, then var0 forced — list order decides.
  const auto m10 = mgr.pick_minterm(f, std::vector<unsigned>{1, 0});
  ASSERT_TRUE(m10.has_value());
  EXPECT_EQ(*m10, (std::vector<bool>{false, true}));
}

TEST_F(BddTest, PickMintermUnaffectedByReorder) {
  const Bdd f = (mgr.var(0) & !mgr.var(2)) | (mgr.var(1) & mgr.var(3));
  const std::vector<unsigned> vars{0, 1, 2, 3};
  const auto before = mgr.pick_minterm(f, vars);
  ASSERT_TRUE(before.has_value());
  mgr.set_order(std::vector<unsigned>{3, 1, 2, 0});
  const auto after = mgr.pick_minterm(f, vars);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *before);
}

}  // namespace
}  // namespace simcov::bdd
