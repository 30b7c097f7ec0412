// Unit and property-based tests for the BDD package.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <random>
#include <stdexcept>

#include "bdd/bdd.hpp"
#include "obs/obs.hpp"

namespace hsis {
namespace {

TEST(Bdd, TerminalBasics) {
  BddManager m(2);
  EXPECT_TRUE(m.bddOne().isOne());
  EXPECT_TRUE(m.bddZero().isZero());
  EXPECT_NE(m.bddOne(), m.bddZero());
  EXPECT_TRUE((!m.bddZero()).isOne());
  EXPECT_TRUE(m.bddOne().isConstant());
  Bdd nullBdd;
  EXPECT_TRUE(nullBdd.isNull());
  EXPECT_FALSE(m.bddOne().isNull());
}

TEST(Bdd, VarStructure) {
  BddManager m(3);
  Bdd a = m.bddVar(0);
  EXPECT_EQ(a.var(), 0u);
  EXPECT_TRUE(a.low().isZero());
  EXPECT_TRUE(a.high().isOne());
  Bdd na = m.bddLiteral(0, false);
  EXPECT_EQ(na, !a);
}

TEST(Bdd, HandleRefCounting) {
  BddManager m(4);
  size_t before = m.liveNodeCount();
  {
    Bdd f = m.bddVar(0) & m.bddVar(1) & m.bddVar(2);
    EXPECT_GT(m.liveNodeCount(), before);
  }
  m.gc();
  // After dropping the only handle, intermediate nodes are collectable;
  // only the single-variable nodes referenced by nothing remain collectable
  // too, so we are back at (or below) the initial live count.
  EXPECT_LE(m.liveNodeCount(), before + 3);
}

TEST(Bdd, BooleanAlgebraLaws) {
  BddManager m(4);
  Bdd a = m.bddVar(0), b = m.bddVar(1), c = m.bddVar(2);
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ(a | b, b | a);
  EXPECT_EQ((a & b) & c, a & (b & c));
  EXPECT_EQ(a & (b | c), (a & b) | (a & c));
  EXPECT_EQ(!(a & b), (!a) | (!b));
  EXPECT_EQ(!(a | b), (!a) & (!b));
  EXPECT_EQ(a ^ b, (a & (!b)) | ((!a) & b));
  EXPECT_TRUE((a | !a).isOne());
  EXPECT_TRUE((a & !a).isZero());
  EXPECT_EQ(!(!a), a);
}

TEST(Bdd, IteIsCanonical) {
  BddManager m(3);
  Bdd a = m.bddVar(0), b = m.bddVar(1), c = m.bddVar(2);
  EXPECT_EQ(m.ite(a, b, c), (a & b) | ((!a) & c));
  EXPECT_EQ(m.ite(a, m.bddOne(), m.bddZero()), a);
  EXPECT_EQ(m.ite(a, m.bddZero(), m.bddOne()), !a);
  EXPECT_EQ(m.ite(m.bddOne(), b, c), b);
  EXPECT_EQ(m.ite(m.bddZero(), b, c), c);
}

TEST(Bdd, Quantification) {
  BddManager m(4);
  Bdd a = m.bddVar(0), b = m.bddVar(1), c = m.bddVar(2);
  Bdd f = (a & b) | c;
  EXPECT_EQ(m.exists(f, a), b | c);
  EXPECT_EQ(m.forall(f, a), c);
  // quantifying a variable not in the support is identity
  Bdd d = m.bddVar(3);
  EXPECT_EQ(m.exists(f, d), f);
  EXPECT_EQ(m.forall(f, d), f);
  // multi-variable cube
  EXPECT_TRUE(m.exists(f, a & b & c).isOne());
  EXPECT_TRUE(m.forall(f, a & b & c).isZero());
  // duality
  EXPECT_EQ(m.forall(f, a & b), !m.exists(!f, a & b));
}

TEST(Bdd, AndExistsMatchesComposition) {
  BddManager m(6);
  std::mt19937 rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    // random functions over 6 vars from random minterm sets
    auto randomFn = [&]() {
      Bdd f = m.bddZero();
      for (int k = 0; k < 8; ++k) {
        Bdd cube = m.bddOne();
        for (BddVar v = 0; v < 6; ++v) {
          int r = static_cast<int>(rng() % 3);
          if (r == 0) cube &= m.bddVar(v);
          if (r == 1) cube &= !m.bddVar(v);
        }
        f |= cube;
      }
      return f;
    };
    Bdd f = randomFn(), g = randomFn();
    Bdd cube = m.bddVar(1) & m.bddVar(3) & m.bddVar(5);
    EXPECT_EQ(m.andExists(f, g, cube), m.exists(f & g, cube));
  }
}

TEST(Bdd, ConstrainAndRestrictAgreeOnCareSet) {
  BddManager m(5);
  std::mt19937 rng(42);
  auto randomFn = [&]() {
    Bdd f = m.bddZero();
    for (int k = 0; k < 6; ++k) {
      Bdd cube = m.bddOne();
      for (BddVar v = 0; v < 5; ++v) {
        int r = static_cast<int>(rng() % 3);
        if (r == 0) cube &= m.bddVar(v);
        if (r == 1) cube &= !m.bddVar(v);
      }
      f |= cube;
    }
    return f;
  };
  for (int iter = 0; iter < 30; ++iter) {
    Bdd f = randomFn();
    Bdd c = randomFn();
    if (c.isZero()) continue;
    // Both generalized cofactors agree with f wherever c holds.
    EXPECT_EQ(m.constrain(f, c) & c, f & c);
    EXPECT_EQ(m.restrict(f, c) & c, f & c);
  }
  EXPECT_THROW(m.constrain(m.bddVar(0), m.bddZero()), std::invalid_argument);
  EXPECT_THROW(m.restrict(m.bddVar(0), m.bddZero()), std::invalid_argument);
}

TEST(Bdd, RestrictShrinks) {
  BddManager m(6);
  Bdd a = m.bddVar(0), b = m.bddVar(1), c = m.bddVar(2);
  Bdd f = (a & b & c) | ((!a) & b & (!c)) | (a & (!b));
  // On the care set a=1, f loses its dependence on much of the structure.
  Bdd r = m.restrict(f, a);
  EXPECT_LE(r.nodeCount(), f.nodeCount());
  EXPECT_EQ(r & a, f & a);
}

TEST(Bdd, Cofactor) {
  BddManager m(3);
  Bdd a = m.bddVar(0), b = m.bddVar(1);
  Bdd f = (a & b) | ((!a) & (!b));
  EXPECT_EQ(m.cofactor(f, 0, true), b);
  EXPECT_EQ(m.cofactor(f, 0, false), !b);
}

TEST(Bdd, PermuteSwapsRails) {
  BddManager m(6);
  Bdd f = (m.bddVar(0) & m.bddVar(2)) | m.bddVar(4);
  std::vector<BddVar> map{1, 0, 3, 2, 5, 4};
  Bdd g = m.permute(f, map);
  EXPECT_EQ(g, (m.bddVar(1) & m.bddVar(3)) | m.bddVar(5));
  // applying the swap twice is the identity
  EXPECT_EQ(m.permute(g, map), f);
}

TEST(Bdd, Leq) {
  BddManager m(4);
  Bdd a = m.bddVar(0), b = m.bddVar(1);
  EXPECT_TRUE((a & b).leq(a));
  EXPECT_TRUE(a.leq(a | b));
  EXPECT_FALSE(a.leq(a & b));
  EXPECT_TRUE(m.bddZero().leq(a));
  EXPECT_TRUE(a.leq(m.bddOne()));
  // leq(f,g) <=> (f & !g) == 0
  Bdd f = a ^ b;
  Bdd g = a | b;
  EXPECT_EQ(f.leq(g), (f & !g).isZero());
}

TEST(Bdd, Support) {
  BddManager m(5);
  Bdd f = (m.bddVar(0) & m.bddVar(3)) | m.bddVar(4);
  std::vector<BddVar> s = m.support(f);
  EXPECT_EQ(s, (std::vector<BddVar>{0, 3, 4}));
  Bdd cube = m.supportCube(f);
  EXPECT_EQ(cube, m.bddVar(0) & m.bddVar(3) & m.bddVar(4));
  EXPECT_TRUE(m.support(m.bddOne()).empty());
}

TEST(Bdd, SatCount) {
  BddManager m(4);
  Bdd a = m.bddVar(0), b = m.bddVar(1);
  EXPECT_DOUBLE_EQ(m.satCount(a, 4), 8.0);
  EXPECT_DOUBLE_EQ(m.satCount(a & b, 4), 4.0);
  EXPECT_DOUBLE_EQ(m.satCount(a | b, 4), 12.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddOne(), 4), 16.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddZero(), 4), 0.0);
  EXPECT_DOUBLE_EQ(m.satCount(a ^ b, 2), 2.0);
}

TEST(Bdd, PickCubeSatisfies) {
  BddManager m(5);
  std::mt19937 rng(3);
  for (int iter = 0; iter < 20; ++iter) {
    Bdd f = m.bddZero();
    for (int k = 0; k < 4; ++k) {
      Bdd cube = m.bddOne();
      for (BddVar v = 0; v < 5; ++v) {
        int r = static_cast<int>(rng() % 3);
        if (r == 0) cube &= m.bddVar(v);
        if (r == 1) cube &= !m.bddVar(v);
      }
      f |= cube;
    }
    if (f.isZero()) continue;
    std::vector<int8_t> pick = m.pickCube(f);
    Bdd cube = m.cubeFromAssignment(pick);
    EXPECT_TRUE(cube.leq(f)) << "picked cube must imply f";
  }
  EXPECT_TRUE(m.pickCube(m.bddZero()).empty());
}

TEST(Bdd, ImpliesOperator) {
  BddManager m(2);
  Bdd a = m.bddVar(0), b = m.bddVar(1);
  EXPECT_EQ(a.implies(b), (!a) | b);
}

TEST(Bdd, VariableLimit) {
  // Node variable ids are 16 bits wide.
  BddManager m(0xFFFF);
  EXPECT_EQ(m.numVars(), 0xFFFFu);
  EXPECT_THROW(m.newVar(), std::length_error);
  Bdd last = m.bddVar(0xFFFE);
  EXPECT_EQ(last.var(), 0xFFFEu);
}

TEST(Bdd, SaturatedReferenceCountPinsTheNode) {
  // 16-bit reference counts saturate: a node that once had 65535 handles
  // is permanent; no collection frees it, even after its last handle.
  BddManager m(4);
  Bdd f = m.bddVar(0) & m.bddVar(1);
  m.gc();
  const size_t live = m.liveNodeCount();  // f's two nodes
  {
    std::vector<Bdd> copies(70000, f);
    f = Bdd();
  }
  m.gc();
  EXPECT_EQ(m.liveNodeCount(), live) << "a saturated node was collected";
  Bdd again = m.bddVar(0) & m.bddVar(1);
  EXPECT_DOUBLE_EQ(m.satCount(again, 4), 4.0);
}

TEST(Bdd, GarbageCollectionKeepsLiveNodes) {
  BddManager m(8);
  Bdd keep = (m.bddVar(0) & m.bddVar(1)) | (m.bddVar(2) ^ m.bddVar(3));
  size_t keepCount = keep.nodeCount();
  // create garbage
  for (int i = 0; i < 1000; ++i) {
    Bdd tmp = m.bddVar(static_cast<BddVar>(i % 8)) ^ m.bddVar(static_cast<BddVar>((i + 1) % 8));
    (void)tmp;
  }
  m.gc();
  EXPECT_EQ(keep.nodeCount(), keepCount);
  EXPECT_EQ(keep, (m.bddVar(0) & m.bddVar(1)) | (m.bddVar(2) ^ m.bddVar(3)));
}

TEST(Bdd, ComputedCacheSurvivesGc) {
  BddManager m(16);
  std::mt19937 rng(11);
  auto randomFn = [&](BddVar vars) {
    Bdd f = m.bddZero();
    for (int k = 0; k < 24; ++k) {
      Bdd cube = m.bddOne();
      for (BddVar v = 0; v < vars; ++v) {
        if (rng() % 3 == 0) cube &= m.bddVar(v);
        else if (rng() % 2 == 0) cube &= !m.bddVar(v);
      }
      f |= cube;
    }
    return f;
  };
  Bdd f = randomFn(16), g = randomFn(16);
  Bdd fg = f & g;  // populates the computed cache
  m.gc();          // keep-alive sweep: every cached operand is still live
  size_t hitsBefore = m.stats().cacheHits;
  Bdd again = m.andOp(f, g);  // should be answered from the surviving cache
  EXPECT_EQ(again, fg);
  EXPECT_GT(m.stats().cacheHits, hitsBefore);

  // Every op kind, keyed on live operands and on garbage ones: after a
  // collection and fresh allocations that refill the freed slots, each
  // lookup must equal its recomputation from an empty cache. An entry the
  // sweep kept although one of its nodes died would be found again under
  // the new node in that slot and surface here as a wrong answer.
  Bdd h = randomFn(16), c = randomFn(16) | m.bddVar(3), low = randomFn(8);
  Bdd cube = m.cube(std::vector<BddVar>{1, 4, 6, 9, 13});
  std::vector<BddVar> shift(16);  // 0..7 onto 8..15
  for (BddVar v = 0; v < 8; ++v) shift[v] = v + 8;
  for (BddVar v = 8; v < 16; ++v) shift[v] = v;
  auto randomQuantCube = [&] {
    std::vector<BddVar> vars;
    for (BddVar v = 0; v < 16; ++v)
      if (rng() % 3 == 0) vars.push_back(v);
    return m.cube(vars);
  };
  // x, y and q stand in the operand positions a, b and c of the cache key
  // (y is the renamed function, q the quantification cube).
  auto runAll = [&](const Bdd& x, const Bdd& y, const Bdd& q) {
    return std::vector<Bdd>{
        m.ite(x, g, h),      m.ite(f, x, h),        m.ite(f, g, x),
        m.andOp(x, h),       m.xorOp(g, x),         m.exists(x, q),
        m.exists(f, q),      m.andExists(x, h, q),  m.andExists(f, h, q),
        m.constrain(x, c),   m.constrain(f, x | c), m.restrict(x, c),
        m.restrict(g, x | c), m.permute(y, shift),
        m.leq(x, f) ? m.bddOne() : m.bddZero(),
        m.leq(x & f, f) ? m.bddOne() : m.bddZero()};
  };
  for (int round = 0; round < 4; ++round) {
    std::vector<Bdd> cached = runAll(f, low, cube);
    for (int k = 0; k < 24; ++k)
      (void)runAll(randomFn(16), randomFn(8), randomQuantCube());  // garbage
    m.gc();
    size_t hits = m.stats().cacheHits;
    std::vector<Bdd> afterGc = runAll(f, low, cube);
    EXPECT_GT(m.stats().cacheHits, hits) << "no live-keyed entry survived";
    // Fresh operands refill the freed slots.
    std::vector<std::array<Bdd, 3>> args;
    std::vector<std::vector<Bdd>> reused;
    for (int k = 0; k < 24; ++k) {
      args.push_back({randomFn(16), randomFn(8), randomQuantCube()});
      reused.push_back(runAll(args[k][0], args[k][1], args[k][2]));
    }
    m.clearCaches();
    std::vector<Bdd> fresh = runAll(f, low, cube);
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(cached[i], fresh[i]) << "op " << i << ", round " << round;
      EXPECT_EQ(afterGc[i], fresh[i]) << "op " << i << ", round " << round;
    }
    for (size_t k = 0; k < args.size(); ++k)
      EXPECT_EQ(reused[k], runAll(args[k][0], args[k][1], args[k][2]))
          << "round " << round;
  }

  // The third key field on its own: an entry whose quantification cube
  // died, while its other operands and its result live on, must not pass
  // to the next node allocated in the cube's slot.
  BddManager m2(12);
  Bdd p = m2.bddVar(7) & m2.bddVar(8);  // the bare x7 node is not in p
  Bdd r = m2.bddVar(8) | m2.bddVar(9);
  m2.gc();
  Bdd q = m2.cube(std::vector<BddVar>{7});  // one fresh node
  const uint32_t slot = q.index();
  Bdd kept = m2.andExists(p, r, q);  // x8: a node of p
  ASSERT_EQ(kept, m2.bddVar(8));
  q = Bdd();
  m2.gc();  // frees q's node alone
  Bdd q2 = m2.cube(std::vector<BddVar>{10});  // the next fresh node
  ASSERT_EQ(q2.index(), slot)
      << "the sweep's freed slot was not the next one allocated";
  Bdd viaCache = m2.andExists(p, r, q2);
  m2.clearCaches();
  EXPECT_EQ(viaCache, m2.andExists(p, r, q2));
}

/// f at one assignment (bit v of `minterm` is variable v), by walking the
/// edges: no BDD operation, so it is an oracle for the apply kernels.
bool evalAt(Bdd f, uint32_t minterm) {
  while (!f.isConstant()) f = (minterm >> f.var() & 1) != 0 ? f.high() : f.low();
  return f.isOne();
}

TEST(Bdd, AndLimitIsAndWithinBudgetAndNullPastIt) {
  constexpr BddVar kVars = 12;
  BddManager m(kVars);
  std::mt19937 rng(17);
  auto randomFn = [&] {
    Bdd f = m.bddZero();
    for (int k = 0; k < 20; ++k) {
      Bdd cube = m.bddOne();
      for (BddVar v = 0; v < kVars; ++v) {
        if (rng() % 3 == 0) cube &= m.bddVar(v);
        else if (rng() % 2 == 0) cube &= !m.bddVar(v);
      }
      f |= cube;
    }
    return f;
  };
  auto expectProduct = [&](const Bdd& fg, const Bdd& f, const Bdd& g, int trial) {
    for (uint32_t minterm = 0; minterm < (1u << kVars); ++minterm) {
      ASSERT_EQ(evalAt(fg, minterm), evalAt(f, minterm) && evalAt(g, minterm))
          << "trial " << trial << ", minterm " << minterm;
    }
  };
  int aborted = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Bdd f = randomFn(), g = randomFn();
    size_t productNodes = m.andOp(f, g).nodeCount();
    // Drop the product and its cache entries, so each call below builds it
    // afresh.
    auto forget = [&] {
      m.clearCaches();
      m.gc();
    };
    // A generous budget, the product's size: every fresh node is one of
    // the product's nodes, so the call cannot run out.
    forget();
    Bdd limited = m.andLimit(f, g, productNodes);
    ASSERT_FALSE(limited.isNull()) << "trial " << trial;
    expectProduct(limited, f, g, trial);
    limited = Bdd();

    // Past the budget: null, no reference leaked, and the partial work
    // left in the computed cache serves a later andOp correctly.
    forget();
    size_t live = m.liveNodeCount();
    Bdd none = m.andLimit(f, g, productNodes / 4);
    if (!none.isNull()) continue;  // the product reused most nodes of f, g
    ++aborted;
    m.gc();
    EXPECT_EQ(m.liveNodeCount(), live) << "trial " << trial;
    expectProduct(m.andOp(f, g), f, g, trial);
  }
  EXPECT_GT(aborted, 10);
  // A budget of zero refuses any product that needs a node.
  EXPECT_TRUE(m.andLimit(m.bddVar(0), m.bddVar(1), 0).isNull());
  EXPECT_EQ(m.andLimit(m.bddVar(0), m.bddOne(), 0), m.bddVar(0));
}

/// A random cube over all of `m`'s variables: one op, a fresh chain of up
/// to numVars() nodes.
Bdd randomCube(BddManager& m, std::mt19937& rng) {
  std::vector<int8_t> assign(m.numVars());
  for (int8_t& a : assign) a = static_cast<int8_t>(rng() % 2);
  return m.cubeFromAssignment(assign);
}

/// Random cubes held until they span at least `nodes` nodes.
std::vector<Bdd> holdLive(BddManager& m, std::mt19937& rng, size_t nodes) {
  std::vector<Bdd> keep;
  while (m.sharedNodeCount(keep) < nodes) keep.push_back(randomCube(m, rng));
  return keep;
}

/// Creates at least `n` nodes that die at once (random cubes) and returns
/// the exact count. A negation is a public-op boundary that creates
/// nothing, so any collection due runs there, and the count read after it
/// grows by exactly the nodes the next cube creates.
size_t churn(BddManager& m, std::mt19937& rng, const Bdd& anchor, size_t n) {
  size_t created = 0;
  while (created < n) {
    (void)!anchor;
    size_t before = m.liveNodeCount();
    Bdd garbage = randomCube(m, rng);
    created += m.liveNodeCount() - before;
  }
  return created;
}

TEST(Bdd, GcWaitsForAFullBudgetOfGarbage) {
  // With ~10K nodes live, every collection must wait for 2^14 fresh nodes:
  // a threshold fixed at 2^14 total would collect every ~6K allocations.
  BddManager m(40);
  std::mt19937 rng(5);
  std::vector<Bdd> keep = holdLive(m, rng, 10000);
  const size_t held = m.sharedNodeCount(keep);
  ASSERT_LT(held, 11000u);
  const size_t runs0 = m.stats().gcRuns;
  const uint64_t micros0 = obs::counter("bdd.gc.micros").value();
  const size_t n = churn(m, rng, keep[0], 20 * (size_t{1} << 14));
  const size_t runs = m.stats().gcRuns - runs0;
  EXPECT_GE(runs, 10u);  // the loop does collect
  EXPECT_LE(runs, n / (size_t{1} << 14) + 1)
      << n << " nodes created, at most one collection per 2^14";
  if (obs::kEnabled)
    EXPECT_GT(obs::counter("bdd.gc.micros").value(), micros0);
  m.gc();  // only the held cubes survive (sharedNodeCount counts the terminal)
  EXPECT_EQ(m.liveNodeCount() + 1, held);
}

TEST(Bdd, GarbageGrowsNoCache) {
  // The computed cache follows the nodes in use, not the garbage waiting
  // for the next collection: with at most 4K nodes live it keeps its
  // initial size however much is allocated.
  BddManager m(40);
  const uint64_t initial = m.census().cacheEntries;
  std::mt19937 rng(6);
  std::vector<Bdd> keep = holdLive(m, rng, 3000);
  ASSERT_LE(m.sharedNodeCount(keep), 4000u);
  (void)churn(m, rng, keep[0], 10 * (size_t{1} << 14));
  EXPECT_GE(m.stats().gcRuns, 5u);
  EXPECT_EQ(m.census().cacheEntries, initial)
      << "garbage grew the computed cache";
}

TEST(Bdd, SetOrderPreservesFunctions) {
  BddManager m(6);
  Bdd f = (m.bddVar(0) & m.bddVar(1)) | (m.bddVar(2) & m.bddVar(3)) |
          (m.bddVar(4) & m.bddVar(5));
  double count = m.satCount(f, 6);
  m.setOrder({0, 2, 4, 1, 3, 5});
  EXPECT_DOUBLE_EQ(m.satCount(f, 6), count);
  // rebuilding the same function still yields the same node
  Bdd g = (m.bddVar(0) & m.bddVar(1)) | (m.bddVar(2) & m.bddVar(3)) |
          (m.bddVar(4) & m.bddVar(5));
  EXPECT_EQ(f, g);
}

TEST(Bdd, SiftReducesInterleavedConjunction) {
  BddManager m(16);
  // Force the worst order for (x0&y0)|(x1&y1)|... : all x's above all y's.
  std::vector<BddVar> badOrder;
  for (BddVar v = 0; v < 16; v += 2) badOrder.push_back(v);
  for (BddVar v = 1; v < 16; v += 2) badOrder.push_back(v);
  m.setOrder(badOrder);
  Bdd f = m.bddZero();
  for (BddVar v = 0; v < 16; v += 2) f |= m.bddVar(v) & m.bddVar(v + 1);
  size_t before = f.nodeCount();
  double count = m.satCount(f, 16);
  m.sift();
  EXPECT_LT(f.nodeCount(), before);
  EXPECT_DOUBLE_EQ(m.satCount(f, 16), count);
}

TEST(Bdd, NewVarAtLevel) {
  BddManager m(2);
  Bdd a = m.bddVar(0), b = m.bddVar(1);
  Bdd f = a & b;
  BddVar v = m.newVarAtLevel(0);
  EXPECT_EQ(m.level(v), 0u);
  EXPECT_EQ(m.level(0), 1u);
  EXPECT_EQ(f, m.bddVar(0) & m.bddVar(1));  // unaffected
}

TEST(Bdd, ToDotContainsStructure) {
  BddManager m(2);
  Bdd f = m.bddVar(0) & m.bddVar(1);
  std::vector<Bdd> roots{f};
  std::vector<std::string> names{"f"};
  std::string dot = m.toDot(roots, names, {"alpha", "beta"});
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("beta"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Bdd, SharedNodeCount) {
  BddManager m(4);
  Bdd f = m.bddVar(0) & m.bddVar(1);
  Bdd g = m.bddVar(0) & m.bddVar(1) & m.bddVar(2);
  std::vector<Bdd> roots{f, g};
  // shared count is less than the sum of individual counts
  EXPECT_LT(m.sharedNodeCount(roots), f.nodeCount() + g.nodeCount());
}

// Property-style sweep: exhaustive semantics check against truth tables on
// a small variable count.
class BddTruthTable : public ::testing::TestWithParam<int> {};

TEST_P(BddTruthTable, OperationsMatchTruthTables) {
  int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  constexpr int kVars = 4;
  BddManager m(kVars);

  // random truth tables
  uint16_t tf = static_cast<uint16_t>(rng());
  uint16_t tg = static_cast<uint16_t>(rng());

  auto buildFromTable = [&](uint16_t t) {
    Bdd f = m.bddZero();
    for (int minterm = 0; minterm < 16; ++minterm) {
      if ((t >> minterm & 1) == 0) continue;
      Bdd cube = m.bddOne();
      for (int v = 0; v < kVars; ++v)
        cube &= m.bddLiteral(static_cast<BddVar>(v), (minterm >> v & 1) != 0);
      f |= cube;
    }
    return f;
  };
  auto evalBdd = [&](const Bdd& f, int minterm) {
    Bdd cube = m.bddOne();
    for (int v = 0; v < kVars; ++v)
      cube &= m.bddLiteral(static_cast<BddVar>(v), (minterm >> v & 1) != 0);
    return !(f & cube).isZero();
  };

  Bdd f = buildFromTable(tf), g = buildFromTable(tg);
  for (int minterm = 0; minterm < 16; ++minterm) {
    bool vf = (tf >> minterm & 1) != 0;
    bool vg = (tg >> minterm & 1) != 0;
    EXPECT_EQ(evalBdd(f, minterm), vf);
    EXPECT_EQ(evalBdd(f & g, minterm), vf && vg);
    EXPECT_EQ(evalBdd(f | g, minterm), vf || vg);
    EXPECT_EQ(evalBdd(f ^ g, minterm), vf != vg);
    EXPECT_EQ(evalBdd(!f, minterm), !vf);
  }
  // exists over var 0 == f|x0=0 OR f|x0=1
  Bdd ex = m.exists(f, m.bddVar(0));
  for (int minterm = 0; minterm < 16; ++minterm) {
    bool expected = (tf >> (minterm & ~1) & 1) != 0 || (tf >> (minterm | 1) & 1) != 0;
    EXPECT_EQ(evalBdd(ex, minterm), expected);
  }
  EXPECT_DOUBLE_EQ(m.satCount(f, kVars), static_cast<double>(std::popcount(tf)));
}

INSTANTIATE_TEST_SUITE_P(RandomTables, BddTruthTable, ::testing::Range(0, 25));

}  // namespace
}  // namespace hsis
