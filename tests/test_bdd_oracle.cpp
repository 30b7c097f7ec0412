// Randomized oracle tests for the BDD package: every public operation is
// cross-checked against explicit truth-table evaluation on seeded random
// expression DAGs, both before and after a forced gc() + sift() pass. This
// is the safety net for representation changes (complement edges, apply
// kernels, cache keep-alive) — any divergence between the package and the
// semantic ground truth fails here with the offending seed in the message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "mvf/mvf.hpp"
#include "obs/obs.hpp"

namespace hsis {
namespace {

// A truth table over n vars: tt[a] is f at assignment a, where bit v of the
// index `a` is the value of variable v.
using TT = std::vector<uint8_t>;

TT ttConst(uint32_t n, bool v) { return TT(size_t{1} << n, v ? 1 : 0); }

TT ttVar(uint32_t n, BddVar v) {
  TT t(size_t{1} << n);
  for (size_t a = 0; a < t.size(); ++a) t[a] = (a >> v) & 1;
  return t;
}

TT ttApply(const TT& f, const TT& g, char op) {
  TT r(f.size());
  for (size_t a = 0; a < f.size(); ++a) {
    switch (op) {
      case '&': r[a] = f[a] & g[a]; break;
      case '|': r[a] = f[a] | g[a]; break;
      case '^': r[a] = f[a] ^ g[a]; break;
      default: ADD_FAILURE() << "bad op"; break;
    }
  }
  return r;
}

TT ttNot(const TT& f) {
  TT r(f.size());
  for (size_t a = 0; a < f.size(); ++a) r[a] = 1 - f[a];
  return r;
}

TT ttIte(const TT& f, const TT& g, const TT& h) {
  TT r(f.size());
  for (size_t a = 0; a < f.size(); ++a) r[a] = f[a] ? g[a] : h[a];
  return r;
}

// Existentially quantify variable v out of f.
TT ttExistsVar(const TT& f, BddVar v) {
  TT r(f.size());
  size_t bit = size_t{1} << v;
  for (size_t a = 0; a < f.size(); ++a) r[a] = f[a | bit] | f[a & ~bit];
  return r;
}

TT ttExists(TT f, const std::vector<BddVar>& vars) {
  for (BddVar v : vars) f = ttExistsVar(f, v);
  return f;
}

// Evaluate a BDD at one assignment through the public cofactor API, so the
// walk exercises complement-bit application in Bdd::low()/high().
bool evalBdd(Bdd f, size_t assignment) {
  while (!f.isConstant()) {
    BddVar v = f.var();
    f = ((assignment >> v) & 1) ? f.high() : f.low();
  }
  return f.isOne();
}

// Compute the truth table of an arbitrary BDD by evaluation.
TT ttOf(const Bdd& f, uint32_t n) {
  TT r(size_t{1} << n);
  for (size_t a = 0; a < r.size(); ++a) r[a] = evalBdd(f, a) ? 1 : 0;
  return r;
}

void expectMatches(const Bdd& f, const TT& tt, uint32_t seed, const char* what) {
  for (size_t a = 0; a < tt.size(); ++a) {
    if (evalBdd(f, a) != (tt[a] != 0)) {
      ADD_FAILURE() << what << " diverges from truth table at assignment " << a
                    << " (seed " << seed << ")";
      return;
    }
  }
}

// One randomized round: build a small DAG of named functions, then check
// every public operation against the table oracle.
void oracleRound(uint32_t seed) {
  std::mt19937 rng(seed);
  uint32_t n = 3 + seed % 8;      // 3..10 vars exhaustively checked
  if (seed % 97 == 0) n = 14;     // occasional large case (16384 rows)
  BddManager m(n);

  // Pool of (BDD, truth table) pairs grown by random operations.
  std::vector<std::pair<Bdd, TT>> pool;
  pool.emplace_back(m.bddOne(), ttConst(n, true));
  pool.emplace_back(m.bddZero(), ttConst(n, false));
  for (BddVar v = 0; v < n; ++v) {
    pool.emplace_back(m.bddVar(v), ttVar(n, v));
    pool.emplace_back(!m.bddVar(v), ttNot(ttVar(n, v)));
  }
  auto pick = [&]() -> std::pair<Bdd, TT>& {
    return pool[rng() % pool.size()];
  };

  uint32_t steps = 8 + rng() % 10;
  for (uint32_t i = 0; i < steps; ++i) {
    auto& [f, tf] = pick();
    auto& [g, tg] = pick();
    switch (rng() % 5) {
      case 0: pool.emplace_back(f & g, ttApply(tf, tg, '&')); break;
      case 1: pool.emplace_back(f | g, ttApply(tf, tg, '|')); break;
      case 2: pool.emplace_back(f ^ g, ttApply(tf, tg, '^')); break;
      case 3: pool.emplace_back(!f, ttNot(tf)); break;
      default: {
        auto& [h, th] = pick();
        pool.emplace_back(m.ite(f, g, h), ttIte(tf, tg, th));
        break;
      }
    }
    const auto& [r, tr] = pool.back();
    expectMatches(r, tr, seed, "combinator result");
  }

  // Pick two interesting operands and a random positive cube.
  const auto& [f, tf] = pool[pool.size() - 1];
  const auto& [g, tg] = pool[pool.size() - 2];
  std::vector<BddVar> cubeVars;
  Bdd cube = m.bddOne();
  for (BddVar v = 0; v < n; ++v) {
    if (rng() % 3 == 0) {
      cubeVars.push_back(v);
      cube &= m.bddVar(v);
    }
  }

  // Quantification and the relational product.
  TT tEx = ttExists(tf, cubeVars);
  expectMatches(m.exists(f, cube), tEx, seed, "exists");
  expectMatches(m.forall(f, cube), ttNot(ttExists(ttNot(tf), cubeVars)), seed,
                "forall");
  expectMatches(m.andExists(f, g, cube),
                ttExists(ttApply(tf, tg, '&'), cubeVars), seed, "andExists");

  // Generalized cofactors agree with f on the care set, and restrict never
  // leaves supp(f) ∪ supp(c).
  if (!g.isZero()) {
    Bdd con = m.constrain(f, g);
    Bdd res = m.restrict(f, g);
    TT tCon = ttOf(con, n), tRes = ttOf(res, n);
    for (size_t a = 0; a < tf.size(); ++a) {
      if (!tg[a]) continue;
      EXPECT_EQ(tCon[a], tf[a]) << "constrain diverges on care set, seed " << seed;
      EXPECT_EQ(tRes[a], tf[a]) << "restrict diverges on care set, seed " << seed;
    }
    std::vector<BddVar> fgSupp = m.support(f & g);
    for (BddVar v : m.support(res)) {
      EXPECT_TRUE(std::find(fgSupp.begin(), fgSupp.end(), v) != fgSupp.end() ||
                  std::find(m.support(f).begin(), m.support(f).end(), v) !=
                      m.support(f).end() ||
                  std::find(m.support(g).begin(), m.support(g).end(), v) !=
                      m.support(g).end())
          << "restrict introduced variable " << v << ", seed " << seed;
    }
  }

  // Renaming under a random permutation of all variables.
  std::vector<BddVar> map(n);
  std::iota(map.begin(), map.end(), 0);
  std::shuffle(map.begin(), map.end(), rng);
  TT tPerm(tf.size());
  for (size_t a = 0; a < tf.size(); ++a) {
    size_t b = 0;  // permute(f)(a) = f(b) with b[v] = a[map[v]]
    for (BddVar v = 0; v < n; ++v) b |= ((a >> map[v]) & 1) << v;
    tPerm[a] = tf[b];
  }
  expectMatches(m.permute(f, map), tPerm, seed, "permute");

  // Containment, counting, witness extraction.
  bool leqOracle = true;
  size_t ones = 0;
  for (size_t a = 0; a < tf.size(); ++a) {
    leqOracle &= tf[a] <= tg[a];
    ones += tf[a];
  }
  EXPECT_EQ(f.leq(g), leqOracle) << "leq, seed " << seed;
  EXPECT_EQ(m.satCount(f, n), static_cast<double>(ones)) << "satCount, seed " << seed;
  if (ones > 0) {
    std::vector<int8_t> cubeAssign = m.pickCube(f);
    size_t a = 0;
    for (BddVar v = 0; v < n; ++v) {
      if (cubeAssign[v] == 1) a |= size_t{1} << v;
    }
    EXPECT_TRUE(evalBdd(f, a)) << "pickCube returned a non-model, seed " << seed;
  }

  // Survive a forced collection and a sifting pass: handles must keep
  // denoting the same functions (indices are stable; caches keep-alive).
  m.gc();
  m.sift();
  for (const auto& [b, tt] : pool) expectMatches(b, tt, seed, "post-gc/sift");
  expectMatches(m.exists(f, cube), tEx, seed, "exists post-gc/sift");
}

TEST(BddOracle, RandomDagsMatchTruthTables) {
  // ~1000 seeded rounds; any failure reports its seed for replay.
  for (uint32_t seed = 0; seed < 1000; ++seed) oracleRound(seed);
}

TEST(BddOracle, NegationAllocatesNothing) {
  // Complement edges make negation O(1): flipping the complement bit must
  // not create a single node, even on a BDD with >10k of them.
  BddManager m(28);
  std::mt19937 rng(7);
  Bdd f = m.bddZero();
  for (int i = 0; i < 4000; ++i) {
    Bdd minterm = m.bddOne();
    for (BddVar v = 0; v < 28; ++v)
      minterm &= m.bddLiteral(v, rng() % 2 == 0);
    f |= minterm;
  }
  ASSERT_GE(f.nodeCount(), 10000u);

  uint64_t before = obs::counter("bdd.nodes.created").value();
  Bdd nf = m.notOp(f);
  Bdd nnf = !nf;
  EXPECT_EQ(obs::counter("bdd.nodes.created").value(), before)
      << "negation allocated nodes";
  EXPECT_EQ(nnf, f);
  EXPECT_NE(nf, f);
  EXPECT_EQ(nf.nodeCount(), f.nodeCount());  // f and !f share all nodes
  EXPECT_TRUE((f | nf).isOne());
  EXPECT_TRUE((f & nf).isZero());
}

TEST(BddOracle, CubeMatchesConjunction) {
  // cube(vars) is the fold of bddVar over any order, with duplicates, also
  // after sift() has moved the levels away from the variable ids.
  constexpr uint32_t n = 24;
  BddManager m(n);
  std::mt19937 rng(11);
  auto fold = [&](const std::vector<BddVar>& vars) {
    Bdd r = m.bddOne();
    for (BddVar v : vars) r &= m.bddVar(v);
    return r;
  };
  auto randomVars = [&] {
    std::vector<BddVar> vars;
    for (BddVar v = 0; v < n; ++v) {
      if (rng() % 2 == 0) vars.push_back(v);
      if (rng() % 5 == 0) vars.push_back(v);  // duplicate
    }
    std::shuffle(vars.begin(), vars.end(), rng);
    return vars;
  };
  auto checkRounds = [&](const char* phase) {
    for (int round = 0; round < 200; ++round) {
      std::vector<BddVar> vars = randomVars();
      EXPECT_EQ(m.cube(vars), fold(vars)) << phase << ", round " << round;
    }
    EXPECT_TRUE(m.cube({}).isOne()) << phase;
  };
  checkRounds("identity order");

  // x_i & x_{i+n/2} pairs: the interleaved order is linear, the identity
  // order exponential, so sifting reorders.
  Bdd f = m.bddZero();
  for (BddVar i = 0; i < n / 2; ++i) f |= m.bddVar(i) & m.bddVar(i + n / 2);
  m.sift();
  bool moved = false;
  for (BddVar v = 0; v < n; ++v) moved |= m.level(v) != v;
  ASSERT_TRUE(moved) << "sift left the order unchanged";
  checkRounds("after sift");

  MvSpace space(m);
  std::vector<MvVarId> mvs;
  for (uint32_t d : {3u, 8u, 5u, 2u})
    mvs.push_back(space.addVar("v" + std::to_string(d), d));
  for (MvVarId v : mvs) {
    Bdd old = m.bddOne();
    for (size_t i = space.bits(v).size(); i-- > 0;) old &= m.bddVar(space.bits(v)[i]);
    EXPECT_EQ(space.cube(v), old);
  }
  Bdd all = m.bddOne();
  for (MvVarId v : mvs) all &= space.cube(v);
  EXPECT_EQ(space.cube(mvs), all);
}

TEST(BddOracle, CubeIsLinear) {
  // One node per variable: building a long cube in ascending-level order
  // must not rebuild the chain below each new variable.
  constexpr uint32_t n = 2000;
  BddManager m(n);
  std::vector<BddVar> vars(n);
  std::iota(vars.begin(), vars.end(), 0);
  uint64_t before = obs::counter("bdd.nodes.created").value();
  Bdd c = m.cube(vars);
  EXPECT_LE(obs::counter("bdd.nodes.created").value() - before, n);
  EXPECT_EQ(c.nodeCount(), n + 1);  // plus the terminal
  EXPECT_EQ(m.support(c), vars);
}

TEST(BddOracle, ComplementCanonicalForm) {
  // The canonical-form invariant: no low edge is ever complemented, and
  // there is exactly one terminal, so f == g iff same edge word.
  BddManager m(6);
  Bdd a = m.bddVar(0), b = m.bddVar(1), c = m.bddVar(2);
  Bdd f = (a & b) | (!a & c);
  // Two routes to the same function must collapse to the identical edge.
  EXPECT_EQ(m.ite(a, b, c).index(), f.index());
  EXPECT_EQ((!(!f)).index(), f.index());
  // De Morgan through the complement bit only.
  EXPECT_EQ((!(a & b)).index(), ((!a) | (!b)).index());
}

}  // namespace
}  // namespace hsis
