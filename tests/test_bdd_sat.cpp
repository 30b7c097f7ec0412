// Randomized satCount oracle: random expression DAGs over up to 16
// variables are built simultaneously as a BDD and as an explicit truth
// vector; the model count must match the popcount exactly (satCount works
// in exact powers of two well inside double precision here). Negations in
// the expression stream exercise complement-edge inputs directly.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "bdd/bdd.hpp"

namespace hsis {
namespace {

// Truth vector over n vars: bit i of word i/64 is f(assignment i), where
// bit v of i is the value of variable v.
struct TruthVec {
  explicit TruthVec(uint32_t n) : nbits(1u << n), w((nbits + 63) / 64, 0) {}
  uint32_t nbits;
  std::vector<uint64_t> w;

  uint64_t popcount() const {
    uint64_t total = 0;
    for (uint64_t x : w) total += static_cast<uint64_t>(std::popcount(x));
    return total;
  }
};

TruthVec varVec(uint32_t v, uint32_t n) {
  TruthVec tv(n);
  for (uint32_t i = 0; i < tv.nbits; ++i) {
    if ((i >> v) & 1u) tv.w[i / 64] |= 1ull << (i % 64);
  }
  return tv;
}

void applyNot(TruthVec& a) {
  for (size_t i = 0; i < a.w.size(); ++i) a.w[i] = ~a.w[i];
  // Mask the tail so popcount stays honest for n < 6.
  uint32_t tail = a.nbits % 64;
  if (tail != 0) a.w.back() &= (1ull << tail) - 1;
}

TEST(BddSatCount, RandomizedOracle) {
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 30; ++trial) {
    uint32_t n = 3 + rng() % 14;  // 3..16 variables
    BddManager m(n);
    // Seed with one literal, then fold in random ops against fresh
    // literals or the accumulated function itself.
    uint32_t v0 = rng() % n;
    Bdd f = m.bddVar(v0);
    TruthVec tf = varVec(v0, n);
    int ops = 8 + static_cast<int>(rng() % 24);
    for (int k = 0; k < ops; ++k) {
      uint32_t v = rng() % n;
      Bdd g = m.bddVar(v);
      TruthVec tg = varVec(v, n);
      if (rng() % 2 == 0) {
        g = !g;
        applyNot(tg);
      }
      switch (rng() % 4) {
        case 0:
          f = f & g;
          for (size_t i = 0; i < tf.w.size(); ++i) tf.w[i] &= tg.w[i];
          break;
        case 1:
          f = f | g;
          for (size_t i = 0; i < tf.w.size(); ++i) tf.w[i] |= tg.w[i];
          break;
        case 2:
          f = f ^ g;
          for (size_t i = 0; i < tf.w.size(); ++i) tf.w[i] ^= tg.w[i];
          break;
        default:
          f = !f;  // complement edge on the accumulated root
          applyNot(tf);
          break;
      }
    }
    double expected = static_cast<double>(tf.popcount());
    EXPECT_DOUBLE_EQ(m.satCount(f, n), expected)
        << "trial " << trial << " n=" << n;
    // The complement must count the rest of the space (complement-edge
    // root into satCount).
    EXPECT_DOUBLE_EQ(m.satCount(!f, n),
                     static_cast<double>(tf.nbits) - expected)
        << "trial " << trial << " n=" << n;
    // Span overload over the full variable set agrees.
    std::vector<BddVar> all(n);
    for (uint32_t v = 0; v < n; ++v) all[v] = v;
    EXPECT_DOUBLE_EQ(m.satCount(f, std::span<const BddVar>(all)), expected);
    // One shared walk returns each root's own count, bit for bit.
    std::vector<Bdd> roots{f, !f, f & m.bddVar(v0)};
    std::vector<double> counts = m.satCounts(roots, n);
    ASSERT_EQ(counts.size(), roots.size());
    for (size_t i = 0; i < roots.size(); ++i)
      EXPECT_EQ(counts[i], m.satCount(roots[i], n)) << "trial " << trial;
  }
}

TEST(BddSatCount, ConstantsAndScaling) {
  BddManager m(8);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddOne(), 8), 256.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddZero(), 8), 0.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddOne(), 0), 1.0);
  // Counting a sparse function over a wider space scales by 2^extra.
  Bdd f = m.bddVar(0) & m.bddVar(1);
  EXPECT_DOUBLE_EQ(m.satCount(f, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.satCount(f, 8), 64.0);
}

TEST(BddSatCount, ThrowsWhenSpaceTooSmall) {
  // The space is a variable *count*, so the check is on support size: a
  // 3-variable function cannot be counted over a 2-variable space.
  BddManager m(8);
  Bdd f = m.bddVar(0) & m.bddVar(1) & m.bddVar(5);
  EXPECT_THROW(m.satCount(f, 2), std::invalid_argument);
  // Complemented root hits the same validation.
  EXPECT_THROW(m.satCount(!f, 2), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.satCount(f, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.satCount(f, 8), 32.0);
  // Several roots: their joint support must fit.
  std::vector<Bdd> roots{m.bddVar(0), m.bddVar(5)};
  EXPECT_THROW(m.satCounts(roots, 1), std::invalid_argument);
  EXPECT_EQ(m.satCounts(roots, 2), (std::vector<double>{2.0, 2.0}));
}

TEST(BddSatCount, SpanOverloadValidation) {
  BddManager m(4);
  Bdd f = m.bddVar(0) & m.bddVar(1);
  std::vector<BddVar> unknown{0, 1, 99};
  EXPECT_THROW(m.satCount(f, std::span<const BddVar>(unknown)),
               std::invalid_argument);
  std::vector<BddVar> missing{0};  // support var 1 outside the set
  EXPECT_THROW(m.satCount(f, std::span<const BddVar>(missing)),
               std::invalid_argument);
  // Duplicates count once: space {0,1}, one satisfying assignment.
  std::vector<BddVar> dup{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(m.satCount(f, std::span<const BddVar>(dup)), 1.0);
  // Extra non-support vars widen the space.
  std::vector<BddVar> wide{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(m.satCount(f, std::span<const BddVar>(wide)), 4.0);
}

}  // namespace
}  // namespace hsis
