// Core BDD algorithms over complement edges: specialized and/xor apply
// kernels, ite with standard-triple normalization, quantification,
// relational product, generalized cofactors, variable renaming, and
// containment.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hsis {

// -------------------------------------------------------------------- ite

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  assert(f.manager() == this && g.manager() == this && h.manager() == this);
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(iteRec(f.index(), g.index(), h.index()));
}

uint32_t BddManager::iteRec(uint32_t f, uint32_t g, uint32_t h) {
  // Terminal cases.
  if (f == kOneEdge) return g;
  if (f == kZeroEdge) return h;
  if (g == h) return g;
  if (g == kOneEdge && h == kZeroEdge) return f;
  if (g == kZeroEdge && h == kOneEdge) return eNot(f);

  // Collapse arms that repeat (or complement) the selector.
  if (g == f) g = kOneEdge;
  else if (g == eNot(f)) g = kZeroEdge;
  if (h == f) h = kZeroEdge;
  else if (h == eNot(f)) h = kOneEdge;
  if (g == h) return g;
  if (g == kOneEdge && h == kZeroEdge) return f;
  if (g == kZeroEdge && h == kOneEdge) return eNot(f);

  // One constant arm left: the binary kernels carry their own terminal
  // rules and symmetric-key normalization, so route there instead of
  // paying the triple-keyed cache.
  if (h == kZeroEdge) return andRec(f, g);
  if (h == kOneEdge) return eNot(andRec(f, eNot(g)));  // !f | g
  if (g == kZeroEdge) return andRec(eNot(f), h);
  if (g == kOneEdge) return orRec(f, h);
  if (g == eNot(h)) return xorRec(f, h);

  // Standard-triple normalization: a complemented selector swaps the arms;
  // a complemented then-arm factors out of the whole ite. Afterwards both
  // f and g are regular, so all equivalent calls share one cache line.
  if (eIsNeg(f)) {
    f = eNot(f);
    std::swap(g, h);
  }
  uint32_t outSign = 0;
  if (eIsNeg(g)) {
    g = eNot(g);
    h = eNot(h);
    outSign = kComplBit;
  }

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Ite, f, g, h, out, probe)) return out ^ outSign;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g), lh = nodeLevel(h);
  uint32_t top = std::min({lf, lg, lh});
  BddVar v = invPerm_[top];

  uint32_t sh = eSign(h);
  uint32_t f0 = lf == top ? nodes_[f].lo : f;
  uint32_t f1 = lf == top ? nodes_[f].hi : f;
  uint32_t g0 = lg == top ? nodes_[g].lo : g;
  uint32_t g1 = lg == top ? nodes_[g].hi : g;
  uint32_t h0 = lh == top ? nodes_[eIdx(h)].lo ^ sh : h;
  uint32_t h1 = lh == top ? nodes_[eIdx(h)].hi ^ sh : h;

  uint32_t lo = iteRec(f0, g0, h0);
  uint32_t hi = iteRec(f1, g1, h1);
  uint32_t res = mkNode(v, lo, hi);
  cacheInsert(probe, res);
  return res ^ outSign;
}

// ---------------------------------------------------------- apply kernels

Bdd BddManager::andOp(const Bdd& f, const Bdd& g) {
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(andRec(f.index(), g.index()));
}

Bdd BddManager::orOp(const Bdd& f, const Bdd& g) {
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(orRec(f.index(), g.index()));
}

Bdd BddManager::xorOp(const Bdd& f, const Bdd& g) {
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(xorRec(f.index(), g.index()));
}

Bdd BddManager::notOp(const Bdd& f) {
  // O(1): negation flips the complement bit. No recursion, no allocation,
  // no cache traffic — still a safe point for GC/census like every public
  // op, since those do not invalidate edges.
  maybeGcOrSift();
  return makeHandle(eNot(f.index()));
}

uint32_t BddManager::andRec(uint32_t f, uint32_t g) {
  // Terminal rules.
  if (f == kZeroEdge || g == kZeroEdge) return kZeroEdge;
  if (f == kOneEdge) return g;
  if (g == kOneEdge) return f;
  if (f == g) return f;
  if (f == eNot(g)) return kZeroEdge;

  if (f > g) std::swap(f, g);  // commutative: one cache line per pair

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::And, f, g, 0, out, probe)) return out;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g);
  uint32_t top = std::min(lf, lg);
  BddVar v = invPerm_[top];

  uint32_t sf = eSign(f), sg = eSign(g);
  uint32_t f0 = lf == top ? nodes_[eIdx(f)].lo ^ sf : f;
  uint32_t f1 = lf == top ? nodes_[eIdx(f)].hi ^ sf : f;
  uint32_t g0 = lg == top ? nodes_[eIdx(g)].lo ^ sg : g;
  uint32_t g1 = lg == top ? nodes_[eIdx(g)].hi ^ sg : g;

  uint32_t lo = andRec(f0, g0);
  uint32_t hi = andRec(f1, g1);
  uint32_t res = mkNode(v, lo, hi);
  cacheInsert(probe, res);
  return res;
}

Bdd BddManager::andLimit(const Bdd& f, const Bdd& g, size_t maxNew) {
  maybeGcOrSift();
  ScopedOp guard(this);
  uint32_t res = andLimitRec(f.index(), g.index(), created_ + maxNew);
  return res == kNil ? Bdd() : makeHandle(res);
}

uint32_t BddManager::andLimitRec(uint32_t f, uint32_t g, uint64_t stopAt) {
  // andRec with a node budget: past `stopAt` fresh nodes the recursion
  // unwinds with kNil (never a valid edge). What it built so far is
  // unreferenced and goes at the next collection; the cache keeps only
  // finished sub-products, which are the same ones andRec computes.
  if (f == kZeroEdge || g == kZeroEdge) return kZeroEdge;
  if (f == kOneEdge) return g;
  if (g == kOneEdge) return f;
  if (f == g) return f;
  if (f == eNot(g)) return kZeroEdge;

  if (f > g) std::swap(f, g);

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::And, f, g, 0, out, probe)) return out;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g);
  uint32_t top = std::min(lf, lg);
  BddVar v = invPerm_[top];

  uint32_t sf = eSign(f), sg = eSign(g);
  uint32_t f0 = lf == top ? nodes_[eIdx(f)].lo ^ sf : f;
  uint32_t f1 = lf == top ? nodes_[eIdx(f)].hi ^ sf : f;
  uint32_t g0 = lg == top ? nodes_[eIdx(g)].lo ^ sg : g;
  uint32_t g1 = lg == top ? nodes_[eIdx(g)].hi ^ sg : g;

  uint32_t lo = andLimitRec(f0, g0, stopAt);
  if (lo == kNil) return kNil;
  uint32_t hi = andLimitRec(f1, g1, stopAt);
  if (hi == kNil) return kNil;
  uint32_t res = mkNode(v, lo, hi);
  if (created_ > stopAt) return kNil;
  cacheInsert(probe, res);
  return res;
}

uint32_t BddManager::xorRec(uint32_t f, uint32_t g) {
  // Terminal rules.
  if (f == g) return kZeroEdge;
  if (f == eNot(g)) return kOneEdge;
  if (f == kZeroEdge) return g;
  if (g == kZeroEdge) return f;
  if (f == kOneEdge) return eNot(g);
  if (g == kOneEdge) return eNot(f);

  // xor ignores input polarity up to an output flip: f^g == !f^!g and
  // !(f^g) == !f^g. Strip both complement bits into the output sign so
  // all four polarity combinations share one cache line.
  uint32_t outSign = (eSign(f) ^ eSign(g));
  f = eIdx(f);
  g = eIdx(g);
  if (f > g) std::swap(f, g);  // commutative

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Xor, f, g, 0, out, probe)) return out ^ outSign;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g);
  uint32_t top = std::min(lf, lg);
  BddVar v = invPerm_[top];

  uint32_t f0 = lf == top ? nodes_[f].lo : f;
  uint32_t f1 = lf == top ? nodes_[f].hi : f;
  uint32_t g0 = lg == top ? nodes_[g].lo : g;
  uint32_t g1 = lg == top ? nodes_[g].hi : g;

  uint32_t lo = xorRec(f0, g0);
  uint32_t hi = xorRec(f1, g1);
  uint32_t res = mkNode(v, lo, hi);
  cacheInsert(probe, res);
  return res ^ outSign;
}

// --------------------------------------------------------- quantification

Bdd BddManager::exists(const Bdd& f, const Bdd& cube) {
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(existsRec(f.index(), cube.index()));
}

Bdd BddManager::forall(const Bdd& f, const Bdd& cube) {
  maybeGcOrSift();
  ScopedOp guard(this);
  // Duality: ∀x.f == !∃x.!f — one existential worker, shared cache.
  return makeHandle(eNot(existsRec(eNot(f.index()), cube.index())));
}

uint32_t BddManager::existsRec(uint32_t f, uint32_t cube) {
  if (isTerm(f) || cube == kOneEdge) return f;
  assert(cube != kZeroEdge && "quantifier cube must be a positive-literal product");

  // Skip cube variables above f's top.
  uint32_t lf = nodeLevel(f);
  while (!isTerm(cube) && nodeLevel(cube) < lf)
    cube = nodes_[eIdx(cube)].hi ^ eSign(cube);
  if (cube == kOneEdge) return f;

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Exists, f, cube, 0, out, probe)) return out;

  uint32_t sf = eSign(f);
  uint32_t f0 = nodes_[eIdx(f)].lo ^ sf;
  uint32_t f1 = nodes_[eIdx(f)].hi ^ sf;
  uint32_t lc = nodeLevel(cube);
  uint32_t res;
  if (lf == lc) {
    uint32_t sub = nodes_[eIdx(cube)].hi ^ eSign(cube);
    uint32_t lo = existsRec(f0, sub);
    if (lo == kOneEdge) {
      // Short-circuit: the disjunction is already everything — skip the
      // whole high-branch recursion.
      res = kOneEdge;
    } else {
      uint32_t hi = existsRec(f1, sub);
      res = orRec(lo, hi);
    }
  } else {
    uint32_t lo = existsRec(f0, cube);
    uint32_t hi = existsRec(f1, cube);
    res = mkNode(nodes_[eIdx(f)].var, lo, hi);
  }
  cacheInsert(probe, res);
  return res;
}

Bdd BddManager::andExists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(andExistsRec(f.index(), g.index(), cube.index()));
}

uint32_t BddManager::andExistsRec(uint32_t f, uint32_t g, uint32_t cube) {
  if (f == kZeroEdge || g == kZeroEdge) return kZeroEdge;
  if (f == eNot(g)) return kZeroEdge;
  if (f == kOneEdge && g == kOneEdge) return kOneEdge;
  if (f == kOneEdge) return existsRec(g, cube);
  if (g == kOneEdge || f == g) return existsRec(f, cube);
  if (cube == kOneEdge) return andRec(f, g);

  if (f > g) std::swap(f, g);  // conjunction is commutative: normalize key
  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::AndExists, f, g, cube, out, probe)) return out;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g);
  uint32_t top = std::min(lf, lg);
  // Advance the cube past variables above the top of f and g.
  uint32_t c = cube;
  while (!isTerm(c) && nodeLevel(c) < top)
    c = nodes_[eIdx(c)].hi ^ eSign(c);

  BddVar v = invPerm_[top];
  uint32_t sf = eSign(f), sg = eSign(g);
  uint32_t f0 = lf == top ? nodes_[eIdx(f)].lo ^ sf : f;
  uint32_t f1 = lf == top ? nodes_[eIdx(f)].hi ^ sf : f;
  uint32_t g0 = lg == top ? nodes_[eIdx(g)].lo ^ sg : g;
  uint32_t g1 = lg == top ? nodes_[eIdx(g)].hi ^ sg : g;

  uint32_t res;
  if (!isTerm(c) && nodeLevel(c) == top) {
    // Quantified variable at the top: OR the two cofactor products.
    uint32_t sub = nodes_[eIdx(c)].hi ^ eSign(c);
    uint32_t lo = andExistsRec(f0, g0, sub);
    if (lo == kOneEdge) {
      res = kOneEdge;
    } else {
      uint32_t hi = andExistsRec(f1, g1, sub);
      res = orRec(lo, hi);
    }
  } else {
    uint32_t lo = andExistsRec(f0, g0, c);
    uint32_t hi = andExistsRec(f1, g1, c);
    res = mkNode(v, lo, hi);
  }
  cacheInsert(probe, res);
  return res;
}

// ------------------------------------------------------------- cofactors

Bdd BddManager::cofactor(const Bdd& f, BddVar v, bool positive) {
  maybeGcOrSift();
  ScopedOp guard(this);
  Bdd lit = bddLiteral(v, positive);
  // Cofactor by a single literal == constrain by that literal.
  return makeHandle(constrainRec(f.index(), lit.index()));
}

Bdd BddManager::constrain(const Bdd& f, const Bdd& c) {
  if (c.isZero()) throw std::invalid_argument("constrain: care set is empty");
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(constrainRec(f.index(), c.index()));
}

uint32_t BddManager::constrainRec(uint32_t f, uint32_t c) {
  assert(c != kZeroEdge);
  if (c == kOneEdge || isTerm(f)) return f;
  if (f == c) return kOneEdge;
  if (f == eNot(c)) return kZeroEdge;
  // constrain(!f, c) == !constrain(f, c): factor the complement out so f
  // and !f share the cache.
  if (eIsNeg(f)) return eNot(constrainRec(eNot(f), c));

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Constrain, f, c, 0, out, probe)) return out;

  uint32_t lf = nodeLevel(f), lc = nodeLevel(c);
  uint32_t sc = eSign(c);
  uint32_t c0 = isTerm(c) ? c : nodes_[eIdx(c)].lo ^ sc;
  uint32_t c1 = isTerm(c) ? c : nodes_[eIdx(c)].hi ^ sc;
  uint32_t res;
  if (lc < lf) {
    if (c0 == kZeroEdge) {
      res = constrainRec(f, c1);
    } else if (c1 == kZeroEdge) {
      res = constrainRec(f, c0);
    } else {
      uint32_t lo = constrainRec(f, c0);
      uint32_t hi = constrainRec(f, c1);
      res = mkNode(nodes_[eIdx(c)].var, lo, hi);
    }
  } else if (lf < lc) {
    uint32_t lo = constrainRec(nodes_[f].lo, c);
    uint32_t hi = constrainRec(nodes_[f].hi, c);
    res = mkNode(nodes_[f].var, lo, hi);
  } else {
    if (c0 == kZeroEdge) {
      res = constrainRec(nodes_[f].hi, c1);
    } else if (c1 == kZeroEdge) {
      res = constrainRec(nodes_[f].lo, c0);
    } else {
      uint32_t lo = constrainRec(nodes_[f].lo, c0);
      uint32_t hi = constrainRec(nodes_[f].hi, c1);
      res = mkNode(nodes_[f].var, lo, hi);
    }
  }
  cacheInsert(probe, res);
  return res;
}

Bdd BddManager::restrict(const Bdd& f, const Bdd& c) {
  if (c.isZero()) throw std::invalid_argument("restrict: care set is empty");
  maybeGcOrSift();
  ScopedOp guard(this);
  return makeHandle(restrictRec(f.index(), c.index()));
}

uint32_t BddManager::restrictRec(uint32_t f, uint32_t c) {
  assert(c != kZeroEdge);
  if (c == kOneEdge || isTerm(f)) return f;
  if (f == c) return kOneEdge;
  if (f == eNot(c)) return kZeroEdge;
  // restrict commutes with complement on f, like constrain.
  if (eIsNeg(f)) return eNot(restrictRec(eNot(f), c));

  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Restrict, f, c, 0, out, probe)) return out;

  uint32_t lf = nodeLevel(f), lc = nodeLevel(c);
  uint32_t sc = eSign(c);
  uint32_t c0 = isTerm(c) ? c : nodes_[eIdx(c)].lo ^ sc;
  uint32_t c1 = isTerm(c) ? c : nodes_[eIdx(c)].hi ^ sc;
  uint32_t res;
  if (lc < lf) {
    // Sibling substitution: drop the care-set variable (it does not occur
    // in f) by merging its branches.
    res = restrictRec(f, orRec(c0, c1));
  } else if (lf < lc) {
    uint32_t lo = restrictRec(nodes_[f].lo, c);
    uint32_t hi = restrictRec(nodes_[f].hi, c);
    res = mkNode(nodes_[f].var, lo, hi);
  } else {
    if (c0 == kZeroEdge) {
      res = restrictRec(nodes_[f].hi, c1);
    } else if (c1 == kZeroEdge) {
      res = restrictRec(nodes_[f].lo, c0);
    } else {
      uint32_t lo = restrictRec(nodes_[f].lo, c0);
      uint32_t hi = restrictRec(nodes_[f].hi, c1);
      res = mkNode(nodes_[f].var, lo, hi);
    }
  }
  cacheInsert(probe, res);
  return res;
}

// --------------------------------------------------------------- renaming

Bdd BddManager::permute(const Bdd& f, const std::vector<BddVar>& map) {
  maybeGcOrSift();
  ScopedOp guard(this);
  // Register (or find) the map so results can live in the computed cache.
  uint32_t mapId = 0;
  while (mapId < permMaps_.size() && permMaps_[mapId] != map) ++mapId;
  if (mapId == permMaps_.size()) permMaps_.push_back(map);
  return makeHandle(permuteRec(f.index(), permMaps_[mapId], mapId));
}

uint32_t BddManager::permuteRec(uint32_t f, const std::vector<BddVar>& map,
                                uint32_t mapId) {
  if (isTerm(f)) return f;
  // Renaming commutes with complement: cache only regular edges.
  if (eIsNeg(f)) return eNot(permuteRec(eNot(f), map, mapId));
  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Permute, f, mapId, 0, out, probe)) return out;

  uint32_t lo = permuteRec(nodes_[f].lo, map, mapId);
  uint32_t hi = permuteRec(nodes_[f].hi, map, mapId);
  BddVar v = nodes_[f].var;
  BddVar nv = v < map.size() ? map[v] : v;
  // General rename via ite keeps correctness even when the new variable is
  // not at the same level as the old one.
  uint32_t nvEdge = mkNode(nv, kZeroEdge, kOneEdge);
  uint32_t res = iteRec(nvEdge, hi, lo);
  cacheInsert(probe, res);
  return res;
}

// ------------------------------------------------------------ containment

bool BddManager::leq(const Bdd& f, const Bdd& g) {
  ScopedOp guard(this);
  return leqRec(f.index(), g.index());
}

bool BddManager::leqRec(uint32_t f, uint32_t g) {
  if (f == kZeroEdge || g == kOneEdge || f == g) return true;
  if (f == kOneEdge || g == kZeroEdge) return false;
  if (f == eNot(g)) return false;  // f & !g == f, and f != 0 here
  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::Leq, f, g, 0, out, probe)) return out != 0;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g);
  uint32_t top = std::min(lf, lg);
  uint32_t sf = eSign(f), sg = eSign(g);
  uint32_t f0 = lf == top ? nodes_[eIdx(f)].lo ^ sf : f;
  uint32_t f1 = lf == top ? nodes_[eIdx(f)].hi ^ sf : f;
  uint32_t g0 = lg == top ? nodes_[eIdx(g)].lo ^ sg : g;
  uint32_t g1 = lg == top ? nodes_[eIdx(g)].hi ^ sg : g;
  bool res = leqRec(f0, g0) && leqRec(f1, g1);
  cacheInsert(probe, res ? 1 : 0);
  return res;
}

}  // namespace hsis
