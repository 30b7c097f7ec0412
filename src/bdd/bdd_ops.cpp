// Core BDD algorithms over complement edges: specialized and/xor apply
// kernels, ite with standard-triple normalization, quantification,
// relational product, generalized cofactors, variable renaming, and
// containment — plus the fork-join parallel variants (andPar/itePar/
// andExistsPar) that split cofactor subproblems onto a task deque while a
// shared phase has a ForkJoin pool attached.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "par/fj.hpp"

namespace hsis {

// -------------------------------------------------------------------- ite

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  assert(f.manager() == this && g.manager() == this && h.manager() == this);
  maybeGcOrSift();
  ScopedOp guard(this);
  if (parEnabled())
    return makeHandle(itePar(f.index(), g.index(), h.index(), 0));
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
  if (parEnabled()) return makeHandle(andPar(f.index(), g.index(), 0));
  return makeHandle(andRec(f.index(), g.index()));
}

Bdd BddManager::orOp(const Bdd& f, const Bdd& g) {
  maybeGcOrSift();
  ScopedOp guard(this);
  if (parEnabled())
    return makeHandle(eNot(andPar(eNot(f.index()), eNot(g.index()), 0)));
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
  if (parEnabled())
    return makeHandle(andExistsPar(f.index(), g.index(), cube.index(), 0));
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
  // Map ids are process-visible state: in a shared phase the registry scan
  // and push are serialized (the deque keeps element references stable, so
  // the reference taken here outlives the lock).
  uint32_t mapId = kNil;
  const std::vector<BddVar>* mref = nullptr;
  {
    std::unique_lock<std::mutex> lk(permMu_, std::defer_lock);
    if (sharedMode_) lk.lock();
    for (uint32_t i = 0; i < permMaps_.size(); ++i) {
      if (permMaps_[i] == map) {
        mapId = i;
        break;
      }
    }
    if (mapId == kNil) {
      mapId = static_cast<uint32_t>(permMaps_.size());
      permMaps_.push_back(map);
    }
    mref = &permMaps_[mapId];
  }
  return makeHandle(permuteRec(f.index(), *mref, mapId));
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

// ------------------------------------------------- fork-join parallel apply
//
// The *Par workers mirror their serial kernels exactly (same terminal
// rules, same normalization, same cache keys — so parallel and serial runs
// share cached results and produce identical canonical BDDs). The only
// difference: while depth < parSplitDepth_ and the operands look larger
// than parCutoff_, the high-cofactor subproblem is forked onto the task
// deque and the low one computed in place; the join either claims the
// still-queued task and runs it inline (no handoff cost when no worker was
// free) or helps drain other tasks while waiting. Below the cutoff the
// recursion is the untouched serial kernel — fine-grained subproblems
// never pay the fork.

struct BddManager::ParTask final : par::ForkJoin::Task {
  enum class Kind : uint8_t { And, Ite, AndExists };

  BddManager* m;
  Kind kind;
  uint32_t a, b, c;
  int depth;
  uint32_t result = 0;
  std::exception_ptr error;

  ParTask(BddManager* mgr, Kind k, uint32_t aa, uint32_t bb, uint32_t cc,
          int d)
      : m(mgr), kind(k), a(aa), b(bb), c(cc), depth(d) {}

  void run() noexcept override { m->runParTask(*this); }
};

void BddManager::runParTask(ParTask& t) {
  ThreadCtx& tc = ctx();
  // Inline execution (the forker claimed its own task) continues the
  // already-entered operation; a pool worker starts a fresh task scope and
  // must gate on the shallow stop-the-world flag first.
  bool entered = false;
  if (tc.opDepth == 0) {
    enterSharedTask(tc);
    entered = true;
    tc.opCreatedBase = tc.created;
  }
  ++tc.opDepth;
  try {
    switch (t.kind) {
      case ParTask::Kind::And:
        t.result = andPar(t.a, t.b, t.depth);
        break;
      case ParTask::Kind::Ite:
        t.result = itePar(t.a, t.b, t.c, t.depth);
        break;
      case ParTask::Kind::AndExists:
        t.result = andExistsPar(t.a, t.b, t.c, t.depth);
        break;
    }
  } catch (...) {
    t.error = std::current_exception();
  }
  --tc.opDepth;
  if (entered) {
    flushObs(tc);
    leaveSharedOp(tc);
  }
}

void BddManager::joinParTask(ParTask& t) {
  // Still queued? Unqueue and run it right here: when every worker is busy
  // the fork degrades to plain recursion with one deque roundtrip.
  if (fj_->tryUnqueue(&t)) {
    t.run();
    t.done.store(true, std::memory_order_release);
    return;
  }
  // A worker claimed it: help drain the deque while waiting. The safe-point
  // poll keeps the joiner honest if a stop-the-world starts while it spins.
  ThreadCtx& tc = ctx();
  while (!t.done.load(std::memory_order_acquire)) {
    if (!fj_->runOne()) {
      sharedSafePoint(tc);
      std::this_thread::yield();
    }
  }
}

bool BddManager::biggerThanCutoff(std::initializer_list<uint32_t> roots) const {
  size_t cap = parCutoff_;
  if (cap == 0) return true;
  // Local capped walk with a small open-addressed visited set — the
  // per-manager visitStamp_ scratch is single-walker-only and must not be
  // touched from concurrent split decisions.
  size_t tableSize = 64;
  while (tableSize < cap * 4) tableSize <<= 1;
  std::vector<uint32_t> seen(tableSize, kNil);
  auto insert = [&](uint32_t n) -> bool {
    size_t h = (static_cast<uint64_t>(n) * 0x9e3779b97f4a7c15ull >> 32) &
               (tableSize - 1);
    while (seen[h] != kNil) {
      if (seen[h] == n) return false;
      h = (h + 1) & (tableSize - 1);
    }
    seen[h] = n;
    return true;
  };
  std::vector<uint32_t> stack;
  for (uint32_t r : roots) {
    if (!isTerm(r)) stack.push_back(eIdx(r));
  }
  size_t count = 0;
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (!insert(n)) continue;
    if (++count > cap) return true;
    const Node& nd = nodes_[n];
    uint32_t lo = eIdx(nd.lo), hi = eIdx(nd.hi);
    if (lo > 1) stack.push_back(lo);
    if (hi > 1) stack.push_back(hi);
  }
  return false;
}

uint32_t BddManager::andPar(uint32_t f, uint32_t g, int depth) {
  if (f == kZeroEdge || g == kZeroEdge) return kZeroEdge;
  if (f == kOneEdge) return g;
  if (g == kOneEdge) return f;
  if (f == g) return f;
  if (f == eNot(g)) return kZeroEdge;
  if (depth >= parSplitDepth_ || !biggerThanCutoff({f, g}))
    return andRec(f, g);

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

  ParTask t(this, ParTask::Kind::And, f1, g1, 0, depth + 1);
  fj_->submit(&t);
  uint32_t lo;
  try {
    lo = andPar(f0, g0, depth + 1);
  } catch (...) {
    // The task points into this frame: it must complete before unwinding.
    joinParTask(t);
    throw;
  }
  joinParTask(t);
  if (t.error) std::rethrow_exception(t.error);
  uint32_t res = mkNode(v, lo, t.result);
  cacheInsert(probe, res);
  return res;
}

uint32_t BddManager::itePar(uint32_t f, uint32_t g, uint32_t h, int depth) {
  if (f == kOneEdge) return g;
  if (f == kZeroEdge) return h;
  if (g == h) return g;
  if (g == kOneEdge && h == kZeroEdge) return f;
  if (g == kZeroEdge && h == kOneEdge) return eNot(f);

  if (g == f) g = kOneEdge;
  else if (g == eNot(f)) g = kZeroEdge;
  if (h == f) h = kZeroEdge;
  else if (h == eNot(f)) h = kOneEdge;
  if (g == h) return g;
  if (g == kOneEdge && h == kZeroEdge) return f;
  if (g == kZeroEdge && h == kOneEdge) return eNot(f);

  // Route to the parallel binary kernels exactly like the serial version.
  if (h == kZeroEdge) return andPar(f, g, depth);
  if (h == kOneEdge) return eNot(andPar(f, eNot(g), depth));
  if (g == kZeroEdge) return andPar(eNot(f), h, depth);
  if (g == kOneEdge) return eNot(andPar(eNot(f), eNot(h), depth));
  if (g == eNot(h)) return xorRec(f, h);  // xor stays serial: rare in ite

  if (depth >= parSplitDepth_ || !biggerThanCutoff({f, g, h}))
    return iteRec(f, g, h);

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

  ParTask t(this, ParTask::Kind::Ite, f1, g1, h1, depth + 1);
  fj_->submit(&t);
  uint32_t lo;
  try {
    lo = itePar(f0, g0, h0, depth + 1);
  } catch (...) {
    joinParTask(t);
    throw;
  }
  joinParTask(t);
  if (t.error) std::rethrow_exception(t.error);
  uint32_t res = mkNode(v, lo, t.result);
  cacheInsert(probe, res);
  return res ^ outSign;
}

uint32_t BddManager::andExistsPar(uint32_t f, uint32_t g, uint32_t cube,
                                  int depth) {
  if (f == kZeroEdge || g == kZeroEdge) return kZeroEdge;
  if (f == eNot(g)) return kZeroEdge;
  if (f == kOneEdge && g == kOneEdge) return kOneEdge;
  if (f == kOneEdge) return existsRec(g, cube);
  if (g == kOneEdge || f == g) return existsRec(f, cube);
  if (cube == kOneEdge) return andPar(f, g, depth);
  if (depth >= parSplitDepth_ || !biggerThanCutoff({f, g}))
    return andExistsRec(f, g, cube);

  if (f > g) std::swap(f, g);
  uint32_t out;
  CacheProbe probe;
  if (cacheLookup(Op::AndExists, f, g, cube, out, probe)) return out;

  uint32_t lf = nodeLevel(f), lg = nodeLevel(g);
  uint32_t top = std::min(lf, lg);
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
    // Quantified variable at the top: OR the two cofactor products. The
    // serial lo == 1 short-circuit is deliberately dropped — both branches
    // run concurrently, trading the occasional skipped subtree for overlap.
    uint32_t sub = nodes_[eIdx(c)].hi ^ eSign(c);
    ParTask t(this, ParTask::Kind::AndExists, f1, g1, sub, depth + 1);
    fj_->submit(&t);
    uint32_t lo;
    try {
      lo = andExistsPar(f0, g0, sub, depth + 1);
    } catch (...) {
      joinParTask(t);
      throw;
    }
    joinParTask(t);
    if (t.error) std::rethrow_exception(t.error);
    res = orRec(lo, t.result);
  } else {
    ParTask t(this, ParTask::Kind::AndExists, f1, g1, c, depth + 1);
    fj_->submit(&t);
    uint32_t lo;
    try {
      lo = andExistsPar(f0, g0, c, depth + 1);
    } catch (...) {
      joinParTask(t);
      throw;
    }
    joinParTask(t);
    if (t.error) std::rethrow_exception(t.error);
    res = mkNode(v, lo, t.result);
  }
  cacheInsert(probe, res);
  return res;
}

}  // namespace hsis
