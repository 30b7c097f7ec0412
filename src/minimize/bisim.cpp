#include "minimize/bisim.hpp"

namespace hsis {

BisimResult bisimulation(const Fsm& fsm, const TransitionRelation& tr,
                         const std::vector<Bdd>& observations,
                         const Bdd& careStates) {
  BddManager& mgr = fsm.mgr();
  const MvSpace& space = fsm.space();
  BisimResult res;

  // Shadow rails: one fresh variable per present/next state bit, inserted
  // directly below its original in the variable order — the equivalence
  // relation E(x,x') is near-diagonal, and a diagonal over distant rails
  // has exponential BDDs.
  uint32_t nvBefore = mgr.numVars();
  std::vector<BddVar> xBits, yBits, x2Bits, y2Bits;
  for (size_t l = 0; l < fsm.numLatches(); ++l) {
    for (BddVar b : space.bits(fsm.stateVar(l))) xBits.push_back(b);
    for (BddVar b : space.bits(fsm.nextVar(l))) yBits.push_back(b);
  }
  for (size_t i = 0; i < xBits.size(); ++i)
    x2Bits.push_back(mgr.newVarAtLevel(mgr.level(xBits[i]) + 1));
  for (size_t i = 0; i < yBits.size(); ++i)
    y2Bits.push_back(mgr.newVarAtLevel(mgr.level(yBits[i]) + 1));

  uint32_t nv = mgr.numVars();
  std::vector<BddVar> shadowMap(nv), shadowInv(nv), pairToNext(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    shadowMap[v] = v;
    shadowInv[v] = v;
    pairToNext[v] = v;
  }
  for (size_t i = 0; i < xBits.size(); ++i) {
    shadowMap[xBits[i]] = x2Bits[i];
    shadowInv[x2Bits[i]] = xBits[i];
    pairToNext[xBits[i]] = yBits[i];
    pairToNext[x2Bits[i]] = y2Bits[i];
  }
  for (size_t i = 0; i < yBits.size(); ++i) shadowMap[yBits[i]] = y2Bits[i];
  res.shadowMap = shadowMap;
  res.shadowMapInverse = shadowInv;
  (void)nvBefore;

  Bdd x2Cube = mgr.cube(x2Bits);
  Bdd y2Cube = mgr.cube(y2Bits);

  // Monolithic transition relation over (x,y) and its shadow copy.
  Bdd t = mgr.bddOne();
  for (const Bdd& c : tr.clusters()) t &= c;
  t = mgr.exists(t, fsm.nonStateCube());
  Bdd t2 = mgr.permute(t, shadowMap);

  Bdd care2 = mgr.permute(careStates, shadowMap);

  // Initial partition: agree on every observation.
  Bdd e = careStates & care2;
  for (const Bdd& obs : observations) {
    Bdd obs2 = mgr.permute(obs, shadowMap);
    e &= (obs & obs2) | ((!obs) & (!obs2));
  }

  // Refinement to the greatest fixpoint.
  while (true) {
    ++res.refinementIterations;
    Bdd ey = mgr.permute(e, pairToNext);  // E over (y, y2)
    // cond1: every move of x is matched by a move of x2.
    Bdd inner1 = mgr.andExists(t2, ey, y2Cube);            // (x2, y)
    Bdd bad1 = mgr.andExists(t, !inner1, fsm.nextCube());  // (x, x2)
    // cond2: every move of x2 is matched by a move of x.
    Bdd inner2 = mgr.andExists(t, ey, fsm.nextCube());     // (x, y2)
    Bdd bad2 = mgr.andExists(t2, !inner2, y2Cube);         // (x, x2)
    Bdd e2 = e & !bad1 & !bad2;
    if (e2 == e) break;
    e = std::move(e2);
  }
  res.equivalence = e;

  // Representatives: lexicographically least state of each class.
  // less(x2, x) over the state-bit sequence, most significant bit last in
  // xBits order (any fixed order gives a canonical pick).
  Bdd less = mgr.bddZero();
  for (size_t i = 0; i < xBits.size(); ++i) {
    Bdd xb = mgr.bddVar(xBits[i]);
    Bdd x2b = mgr.bddVar(x2Bits[i]);
    // x2 < x at this bit, all higher (later) bits equal.
    Bdd eqHigher = mgr.bddOne();
    for (size_t j = i + 1; j < xBits.size(); ++j) {
      Bdd a = mgr.bddVar(xBits[j]);
      Bdd b = mgr.bddVar(x2Bits[j]);
      eqHigher &= (a & b) | ((!a) & (!b));
    }
    less |= (!x2b) & xb & eqHigher;
  }
  res.representatives = careStates & !mgr.exists(e & less, x2Cube);
  res.classCount = mgr.satCount(res.representatives, fsm.stateBits());
  return res;
}

Bdd shrinkToRepresentatives(const Fsm& fsm, const BisimResult& bisim,
                            const Bdd& set) {
  return fsm.mgr().restrict(set, bisim.representatives);
}

Bdd expandByEquivalence(const Fsm& fsm, const BisimResult& bisim,
                        const Bdd& repSet) {
  BddManager& mgr = fsm.mgr();
  Bdd rep2 = mgr.permute(repSet, bisim.shadowMap);
  // ∃x2: E(x,x2) ∧ repSet(x2)
  std::vector<BddVar> x2Bits;
  const MvSpace& space = fsm.space();
  for (size_t l = 0; l < fsm.numLatches(); ++l) {
    for (BddVar b : space.bits(fsm.stateVar(l)))
      x2Bits.push_back(bisim.shadowMap[b]);
  }
  return mgr.andExists(bisim.equivalence, rep2, mgr.cube(x2Bits));
}

}  // namespace hsis
