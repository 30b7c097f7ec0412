// Dynamic variable reordering by sifting (Rudell), plus explicit
// order-setting. Both are built on in-place adjacent-level swaps, which
// preserve node indices and node functions — so outstanding handles and
// cached operation results stay valid across a reordering.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/log.hpp"

namespace hsis {

size_t BddManager::swapAdjacentLevels(uint32_t l) {
  assert(l + 1 < numVars());
  BddVar u = invPerm_[l];
  BddVar v = invPerm_[l + 1];

  // Rewrite every live u-node that depends on v. A u-node whose children
  // avoid v simply migrates to level l+1 untouched; no parent link changes
  // because indices are stable. The low edge is regular by canonical-form
  // invariant; the high edge's complement bit propagates to its cofactors.
  size_t n = nodes_.size();
  for (uint32_t i = 2; i < n; ++i) {
    if (nodes_[i].var != u) continue;  // free slots carry var == kNoVar
    uint32_t lo = nodes_[i].lo, hi = nodes_[i].hi;
    assert(!eIsNeg(lo) && "canonical form: low edge must be regular");
    bool loDep = !isTerm(lo) && nodes_[lo].var == v;
    bool hiDep = !isTerm(hi) && nodes_[eIdx(hi)].var == v;
    if (!loDep && !hiDep) continue;

    uniqueRemove(i);
    uint32_t sh = eSign(hi);
    uint32_t f00 = loDep ? nodes_[lo].lo : lo;
    uint32_t f01 = loDep ? nodes_[lo].hi : lo;
    uint32_t f10 = hiDep ? nodes_[eIdx(hi)].lo ^ sh : hi;
    uint32_t f11 = hiDep ? nodes_[eIdx(hi)].hi ^ sh : hi;
    // All four grandchildren lie strictly below both levels, so the new
    // children cannot themselves require rewriting.
    uint32_t n0 = mkNode(u, f00, f10);
    uint32_t n1 = mkNode(u, f01, f11);
    assert(n0 != n1 && "node did not actually depend on v");
    assert(!eIsNeg(n0) && "swap result low edge must stay regular");
    nodes_[i].var = static_cast<NodeVar>(v);
    nodes_[i].lo = n0;
    nodes_[i].hi = n1;
    uniqueInsert(i);
  }

  invPerm_[l] = v;
  invPerm_[l + 1] = u;
  perm_[u] = l + 1;
  perm_[v] = l;
  return uniqueCount_;
}

void BddManager::sift() {
  if (numVars() < 2) return;
  obs::Span span("bdd.sift");
  gc();  // sweep dead nodes so sizes reflect live structure only
  const size_t nodesBefore = uniqueCount_;
  ScopedOp guard(this);  // no GC while raw swaps run

  uint32_t n = numVars();
  // Process variables in decreasing order of their level population:
  // the fattest levels have the most to gain.
  std::vector<size_t> levelSize(n, 0);
  for (uint32_t i = 2; i < nodes_.size(); ++i) {
    if (nodes_[i].var != kNoVar)
      levelSize[perm_[nodes_[i].var]]++;
  }
  std::vector<BddVar> vars(n);
  std::iota(vars.begin(), vars.end(), 0);
  std::sort(vars.begin(), vars.end(), [&](BddVar a, BddVar b) {
    return levelSize[perm_[a]] > levelSize[perm_[b]];
  });

  for (BddVar v : vars) {
    size_t startSize = uniqueCount_;
    size_t limit = static_cast<size_t>(static_cast<double>(startSize) * maxGrowth_) + 16;
    size_t best = startSize;
    uint32_t bestLevel = perm_[v];

    // Phase 1: sift down to the bottom (or until the growth limit).
    while (perm_[v] + 1 < n) {
      size_t s = swapAdjacentLevels(perm_[v]);
      if (s < best) {
        best = s;
        bestLevel = perm_[v];
      }
      if (s > limit) break;
    }
    // Phase 2: sift up to the top (or until the growth limit).
    while (perm_[v] > 0) {
      size_t s = swapAdjacentLevels(perm_[v] - 1);
      if (s <= best) {  // prefer higher position on ties (cheaper to reach)
        best = s;
        bestLevel = perm_[v];
      }
      if (s > limit) break;
    }
    // Phase 3: return to the best position seen.
    while (perm_[v] < bestLevel) swapAdjacentLevels(perm_[v]);
    while (perm_[v] > bestLevel) swapAdjacentLevels(perm_[v] - 1);
  }
  ++stats_.reorderings;
  obsReorderings_.add();
  HSIS_LOG_INFO("bdd.sift", "sifting pass complete",
                {{"nodes_before", nodesBefore},
                 {"nodes_after", uniqueCount_},
                 {"vars", numVars()}});
}

void BddManager::setOrder(const std::vector<BddVar>& order) {
  ScopedOp guard(this);
  // Bubble each requested variable to its target level, top-down. Variables
  // not mentioned keep their relative order below the mentioned ones.
  for (uint32_t target = 0; target < order.size(); ++target) {
    BddVar v = order[target];
    assert(v < numVars());
    while (perm_[v] > target) swapAdjacentLevels(perm_[v] - 1);
  }
  ++stats_.reorderings;
  obsReorderings_.add();
}

}  // namespace hsis
