// Structural queries: support, model counting, cube extraction, node counts.
// All walkers strip the complement bit before touching the arena and apply
// it when the query is polarity-sensitive (satCount, pickCube).
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>  // toDot only

namespace hsis {

void BddManager::supportRec(uint32_t f, std::vector<bool>& seen,
                            std::vector<bool>& inSupp) {
  uint32_t n = eIdx(f);  // support is polarity-independent
  if (isTerm(n) || seen[n]) return;
  seen[n] = true;
  inSupp[nodes_[n].var] = true;
  supportRec(nodes_[n].lo, seen, inSupp);
  supportRec(nodes_[n].hi, seen, inSupp);
}

std::vector<BddVar> BddManager::support(const Bdd& f) {
  // arenaEnd(), not nodes_.size(): in a shared phase the arena vector's
  // size marker can be mid-update by a grower, while the bump pointer is
  // an atomic snapshot that bounds every published node index.
  std::vector<bool> seen(arenaEnd(), false);
  std::vector<bool> inSupp(numVars(), false);
  supportRec(f.index(), seen, inSupp);
  std::vector<BddVar> out;
  // Report in order-of-levels so callers get a canonical sequence.
  for (uint32_t l = 0; l < numVars(); ++l) {
    BddVar v = invPerm_[l];
    if (inSupp[v]) out.push_back(v);
  }
  return out;
}

Bdd BddManager::supportCube(const Bdd& f) { return cube(support(f)); }

Bdd BddManager::cube(std::span<const BddVar> vars) {
  return cubeOf(std::vector<BddVar>(vars.begin(), vars.end()), {});
}

Bdd BddManager::cubeOf(std::vector<BddVar> vars,
                       std::span<const int8_t> phase) {
  assert(std::all_of(vars.begin(), vars.end(),
                     [&](BddVar v) { return v < perm_.size(); }));
  maybeGcOrSift();
  // Sort inside the op: the order cannot change until it ends.
  ScopedOp guard(this);
  std::sort(vars.begin(), vars.end(),
            [&](BddVar a, BddVar b) { return perm_[a] < perm_[b]; });
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  // Each new literal sits above everything built so far, so mkNode is the
  // whole cost: no apply, no cache, no rebuilt chain.
  uint32_t e = kOneEdge;
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    e = !phase.empty() && phase[*it] == 0 ? mkNode(*it, e, kZeroEdge)
                                          : mkNode(*it, kZeroEdge, e);
  }
  return makeHandle(e);
}

std::vector<double> BddManager::satDensities(std::span<const Bdd> roots,
                                             std::vector<char>& inSupp) {
  // The satisfying-assignment *density* of each root: the fraction of all
  // assignments (over any space covering the support) that satisfy it.
  // Level-independent — each node contributes 0.5*(lo + hi) regardless of
  // how many levels its children skip — which is why the caller must check
  // that the requested space actually covers the support. Memoized per
  // *edge*: a complemented edge pushes its sign onto the children
  // (¬ITE(v,h,l) = ITE(v,¬h,¬l)), so densities are only ever added and
  // halved. Reading 1 - d instead cancels catastrophically once d is close
  // to 1 (a small set under a complement edge). An edge's density is a
  // pure function of the edge, so one memo serves every root and each
  // result is bit-for-bit what a walk of that root alone returns. Support
  // variables are marked as a side effect, giving the caller the validity
  // check for free (same walk).
  std::unordered_map<uint32_t, double> memo;
  auto rec = [&](auto&& self, uint32_t e) -> double {
    uint32_t n = eIdx(e);
    if (isTerm(n)) return eIsNeg(e) ? 0.0 : 1.0;
    auto it = memo.find(e);
    if (it != memo.end()) return it->second;
    inSupp[nodes_[n].var] = 1;
    uint32_t s = eSign(e);
    double d = 0.5 * (self(self, nodes_[n].lo ^ s) + self(self, nodes_[n].hi ^ s));
    memo.emplace(e, d);
    return d;
  };
  std::vector<double> out;
  out.reserve(roots.size());
  for (const Bdd& f : roots) out.push_back(rec(rec, f.index()));
  return out;
}

double BddManager::satCount(const Bdd& f, uint32_t nvars) {
  return satCounts(std::span<const Bdd>(&f, 1), nvars)[0];
}

std::vector<double> BddManager::satCounts(std::span<const Bdd> fs,
                                          uint32_t nvars) {
  std::vector<char> inSupp(numVars(), 0);
  std::vector<double> counts = satDensities(fs, inSupp);
  uint32_t suppSize = 0;
  for (char c : inSupp) suppSize += c != 0 ? 1u : 0u;
  if (suppSize > nvars)
    throw std::invalid_argument(
        "BddManager::satCount: function depends on " +
        std::to_string(suppSize) + " variables, more than the " +
        std::to_string(nvars) + "-variable space requested");
  // ldexp, not pow: exact scaling by a power of two up to the full double
  // exponent range (pow accumulates rounding above 2^53-ish inputs).
  for (double& c : counts) c = std::ldexp(c, static_cast<int>(nvars));
  return counts;
}

double BddManager::satCount(const Bdd& f, std::span<const BddVar> vars) {
  std::vector<char> allowed(numVars(), 0);
  uint32_t nvars = 0;
  for (BddVar v : vars) {
    if (v >= numVars())
      throw std::invalid_argument("BddManager::satCount: unknown variable " +
                                  std::to_string(v));
    if (allowed[v] == 0) ++nvars;  // duplicates count once
    allowed[v] = 1;
  }
  std::vector<char> inSupp(numVars(), 0);
  double density = satDensities(std::span<const Bdd>(&f, 1), inSupp)[0];
  for (BddVar v = 0; v < numVars(); ++v) {
    if (inSupp[v] != 0 && allowed[v] == 0)
      throw std::invalid_argument(
          "BddManager::satCount: support variable " + std::to_string(v) +
          " is outside the given variable set");
  }
  return std::ldexp(density, static_cast<int>(nvars));
}

std::vector<int8_t> BddManager::pickCube(const Bdd& f) {
  if (f.isNull() || f.isZero()) return {};
  std::vector<int8_t> out(numVars(), -1);
  uint32_t e = f.index();
  while (!isTerm(e)) {
    uint32_t n = eIdx(e), s = eSign(e);
    uint32_t lo = nodes_[n].lo ^ s;
    // Canonical form: a cofactor edge equals kZeroEdge iff that branch is
    // identically false, so any non-zero branch is satisfiable.
    if (lo != kZeroEdge) {
      out[nodes_[n].var] = 0;
      e = lo;
    } else {
      out[nodes_[n].var] = 1;
      e = nodes_[n].hi ^ s;
    }
  }
  assert(e == kOneEdge);
  return out;
}

Bdd BddManager::cubeFromAssignment(std::span<const int8_t> assign) {
  std::vector<BddVar> vars;
  for (uint32_t v = 0; v < assign.size() && v < numVars(); ++v) {
    if (assign[v] >= 0) vars.push_back(v);
  }
  return cubeOf(std::move(vars), assign);
}

uint32_t BddManager::beginVisit() const {
  // Epoch-stamped visitation: no hashing, no per-call clearing. The stamp
  // array trails the arena lazily; a wrapped epoch (once per 2^32 walks)
  // resets it wholesale.
  // Size from arenaEnd(), not nodes_.size(): during a shared phase the
  // vector's size field may be mid-update by a concurrent grower, while
  // the bump pointer is an atomic snapshot bounding every published index.
  size_t end = arenaEnd();
  if (visitStamp_.size() < end) visitStamp_.resize(end, 0);
  if (++visitEpoch_ == 0) {
    std::fill(visitStamp_.begin(), visitStamp_.end(), 0u);
    visitEpoch_ = 1;
  }
  return visitEpoch_;
}

size_t BddManager::countFrom(std::vector<uint32_t>& stack,
                             uint32_t epoch) const {
  size_t count = 0;
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (visitStamp_[n] == epoch) continue;
    visitStamp_[n] = epoch;
    ++count;
    if (!isTerm(n)) {
      stack.push_back(eIdx(nodes_[n].lo));
      stack.push_back(eIdx(nodes_[n].hi));
    }
  }
  return count;
}

size_t BddManager::nodeCount(const Bdd& f) const {
  // visitStamp_/visitEpoch_ are single-walker scratch; serialize counters.
  std::lock_guard<std::mutex> lk(visitMu_);
  uint32_t epoch = beginVisit();
  std::vector<uint32_t> stack{eIdx(f.index())};
  return countFrom(stack, epoch);
}

size_t BddManager::sharedNodeCount(std::span<const Bdd> roots) const {
  std::lock_guard<std::mutex> lk(visitMu_);
  uint32_t epoch = beginVisit();
  std::vector<uint32_t> stack;
  for (const Bdd& r : roots)
    if (!r.isNull()) stack.push_back(eIdx(r.index()));
  return countFrom(stack, epoch);
}

}  // namespace hsis
